"""Benchmark configuration and the paired-timing helper.

Each benchmark regenerates one paper exhibit at a reduced but meaningful
horizon (the paper uses 1 M RTL cycles; pure-Python cycle simulation runs
~10^3x slower, and the reported metrics are time-averages that stabilize
well below the default here).  Set ``REPRO_BENCH_CYCLES`` /
``REPRO_BENCH_SEEDS`` to trade time for tighter numbers.

The overhead guards time through :func:`paired_overhead`.
"""

import gc
import os
import statistics
import time

BENCH_CYCLES = int(os.environ.get("REPRO_BENCH_CYCLES", 12_000))
BENCH_WARMUP = max(500, BENCH_CYCLES // 6)
BENCH_SEEDS = tuple(
    int(s) for s in os.environ.get("REPRO_BENCH_SEEDS", "2010").split(",")
)


def paired_overhead(base, change, pairs=10):
    """Median over ``pairs`` pairs of the ratio of ``change``'s wall time
    to ``base``'s.

    ``base`` and ``change`` each build a fresh workload and return the
    zero-argument callable to time, so no side runs on a system that an
    earlier trial warmed or aged.  The side that runs first alternates
    from pair to pair, and the median discards pairs that a burst of
    host load hit on one side only.
    """
    ratios = []
    for pair in range(pairs):
        runs = (base(), change())
        seconds = [0.0, 0.0]
        for side in (0, 1) if pair % 2 == 0 else (1, 0):
            gc.collect()
            start = time.perf_counter()
            runs[side]()
            seconds[side] = time.perf_counter() - start
        ratios.append(seconds[1] / seconds[0])
    return statistics.median(ratios)
