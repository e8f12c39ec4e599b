"""Checkpoint-overhead guards.

Not a paper exhibit — these bound the cost of the crash-tolerance
machinery so enabling it never becomes a performance decision:

* running with ``checkpoint_every`` (the segmented run loop that makes
  signal checks and periodic snapshots possible) must stay within 5% of
  a plain run — segment boundaries clamp fast-forward jumps but must
  never inhibit them;
* a snapshot pickles the whole system, which keeps nothing per
  delivered packet or DRAM burst, so its cost does not grow with the
  horizon — the second test pins it against the simulation it protects
  so a sparse cadence stays cheap at any horizon.
"""

import time

from conftest import paired_overhead
from repro.core.system import build_system
from repro.sim.checkpoint import load_checkpoint, save_checkpoint
from repro.sim.config import NocDesign, SystemConfig

CONFIG = SystemConfig(
    app="single_dtv", cycles=1_000_000, warmup=2_000,
    design=NocDesign.GSS_SAGM,
)


def test_checkpoint_machinery_overhead_bounded():
    """run(checkpoint_every=...) must cost <= 5% over a plain run.

    This is the cost every checkpointing ``repro run`` pays on *every*
    segment: the run loop re-enters once per 1000 cycles (the CLI's
    signal-poll cadence) and invokes the callback.  No snapshot is
    written here — save cost is cadence policy, measured separately —
    so the guard isolates the segmentation machinery itself.  Fresh
    systems are compared in alternated pairs
    (:func:`conftest.paired_overhead`).
    """

    def no_save(cycle):
        return False

    def plain():
        system = build_system(CONFIG)
        return lambda: system.simulator.run(4_000)

    def segmented():
        system = build_system(CONFIG)
        return lambda: system.simulator.run(
            4_000, checkpoint_every=1_000, on_checkpoint=no_save
        )

    overhead = paired_overhead(plain, segmented)
    assert overhead <= 1.05, (
        f"segmented run is {overhead:.3f}x the plain run "
        "(median of 10 pairs of 4k cycles)"
    )


def test_snapshot_cost_amortizes_below_5pct_at_sparse_cadence(tmp_path):
    """One snapshot per >= 4x its own simulation horizon costs <= 5%.

    A snapshot pickles the whole system.  With no per-request store
    enabled (``keep_samples``, a recording tracer) its size does not
    depend on the cycle, so its cost is about the same at any cycle
    while the simulation between snapshots grows with the cadence.
    This test pins the ratio: the wall clock of saving the state
    produced by h cycles stays well under the wall clock of simulating
    those h cycles, so any cadence that re-simulates at least ~4x the
    save's own horizon between snapshots (the metrics runner's
    ``cycles // 4`` default is 4 interior segments) keeps amortized
    overhead within a few percent — at 12k cycles, and lower still at
    every longer horizon.
    """
    system = build_system(CONFIG)
    start = time.perf_counter()
    system.simulator.run(12_000)
    run_s = time.perf_counter() - start

    path = tmp_path / "bench.ckpt"
    save_times = []
    for _ in range(3):
        start = time.perf_counter()
        save_checkpoint(path, system)
        save_times.append(time.perf_counter() - start)
    save_s = min(save_times)

    # Saving 12k cycles of state must cost <= 20% of simulating them:
    # at the runner's cycles//4 cadence (4 segments per run) the
    # amortized overhead is then <= 5% of total run time.
    ratio = save_s / run_s
    assert ratio <= 0.20, (
        f"snapshot of a 12k-cycle run cost {save_s:.3f}s = {ratio:.1%} "
        f"of the {run_s:.3f}s simulation it protects (budget 20%)"
    )

    # And the snapshot is actually usable (guard against measuring a
    # fast-but-broken write path).
    restored = load_checkpoint(path)
    assert restored.simulator.cycle == system.simulator.cycle
