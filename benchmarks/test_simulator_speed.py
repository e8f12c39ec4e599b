"""Overhead guards on the simulator's observability hooks.

A disabled tracer and a telemetry sampler must each cost at most 5% of
an unobserved run.  CI runs both guards by node ID.  Simulator speed
itself is measured by the repository benchmark, ``python3 -m bench``
(see ``bench/README.md``).
"""

import time

from repro.core.system import build_system
from repro.obs import NullTracer
from repro.sim.config import NocDesign, SystemConfig


def test_null_tracer_overhead_bounded():
    """A disabled tracer must not slow the simulator down.

    Every emission site guards with ``if tracer:`` — falsy for both
    ``None`` and ``NullTracer`` — so the hot path with a NullTracer
    attached must stay within 5% of the untraced baseline.  Interleaved
    min-of-trials timing keeps the comparison robust on noisy CI hosts.
    """
    config = SystemConfig(app="single_dtv", cycles=100_000,
                          design=NocDesign.GSS_SAGM)
    baseline = build_system(config)
    traced = build_system(config, tracer=NullTracer())

    def time_chunk(system, cycles=2_000):
        start = time.perf_counter()
        for _ in range(cycles):
            system.simulator.step()
        return time.perf_counter() - start

    # warm both systems past startup transients (and JIT-ish dict warmup)
    time_chunk(baseline)
    time_chunk(traced)

    baseline_times, traced_times = [], []
    for _ in range(5):
        baseline_times.append(time_chunk(baseline))
        traced_times.append(time_chunk(traced))
    baseline_best = min(baseline_times)
    traced_best = min(traced_times)

    overhead = traced_best / baseline_best
    assert overhead <= 1.05, (
        f"NullTracer path is {overhead:.3f}x the untraced baseline "
        f"({traced_best:.4f}s vs {baseline_best:.4f}s per 2k cycles)"
    )


def test_sampler_overhead_bounded():
    """Telemetry sampling at the CI interval must cost at most 5%.

    The sampler ticks only at window boundaries (one cheap comparison
    per stepped cycle, one wake per window under event dispatch), so a
    system with a 1000-cycle sampler attached must stay within 5% of the
    unsampled baseline — the same guard discipline as the NullTracer.
    Interleaved min-of-trials timing keeps the comparison robust.
    """
    config = SystemConfig(app="single_dtv", cycles=1_000_000,
                          design=NocDesign.GSS_SAGM)
    baseline = build_system(config)
    sampled = build_system(config)
    sampled.attach_sampler(1_000)

    def time_chunk(system, cycles=2_000):
        start = time.perf_counter()
        for _ in range(cycles):
            system.simulator.step()
        return time.perf_counter() - start

    time_chunk(baseline)
    time_chunk(sampled)

    baseline_times, sampled_times = [], []
    for _ in range(5):
        baseline_times.append(time_chunk(baseline))
        sampled_times.append(time_chunk(sampled))
    baseline_best = min(baseline_times)
    sampled_best = min(sampled_times)

    overhead = sampled_best / baseline_best
    assert overhead <= 1.05, (
        f"sampler path is {overhead:.3f}x the unsampled baseline "
        f"({sampled_best:.4f}s vs {baseline_best:.4f}s per 2k cycles)"
    )
    assert sampled.sampler.emitted > 0
