"""Overhead guards on the simulator's observability hooks.

A disabled tracer and a telemetry sampler must each cost at most 5% of
an unobserved run, and a disabled tracer must add no Python call at all.
The timing guards compare fresh systems in alternated pairs
(:func:`conftest.paired_overhead`); the last test shows that this
comparison fails a real 10% overhead.  CI runs these guards by node ID.
Simulator speed itself is measured by the repository benchmark,
``python3 -m bench`` (see ``bench/README.md``).
"""

import sys
import time

from conftest import paired_overhead
from repro.core.system import build_system
from repro.obs import NullTracer
from repro.sim.config import NocDesign, SystemConfig

CONFIG = SystemConfig(app="single_dtv", cycles=100_000,
                      design=NocDesign.GSS_SAGM)


def _stepper(system, cycles=2_000):
    """The timed trial: ``cycles`` stepped cycles of ``system``."""
    step = system.simulator.step

    def run():
        for _ in range(cycles):
            step()

    return run


def test_null_tracer_overhead_bounded():
    """A disabled tracer must not slow the simulator down.

    Every emission site guards with ``if tracer:``, and a system stores
    a falsy tracer as ``None``, so the hot path with a NullTracer
    attached must stay within 5% of the untraced baseline.
    """
    overhead = paired_overhead(
        lambda: _stepper(build_system(CONFIG)),
        lambda: _stepper(build_system(CONFIG, tracer=NullTracer())),
    )
    assert overhead <= 1.05, (
        f"NullTracer path is {overhead:.3f}x the untraced baseline "
        "(median of 10 pairs of 2k stepped cycles)"
    )


def test_null_tracer_adds_no_python_calls():
    """Deterministic twin of the timing guard above.

    Over 2,000 stepped cycles a system built with a ``NullTracer`` makes
    exactly as many Python function calls as an untraced one: the system
    stores a falsy tracer as ``None``, so no emission site calls
    ``NullTracer.__bool__``.
    """
    def python_calls(system, cycles=2_000):
        calls = 0

        def profile(frame, event, arg):
            nonlocal calls
            if event == "call":
                calls += 1

        step = system.simulator.step
        sys.setprofile(profile)
        try:
            for _ in range(cycles):
                step()
        finally:
            sys.setprofile(None)
        return calls

    untraced = python_calls(build_system(CONFIG))
    traced = python_calls(build_system(CONFIG, tracer=NullTracer()))
    assert traced == untraced, (
        f"NullTracer system made {traced - untraced:+d} Python calls over "
        f"the untraced one's {untraced}"
    )


def test_sampler_overhead_bounded():
    """Telemetry sampling at the CI interval must cost at most 5%.

    The sampler ticks only at window boundaries (one cheap comparison
    per stepped cycle, one wake per window under event dispatch), so a
    system with a 1000-cycle sampler attached must stay within 5% of the
    unsampled baseline — the same guard discipline as the NullTracer.
    """

    def sampled():
        system = build_system(CONFIG)
        sampler = system.attach_sampler(1_000)
        run = _stepper(system)

        def run_and_check():
            run()
            assert sampler.emitted > 0

        return run_and_check

    overhead = paired_overhead(lambda: _stepper(build_system(CONFIG)), sampled)
    assert overhead <= 1.05, (
        f"sampler path is {overhead:.3f}x the unsampled baseline "
        "(median of 10 pairs of 2k stepped cycles)"
    )


class BusyWait:
    """Tick-only component that spins for ``seconds`` every cycle."""

    def __init__(self, seconds):
        self.seconds = seconds

    def tick(self, cycle):
        end = time.perf_counter() + self.seconds
        while time.perf_counter() < end:
            pass


def test_paired_overhead_fails_an_injected_ten_percent():
    """The guards' timing can fail: a component that busy-waits a tenth
    of a measured step every cycle reads above the 1.05 bound."""
    probe = _stepper(build_system(CONFIG))
    start = time.perf_counter()
    probe()
    step_seconds = (time.perf_counter() - start) / 2_000

    def injected():
        system = build_system(CONFIG)
        system.simulator.add(BusyWait(step_seconds / 10))
        return _stepper(system)

    overhead = paired_overhead(lambda: _stepper(build_system(CONFIG)), injected)
    assert overhead > 1.05, (
        f"a 10% injected overhead read {overhead:.3f}x, within the bound"
    )
