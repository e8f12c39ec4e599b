"""The utilization denominator is the simulator clock.

``StatsCollector.observed_cycles`` reads ``max(0, cycle - warmup)`` off
the system's simulator instead of counting cycles as components tick.
Every way of advancing a system must therefore leave it equal to that
and reproduce a straight event run's metrics: event runs in chunks, a
naive run, ``step()`` between event runs, a resumed snapshot, and a
drain whose quiet tail event dispatch jumps.  Each holds for every
memory-arbiter backend, clean and with faults.
"""

import dataclasses
import functools

import pytest

from repro.core.system import build_system
from repro.resilience.faults import FaultConfig
from repro.sim.checkpoint import load_checkpoint, save_checkpoint
from repro.sim.config import SystemConfig
from repro.sim.stats import RunMetrics

CYCLES = 2_500
WARMUP = 400
BACKENDS = ("engine", "memmax", "databahn", "dpq", "bank-reg")
FAULT_MODES = {"clean": None, "faulty": FaultConfig.uniform(1e-3)}


def _build(arbiter, mode):
    return build_system(SystemConfig(
        app="bluray", cycles=CYCLES, warmup=WARMUP, seed=2010,
        arbiter=arbiter, faults=FAULT_MODES[mode],
    ))


def _metrics(system) -> dict:
    return dataclasses.asdict(RunMetrics.from_collector(
        system.stats, system.simulator.cycle, scheduler=system.subsystem
    ))


def _assert_clock(system) -> None:
    expected = max(0, system.simulator.cycle - WARMUP)
    assert system.stats.observed_cycles == expected


@functools.lru_cache(maxsize=None)
def _straight(arbiter, mode) -> dict:
    system = _build(arbiter, mode)
    system.simulator.run(CYCLES)
    return _metrics(system)


def _chunked(system, tmp_path):
    # The first chunk ends inside warm-up.
    for chunk in (WARMUP // 2, 900, CYCLES - WARMUP // 2 - 900):
        system.simulator.run(chunk)
        _assert_clock(system)
    return system


def _naive(system, tmp_path):
    system.simulator.idle_skip = False
    system.simulator.run(CYCLES)
    return system


def _stepped(system, tmp_path):
    # Cycles step() ticked between two event runs count once.
    simulator = system.simulator
    simulator.run(WARMUP + 300)
    for _ in range(500):
        simulator.step()
    _assert_clock(system)
    simulator.run(CYCLES - simulator.cycle)
    return system


def _resumed(system, tmp_path):
    system.simulator.run(1_000)
    restored = load_checkpoint(save_checkpoint(tmp_path / "mid.ckpt", system))
    _assert_clock(restored)
    restored.simulator.run(CYCLES - 1_000)
    return restored


ADVANCES = {
    "chunked": _chunked,
    "naive": _naive,
    "stepped": _stepped,
    "resumed": _resumed,
}


@pytest.mark.parametrize("advance", list(ADVANCES))
@pytest.mark.parametrize("mode", list(FAULT_MODES))
@pytest.mark.parametrize("arbiter", BACKENDS)
def test_every_advance_reads_the_clock(tmp_path, arbiter, mode, advance):
    system = ADVANCES[advance](_build(arbiter, mode), tmp_path)
    assert system.simulator.cycle == CYCLES
    _assert_clock(system)
    assert _metrics(system) == _straight(arbiter, mode)


@pytest.mark.parametrize("mode", list(FAULT_MODES))
@pytest.mark.parametrize("arbiter", BACKENDS)
def test_drain_reads_the_clock(arbiter, mode):
    """After a drain and a quiet tail, which event dispatch jumps and
    naive stepping ticks, both read the same clock and metrics."""
    observed = {}
    for idle_skip in (True, False):
        system = _build(arbiter, mode)
        system.simulator.idle_skip = idle_skip
        system.run(CYCLES)
        assert system.drain()
        before = system.simulator.fast_forwarded_cycles
        system.simulator.run(500)
        jumped = system.simulator.fast_forwarded_cycles - before
        assert (jumped > 0) == idle_skip
        _assert_clock(system)
        observed[idle_skip] = _metrics(system)
    assert observed[True] == observed[False]
