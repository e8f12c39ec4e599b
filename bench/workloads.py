"""The benchmark's workloads: four paper configurations that load
different layers of the simulator.

Each workload is one :class:`~repro.sim.config.SystemConfig` run as a
batch for a fixed horizon of simulated cycles.  There are no host-side
arrivals: every core of the application model is a closed loop with at
most ``max_outstanding`` (4) requests in flight and the app model's
think-time gaps between issues.  Buffers start empty; model statistics
skip the config's ``warmup`` cycles, host timing covers the whole
horizon.  The seed is the only input the benchmark varies.

This module must stay importable without ``repro`` on the path: the
parent process reads names and horizons from it, and only the child
processes build configs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

#: Simulated cycles per timed chunk (``chunk_ms`` is per chunk).
CHUNK_CYCLES = 1000

#: Smallest horizon a scaled run may use: it must exceed the config's
#: 2000-cycle warm-up with traffic left to measure.
MIN_CYCLES = 3000


@dataclass(frozen=True)
class Workload:
    name: str
    #: Horizon in simulated cycles at ``--cycles-scale 1``.
    cycles: int
    why: str
    #: Keyword arguments for ``SystemConfig`` (``seed``/``cycles`` aside),
    #: built lazily so this module never imports ``repro``.
    options: Callable[[], Dict[str, object]]

    def horizon(self, scale: float = 1.0) -> int:
        cycles = round(self.cycles * scale / CHUNK_CYCLES) * CHUNK_CYCLES
        return max(MIN_CYCLES, cycles)

    def config(self, seed: int, cycles: int):
        from repro import SystemConfig

        return SystemConfig(seed=seed, cycles=cycles, **self.options())


def _gss_prio_dual():
    from repro import DdrGeneration, NocDesign

    return dict(app="dual_dtv", ddr=DdrGeneration.DDR2, clock_mhz=400,
                design=NocDesign.GSS_SAGM, priority_enabled=True, pct=5)


def _conv_dual():
    from repro import DdrGeneration, NocDesign

    return dict(app="dual_dtv", ddr=DdrGeneration.DDR2, clock_mhz=400,
                design=NocDesign.CONV)


def _gss_sti_bluray_ddr3():
    from repro import DdrGeneration, NocDesign

    # The Table III cell: three GSS routers running the Fig. 4(b) filter.
    return dict(app="bluray", ddr=DdrGeneration.DDR3, clock_mhz=533,
                design=NocDesign.GSS_SAGM, priority_enabled=True, sti=True,
                num_gss_routers=3)


def _faulty_checked():
    from repro import DdrGeneration, FaultConfig, NocDesign

    return dict(app="single_dtv", ddr=DdrGeneration.DDR2, clock_mhz=333,
                design=NocDesign.GSS_SAGM, faults=FaultConfig.uniform(2e-3),
                check_invariants=True)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "gss_prio_dual", 70_000,
            "Largest mesh (4x4, 15 cores) with the full GSS+SAGM mechanism "
            "and priority on: router plan/commit, the GSS filter chain and "
            "the token table do most of the work.",
            _gss_prio_dual,
        ),
        Workload(
            "conv_dual", 160_000,
            "Same traffic and fabric as gss_prio_dual with the GSS filter, "
            "tokens and SAGM bypassed: a GSS-layer change must show no "
            "change here; DRAM engine, MemMax and dispatch lead.",
            _conv_dual,
        ),
        Workload(
            "gss_sti_bluray_ddr3", 110_000,
            "GSS with the STI check live on a 3x3 mesh (Table III cell), SAGM "
            "splitting at 8 beats and write-heavy H.264 turnarounds: highest "
            "DRAM-controller share, lowest router share of the GSS workloads.",
            _gss_sti_bluray_ddr3,
        ),
        Workload(
            "faulty_checked", 60_000,
            "Faults at 2e-3 with the invariant checker on: the only run of "
            "the stepped kernel tier and the resilience stack, so a change "
            "to either shows here and nowhere else.",
            _faulty_checked,
        ),
    )
}
