"""Experiment configuration.

A :class:`SystemConfig` fully describes one simulated system: the
application model (which cores, where they sit on the mesh), the SDRAM
generation and clock, the NoC design under test, and the run length.  The
experiment drivers in :mod:`repro.experiments` enumerate these configs to
regenerate every table and figure of the paper.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Optional


class ConfigError(ValueError):
    """An invalid configuration value, caught at construction time.

    ``field`` names the offending configuration field so failures surface
    at the call site that built the config, not deep inside a run.
    """

    def __init__(self, field: str, message: str) -> None:
        super().__init__(f"{field}: {message}")
        self.field = field


class NocDesign(enum.Enum):
    """The NoC designs compared in the paper's evaluation (Section V)."""

    CONV = "conv"                    # round-robin routers + MemMax/Databahn subsystem
    CONV_PFS = "conv+pfs"            # CONV with priority-first service
    SDRAM_AWARE = "sdram-aware"      # baseline [4]: SDRAM-aware routers
    SDRAM_AWARE_PFS = "sdram-aware+pfs"  # [4] with priority-first service
    GSS = "gss"                      # this paper: guaranteed SDRAM service router
    GSS_SAGM = "gss+sagm"            # GSS + access-granularity matching

    @property
    def uses_gss_router(self) -> bool:
        return self in (NocDesign.GSS, NocDesign.GSS_SAGM)

    @property
    def uses_sagm(self) -> bool:
        return self is NocDesign.GSS_SAGM

    @property
    def uses_pfs(self) -> bool:
        return self in (NocDesign.CONV_PFS, NocDesign.SDRAM_AWARE_PFS)


class DdrGeneration(enum.Enum):
    """DDR SDRAM generations evaluated in the paper."""

    DDR1 = "ddr1"
    DDR2 = "ddr2"
    DDR3 = "ddr3"

    @property
    def sagm_granularity_beats(self) -> int:
        """SAGM split granularity in beats (Section IV-C): packets of
        'BL 2' (two data cycles = 4 beats) for DDR I/II in device BL 4 mode,
        'BL 4' (8 beats) for DDR III in BL 8 OTF mode."""
        return 4 if self in (DdrGeneration.DDR1, DdrGeneration.DDR2) else 8


@dataclass(frozen=True)
class SystemConfig:
    """Complete description of one simulated system configuration."""

    app: str = "single_dtv"           # bluray | single_dtv | dual_dtv
    ddr: DdrGeneration = DdrGeneration.DDR2
    clock_mhz: int = 333              # memory (and NoC) clock in MHz
    design: NocDesign = NocDesign.GSS_SAGM
    priority_enabled: bool = False    # Table I: False; Table II / Fig 8: True
    pct: int = 5                      # priority control token (Algorithm 1, line 9)
    sti: bool = False                 # Fig. 4(b) short-turnaround filter (Table III)
    num_gss_routers: Optional[int] = None  # None = all on memory path (Fig. 8 sweep)
    cycles: int = 20_000
    warmup: int = 2_000
    seed: int = 2010                  # DAC 2010 — deterministic workloads
    #: Endpoint (NI injection / ejection) buffer size: must hold the
    #: largest whole packet (a 64-beat transfer = 32 flits).
    input_buffer_flits: int = 64
    #: Inter-router input buffer size.  Shallow link buffers keep queueing
    #: at arbitration points, where priority packets can overtake; deep
    #: ones would accumulate head-of-line blocking priority cannot bypass.
    link_buffer_flits: int = 12
    #: Use minimal-adaptive west-first routing instead of deterministic XY
    #: (Section IV-A allows either; the paper's experiments use XY).
    adaptive_routing: bool = False
    #: Virtual channels per inter-router input port (Section IV-A names
    #: wormhole and virtual-channel buffering; the paper's experiments use
    #: wormhole = 1 VC).  With 2, the second lane is reserved for priority
    #: packets, removing same-FIFO head-of-line blocking.
    virtual_channels: int = 1
    #: Fault injection and protection knobs (:class:`repro.resilience.faults
    #: .FaultConfig`).  ``None`` — the default — builds no resilience
    #: machinery at all: results are bit-identical to a pre-resilience
    #: system and the hot path pays nothing.
    faults: Optional[object] = None
    #: Register the :class:`repro.resilience.invariants.InvariantChecker`
    #: as the last simulator component (token/credit conservation,
    #: packet-age bound).
    check_invariants: bool = False
    #: Memory-arbiter backend, by registry name (see
    #: :mod:`repro.dram.scheduler`): ``engine`` | ``memmax`` |
    #: ``databahn`` | ``dpq`` | ``bank-reg``, or any user-registered
    #: backend.  ``None`` — the default — keeps the paper's
    #: design-matched subsystem (MemMax/Databahn for CONV designs, the
    #: thin Fig. 6 controller otherwise).
    arbiter: Optional[str] = None

    def __post_init__(self) -> None:
        if not isinstance(self.design, NocDesign):
            raise ConfigError(
                "design",
                f"unknown NoC design {self.design!r}; "
                f"choose a NocDesign ({[d.value for d in NocDesign]})",
            )
        if not isinstance(self.ddr, DdrGeneration):
            raise ConfigError(
                "ddr",
                f"unknown DDR generation {self.ddr!r}; "
                f"choose a DdrGeneration ({[g.value for g in DdrGeneration]})",
            )
        if not 1 <= self.pct <= 6:
            raise ConfigError("pct", f"PCT must be in 1..6, got {self.pct}")
        if self.cycles <= 0:
            raise ConfigError(
                "cycles", f"cycle count must be positive, got {self.cycles}"
            )
        if not 0 <= self.warmup < self.cycles:
            raise ConfigError(
                "warmup",
                f"warmup must be in [0, cycles), got {self.warmup} "
                f"with cycles={self.cycles}",
            )
        if self.clock_mhz <= 0:
            raise ConfigError(
                "clock_mhz", f"clock must be positive, got {self.clock_mhz}"
            )
        if self.input_buffer_flits <= 0:
            raise ConfigError(
                "input_buffer_flits",
                f"buffer depth must be positive, got {self.input_buffer_flits}",
            )
        if self.link_buffer_flits <= 0:
            raise ConfigError(
                "link_buffer_flits",
                f"buffer depth must be positive, got {self.link_buffer_flits}",
            )
        if not 1 <= self.virtual_channels <= 2:
            raise ConfigError(
                "virtual_channels",
                "virtual channels must be 1 or 2, "
                f"got {self.virtual_channels}",
            )
        if self.num_gss_routers is not None and self.num_gss_routers < 0:
            raise ConfigError(
                "num_gss_routers",
                f"router count must be non-negative, got {self.num_gss_routers}",
            )
        if self.faults is not None:
            # Imported lazily: repro.resilience.faults imports this module
            # for ConfigError.
            from ..resilience.faults import FaultConfig

            if not isinstance(self.faults, FaultConfig):
                raise ConfigError(
                    "faults",
                    f"expected a repro.resilience.FaultConfig or None, "
                    f"got {self.faults!r}",
                )
        if self.arbiter is not None:
            # Imported lazily: the backend modules import this module for
            # SystemConfig.  Validating here turns a misspelled backend
            # name into a ConfigError at the call site instead of a deep
            # construction-time KeyError.
            from ..dram.subsystem import registered_backends

            if self.arbiter not in registered_backends():
                raise ConfigError(
                    "arbiter",
                    f"unknown memory-arbiter backend {self.arbiter!r}; "
                    f"registered: {registered_backends()}",
                )
        # Validate against the application registry (imported lazily so that
        # user-registered models in repro.workloads.apps.APP_MODELS count).
        from ..workloads.apps import APP_MODELS

        if self.app not in APP_MODELS:
            raise ConfigError(
                "app",
                f"unknown application model {self.app!r}; "
                f"registered: {sorted(APP_MODELS)}",
            )

    def with_(self, **changes) -> "SystemConfig":
        """Return a copy with ``changes`` applied (frozen-dataclass update)."""
        return replace(self, **changes)

    @property
    def label(self) -> str:
        tag = self.design.value
        if self.design.uses_gss_router and self.sti:
            tag += "+sti"
        if self.arbiter is not None:
            tag += f"/{self.arbiter}"
        return f"{self.app}/{self.ddr.value}@{self.clock_mhz}MHz/{tag}"


# The nine application/clock points used throughout Section V.
PAPER_CLOCK_POINTS = {
    "bluray": {
        DdrGeneration.DDR1: 133,
        DdrGeneration.DDR2: 266,
        DdrGeneration.DDR3: 533,
    },
    "single_dtv": {
        DdrGeneration.DDR1: 166,
        DdrGeneration.DDR2: 333,
        DdrGeneration.DDR3: 667,
    },
    "dual_dtv": {
        DdrGeneration.DDR1: 200,
        DdrGeneration.DDR2: 400,
        DdrGeneration.DDR3: 800,
    },
}


def paper_configs(design: NocDesign, priority: bool, **overrides):
    """Yield the nine (app × DDR generation) configs of Tables I/II."""
    for app, points in PAPER_CLOCK_POINTS.items():
        for ddr, mhz in points.items():
            yield SystemConfig(
                app=app,
                ddr=ddr,
                clock_mhz=mhz,
                design=design,
                priority_enabled=priority,
                **overrides,
            )
