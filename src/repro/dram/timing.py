"""JEDEC-style DDR timing parameter sets.

The paper evaluates DDR I SDRAM at 133–200 MHz, DDR II at 266–400 MHz, and
DDR III at 533–800 MHz (memory-clock frequencies; the data bus moves two
beats per clock).  Timing constraints are physical (nanosecond) quantities,
so the cycle counts grow with clock frequency — which is exactly why the
paper finds bank conflicts and short turn-around bank interleaving far more
expensive on DDR III at 800 MHz than on DDR I at 133 MHz.

We therefore store the analog constraints in nanoseconds and derive cycle
counts for a given clock, with per-generation minimum cycle counts for the
constraints that are specified in cycles (CL, tCCD, tWTR).  The derived
DDR III numbers reproduce the paper's example: at 800 MHz it takes
``tWR + tRP = 12 + 11 = 23`` cycles to deactivate a bank after a write
(Section IV-B).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..sim.config import DdrGeneration


@dataclass(frozen=True)
class AnalogTiming:
    """Generation-level constraints in nanoseconds / minimum cycles."""

    ras_to_cas_ns: float        # tRCD
    row_precharge_ns: float     # tRP
    row_active_min_ns: float    # tRAS
    write_recovery_ns: float    # tWR
    cas_latency_ns: float       # CL as an analog latency
    min_cas_latency_cycles: int
    min_ccd_cycles: int         # CAS-to-CAS minimum (tCCD)
    min_wtr_cycles: int         # write-to-read turnaround (tWTR)
    wtr_ns: float
    banks: int
    supported_burst_beats: tuple


GENERATION_TIMING = {
    # DDR I: BL 2/4/8, 4 banks, CL ~= 15 ns (CL3 @ 200 MHz), tCCD = 1.
    DdrGeneration.DDR1: AnalogTiming(
        ras_to_cas_ns=15.0,
        row_precharge_ns=15.0,
        row_active_min_ns=40.0,
        write_recovery_ns=15.0,
        cas_latency_ns=15.0,
        min_cas_latency_cycles=2,
        min_ccd_cycles=1,
        min_wtr_cycles=1,
        wtr_ns=7.5,
        banks=4,
        supported_burst_beats=(2, 4, 8),
    ),
    # DDR II: BL 4/8, 8 banks, tCCD = 2.
    DdrGeneration.DDR2: AnalogTiming(
        ras_to_cas_ns=15.0,
        row_precharge_ns=15.0,
        row_active_min_ns=45.0,
        write_recovery_ns=15.0,
        cas_latency_ns=15.0,
        min_cas_latency_cycles=3,
        min_ccd_cycles=2,
        min_wtr_cycles=2,
        wtr_ns=7.5,
        banks=8,
        supported_burst_beats=(4, 8),
    ),
    # DDR III: BL 4(chop)/8 with OTF, 8 banks, tCCD = 4 — the tCCD=4 floor is
    # why SAGM gains less on DDR III (Section V-A).
    DdrGeneration.DDR3: AnalogTiming(
        ras_to_cas_ns=13.75,
        row_precharge_ns=13.75,
        row_active_min_ns=35.0,
        write_recovery_ns=15.0,
        cas_latency_ns=13.75,
        min_cas_latency_cycles=5,
        min_ccd_cycles=4,
        min_wtr_cycles=4,
        wtr_ns=7.5,
        banks=8,
        supported_burst_beats=(4, 8),
    ),
}


#: JEDEC all-bank refresh cycle time, tRFC (DDR2/3-class).
T_RFC_NS = 127.5


def _cycles(ns: float, clock_mhz: float, minimum: int = 1) -> int:
    """Convert a nanosecond constraint to (ceiling) clock cycles."""
    period_ns = 1000.0 / clock_mhz
    return max(minimum, math.ceil(round(ns / period_ns, 9)))


@dataclass(frozen=True)
class DramTiming:
    """All timing constraints of one device at one clock, in cycles."""

    generation: DdrGeneration
    clock_mhz: int
    banks: int
    t_rcd: int          # ACT -> READ/WRITE, same bank
    t_rp: int           # PRE -> ACT, same bank
    t_ras: int          # ACT -> PRE, same bank (minimum open time)
    t_wr: int           # end of write data -> PRE, same bank
    t_ccd: int          # CAS -> CAS, any bank
    t_wtr: int          # end of write data -> READ, any bank
    t_rtw: int          # READ -> WRITE bus-turnaround gap (data contention)
    cas_latency: int    # READ -> first data beat
    write_latency: int  # WRITE -> first data beat
    t_rrd: int          # ACT -> ACT, different banks
    t_rfc: int          # REF busy time: no ACT or REF within it
    supported_burst_beats: tuple

    @classmethod
    def for_clock(cls, generation: DdrGeneration, clock_mhz: int) -> "DramTiming":
        if clock_mhz <= 0:
            raise ValueError("clock_mhz must be positive")
        analog = GENERATION_TIMING[generation]
        cl = _cycles(
            analog.cas_latency_ns, clock_mhz, minimum=analog.min_cas_latency_cycles
        )
        if generation is DdrGeneration.DDR1:
            wl = 1                      # DDR I: write latency fixed at 1
        elif generation is DdrGeneration.DDR2:
            wl = max(1, cl - 1)         # DDR II: WL = CL - 1
        else:
            wl = max(1, cl - 2)         # DDR III: CWL a couple below CL
        return cls(
            generation=generation,
            clock_mhz=clock_mhz,
            banks=analog.banks,
            t_rcd=_cycles(analog.ras_to_cas_ns, clock_mhz),
            t_rp=_cycles(analog.row_precharge_ns, clock_mhz),
            t_ras=_cycles(analog.row_active_min_ns, clock_mhz),
            t_wr=_cycles(analog.write_recovery_ns, clock_mhz),
            t_ccd=analog.min_ccd_cycles,
            t_wtr=_cycles(analog.wtr_ns, clock_mhz, minimum=analog.min_wtr_cycles),
            t_rtw=2,
            cas_latency=cl,
            write_latency=wl,
            t_rrd=_cycles(7.5, clock_mhz, minimum=2),
            t_rfc=_cycles(T_RFC_NS, clock_mhz),
            supported_burst_beats=analog.supported_burst_beats,
        )

    def burst_cycles(self, burst_beats: int) -> int:
        """Data-bus occupancy of one burst (2 beats per cycle, DDR)."""
        if burst_beats <= 0:
            raise ValueError("burst must transfer at least one beat")
        return max(1, (burst_beats + 1) // 2)

    @property
    def write_to_precharge(self) -> int:
        """Cycles from last write data beat until the bank may re-activate:
        the paper's short-turnaround write penalty ``tWR + tRP``."""
        return self.t_wr + self.t_rp

    @property
    def read_to_precharge(self) -> int:
        """Cycles from last read data beat until the bank may re-activate."""
        return self.t_rp

    def validate_burst(self, burst_beats: int) -> None:
        if burst_beats not in self.supported_burst_beats:
            raise ValueError(
                f"{self.generation.value} does not support BL{burst_beats} "
                f"(supported: {self.supported_burst_beats})"
            )
