"""Deterministic seeded fault injection.

:class:`FaultInjector` is the single source of every fault in a run.  It
draws from one independent :class:`random.Random` stream per
:class:`FaultSite` (derived with :func:`repro.sim.rng.derive_rng` from the
fault seed), so enabling one fault class never perturbs the sample
sequence — and therefore the injected fault pattern — of another, and the
same seed always reproduces the same faults cycle for cycle.

Fault model
-----------

* **Link corruption / drop** — sampled per flit-hop as a flit commits onto
  an inter-router (or router-to-NI) link.  Both poison the carrying
  packet: the flit still traverses and still consumes buffer space and
  credits (so wormhole bookkeeping and credit conservation are
  untouched), but the packet arrives with a failing CRC at the endpoint
  NI, which discards it and NACKs (see
  :class:`~repro.resilience.protection.ResilienceController`).  A *drop*
  is the lost-flit case — the CRC length check fails; a *corrupt* is a
  payload bit error.  They are counted separately but recovered the same
  way.
* **Buffer bit flip** — once per cycle at most: an SEU strikes a randomly
  chosen router input-buffer cell; if a flit currently occupies it, the
  resident packet is poisoned the same way.
* **SDRAM bit error** — sampled per read burst when the memory subsystem
  completes it: with probability ``sdram_bit_rate`` the burst carries an
  error, which is double-bit (detected but uncorrectable by SEC-DED, so
  the controller re-reads) with probability ``sdram_double_bit_fraction``
  and single-bit (corrected in flight) otherwise.

Besides the rates, a scripted ``schedule`` of :class:`ScheduledFault`
entries forces specific faults at specific cycles — the tool for unit
tests and directed what-if experiments.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..obs.events import EventType
from ..sim.config import ConfigError
from ..sim.rng import derive_rng


class FaultSite(enum.Enum):
    """Where a fault strikes."""

    LINK_CORRUPT = "link-corrupt"   # payload bit error on a link flit
    LINK_DROP = "link-drop"         # link flit lost (CRC length failure)
    BUFFER_FLIP = "buffer-flip"     # SEU in a router input-buffer cell
    SDRAM_BIT = "sdram-bit"         # bit error in SDRAM read data


@dataclass(frozen=True)
class ScheduledFault:
    """One scripted fault: fire ``site`` at ``cycle``.

    ``node`` restricts link / buffer faults to one router (``None`` = the
    first opportunity anywhere).  ``bits`` sets the error weight of an
    ``SDRAM_BIT`` fault (1 = correctable, >=2 = uncorrectable).
    """

    cycle: int
    site: FaultSite
    node: Optional[int] = None
    bits: int = 1

    def __post_init__(self) -> None:
        if self.cycle < 0:
            raise ConfigError("schedule", f"fault cycle must be >= 0, got {self.cycle}")
        if not isinstance(self.site, FaultSite):
            raise ConfigError("schedule", f"unknown fault site {self.site!r}")
        if self.bits < 1:
            raise ConfigError("schedule", f"fault bits must be >= 1, got {self.bits}")


def _rate(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ConfigError(name, f"rate must be within [0, 1], got {value}")


@dataclass(frozen=True)
class FaultConfig:
    """Fault rates, a scripted schedule, and the protection knobs.

    Rates are per sampling opportunity: per flit-hop for the link rates,
    per cycle for ``buffer_flip_rate``, per read burst for
    ``sdram_bit_rate``.  A config with every rate zero and an empty
    schedule still builds the full protection stack — useful for
    measuring its overhead — while ``SystemConfig.faults = None`` builds
    nothing at all.
    """

    link_corrupt_rate: float = 0.0
    link_drop_rate: float = 0.0
    buffer_flip_rate: float = 0.0
    sdram_bit_rate: float = 0.0
    #: Of the SDRAM errors, the fraction that are double-bit (detected
    #: but uncorrectable by SEC-DED; the controller re-reads the burst).
    sdram_double_bit_fraction: float = 0.1
    #: Scripted faults, fired in addition to the rate-driven ones.
    schedule: Tuple[ScheduledFault, ...] = ()
    #: Fault-stream seed; ``None`` derives from ``SystemConfig.seed`` so
    #: the fault pattern follows the run seed by default.
    seed: Optional[int] = None
    # --- protection knobs ------------------------------------------------ #
    #: CRC NACK retransmissions per packet before the request is failed.
    crc_retry_limit: int = 8
    #: Exponential backoff: retransmit ``n`` waits
    #: ``min(cap, base * 2**(n-1))`` cycles after the NACK.
    retry_backoff_base: int = 4
    retry_backoff_cap: int = 64
    #: SDRAM re-reads of an uncorrectable burst before the request fails.
    dram_retry_limit: int = 4
    #: Cycles a request may stay outstanding before the watchdog re-issues
    #: it; must dominate worst-case queueing latency or healthy requests
    #: get duplicated.
    watchdog_timeout: int = 4096
    #: Watchdog re-issues per request before it is surfaced as failed.
    watchdog_retry_limit: int = 2
    #: Packet-age bound enforced by the invariant checker (livelock /
    #: deadlock detection).
    max_packet_age: int = 16384

    def __post_init__(self) -> None:
        _rate("link_corrupt_rate", self.link_corrupt_rate)
        _rate("link_drop_rate", self.link_drop_rate)
        _rate("buffer_flip_rate", self.buffer_flip_rate)
        _rate("sdram_bit_rate", self.sdram_bit_rate)
        _rate("sdram_double_bit_fraction", self.sdram_double_bit_fraction)
        if not isinstance(self.schedule, tuple):
            raise ConfigError(
                "schedule",
                f"schedule must be a tuple of ScheduledFault, got {type(self.schedule).__name__}",
            )
        for entry in self.schedule:
            if not isinstance(entry, ScheduledFault):
                raise ConfigError("schedule", f"expected a ScheduledFault, got {entry!r}")
        if self.crc_retry_limit < 1:
            raise ConfigError(
                "crc_retry_limit", f"retry limit must be >= 1, got {self.crc_retry_limit}"
            )
        if self.retry_backoff_base < 1:
            raise ConfigError(
                "retry_backoff_base", f"backoff base must be >= 1, got {self.retry_backoff_base}"
            )
        if self.retry_backoff_cap < self.retry_backoff_base:
            raise ConfigError(
                "retry_backoff_cap",
                f"backoff cap {self.retry_backoff_cap} is below the base "
                f"{self.retry_backoff_base}",
            )
        if self.dram_retry_limit < 1:
            raise ConfigError(
                "dram_retry_limit", f"retry limit must be >= 1, got {self.dram_retry_limit}"
            )
        if self.watchdog_timeout < 1:
            raise ConfigError(
                "watchdog_timeout", f"timeout must be >= 1, got {self.watchdog_timeout}"
            )
        if self.watchdog_retry_limit < 0:
            raise ConfigError(
                "watchdog_retry_limit",
                f"retry limit must be >= 0, got {self.watchdog_retry_limit}",
            )
        if self.max_packet_age < 1:
            raise ConfigError(
                "max_packet_age", f"age bound must be >= 1, got {self.max_packet_age}"
            )

    @classmethod
    def uniform(cls, rate: float, **overrides) -> "FaultConfig":
        """A one-knob mixed-fault profile scaled by ``rate``.

        Link corruption carries the full rate; drops, buffer flips, and
        SDRAM errors scale down with it, roughly matching the relative
        event frequencies of a real system (soft bit errors dominate).
        """
        _rate("rate", rate)
        defaults = dict(
            link_corrupt_rate=rate,
            link_drop_rate=rate / 4.0,
            buffer_flip_rate=rate / 8.0,
            sdram_bit_rate=rate,
        )
        defaults.update(overrides)
        return cls(**defaults)

    def backoff(self, attempt: int) -> int:
        """Cycles to wait before retransmission ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        return min(self.retry_backoff_cap, self.retry_backoff_base << (attempt - 1))


class FaultInjector:
    """Samples and applies faults; the only source of randomness here.

    One RNG stream per :class:`FaultSite` keeps fault classes
    independent; all streams derive from a single root seed, so runs are
    reproducible end to end.  ``enabled`` gates all rate-driven sampling
    (the drain phase of a run switches it off to let the system reach
    quiescence).
    """

    def __init__(self, config: FaultConfig, seed: int, tracer=None) -> None:
        self.config = config
        root = config.seed if config.seed is not None else seed
        self._rngs = {site: derive_rng(root, "fault", site.value) for site in FaultSite}
        # The per-flit and per-cycle streams, bound once: an Enum-keyed
        # lookup costs a class-attribute load and a Python-level hash.
        # ``_rngs`` still owns them (one object each, also when pickled).
        self._link_corrupt_rng = self._rngs[FaultSite.LINK_CORRUPT]
        self._link_drop_rng = self._rngs[FaultSite.LINK_DROP]
        self._buffer_flip_rng = self._rngs[FaultSite.BUFFER_FLIP]
        self.tracer = tracer
        self.enabled = True
        self.network = None
        self.injected: Dict[FaultSite, int] = {site: 0 for site in FaultSite}
        self._schedule: List[ScheduledFault] = sorted(
            config.schedule, key=lambda f: f.cycle
        )
        self._schedule_pos = 0
        # Scheduled faults armed and waiting for their next opportunity.
        self._forced_link: List[ScheduledFault] = []
        self._forced_sdram: List[ScheduledFault] = []

    def attach_network(self, network) -> None:
        """Give the injector access to router buffers (buffer flips)."""
        self.network = network

    @property
    def total_injected(self) -> int:
        return sum(self.injected.values())

    # ------------------------------------------------------------------ #
    # Per-cycle sampling
    # ------------------------------------------------------------------ #

    def tick(self, cycle: int) -> None:
        """Arm this cycle's scheduled faults and sample buffer flips."""
        while (
            self._schedule_pos < len(self._schedule)
            and self._schedule[self._schedule_pos].cycle <= cycle
        ):
            fault = self._schedule[self._schedule_pos]
            self._schedule_pos += 1
            if fault.site in (FaultSite.LINK_CORRUPT, FaultSite.LINK_DROP):
                self._forced_link.append(fault)
            elif fault.site is FaultSite.SDRAM_BIT:
                self._forced_sdram.append(fault)
            else:
                self._flip_buffer(cycle, fault.node)
        rate = self.config.buffer_flip_rate
        if rate > 0.0 and self.enabled:
            if self._buffer_flip_rng.random() < rate:
                self._flip_buffer(cycle, None)

    def _flip_buffer(self, cycle: int, node: Optional[int]) -> None:
        """An SEU strikes one random input-buffer cell of one router."""
        if self.network is None:
            return
        rng = self._buffer_flip_rng
        routers = self.network.routers
        router = routers[node] if node is not None else rng.choice(routers)
        buffers = [b for lanes in router.inputs.values() for b in lanes]
        buffer = rng.choice(buffers)
        occupied = [e for e in buffer.entries if e.resident_flits > 0]
        if not occupied:
            return  # the struck cell held no flit: the flip is masked
        entry = rng.choice(occupied)
        self._poison(cycle, FaultSite.BUFFER_FLIP, router.node, None, entry.packet)

    # ------------------------------------------------------------------ #
    # Link flits
    # ------------------------------------------------------------------ #

    def on_link_flit(self, cycle: int, node: int, port, packet) -> None:
        """One flit of ``packet`` commits onto the link out of ``node``."""
        if self._forced_link:
            for index, fault in enumerate(self._forced_link):
                if fault.node is None or fault.node == node:
                    del self._forced_link[index]
                    self._poison(cycle, fault.site, node, port, packet)
                    break
        if not self.enabled:
            return
        config = self.config
        if config.link_corrupt_rate > 0.0:
            if self._link_corrupt_rng.random() < config.link_corrupt_rate:
                self._poison(cycle, FaultSite.LINK_CORRUPT, node, port, packet)
        if config.link_drop_rate > 0.0:
            if self._link_drop_rng.random() < config.link_drop_rate:
                self._poison(cycle, FaultSite.LINK_DROP, node, port, packet)

    def _poison(self, cycle: int, site: FaultSite, node, port, packet) -> None:
        packet.corrupted = True
        packet.fault_bits += 1
        self.injected[site] += 1
        tracer = self.tracer
        if tracer:
            request = packet.request
            tracer.emit(
                EventType.FAULT,
                cycle,
                f"router{node}" if node is not None else "fabric",
                packet_id=packet.packet_id,
                request_id=(request.request_id if request is not None else None),
                site=site.value,
                port=(port.name if port is not None else None),
            )

    # ------------------------------------------------------------------ #
    # SDRAM read data
    # ------------------------------------------------------------------ #

    def sdram_read_bits(self, cycle: int, request) -> int:
        """Error bits carried by this read burst (0 = clean)."""
        if self._forced_sdram:
            fault = self._forced_sdram.pop(0)
            self.injected[FaultSite.SDRAM_BIT] += 1
            self._trace_sdram(cycle, request, fault.bits)
            return fault.bits
        rate = self.config.sdram_bit_rate
        if rate <= 0.0 or not self.enabled:
            return 0
        rng = self._rngs[FaultSite.SDRAM_BIT]
        if rng.random() >= rate:
            return 0
        bits = 2 if rng.random() < self.config.sdram_double_bit_fraction else 1
        self.injected[FaultSite.SDRAM_BIT] += 1
        self._trace_sdram(cycle, request, bits)
        return bits

    def _trace_sdram(self, cycle: int, request, bits: int) -> None:
        tracer = self.tracer
        if tracer:
            tracer.emit(
                EventType.FAULT,
                cycle,
                "sdram",
                request_id=request.request_id,
                site=FaultSite.SDRAM_BIT.value,
                bits=bits,
            )
