"""Synthetic core traffic models.

The paper drives its NoCs with industrial multimedia traffic: a
microprocessor issuing latency-critical *demand* requests and speculative
*prefetches* (Section III-B), H.264/MPEG video codecs issuing very short
requests (4/8/16 bytes — Section III-C), video enhancers / format
converters issuing very long 64-BL streaming bursts (Section III-B), plus
display, audio, graphics and peripheral traffic.  Those streams are not
public, so each core is modelled as a deterministic-seeded generator that
reproduces the *characteristics* the paper's mechanisms key on:

* request-size mix (beats) — drives the access-granularity mismatch;
* read/write mix and alternation — drives data contention;
* address locality — sequential streaming within rows (row-buffer hits,
  natural bank interleaving through the address map) with occasional jumps
  (bank conflicts);
* issue rate and outstanding-request window — drives congestion;
* demand/prefetch split for the CPU — drives the priority service.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..dram.address_map import AddressMap
from ..dram.request import MemoryRequest, ServiceClass
from ..sim.rng import core_rng


@dataclass
class Stream:
    """One address stream of a core (e.g. a frame-read or frame-write).

    The stream walks its core's bank-affine region sequentially: columns
    within the open row, then the next bank of the core's bank set, then
    the next row — the layout a tiled frame buffer produces, giving
    row-buffer locality plus natural bank interleaving within the core.
    """

    is_read: bool
    weight: float
    beats_choices: Sequence[Tuple[int, float]]  # (size in beats, weight)
    jump_probability: float = 0.02              # chance to leave the stream
    bank_slot: int = 0                          # index into the core's bank set
    row: int = 0
    column: int = 0


@dataclass
class CoreSpec:
    """Static description of one core's traffic (see factories below)."""

    name: str
    streams: List[Stream]
    gap_mean: float               # mean cycles between request issues
    max_outstanding: int = 4
    demand_fraction: float = 0.0  # fraction of requests that are CPU demands
    bandwidth_weight: float = 1.0  # relative demand, used for mapping
    #: Mean number of consecutive requests served from one stream before the
    #: core switches streams.  Media cores work in bursts (read a block,
    #: then write a block), so read/write direction changes come in runs,
    #: not per-request coin flips.
    run_mean: float = 8.0


class SyntheticCore:
    """Deterministic stochastic traffic generator for one core."""

    def __init__(
        self,
        master: int,
        spec: CoreSpec,
        address_map: AddressMap,
        region_index: int,
        region_count: int,
        request_ids,
        seed: int,
        priority_demand: bool = False,
    ) -> None:
        self.master = master
        self.spec = spec
        self.address_map = address_map
        self.request_ids = request_ids
        self.priority_demand = priority_demand
        self.rng = core_rng(seed, master)
        self._outstanding = 0
        self._next_issue_cycle = 0
        self._current_stream: Optional[Stream] = None
        self._run_remaining = 0
        self.issued = 0
        self.completed = 0
        # Bank-affine region: each core owns a small set of banks (its frame
        # buffers live there) plus a private row range, the way media SoCs
        # partition a shared SDRAM.  Cross-core bank conflicts then only
        # arise between cores whose bank sets overlap.
        banks = address_map.banks
        banks_per_core = min(4, banks)
        self._bank_set = [
            (region_index * 2 + i) % banks for i in range(banks_per_core)
        ]
        rows_per_region = max(1, address_map.rows // max(1, region_count))
        self._row_base = (region_index * rows_per_region) % address_map.rows
        self._row_span = rows_per_region
        for stream in self.spec.streams:
            self._jump_stream(stream)

    # ------------------------------------------------------------------ #

    def _jump_stream(self, stream: Stream) -> None:
        stream.bank_slot = self.rng.randrange(len(self._bank_set))
        stream.row = self.rng.randrange(self._row_span)
        stream.column = self.rng.randrange(self.address_map.columns)

    def _advance_stream(self, stream: Stream, beats: int) -> None:
        stream.column += beats
        if stream.column >= self.address_map.columns:
            stream.column -= self.address_map.columns
            stream.bank_slot += 1
            if stream.bank_slot >= len(self._bank_set):
                stream.bank_slot = 0
                stream.row = (stream.row + 1) % self._row_span

    def _pick_stream(self) -> Stream:
        """Current stream, switching only at run boundaries."""
        if self._current_stream is not None and self._run_remaining > 0:
            self._run_remaining -= 1
            return self._current_stream
        streams = self.spec.streams
        if len(streams) == 1:
            chosen = streams[0]
        else:
            weights = [s.weight for s in streams]
            chosen = self.rng.choices(streams, weights=weights, k=1)[0]
        self._current_stream = chosen
        run = self.rng.expovariate(1.0 / self.spec.run_mean) if self.spec.run_mean > 0 else 0.0
        self._run_remaining = max(0, round(run))
        return chosen

    def _pick_beats(self, stream: Stream) -> int:
        sizes = [size for size, _ in stream.beats_choices]
        weights = [weight for _, weight in stream.beats_choices]
        return self.rng.choices(sizes, weights=weights, k=1)[0]

    # ------------------------------------------------------------------ #
    # TrafficGenerator interface
    # ------------------------------------------------------------------ #

    def generate(self, cycle: int) -> List[MemoryRequest]:
        if self._outstanding >= self.spec.max_outstanding:
            return []
        if cycle < self._next_issue_cycle:
            return []
        stream = self._pick_stream()
        beats = self._pick_beats(stream)
        if stream.jump_probability > 0 and self.rng.random() < stream.jump_probability:
            self._jump_stream(stream)
        bank = self._bank_set[stream.bank_slot]
        row = (self._row_base + stream.row) % self.address_map.rows
        column = stream.column
        # Clip the burst at the row edge so a request never spans two rows.
        beats = min(beats, self.address_map.columns - column)
        self._advance_stream(stream, beats)
        is_demand = (
            self.spec.demand_fraction > 0
            and self.rng.random() < self.spec.demand_fraction
        )
        service = (
            ServiceClass.PRIORITY
            if is_demand and self.priority_demand
            else ServiceClass.BEST_EFFORT
        )
        request = MemoryRequest(
            request_id=next(self.request_ids),
            master=self.master,
            bank=bank,
            row=row,
            column=column,
            beats=beats,
            is_read=stream.is_read,
            service=service,
            is_demand=is_demand,
            issued_cycle=cycle,
        )
        self._outstanding += 1
        self.issued += 1
        gap = self.rng.expovariate(1.0 / self.spec.gap_mean) if self.spec.gap_mean > 0 else 0.0
        self._next_issue_cycle = cycle + max(1, round(gap))
        return [request]

    def on_complete(self, request_id: int, cycle: int) -> None:
        if self._outstanding <= 0:
            raise RuntimeError("completion without an outstanding request")
        self._outstanding -= 1
        self.completed += 1

    @property
    def outstanding(self) -> int:
        return self._outstanding

    @property
    def next_issue_cycle(self) -> Optional[int]:
        """Earliest cycle :meth:`generate` could issue (the core NI's
        event wake target).  ``generate`` is a strict no-op — no RNG draws
        — before this cycle, so skipping it keeps the random stream
        bit-identical."""
        return self._next_issue_cycle

    @property
    def issue_blocked(self) -> bool:
        """At the outstanding cap: :meth:`generate` is a strict no-op (the
        cap check precedes every RNG draw) until a completion frees a
        slot, so an event-dispatched NI can sleep instead of polling
        ``next_issue_cycle`` (which deliberately ignores the cap)."""
        return self._outstanding >= self.spec.max_outstanding


# ---------------------------------------------------------------------- #
# Core-type factories (Section III / V traffic classes)
# ---------------------------------------------------------------------- #


def cpu_core(gap_mean: float = 26.0) -> CoreSpec:
    """Microprocessor: cache-line demands plus sequential prefetches."""
    return CoreSpec(
        name="cpu",
        streams=[
            Stream(is_read=True, weight=0.7,
                   beats_choices=[(8, 0.7), (16, 0.3)], jump_probability=0.071),
            Stream(is_read=False, weight=0.3,
                   beats_choices=[(8, 1.0)], jump_probability=0.071),
        ],
        gap_mean=gap_mean,
        max_outstanding=2,
        demand_fraction=0.6,
        bandwidth_weight=1.5,
    )


def h264_codec_core(gap_mean: float = 7.0) -> CoreSpec:
    """H.264 encoder/decoder: 4/8/16-byte motion compensation accesses."""
    return CoreSpec(
        name="h264",
        streams=[
            Stream(is_read=True, weight=0.75,
                   beats_choices=[(1, 0.15), (2, 0.35), (4, 0.35), (8, 0.15)],
                   jump_probability=0.065),
            Stream(is_read=False, weight=0.25,
                   beats_choices=[(2, 0.4), (4, 0.6)], jump_probability=0.065),
        ],
        gap_mean=gap_mean,
        max_outstanding=4,
        bandwidth_weight=1.2,
    )


def mpeg2_codec_core(gap_mean: float = 8.0) -> CoreSpec:
    """MPEG-1/2 codec: 8/16-byte accesses (Section III-C)."""
    return CoreSpec(
        name="mpeg2",
        streams=[
            Stream(is_read=True, weight=0.7,
                   beats_choices=[(2, 0.3), (4, 0.5), (8, 0.2)], jump_probability=0.07),
            Stream(is_read=False, weight=0.3,
                   beats_choices=[(4, 0.7), (8, 0.3)], jump_probability=0.07),
        ],
        gap_mean=gap_mean,
        max_outstanding=4,
        bandwidth_weight=1.0,
    )


def enhancer_core(gap_mean: float = 94.0) -> CoreSpec:
    """Video enhancer: 64-BL streaming bursts (long best-effort packets)."""
    return CoreSpec(
        name="enhancer",
        streams=[
            Stream(is_read=True, weight=0.5,
                   beats_choices=[(64, 1.0)], jump_probability=0.012),
            Stream(is_read=False, weight=0.5,
                   beats_choices=[(64, 1.0)], jump_probability=0.012),
        ],
        gap_mean=gap_mean,
        max_outstanding=2,
        bandwidth_weight=2.0,
    )


def format_converter_core(gap_mean: float = 138.0) -> CoreSpec:
    """Format converter: long read stream converted into a write stream."""
    return CoreSpec(
        name="format-conv",
        streams=[
            Stream(is_read=True, weight=0.5,
                   beats_choices=[(32, 0.4), (64, 0.6)], jump_probability=0.0125),
            Stream(is_read=False, weight=0.5,
                   beats_choices=[(32, 0.4), (64, 0.6)], jump_probability=0.0125),
        ],
        gap_mean=gap_mean,
        max_outstanding=2,
        bandwidth_weight=1.8,
    )


def display_core(gap_mean: float = 127.0) -> CoreSpec:
    """Display controller: long sequential frame reads."""
    return CoreSpec(
        name="display",
        streams=[
            Stream(is_read=True, weight=1.0,
                   beats_choices=[(32, 0.5), (64, 0.5)], jump_probability=0.012),
        ],
        gap_mean=gap_mean,
        max_outstanding=2,
        bandwidth_weight=1.6,
    )


def audio_core(gap_mean: float = 77.0) -> CoreSpec:
    """Audio DSP: sparse short accesses."""
    return CoreSpec(
        name="audio",
        streams=[
            Stream(is_read=True, weight=0.6,
                   beats_choices=[(2, 0.5), (4, 0.5)], jump_probability=0.06),
            Stream(is_read=False, weight=0.4,
                   beats_choices=[(2, 1.0)], jump_probability=0.06),
        ],
        gap_mean=gap_mean,
        max_outstanding=2,
        bandwidth_weight=0.4,
    )


def graphics_core(gap_mean: float = 50.0) -> CoreSpec:
    """Graphics/OSD blender: medium bursts, mixed read/write."""
    return CoreSpec(
        name="graphics",
        streams=[
            Stream(is_read=True, weight=0.55,
                   beats_choices=[(8, 0.4), (16, 0.6)], jump_probability=0.07),
            Stream(is_read=False, weight=0.45,
                   beats_choices=[(8, 0.5), (16, 0.5)], jump_probability=0.07),
        ],
        gap_mean=gap_mean,
        max_outstanding=3,
        bandwidth_weight=1.0,
    )


def demux_core(gap_mean: float = 165.0) -> CoreSpec:
    """Transport-stream demux / peripheral DMA: medium writes."""
    return CoreSpec(
        name="demux",
        streams=[
            Stream(is_read=False, weight=0.8,
                   beats_choices=[(8, 0.5), (16, 0.5)], jump_probability=0.05),
            Stream(is_read=True, weight=0.2,
                   beats_choices=[(8, 1.0)], jump_probability=0.05),
        ],
        gap_mean=gap_mean,
        max_outstanding=2,
        bandwidth_weight=0.6,
    )


def pvr_core(gap_mean: float = 154.0) -> CoreSpec:
    """Personal-video-recorder writer: long sequential writes."""
    return CoreSpec(
        name="pvr",
        streams=[
            Stream(is_read=False, weight=1.0,
                   beats_choices=[(32, 0.6), (64, 0.4)], jump_probability=0.012),
        ],
        gap_mean=gap_mean,
        max_outstanding=2,
        bandwidth_weight=1.0,
    )
