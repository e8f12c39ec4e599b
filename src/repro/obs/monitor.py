"""``repro monitor``: render a telemetry stream as a live terminal view.

The monitor consumes the newline-JSON protocol of
:mod:`repro.obs.stream` — from a finished file (``--once``) or by
tailing a live one (``--follow``) — and folds it into one screenful:

* **runs**: current cycle, simulated cycles/second (from successive
  samples' wall-clock stamps), in-flight packets, DRAM bus utilization
  and row-hit rate over the last window, per-class window p95 latency;
* **sweeps**: a progress bar of done/total with failures, cache hits,
  live workers (from heartbeats), throughput and ETA.

Rendering is plain text built by pure functions over a
:class:`MonitorState`, so tests (and future surfaces like
``repro serve``) drive the same code path the terminal does.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, TextIO

from .stream import iter_stream, read_stream


@dataclass
class MonitorState:
    """Everything a stream has told us so far."""

    manifest: Optional[Mapping[str, object]] = None
    last_sample: Optional[Mapping[str, object]] = None
    prev_sample: Optional[Mapping[str, object]] = None
    samples_seen: int = 0
    run_summary: Optional[Mapping[str, object]] = None
    # Sweep progress.
    sweep_total: int = 0
    sweep_done: int = 0
    sweep_failed: int = 0
    sweep_hits: int = 0
    sweep_eta_s: Optional[float] = None
    sweep_jobs_per_s: Optional[float] = None
    sweep_finished: bool = False
    #: worker id -> most recent heartbeat record.
    workers: Dict[object, Mapping[str, object]] = field(default_factory=dict)
    records_seen: int = 0

    # ------------------------------------------------------------------ #

    def apply(self, record: Mapping[str, object]) -> None:
        """Fold one stream record into the state (unknown types are
        counted but otherwise ignored, so the monitor never crashes on a
        newer producer)."""
        self.records_seen += 1
        rtype = record.get("type")
        if rtype == "run_start":
            self.manifest = record
            self.run_summary = None
        elif rtype == "sample":
            self.prev_sample = self.last_sample
            self.last_sample = record
            self.samples_seen += 1
        elif rtype == "run_end":
            self.run_summary = record
        elif rtype == "sweep_start":
            self.sweep_total = int(record.get("total", 0))
            self.sweep_done = self.sweep_failed = self.sweep_hits = 0
            self.sweep_finished = False
        elif rtype in ("job_done", "job_fail", "job_hit"):
            self.sweep_done += 1
            if rtype == "job_fail":
                self.sweep_failed += 1
            elif rtype == "job_hit":
                self.sweep_hits += 1
        elif rtype == "sweep_progress":
            self.sweep_done = int(record.get("done", self.sweep_done))
            self.sweep_failed = int(record.get("failed", self.sweep_failed))
            self.sweep_hits = int(record.get("hits", self.sweep_hits))
            eta = record.get("eta_s")
            self.sweep_eta_s = float(eta) if eta is not None else None
            rate = record.get("jobs_per_s")
            self.sweep_jobs_per_s = float(rate) if rate is not None else None
        elif rtype == "heartbeat":
            self.workers[record.get("worker")] = record
        elif rtype == "sweep_end":
            self.sweep_finished = True

    @property
    def finished(self) -> bool:
        """True once the stream told us its producer is done."""
        if self.sweep_total:
            return self.sweep_finished
        return self.run_summary is not None

    # ------------------------------------------------------------------ #
    # Derived views
    # ------------------------------------------------------------------ #

    def cycles_per_second(self) -> Optional[float]:
        """Simulated cycles/sec between the two most recent samples."""
        if self.last_sample is None or self.prev_sample is None:
            return None
        dt = float(self.last_sample.get("wall_s", 0.0)) - float(
            self.prev_sample.get("wall_s", 0.0)
        )
        dc = int(self.last_sample.get("cycle", 0)) - int(
            self.prev_sample.get("cycle", 0)
        )
        if dt <= 0 or dc <= 0:
            return None
        return dc / dt


def _bar(done: int, total: int, width: int = 24) -> str:
    filled = int(width * done / total) if total else 0
    return "[" + "#" * filled + "." * (width - filled) + "]"


def _fmt_eta(seconds: Optional[float]) -> str:
    if seconds is None:
        return "?"
    seconds = max(0.0, seconds)
    if seconds >= 3600:
        return f"{seconds / 3600:.1f}h"
    if seconds >= 60:
        return f"{seconds / 60:.1f}m"
    return f"{seconds:.0f}s"


def render(state: MonitorState) -> str:
    """The whole monitor view as plain text (one trailing newline)."""
    lines: List[str] = []
    manifest = state.manifest
    if manifest is not None:
        key = str(manifest.get("config_key", ""))[:12]
        lines.append(
            f"run       : {manifest.get('label', '?')} "
            f"seed={manifest.get('seed', '?')} "
            f"interval={manifest.get('sample_interval', '?')} "
            f"[{key or 'no key'}]"
        )
    sample = state.last_sample
    if sample is not None:
        cps = state.cycles_per_second()
        cps_text = f"{cps:,.0f} c/s" if cps is not None else "c/s n/a"
        span = max(1, int(sample.get("span", 1)))
        rates = sample.get("rates", {})
        gauges = sample.get("gauges", {})
        busy = float(rates.get("dram.busy_cycles", 0.0))
        hits = float(rates.get("dram.row_hits", 0.0))
        misses = float(rates.get("dram.row_misses", 0.0))
        hit_rate = hits / (hits + misses) if hits + misses else 0.0
        lines.append(
            f"cycle     : {int(sample.get('cycle', 0)):,} "
            f"(window {span:,}c, {state.samples_seen} samples)  {cps_text}"
        )
        lines.append(
            f"dram      : bus {busy * 100:5.1f}%  row-hit {hit_rate * 100:5.1f}%  "
            f"{float(rates.get('requests.completed', 0.0)) * 1000:.1f} req/kc"
        )
        lines.append(
            f"in-flight : {float(gauges.get('noc.in_flight_packets', 0)):.0f} packets"
        )
        latency = sample.get("latency", {})
        if latency:
            parts = []
            for name in sorted(latency):
                entry = latency[name]
                if "p95" in entry:
                    parts.append(f"{name} p95={entry['p95']:.0f}c")
                elif entry.get("count"):
                    parts.append(f"{name} mean={entry['mean']:.0f}c")
            if parts:
                lines.append(f"latency   : {'  '.join(parts)} (window)")
    if state.run_summary is not None:
        summary = state.run_summary
        lines.append(
            f"run done  : util={summary.get('utilization', 0):.3f} "
            f"lat(all)={summary.get('latency_all', 0):.1f} "
            f"lat(dem)={summary.get('latency_demand', 0):.1f} "
            f"completed={summary.get('completed', 0)}"
        )
    if state.sweep_total:
        rate = (
            f"{state.sweep_jobs_per_s:.2f} job/s"
            if state.sweep_jobs_per_s is not None else "rate n/a"
        )
        lines.append(
            f"sweep     : {_bar(state.sweep_done, state.sweep_total)} "
            f"{state.sweep_done}/{state.sweep_total} done, "
            f"{state.sweep_failed} failed, {state.sweep_hits} hits, "
            f"{rate}, eta {_fmt_eta(state.sweep_eta_s)}"
        )
        if state.workers:
            beats = ", ".join(
                f"{worker}:{record.get('jobs_done', '?')}"
                for worker, record in sorted(
                    state.workers.items(), key=lambda kv: str(kv[0])
                )
            )
            lines.append(
                f"workers   : {len(state.workers)} seen ({beats})"
            )
        if state.sweep_finished:
            lines.append("sweep done")
    if not lines:
        lines.append(f"(no renderable records in {state.records_seen} read)")
    return "\n".join(lines) + "\n"


def run_monitor(
    path: str,
    follow: bool = False,
    once: bool = False,
    refresh_s: float = 1.0,
    out: Optional[TextIO] = None,
    max_seconds: Optional[float] = None,
) -> int:
    """The ``repro monitor`` entry point.

    ``once`` parses the whole stream and prints the final view (the CI
    parse check).  ``follow`` tails the stream, redrawing every
    ``refresh_s``, until the producer signals completion (run_end /
    sweep_end), the optional ``max_seconds`` budget runs out, or the
    reader is interrupted.  The default (neither flag) renders whatever
    the stream holds right now and exits — cheap and scriptable.
    Returns 0 if any renderable record was seen, 1 otherwise.
    """
    out = out if out is not None else sys.stdout
    state = MonitorState()
    if not follow or once:
        for record in read_stream(path):
            state.apply(record)
        out.write(render(state))
        return 0 if state.records_seen else 1

    started = time.monotonic()
    deadline = started + max_seconds if max_seconds is not None else None
    last_draw = 0.0
    interactive = hasattr(out, "isatty") and out.isatty()
    drawn_lines = 0

    def redraw() -> None:
        nonlocal last_draw, drawn_lines
        text = render(state)
        if interactive and drawn_lines:
            out.write(f"\x1b[{drawn_lines}F\x1b[J")
        out.write(text)
        out.flush()
        drawn_lines = text.count("\n")
        last_draw = time.monotonic()

    def expired() -> bool:
        return (
            state.finished
            or (deadline is not None and time.monotonic() >= deadline)
        )

    try:
        for record in iter_stream(
            path, follow=True, poll_s=min(0.25, refresh_s), stop=expired
        ):
            state.apply(record)
            if time.monotonic() - last_draw >= refresh_s or state.finished:
                redraw()
            if expired():
                break
    except KeyboardInterrupt:  # pragma: no cover - interactive escape
        pass
    redraw()
    return 0 if state.records_seen else 1
