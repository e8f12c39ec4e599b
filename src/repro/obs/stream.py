"""Telemetry stream: newline-JSON records for live runs and sweeps.

One flat protocol carries everything the live surfaces consume — the
:class:`~repro.obs.monitor` terminal view today, ``repro serve`` later.
A stream is a file (or pipe) of one JSON object per line; every record
has a ``type`` and a wall-clock ``ts``:

* ``run_start`` — manifest for one simulation: fully-resolved config
  payload and its content-addressed hash (the sweep-store key), seed,
  sampling interval, and the host manifest (python, cpu count, git
  describe);
* ``sample`` — one :class:`~repro.obs.timeseries.Sample`, as emitted by
  the interval sampler (coalesced and partial samples included);
* ``run_end`` — end-of-run summary (the headline RunMetrics fields);
* ``sweep_start`` / ``job_start`` / ``job_done`` / ``job_fail`` /
  ``job_hit`` / ``heartbeat`` / ``sweep_progress`` / ``sweep_end`` —
  the sweep orchestrator's lifecycle, including a ``heartbeat`` as each
  worker slot starts and finishes a job (``worker`` is the slot number).
  The orchestrating process writes all of them: it hands each job to a
  slot, so it sees every start and end, and worker processes write
  nothing;
* ``checkpoint`` — one snapshot written by ``repro run`` (periodic or
  signal-triggered): cycle, path, and reason.

A stream has one writer, which appends whole lines and flushes per
record, so a reader can tail the file while the producer is live.
Readers tolerate a truncated final line (an interrupted producer) by
counting it, never by raising.

:func:`prometheus_exposition` renders any metrics registry in the
Prometheus text exposition format, for scraping a snapshot.
"""

from __future__ import annotations

import json
import os
import platform
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Optional, TextIO, Union

from .metrics import Counter, Gauge, Histogram, MetricsRegistry

#: Record types a well-formed stream may carry.
RECORD_TYPES = frozenset([
    "run_start", "sample", "run_end",
    "sweep_start", "job_start", "job_done", "job_fail", "job_hit",
    "heartbeat", "sweep_progress", "sweep_end",
    "checkpoint",
])


class TelemetryWriter:
    """Append newline-JSON records to a file, pipe, or text stream.

    A path is truncated (``mode="w"``, the default) or kept
    (``mode="a"``), then opened for appending; each record is one line,
    flushed as it is written.
    """

    def __init__(
        self,
        sink: Union[str, Path, TextIO],
        mode: str = "w",
    ) -> None:
        if mode not in ("w", "a"):
            raise ValueError(f"mode must be 'w' or 'a', got {mode!r}")
        self.path: Optional[Path] = None
        self._owned = False
        if isinstance(sink, (str, Path)):
            self.path = Path(sink)
            if self.path.parent != Path(""):
                self.path.parent.mkdir(parents=True, exist_ok=True)
            if mode == "w":
                self.path.open("w", encoding="utf-8").close()
            self._handle = self.path.open("a", encoding="utf-8")
            self._owned = True
        else:
            self._handle = sink
        self.records_written = 0

    def emit(self, type: str, **fields: object) -> Dict[str, object]:
        """Write one record; returns it (with ``type`` and ``ts`` set)."""
        if type not in RECORD_TYPES:
            raise ValueError(f"unknown telemetry record type {type!r}")
        record: Dict[str, object] = {"type": type, "ts": time.time()}
        record.update(fields)
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()
        self.records_written += 1
        return record

    def sample(self, sample) -> Dict[str, object]:
        """Emit one :class:`~repro.obs.timeseries.Sample`."""
        return self.emit("sample", **sample.to_dict())

    def close(self) -> None:
        if self._owned:
            self._handle.close()

    def __enter__(self) -> "TelemetryWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ---------------------------------------------------------------------- #
# Reading
# ---------------------------------------------------------------------- #


def read_stream(path: Union[str, Path]) -> List[Dict[str, object]]:
    """Parse a telemetry stream; a truncated final line is dropped
    silently (the producer may still be writing it)."""
    records: List[Dict[str, object]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except ValueError:
                continue
    return records


def iter_stream(
    path: Union[str, Path],
    follow: bool = False,
    poll_s: float = 0.25,
    stop: Optional[callable] = None,
) -> Iterator[Dict[str, object]]:
    """Yield records as they appear; ``follow=True`` tails the file until
    ``stop()`` turns true (or forever)."""
    with open(path, "r", encoding="utf-8") as handle:
        buffer = ""
        while True:
            chunk = handle.readline()
            if chunk:
                buffer += chunk
                if not buffer.endswith("\n"):
                    continue  # partial line: wait for the rest
                line = buffer.strip()
                buffer = ""
                if not line:
                    continue
                try:
                    yield json.loads(line)
                except ValueError:
                    continue
            else:
                if not follow or (stop is not None and stop()):
                    return
                time.sleep(poll_s)


def validate_stream(records: List[Mapping[str, object]]) -> Dict[str, int]:
    """Structural check of a parsed stream; returns per-type counts.

    Raises ``ValueError`` on an unknown record type, a record without a
    type, or a ``sample`` record missing its window fields.
    """
    counts: Dict[str, int] = {}
    for record in records:
        rtype = record.get("type")
        if not isinstance(rtype, str) or rtype not in RECORD_TYPES:
            raise ValueError(f"unknown telemetry record: {record!r}")
        if rtype == "sample":
            for key in ("cycle", "span", "rates"):
                if key not in record:
                    raise ValueError(f"sample record missing {key!r}")
        counts[rtype] = counts.get(rtype, 0) + 1
    return counts


# ---------------------------------------------------------------------- #
# Manifests
# ---------------------------------------------------------------------- #


def git_describe() -> Optional[str]:
    """``git describe --always --dirty`` of the working tree, or None."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def host_manifest() -> Dict[str, object]:
    """Who/what produced a measurement: the fields a comparison of two
    telemetry streams or benchmark reports needs to flag cross-host
    mixing."""
    try:
        hostname = socket.gethostname()
    except OSError:  # pragma: no cover - esoteric hosts
        hostname = "unknown"
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "hostname": hostname,
        "cpu_count": os.cpu_count(),
        "git": git_describe(),
        "pid": os.getpid(),
    }


def run_manifest(config, sample_interval: Optional[int] = None) -> Dict[str, object]:
    """The ``run_start`` payload for one SystemConfig: resolved config,
    its content-addressed hash (shared with the sweep store, so a
    telemetry stream and a cached sweep point cross-reference), and the
    host manifest."""
    # Local import: obs must stay importable without the sweep package
    # in the import graph (and vice versa).
    from ..sweep.runners import config_payload
    from ..sweep.store import job_key

    payload = config_payload(config)
    return {
        "label": config.label,
        "config": payload,
        "config_key": job_key("metrics", payload),
        "seed": config.seed,
        "cycles": config.cycles,
        "warmup": config.warmup,
        "sample_interval": sample_interval,
        "host": host_manifest(),
        "argv": list(sys.argv),
    }


# ---------------------------------------------------------------------- #
# Prometheus text exposition
# ---------------------------------------------------------------------- #


def _prom_name(name: str, prefix: str) -> str:
    out = []
    for ch in f"{prefix}_{name}":
        out.append(ch if ch.isalnum() or ch == "_" else "_")
    sanitized = "".join(out)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


def prometheus_exposition(
    registry: MetricsRegistry, prefix: str = "repro"
) -> str:
    """Render a metrics registry in the Prometheus text format.

    Counters and gauges become single series; histograms become
    summaries (``_count`` / ``_sum`` plus ``quantile`` series when raw
    samples were kept).  Metric order is the registry's deterministic
    sorted order, so two snapshots of identical state diff cleanly.
    """
    lines: List[str] = []
    for name in registry.names():
        metric = registry.get(name)
        prom = _prom_name(name, prefix)
        if isinstance(metric, Counter):
            lines.append(f"# TYPE {prom} counter")
            lines.append(f"{prom} {metric.value}")
        elif isinstance(metric, Gauge):
            lines.append(f"# TYPE {prom} gauge")
            lines.append(f"{prom} {metric.value}")
        elif isinstance(metric, Histogram):
            lines.append(f"# TYPE {prom} summary")
            if metric.samples:
                for label, q in (("0.5", 50.0), ("0.95", 95.0), ("0.99", 99.0)):
                    lines.append(
                        f'{prom}{{quantile="{label}"}} '
                        f"{metric.percentile(q)}"
                    )
            lines.append(f"{prom}_sum {metric.total}")
            lines.append(f"{prom}_count {metric.count}")
    return "\n".join(lines) + "\n"
