"""Unified observability: tracing, metrics, time series, streaming.

One subsystem answers "where did this packet's cycles go?" at every layer
— after the run *and while it is still going*:

* :mod:`repro.obs.events` / :mod:`repro.obs.tracer` — typed lifecycle
  events (``INJECT`` ... ``COMPLETE``) with a zero-overhead
  :class:`NullTracer` default and an in-memory recorder;
* :mod:`repro.obs.metrics` — a counters/gauges registry that absorbs
  the stack's ad-hoc counters behind one dotted namespace, publishes
  latency series (:class:`~repro.sim.stats.LatencySeries`, the one
  distribution type) by reference, and has a deterministic
  :meth:`~repro.obs.metrics.MetricsRegistry.snapshot`;
* :mod:`repro.obs.exporters` — Chrome trace-event JSON (Perfetto /
  chrome://tracing), JSONL dumps, per-request latency breakdowns;
* :mod:`repro.obs.profiler` — :func:`profile_run`: simulator time and
  calls per layer (``repro`` module) under cProfile, for hot spots;
* :mod:`repro.obs.timeseries` — interval sampler riding the event-core
  wake queue: per-window rates and latency quantiles, handed to a
  callback as each window closes;
* :mod:`repro.obs.stream` — the newline-JSON telemetry stream protocol
  (run manifests, samples, sweep heartbeats) plus Prometheus exposition;
* :mod:`repro.obs.monitor` — the ``repro monitor`` live terminal view;
* :mod:`repro.obs.analysis` — post-run breakdowns: per-master and tail
  latency, bandwidth shares, NoC link hotspots and buffer high-water
  marks, and the ``noc.link.*`` / ``noc.buffer.highwater.*`` counters
  :meth:`~repro.core.system.SocSystem.collect_metrics` publishes.

Entry points: ``build_system(config, tracer=MemoryTracer())`` then the
exporters; ``repro run --telemetry run.ndjson --sample-interval 1000``
plus ``repro monitor run.ndjson``; or ``repro trace`` / ``repro
profile``.
"""

from .._lazy import lazy_exports

# Resolved on first use: the simulator imports `repro.obs.events` on
# every run, which must not load the exporters, the stream (socket,
# subprocess) or the monitor.
__getattr__, __dir__ = lazy_exports(globals(), {
    ".events": ("LIFECYCLE_EVENT_TYPES", "RESILIENCE_EVENT_TYPES",
                "EventType", "TraceEvent"),
    ".exporters": ("RequestBreakdown", "chrome_trace", "latency_breakdowns",
                   "read_jsonl", "render_latency_report",
                   "validate_chrome_trace", "write_chrome_trace",
                   "write_jsonl"),
    ".metrics": ("Counter", "Gauge", "MetricsRegistry"),
    ".monitor": ("MonitorState", "run_monitor"),
    ".profiler": ("profile_run",),
    ".stream": ("TelemetryWriter", "host_manifest", "prometheus_exposition",
                "read_stream", "run_manifest", "validate_stream"),
    ".timeseries": ("Sample", "SampleSource", "SystemSampleSource",
                    "TimeSeriesSampler"),
    ".tracer": ("NULL_TRACER", "MemoryTracer", "NullTracer", "Tracer"),
})

__all__ = [
    "Counter",
    "EventType",
    "Gauge",
    "LIFECYCLE_EVENT_TYPES",
    "MemoryTracer",
    "MetricsRegistry",
    "MonitorState",
    "NULL_TRACER",
    "NullTracer",
    "RESILIENCE_EVENT_TYPES",
    "RequestBreakdown",
    "Sample",
    "SampleSource",
    "SystemSampleSource",
    "TelemetryWriter",
    "TimeSeriesSampler",
    "TraceEvent",
    "Tracer",
    "chrome_trace",
    "host_manifest",
    "latency_breakdowns",
    "profile_run",
    "prometheus_exposition",
    "read_jsonl",
    "read_stream",
    "render_latency_report",
    "run_manifest",
    "run_monitor",
    "validate_chrome_trace",
    "validate_stream",
    "write_chrome_trace",
    "write_jsonl",
]
