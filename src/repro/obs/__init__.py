"""repro.obs — unified observability: metrics, decision traces, spans.

Six pieces, shared by the simulator, the sharded service, the CLI and
the benchmark harness:

* **Metrics registry** (:mod:`repro.obs.registry`) — labeled
  Counter/Gauge/Histogram families with Prometheus-style text exposition
  and a shared no-op registry (:func:`null_registry`) so instrumented code
  pays nothing when metrics are off.  :class:`MetricsServer` serves any
  ``render()`` source over HTTP: a registry (``repro serve
  --metrics-port``) or a :class:`Federator`.
* **Decision tracer** (:mod:`repro.obs.tracer`) — a sampled, bounded JSONL
  stream of paging decisions (request, hit/miss, eviction candidates with
  scores, chosen victim, per-level cost).  Sampling is a pure function of
  ``(seed, t)``, so traces are byte-identical across execution modes.
  :func:`replay_trace` re-renders a trace into per-page / per-level
  summaries; :func:`validate_trace` checks files against
  :data:`TRACE_SCHEMA`.
* **Phase profiler** (:mod:`repro.obs.spans`) — context-manager spans
  (``ingest``, ``route``, ``evict``, ``snapshot``) aggregated per run and
  per shard, surfaced in service snapshots.
* **Request tracing** (:mod:`repro.obs.rtrace`) — deterministic causal
  trace contexts carried in the wire envelope and per-tier span JSONL
  (client → proxy → backend → shard) stitched into waterfalls, plus a
  crash flight recorder.  Sampling reuses the decision tracer's pure
  ``(seed, t)`` function, so span files are byte-identical across
  execution backends.
* **Federation** (:mod:`repro.obs.federation`) — scrape N backend
  ``/metrics`` pages, re-label by backend id and aggregate
  (``backend="all"``/``"max"``) into one cluster view; :func:`select`
  reads a parsed page (skipping the aggregates unless asked), and
  ``repro top`` renders its frames from it.
* **Control signals** (:mod:`repro.obs.signals`) — :class:`SignalReader`
  folds a registry or a federated page into the pressure the control
  plane acts on, and publishes it as gauges.

Quick start::

    from repro.obs import DecisionTracer, replay_trace
    from repro.sim import simulate

    with DecisionTracer("run.jsonl", sample=0.5, seed=0) as tracer:
        simulate(instance, seq, policy, seed=0, tracer=tracer)
    print(replay_trace("run.jsonl").render())
"""

from repro.obs.federation import (
    Federator,
    federate,
    parse_exposition,
    select,
)
from repro.obs.http import MetricsServer
from repro.obs.registry import (
    DEFAULT_BUCKETS,
    NULL_METRIC,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
    NullMetric,
    get_registry,
    null_registry,
    set_registry,
)
from repro.obs.rtrace import (
    FlightRecorder,
    RequestSampler,
    SpanExporter,
    TraceContext,
    flight_recorder,
    longest_chain,
    read_spans,
    render_waterfall,
    set_flight_dump_dir,
    stitch_spans,
)
from repro.obs.signals import ControlSignals, SignalReader
from repro.obs.spans import PhaseProfiler, SpanStats, merge_span_stats
from repro.obs.tracer import (
    TRACE_SCHEMA,
    TRACE_VERSION,
    DecisionTracer,
    TraceSummary,
    TraceValidation,
    read_trace,
    replay_trace,
    validate_trace,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "NullMetric",
    "NULL_METRIC",
    "DEFAULT_BUCKETS",
    "get_registry",
    "set_registry",
    "null_registry",
    "MetricsServer",
    "PhaseProfiler",
    "SpanStats",
    "merge_span_stats",
    "TraceContext",
    "RequestSampler",
    "SpanExporter",
    "FlightRecorder",
    "flight_recorder",
    "set_flight_dump_dir",
    "read_spans",
    "stitch_spans",
    "longest_chain",
    "render_waterfall",
    "Federator",
    "federate",
    "parse_exposition",
    "select",
    "ControlSignals",
    "SignalReader",
    "TRACE_SCHEMA",
    "TRACE_VERSION",
    "DecisionTracer",
    "TraceSummary",
    "TraceValidation",
    "read_trace",
    "replay_trace",
    "validate_trace",
]
