"""``repro.obs`` — tracing and telemetry for the simulation stack.

Three pieces (see docs/observability.md for the full tour):

* **lifecycle recorders** (:mod:`repro.obs.recorder`, :mod:`repro.obs.spans`)
  — per-update span trees ``issue → send → enqueue → deliver → buffered →
  apply`` plus prune and wake events, zero-cost when disabled;
* **metrics registry** (:mod:`repro.obs.registry`) — labelled counters /
  gauges / histograms with snapshot, diff, and cross-process merge;
* **durable JSONL traces** (:mod:`repro.obs.jsonl`, :mod:`repro.obs.replay`,
  :mod:`repro.obs.timeline`) — record a run with ``ClusterConfig(trace=...)``,
  reload it, re-drive the causal sanitizer, render timelines with
  ``repro-sim trace``;
* **live-service observability** (:mod:`repro.obs.flight`,
  :mod:`repro.obs.export`) — the always-on bounded flight-recorder ring
  that dumps TRACE_VERSION post-mortems, and Prometheus text exposition
  over a dependency-free asyncio responder.

Layering: ``obs`` sits with ``verify``/``store`` (rank 2) — it may import
``core`` and ``types`` freely but reaches ``verify`` only through
function-local deferred imports.
"""

from repro.obs.export import (
    parse_exposition,
    parse_metric_key,
    prometheus_text,
    serve_metrics,
)
from repro.obs.flight import DEFAULT_FLIGHT_CAPACITY, FlightRecorder
from repro.obs.jsonl import LoadedTrace, load_trace
from repro.obs.recorder import (
    KINDS,
    TRACE_VERSION,
    NullRecorder,
    TraceRecorder,
    decode_write_id,
    encode_write_id,
)
from repro.obs.registry import (
    DEFAULT_TIME_BUCKETS_MS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    metric_key,
)
from repro.obs.replay import ReplayReport, replay_trace
from repro.obs.spans import DeliverySpan, UpdateSpan, build_spans
from repro.obs.timeline import (
    format_write_id,
    parse_write_id,
    render_report,
    render_update,
)

__all__ = [
    "KINDS",
    "TRACE_VERSION",
    "DEFAULT_FLIGHT_CAPACITY",
    "DEFAULT_TIME_BUCKETS_MS",
    "Counter",
    "DeliverySpan",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "LoadedTrace",
    "MetricsRegistry",
    "NullRecorder",
    "ReplayReport",
    "TraceRecorder",
    "UpdateSpan",
    "build_spans",
    "decode_write_id",
    "encode_write_id",
    "format_write_id",
    "load_trace",
    "metric_key",
    "parse_exposition",
    "parse_metric_key",
    "parse_write_id",
    "prometheus_text",
    "render_report",
    "render_update",
    "replay_trace",
    "serve_metrics",
]
