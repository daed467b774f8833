"""Dependency-free observability: metrics, traces, run logs, profiles.

The measurement substrate behind the Table 4 runtime accounting and every
future performance claim.  The pieces:

``repro.telemetry.metrics``
    ``Counter`` / ``Gauge`` / ``Histogram`` and the labeled
    :class:`MetricsRegistry` with deterministic JSON export.
``repro.telemetry.trace``
    Nested context-manager :class:`Span` tracing via :class:`Tracer`, with
    stable trace/span/parent IDs that survive worker-pool fan-out.  Worker
    shards ship their spans back, and :meth:`Tracer.record_into` turns the
    merged spans into the stage metrics.
``repro.telemetry.events``
    The event table :data:`EVENTS` (each event defined once) and the
    schema-versioned JSONL :class:`RunLogger` (crash-tolerant, incremental).
``repro.telemetry.hooks``
    :class:`TelemetryHook` and its one ``emit``, and the
    :class:`RunLoggerHook` bridge into a run log and a metrics registry.
``repro.telemetry.export``
    Chrome-trace-event JSON for merged traces; Prometheus text and JSON
    snapshots for aggregated metrics.
``repro.telemetry.profile``
    The per-layer :class:`LayerProfiler` and its :class:`ProfileReport`.
``repro.telemetry.report``
    :func:`build_report`: correlate log + trace + metrics + profile into
    the :class:`RunReport` behind ``repro report``.
``repro.telemetry.buildinfo``
    :func:`build_fingerprint`: version + git SHA stamped into ``run_start``
    events and BENCH artifacts.
"""

from .metrics import (
    DEFAULT_LATENCY_BUCKETS_S,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .trace import (
    Span,
    SpanRecord,
    TraceContext,
    Tracer,
    activate_tracer,
    get_active_tracer,
    next_trace_id,
)
from .events import (
    BREAKER_STATES,
    BREAKER_TRANSITIONS,
    CANARY_VERDICTS,
    EVENT_TYPES,
    EVENTS,
    SCHEMA_VERSION,
    TRIAL_STATUSES,
    RunLogger,
    next_run_id,
    read_run_log,
    split_runs,
    validate_run_log,
)
from .hooks import NULL_HOOK, RunLoggerHook, TelemetryHook
from .buildinfo import build_fingerprint
from .export import (
    to_chrome_trace,
    to_prometheus_text,
    validate_chrome_trace,
    write_chrome_trace,
    write_metrics,
)
from .profile import LayerProfiler, LayerStats, ProfileReport, profiled
from .report import RunReport, RunSummary, WorkerUsage, build_report

__all__ = [
    "DEFAULT_LATENCY_BUCKETS_S",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "SpanRecord",
    "TraceContext",
    "Tracer",
    "activate_tracer",
    "get_active_tracer",
    "next_trace_id",
    "BREAKER_STATES",
    "BREAKER_TRANSITIONS",
    "CANARY_VERDICTS",
    "EVENT_TYPES",
    "EVENTS",
    "SCHEMA_VERSION",
    "TRIAL_STATUSES",
    "RunLogger",
    "next_run_id",
    "read_run_log",
    "split_runs",
    "validate_run_log",
    "NULL_HOOK",
    "RunLoggerHook",
    "TelemetryHook",
    "build_fingerprint",
    "to_chrome_trace",
    "to_prometheus_text",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_metrics",
    "LayerProfiler",
    "LayerStats",
    "ProfileReport",
    "profiled",
    "RunReport",
    "RunSummary",
    "WorkerUsage",
    "build_report",
]
