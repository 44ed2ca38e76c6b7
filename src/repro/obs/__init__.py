"""Unified observability layer: metrics, stage traces, run reports.

The pipeline is an inference-from-aggregates system; this package makes
the pipeline itself observable the same way. Three pieces:

* :mod:`repro.obs.registry` — a process-wide :class:`MetricsRegistry`
  of counters, gauges and fixed-edge histograms with deterministic
  merge semantics (worker snapshots fold in order-independently);
* :mod:`repro.obs.spans` — nestable :func:`span` timers producing the
  stage trace ``ingest → validate → seal → window_build → solve →
  commit``, aggregated per slash-joined path;
* :mod:`repro.obs.report` — the canonical ``domo.run_report/1`` JSON
  document (:class:`RunReport`), its validator and pretty-printer,
  written by ``domo ... --metrics-out`` and read by ``domo report``.

The window-solve and stream-lifecycle telemetry records live here too
(:mod:`repro.obs.solver_telemetry`, :mod:`repro.obs.stream_telemetry`).
"""

from repro.obs.registry import (
    COUNT_EDGES,
    ITERATION_EDGES,
    RESIDUAL_EDGES,
    TIME_EDGES_S,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    current_registry,
    disabled_metrics,
    inc,
    isolated_registry,
    observe,
    set_gauge,
)
from repro.obs.report import (
    RUN_REPORT_SCHEMA,
    RunReport,
    build_run_report,
    collect_env,
    format_run_report,
    sanitize_json,
    validate_report,
    write_run_report,
)
from repro.obs.solver_telemetry import (
    SOLVER_KINDS,
    WindowTelemetry,
    format_telemetry_report,
    summarize_telemetry,
)
from repro.obs.spans import current_span_path, span
from repro.obs.stream_telemetry import (
    StreamTelemetry,
    format_stream_report,
    merge_stream_stats,
)

__all__ = [
    "COUNT_EDGES",
    "ITERATION_EDGES",
    "RESIDUAL_EDGES",
    "RUN_REPORT_SCHEMA",
    "SOLVER_KINDS",
    "TIME_EDGES_S",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RunReport",
    "StreamTelemetry",
    "WindowTelemetry",
    "build_run_report",
    "collect_env",
    "current_registry",
    "current_span_path",
    "disabled_metrics",
    "format_run_report",
    "format_stream_report",
    "format_telemetry_report",
    "inc",
    "isolated_registry",
    "merge_stream_stats",
    "observe",
    "sanitize_json",
    "set_gauge",
    "span",
    "summarize_telemetry",
    "validate_report",
    "write_run_report",
]
