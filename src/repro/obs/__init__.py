"""obs — end-to-end observability for the two-phase cloaking pipeline.

One process-local metrics registry (counters, gauges, fixed-bucket
histograms), lightweight trace spans, and exporters (JSON snapshot,
Prometheus text).  Every layer of the request path reports through the
canonical names in :mod:`repro.obs.names`; when observability is
disabled (the default) each instrumentation point costs one global load
and one branch.

Typical use::

    from repro import obs

    obs.enable()
    ...  # run requests
    data = obs.snapshot()          # JSON-ready dict
    print(obs.to_prometheus())     # Prometheus text format
    obs.disable()

Inspect a saved snapshot from the shell::

    python -m repro.obs.report BENCH_wpg.json --top 10
"""

from repro.obs import names
from repro.obs import trace
from repro.obs.export import (
    load_snapshot,
    merge_snapshots,
    prometheus_text,
    snapshot,
    to_prometheus,
    validate_snapshot,
    validate_snapshot_file,
    write_snapshot,
)
from repro.obs.registry import (
    COUNT_BUCKETS,
    SECONDS_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    disable,
    enable,
    enabled,
    get_registry,
    inc,
    observe,
    set_gauge,
)
from repro.obs.registry import reset as _reset_metrics
from repro.obs import spans as _spans
from repro.obs.spans import SpanRecord, last_trace, recent_spans, reset_traces, span
from repro.obs.trace import (
    FlightRecorder,
    TraceEvent,
    current_trace_id,
    export_jsonl,
    get_recorder,
    install_recorder,
    request_scope,
    uninstall_recorder,
)


def reset() -> None:
    """Start a fresh observation window.

    Clears the active registry's metrics (when one is active) and, either
    way, the recent-span ring — so a forked worker that inherited its
    parent's spans starts clean.  Open spans and the trace context are
    left alone; :func:`reset_traces` clears those too.
    """
    _reset_metrics()
    _spans._recent.clear()


__all__ = [
    "COUNT_BUCKETS",
    "Counter",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SECONDS_BUCKETS",
    "SpanRecord",
    "TraceEvent",
    "current_trace_id",
    "disable",
    "enable",
    "enabled",
    "export_jsonl",
    "get_recorder",
    "get_registry",
    "inc",
    "install_recorder",
    "last_trace",
    "load_snapshot",
    "merge_snapshots",
    "names",
    "observe",
    "prometheus_text",
    "recent_spans",
    "request_scope",
    "reset",
    "reset_traces",
    "set_gauge",
    "snapshot",
    "span",
    "to_prometheus",
    "trace",
    "uninstall_recorder",
    "validate_snapshot",
    "validate_snapshot_file",
    "write_snapshot",
]
