"""Unified observability layer spanning all three engines.

The pieces:

* :mod:`repro.telemetry.jsonl` — schema-versioned JSONL trace export
  (:class:`JsonlRecorder` / :func:`load_trace`), pluggable anywhere a
  recorder goes today.
* :mod:`repro.telemetry.metrics` — counters/gauges/histograms and
  :func:`run_metrics`, merged into ``RunRecord.extra["metrics"]`` by
  ``sweep.api``.
* :mod:`repro.telemetry.fast` — lane-aware aggregate counters for the
  vectorized engine (:class:`FastTelemetry`) and the sampled-lane tracer
  (:func:`trace_fast_lane`) that replays one lane on the object engine
  over identical wiring.
* :mod:`repro.telemetry.profile` — wall-clock phase timers around the
  fastsync kernels (:class:`PhaseProfiler`).
* :mod:`repro.telemetry.stats` — trace summaries, first-divergence
  diffs and the lane-aware ASCII timeline backing ``repro trace``.
* :mod:`repro.telemetry.causal` — happens-before analysis over loaded
  traces: Lamport clocks, the causal DAG, :func:`critical_path` and the
  :func:`explain` summary backing ``repro trace causal``.

Everything here imports without numpy; only :func:`trace_fast_lane`
needs the fast engine, and it imports it lazily.
"""

from repro._exports import lazy_exports


def _causal():
    from repro.telemetry.causal import (  # noqa: F401
        CausalGraph,
        CriticalPath,
        build_graph,
        critical_path,
        explain,
        lamport_clocks,
    )

    return locals()


def _context():
    from repro.telemetry.context import RunContext  # noqa: F401

    return locals()


def _fast():
    from repro.telemetry.fast import (  # noqa: F401
        AGGREGATE_NODE,
        FastTelemetry,
        LaneTrace,
        trace_fast_lane,
    )

    return locals()


def _jsonl():
    from repro.telemetry.jsonl import (  # noqa: F401
        SCHEMA,
        SCHEMA_VERSION,
        JsonlRecorder,
        Trace,
        TraceSchemaError,
        dump_events,
        load_trace,
    )

    return locals()


def _metrics():
    from repro.telemetry.metrics import (  # noqa: F401
        Counter,
        Gauge,
        Histogram,
        MetricsRegistry,
        run_metrics,
    )

    return locals()


def _profile():
    from repro.telemetry.profile import NULL_PROFILE, PhaseProfiler  # noqa: F401

    return locals()


def _stats():
    from repro.telemetry.stats import (  # noqa: F401
        TraceDiff,
        TraceStats,
        diff_traces,
        filter_lane,
        render_timeline,
        trace_lanes,
        trace_stats,
    )

    return locals()


__all__ = [
    "AGGREGATE_NODE",
    "CausalGraph",
    "Counter",
    "CriticalPath",
    "FastTelemetry",
    "Gauge",
    "Histogram",
    "JsonlRecorder",
    "LaneTrace",
    "MetricsRegistry",
    "NULL_PROFILE",
    "PhaseProfiler",
    "RunContext",
    "SCHEMA",
    "SCHEMA_VERSION",
    "Trace",
    "TraceDiff",
    "TraceSchemaError",
    "TraceStats",
    "build_graph",
    "critical_path",
    "diff_traces",
    "dump_events",
    "explain",
    "filter_lane",
    "lamport_clocks",
    "load_trace",
    "render_timeline",
    "run_metrics",
    "trace_fast_lane",
    "trace_lanes",
    "trace_stats",
]

__getattr__ = lazy_exports(
    globals(),
    _causal,
    _context,
    _fast,
    _jsonl,
    _metrics,
    _profile,
    _stats,
)
