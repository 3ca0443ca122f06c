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

from repro.telemetry.causal import (
    CausalGraph,
    CriticalPath,
    build_graph,
    critical_path,
    explain,
    lamport_clocks,
)
from repro.telemetry.context import RunContext
from repro.telemetry.fast import AGGREGATE_NODE, FastTelemetry, LaneTrace, trace_fast_lane
from repro.telemetry.jsonl import (
    SCHEMA,
    SCHEMA_VERSION,
    JsonlRecorder,
    Trace,
    TraceSchemaError,
    dump_events,
    load_trace,
)
from repro.telemetry.metrics import Counter, Gauge, Histogram, MetricsRegistry, run_metrics
from repro.telemetry.profile import NULL_PROFILE, PhaseProfiler
from repro.telemetry.stats import (
    TraceDiff,
    TraceStats,
    diff_traces,
    filter_lane,
    render_timeline,
    trace_lanes,
    trace_stats,
)

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
