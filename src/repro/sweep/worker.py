"""Worker-process entrypoints for the sharded sweep scheduler.

Everything here is a module-level function: ``ProcessPoolExecutor``
ships callables to workers by qualified name, so the cell functions (and
the :func:`invoke_cell` wrapper that times them) must be importable —
no lambdas, no closures.
"""

from __future__ import annotations

import os
import time
from typing import Any, Callable, Dict, Optional, Tuple

__all__ = ["invoke_cell", "run_spec_cell", "scenario_cell", "scenario_summary", "share_cores"]


#: Lanes a fast-engine kernel may run at once in this process, set by
#: :func:`share_cores` in sweep pool workers; ``None`` elsewhere.
CORE_SHARE: Optional[int] = None


def share_cores(width: int) -> None:
    """Pool initializer: this worker runs at most ``width`` lanes at once.

    The scheduler passes each worker its share of the cores, so a pool
    of ``w`` workers never runs more lane threads than there are cores
    (:func:`repro.fastsync.engine.lane_width` reads it).  Only the share
    is stored: a worker that runs object-engine cells alone never
    imports the fast engine or numpy.
    """
    global CORE_SHARE
    CORE_SHARE = width


def invoke_cell(
    fn: Callable[[Any], Tuple[Any, Dict[str, Any]]],
    payload: Any,
    spool_dir: Optional[str] = None,
    cell_index: Optional[int] = None,
) -> Tuple[Any, Dict[str, Any], int, float]:
    """Run one cell function, returning (value, metrics, pid, wall_s).

    The pid lets the parent map cells to worker slots (steal
    accounting); the wall time feeds the utilization gauges.  With a
    ``spool_dir``, the cell's snapshot is also appended to this
    process's spool shard (see :mod:`repro.obs.spool`) before the
    result crosses the process boundary — so the spool survives a
    parent crash and is observable while the sweep runs.
    """
    start = time.perf_counter()
    value, metrics = fn(payload)
    wall = time.perf_counter() - start
    if spool_dir is not None and cell_index is not None:
        from repro.obs.spool import spool_snapshot

        spool_snapshot(
            spool_dir, cell=cell_index, wall_s=wall, metrics=metrics
        )
    return value, metrics, os.getpid(), wall


def run_spec_cell(spec: Any) -> Tuple[Any, Dict[str, Any]]:
    """Execute one seed-block :class:`~repro.analysis.RunSpec` cell.

    Returns the records plus this cell's metric stream — record and
    message counters (deterministic, so the merged parent registry is
    identical for every worker count) tagged by resolved engine.
    """
    from repro.sweep.api import execute_spec
    from repro.telemetry.metrics import MetricsRegistry

    records = execute_spec(spec)
    registry = MetricsRegistry()
    # Record-derived only: counters must sum to the same totals no
    # matter how the scheduler blocked the seeds (the bit-identity
    # contract covers the merged registry, not just the records).
    registry.counter("sweep.records").inc(len(records))
    registry.counter("sweep.messages").inc(sum(r.messages for r in records))
    registry.counter(f"sweep.records[{spec.resolved_engine()}]").inc(len(records))
    if getattr(spec, "profile", False):
        # Fold the kernel-phase timings into the metric stream here, in
        # the process that measured them — ``record.extra["profile"]``
        # alone never crosses back into the parent registry, so
        # ``profile=True`` sweeps used to lose all child-process kernel
        # costs.  Batched lanes share one profiler dict; fold each
        # distinct profiler once.
        seen_profiles = set()
        for record in records:
            prof = record.extra.get("profile")
            if not prof or id(prof) in seen_profiles:
                continue
            seen_profiles.add(id(prof))
            for phase, agg in prof.items():
                hist = registry.histogram(f"profile.{phase}")
                hist.count += int(agg.get("calls", 0))
                hist.total += float(agg.get("total_s", 0.0))
    return records, registry.as_dict()


def scenario_cell(payload: Tuple[str, int, int, str, Any, float, bool]):
    """Execute one ``repro scenarios sweep`` cell in a worker process.

    ``payload`` is ``(scenario_json, n, seed, engine, inner, lag,
    quorum)`` — the scenario crosses the process boundary as its JSON
    DSL form (lossless round-trip, see ``repro.scenarios.dsl``) and the
    convergence metrics come back as a plain dict.
    """
    scenario_json, n, seed, engine, inner, lag, quorum = payload
    from repro.scenarios import ScenarioRunner, scenario_from_json
    from repro.telemetry.metrics import MetricsRegistry

    scenario = scenario_from_json(scenario_json)
    runner = ScenarioRunner(
        scenario, n, engine=engine, seed=seed, inner=inner, lag=lag,
        quorum=quorum,
    )
    m = runner.run().metrics
    registry = MetricsRegistry()
    registry.counter("sweep.records").inc(1)
    registry.counter("sweep.messages").inc(int(m.total_messages))
    registry.counter("sweep.records[scenario]").inc(1)
    return scenario_summary(m), registry.as_dict()


def scenario_summary(m: Any) -> Dict[str, Any]:
    """The convergence metrics one ``repro scenarios sweep`` row shows."""
    return {
        "elections": m.elections,
        "epoch_churn": m.epoch_churn,
        "mean_failover_latency": m.mean_failover_latency,
        "agreed_fraction": m.agreed_fraction,
        "total_messages": m.total_messages,
        "message_overhead": m.message_overhead,
        "final_agreed": m.final_agreed,
    }
