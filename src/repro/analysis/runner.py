"""Experiment records + deprecated per-engine runner shims.

The runner flattens engine results into :class:`RunRecord` rows — the
unit every bench and table works with — and guarantees determinism:
record ``i`` of a sweep depends only on ``(n, seed)`` and the factory.

Since the RunSpec redesign the execution logic lives in
:mod:`repro.sweep.api`; the seven per-engine entrypoints below
(``run_sync_trial`` … ``sweep_async``) are thin **deprecated** shims
that build the equivalent :class:`~repro.sweep.RunSpec` and route
through :func:`repro.analysis.run` / :func:`repro.analysis.sweep`.
They produce bit-identical records to the new API and will be removed
one release after the redesign.
"""

from __future__ import annotations

import random
import warnings
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.asyncnet.engine import AsyncRunResult
from repro.sync.engine import SyncRunResult
from repro.telemetry.metrics import run_metrics

__all__ = [
    "RunRecord",
    "run_sync_trial",
    "run_async_trial",
    "run_fast_trial",
    "run_fast_batch",
    "sweep_sync",
    "sweep_async",
    "sweep_fast",
]


@dataclass
class RunRecord:
    """One run, flattened for analysis."""

    n: int
    seed: int
    messages: int
    time: float  # rounds (sync: last send round) or time units (async)
    unique_leader: bool
    elected_id: Optional[int]
    leaders: int
    decided: int
    awake: int
    params: Dict[str, Any] = field(default_factory=dict)
    extra: Dict[str, Any] = field(default_factory=dict)


def _fault_extra(result: Any, extra: Dict[str, Any]) -> Dict[str, Any]:
    """Merge failure accounting into a record's ``extra`` when present."""
    if result.crashed or result.fault_metrics is not None:
        extra["crashed"] = list(result.crashed)
        extra["unique_surviving_leader"] = result.unique_surviving_leader
        extra["surviving_leader_id"] = result.surviving_leader_id
        extra["fault_metrics"] = result.fault_metrics
    extra["metrics"] = run_metrics(result).as_dict()
    return extra


def _sync_record(n: int, seed: int, result: SyncRunResult, params: Dict[str, Any]) -> RunRecord:
    return RunRecord(
        n=n,
        seed=seed,
        messages=result.messages,
        time=float(result.last_send_round),
        unique_leader=result.unique_leader,
        elected_id=result.elected_id,
        leaders=len(result.leaders),
        decided=result.decided_count,
        awake=result.awake_count,
        params=dict(params),
        extra=_fault_extra(result, {"rounds_executed": result.rounds_executed}),
    )


def _async_record(n: int, seed: int, result: AsyncRunResult, params: Dict[str, Any]) -> RunRecord:
    return RunRecord(
        n=n,
        seed=seed,
        messages=result.messages,
        time=result.time,
        unique_leader=result.unique_leader,
        elected_id=result.elected_id,
        leaders=len(result.leaders),
        decided=result.decided_count,
        awake=result.awake_count,
        params=dict(params),
        extra=_fault_extra(result, {"events": result.events}),
    )


def _fast_algorithm(algorithm: Any, params: Optional[Dict[str, Any]]) -> Any:
    from repro.fastsync import get_fast_algorithm

    if isinstance(algorithm, str):
        return get_fast_algorithm(algorithm)(**(params or {}))
    if callable(algorithm):
        return algorithm()
    return algorithm


def _fast_record(
    n: int, seed: int, result: Any, params: Optional[Dict[str, Any]]
) -> RunRecord:
    record = RunRecord(
        n=n,
        seed=seed,
        messages=result.messages,
        time=float(result.last_send_round),
        unique_leader=result.unique_leader,
        elected_id=result.elected_id,
        leaders=len(result.leaders),
        decided=result.decided_count,
        awake=result.awake_count,
        params=dict(params or {}),
        extra={
            "rounds_executed": result.rounds_executed,
            "engine": "fast",
            "mode": result.mode,
            "wall_time_s": result.wall_time_s,
        },
    )
    if result.crashed or result.fault_metrics is not None:
        record.extra["crashed"] = list(result.crashed)
        record.extra["unique_surviving_leader"] = result.unique_surviving_leader
        record.extra["surviving_leader_id"] = result.surviving_leader_id
        record.extra["fault_metrics"] = result.fault_metrics
        record.extra["leader_nodes"] = list(result.leaders)
        record.extra["leader_ids"] = list(result.leader_ids)
    if result.outputs is not None:
        record.extra["outputs"] = list(result.outputs)
    record.extra["metrics"] = run_metrics(result).as_dict()
    return record


def _deprecated(old: str, new: str) -> None:
    warnings.warn(
        f"repro.analysis.{old}() is deprecated; build a repro.analysis."
        f"RunSpec and call repro.analysis.{new}() instead (this shim is "
        "kept for one release)",
        DeprecationWarning,
        stacklevel=3,
    )


def run_sync_trial(
    n: int,
    algorithm_factory: Callable[[], Any],
    *,
    seed: int = 0,
    ids: Optional[Sequence[int]] = None,
    awake: Optional[Sequence[int]] = None,
    max_rounds: Optional[int] = None,
    params: Optional[Dict[str, Any]] = None,
    faults: Optional[Any] = None,
    recorder: Optional[Any] = None,
    keep_result: bool = False,
) -> RunRecord:
    """Deprecated shim: one synchronous election via the RunSpec executor.

    ``faults`` takes a :class:`repro.faults.FaultPlan`; ``keep_result``
    stashes the raw engine result under ``extra["result"]`` for callers
    that need more than the flattened record (the failover runner).
    """
    _deprecated("run_sync_trial", "run")
    from repro.sweep.api import run
    from repro.sweep.spec import RunSpec

    return run(
        RunSpec(
            algorithm=algorithm_factory,
            n=n,
            engine="sync",
            seeds=(seed,),
            params=params or {},
            ids=ids,
            awake=awake,
            max_rounds=max_rounds,
            faults=faults,
        ),
        recorder=recorder,
        keep_result=keep_result,
    )


def run_async_trial(
    n: int,
    algorithm_factory: Callable[[], Any],
    *,
    seed: int = 0,
    ids: Optional[Sequence[int]] = None,
    scheduler: Optional[Any] = None,
    wake_times: Optional[Dict[int, float]] = None,
    max_events: Optional[int] = None,
    params: Optional[Dict[str, Any]] = None,
    faults: Optional[Any] = None,
    recorder: Optional[Any] = None,
    keep_result: bool = False,
) -> RunRecord:
    """Deprecated shim: one asynchronous election via the RunSpec executor."""
    _deprecated("run_async_trial", "run")
    from repro.sweep.api import run
    from repro.sweep.spec import RunSpec

    return run(
        RunSpec(
            algorithm=algorithm_factory,
            n=n,
            engine="async",
            seeds=(seed,),
            params=params or {},
            ids=ids,
            wake_times=wake_times,
            max_events=max_events,
            faults=faults,
        ),
        recorder=recorder,
        scheduler=scheduler,
        keep_result=keep_result,
    )


def run_fast_trial(
    n: int,
    algorithm: Any,
    *,
    seed: int = 0,
    ids: Optional[Sequence[int]] = None,
    mode: str = "auto",
    max_rounds: Optional[int] = None,
    params: Optional[Dict[str, Any]] = None,
    crashes: Optional[Sequence[Any]] = None,
    roots: Optional[Sequence[int]] = None,
    keep_result: bool = False,
    telemetry: Optional[Any] = None,
    profile: bool = False,
) -> RunRecord:
    """Deprecated shim: one vectorized election via the RunSpec executor.

    ``algorithm`` is a registry name (constructed with ``params``), a
    zero-argument factory, or a ready :class:`~repro.fastsync.VectorAlgorithm`;
    ``crashes`` is a deterministic ``(node, at-round)`` crash-stop
    schedule and ``roots`` an adversarial wake-up schedule.
    """
    _deprecated("run_fast_trial", "run")
    from repro.sweep.api import run
    from repro.sweep.spec import RunSpec

    return run(
        RunSpec(
            algorithm=algorithm,
            n=n,
            engine="fast",
            seeds=(seed,),
            params=params or {},
            ids=ids,
            mode=mode,
            max_rounds=max_rounds,
            crashes=crashes,
            roots=roots,
            profile=profile,
        ),
        telemetry=telemetry,
        keep_result=keep_result,
    )


def run_fast_batch(
    n: int,
    algorithm: Any,
    *,
    seeds: Sequence[int],
    ids: Optional[Sequence[int]] = None,
    mode: str = "auto",
    max_rounds: Optional[int] = None,
    params: Optional[Dict[str, Any]] = None,
    crashes: Optional[Sequence[Any]] = None,
    lane_crashes: Optional[Sequence[Any]] = None,
    roots: Optional[Sequence[int]] = None,
    keep_result: bool = False,
    telemetry: Optional[Any] = None,
    profile: bool = False,
) -> List[RunRecord]:
    """Deprecated shim: one batched vectorized execution, one record per lane.

    All lanes share the ``(n, ids, algorithm, params)`` configuration;
    lane ``b`` equals a single run with ``seeds[b]``.
    """
    _deprecated("run_fast_batch", "sweep")
    from repro.sweep.api import execute_spec
    from repro.sweep.spec import RunSpec

    seed_list = tuple(seeds)
    return execute_spec(
        RunSpec(
            algorithm=algorithm,
            n=n,
            engine="fast",
            seeds=seed_list,
            batch=len(seed_list),
            params=params or {},
            ids=ids,
            mode=mode,
            max_rounds=max_rounds,
            crashes=crashes,
            lane_crashes=lane_crashes,
            roots=roots,
            profile=profile,
        ),
        telemetry=telemetry,
        keep_result=keep_result,
    )


def sweep_sync(
    ns: Sequence[int],
    factory_for_n: Callable[[int], Callable[[], Any]],
    *,
    seeds: Sequence[int] = (0,),
    ids_for_n: Optional[Callable[[int, random.Random], Sequence[int]]] = None,
    awake_for_n: Optional[Callable[[int, random.Random], Sequence[int]]] = None,
    max_rounds: Optional[int] = None,
    params: Optional[Dict[str, Any]] = None,
) -> List[RunRecord]:
    """Deprecated shim: a synchronous grid sweep via the RunSpec executor.

    ``ids_for_n`` / ``awake_for_n`` receive a seeded RNG so workloads are
    reproducible per (n, seed).
    """
    _deprecated("sweep_sync", "sweep")
    from repro.sweep.api import sweep
    from repro.sweep.spec import RunSpec

    grid = []
    for n in ns:
        for seed in seeds:
            rng = random.Random(f"{n}:{seed}:workload")
            ids = ids_for_n(n, rng) if ids_for_n else None
            awake = awake_for_n(n, rng) if awake_for_n else None
            grid.append(
                RunSpec(
                    algorithm=factory_for_n(n),
                    n=n,
                    engine="sync",
                    seeds=(seed,),
                    params=params or {},
                    ids=ids,
                    awake=awake,
                    max_rounds=max_rounds,
                )
            )
    return sweep(grid)


def sweep_fast(
    ns: Sequence[int],
    name: str,
    *,
    seeds: Sequence[int] = (0,),
    ids_for_n: Optional[Callable[[int, random.Random], Sequence[int]]] = None,
    mode: str = "auto",
    max_rounds: Optional[int] = None,
    params: Optional[Dict[str, Any]] = None,
    batch: Optional[int] = None,
) -> List[RunRecord]:
    """Deprecated shim: a vectorized grid sweep via the RunSpec executor.

    ``batch`` dispatches whole seed-batches per ``n`` point through
    multi-lane engine runs of ``batch`` lanes each; batched lanes share
    one ID assignment per ``n``, so ``batch`` and per-seed ``ids_for_n``
    are mutually exclusive.
    """
    _deprecated("sweep_fast", "sweep")
    from repro.sweep.api import sweep
    from repro.sweep.spec import RunSpec

    if batch is not None and batch < 1:
        raise ValueError("need batch >= 1")
    if batch is not None and ids_for_n is not None:
        raise ValueError(
            "batched sweeps share one ID assignment per n; "
            "ids_for_n draws per-seed IDs — drop one of the two"
        )
    grid = []
    for n in ns:
        if batch is not None:
            grid.append(
                RunSpec(
                    algorithm=name,
                    n=n,
                    engine="fast",
                    seeds=tuple(seeds),
                    batch=batch,
                    params=params or {},
                    mode=mode,
                    max_rounds=max_rounds,
                )
            )
            continue
        for seed in seeds:
            rng = random.Random(f"{n}:{seed}:workload")
            ids = ids_for_n(n, rng) if ids_for_n else None
            grid.append(
                RunSpec(
                    algorithm=name,
                    n=n,
                    engine="fast",
                    seeds=(seed,),
                    params=params or {},
                    ids=ids,
                    mode=mode,
                    max_rounds=max_rounds,
                )
            )
    return sweep(grid)


def sweep_async(
    ns: Sequence[int],
    factory_for_n: Callable[[int], Callable[[], Any]],
    *,
    seeds: Sequence[int] = (0,),
    scheduler_for_n: Optional[Callable[[int, random.Random], Any]] = None,
    wake_times_for_n: Optional[Callable[[int, random.Random], Dict[int, float]]] = None,
    max_events: Optional[int] = None,
    params: Optional[Dict[str, Any]] = None,
) -> List[RunRecord]:
    """Deprecated shim: an asynchronous grid sweep via the RunSpec executor."""
    _deprecated("sweep_async", "sweep")
    from repro.sweep.api import run
    from repro.sweep.spec import RunSpec

    records = []
    for n in ns:
        for seed in seeds:
            rng = random.Random(f"{n}:{seed}:workload")
            scheduler = scheduler_for_n(n, rng) if scheduler_for_n else None
            wake_times = wake_times_for_n(n, rng) if wake_times_for_n else None
            records.append(
                run(
                    RunSpec(
                        algorithm=factory_for_n(n),
                        n=n,
                        engine="async",
                        seeds=(seed,),
                        params=params or {},
                        wake_times=wake_times,
                        max_events=max_events,
                    ),
                    scheduler=scheduler,
                )
            )
    return records
