"""``run(spec)`` / ``sweep(grid)``: the unified execution entrypoints.

:func:`execute_spec` is the one place a :class:`RunSpec` turns into
engine runs — sync, async and fast specs all dispatch here, and it
flattens each engine result into a :class:`~repro.analysis.RunRecord`.
The CLI, benches, examples and the sweep scheduler's worker processes
are all thin layers over it.  :func:`run` executes a single-seed spec;
:func:`sweep` fans a spec grid out over the sharded scheduler
(``workers=1`` degrades to a plain in-process loop and stays
bit-identical to any worker count).
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import sys
from typing import Any, Callable, Dict, Iterable, List, Optional, Set, Tuple, Union

from repro.analysis.runner import RunRecord
from repro.common import paused_gc
from repro.sweep.scheduler import SweepCell, run_cells
from repro.sweep.spec import RunSpec
from repro.telemetry.metrics import run_metrics

__all__ = ["run", "sweep", "execute_spec"]


def _object_factory(spec: RunSpec, engine: str) -> Callable[[], Any]:
    """The zero-argument algorithm factory an object engine consumes."""
    algorithm = spec.algorithm
    if not isinstance(algorithm, str):
        if callable(algorithm):
            return algorithm
        raise ValueError(
            f"RunSpec.algorithm must be a registry name or a zero-argument "
            f"factory for the {engine} engine, got {type(algorithm).__name__}"
        )
    from repro.core.registry import get_algorithm

    name, params = spec.object_election()
    return get_algorithm(name).make(engine=engine, **params)


def _fault_extra(result: Any, extra: Dict[str, Any]) -> Dict[str, Any]:
    """Merge failure accounting into a record's ``extra`` when present."""
    if result.crashed or result.fault_metrics is not None:
        extra["crashed"] = list(result.crashed)
        extra["unique_surviving_leader"] = result.unique_surviving_leader
        extra["surviving_leader_id"] = result.surviving_leader_id
        extra["fault_metrics"] = result.fault_metrics
    extra["metrics"] = run_metrics(result).as_dict()
    return extra


def _sync_record(n: int, seed: int, result: Any, params: Dict[str, Any]) -> RunRecord:
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


def _async_record(n: int, seed: int, result: Any, params: Dict[str, Any]) -> RunRecord:
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
    """The vector algorithm a fast spec names, builds or carries."""
    from repro.fastsync import get_fast_algorithm

    if isinstance(algorithm, str):
        return get_fast_algorithm(algorithm)(**(params or {}))
    if callable(algorithm):
        return algorithm()
    return algorithm


def _fast_record(
    n: int, seed: int, result: Any, params: Optional[Dict[str, Any]]
) -> RunRecord:
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
        params=dict(params or {}),
        extra=_fault_extra(
            result,
            {
                "rounds_executed": result.rounds_executed,
                "engine": "fast",
                "mode": result.mode,
                "wall_time_s": result.wall_time_s,
            },
        ),
    )


def _measure_failover(result: Any, events: List[Any]) -> Dict[str, Any]:
    """Failover numbers of one faulted run, read off its event stream.

    ``detection_latencies`` holds one crash-to-first-suspicion delay per
    detected crash; ``reelection_time`` runs from the first crash to the
    last LEADER decision (``None`` without a crash or a later leader);
    ``messages_after_first_crash`` counts the sends from the first crash
    on.
    """
    from repro.common import Decision

    metrics = result.fault_metrics
    crash_times = sorted(when for when, _u in metrics.crashes) if metrics else []
    first_crash = crash_times[0] if crash_times else None
    reelection_time = None
    messages_after = 0
    if first_crash is not None:
        leader_decides = [
            e.when
            for e in events
            if e.kind == "decide" and e.detail[0] is Decision.LEADER
        ]
        if leader_decides and leader_decides[-1] >= first_crash:
            reelection_time = leader_decides[-1] - first_crash
        messages_after = sum(
            1 for e in events if e.kind == "send" and e.when >= first_crash
        )
    crashed_at = {u: when for when, u in (metrics.crashes if metrics else [])}
    return {
        "detection_latencies": (
            metrics.detection_latencies(crashed_at) if metrics else []
        ),
        "reelection_time": reelection_time,
        "messages_after_first_crash": messages_after,
    }


def _trace_recorder(spec: RunSpec, engine: str, recorder: Optional[Any]):
    """A JSONL recorder for ``spec.trace`` on the object engines."""
    if spec.trace is None or engine == "fast":
        return recorder, None
    if recorder is not None:
        raise ValueError("pass either RunSpec.trace or recorder=, not both")
    from repro.telemetry import JsonlRecorder, RunContext

    jsonl = JsonlRecorder(
        spec.trace,
        context=RunContext(
            algorithm=spec.algorithm_name or repr(spec.algorithm),
            n=spec.n,
            seed=spec.seeds[0],
            engine=engine,
            params=spec.params,
        ),
    )
    return jsonl, jsonl


def _execute_object(
    spec: RunSpec,
    engine: str,
    *,
    recorder: Optional[Any],
    scheduler: Optional[Any],
    keep_result: bool,
) -> List[RunRecord]:
    from repro.asyncnet.engine import AsyncNetwork
    from repro.sync.engine import SyncNetwork

    faults = spec.effective_faults()
    factory = _object_factory(spec, engine)
    trial_recorder, jsonl = _trace_recorder(spec, engine, recorder)
    records = []
    try:
        for seed in spec.seeds:
            with paused_gc():
                failover = None
                seed_recorder = trial_recorder
                if faults is not None:
                    # Faulted runs measure their failover off the sends and
                    # decides, next to whatever sink the caller attached.
                    from repro.trace.events import CompositeRecorder, MemoryRecorder

                    failover = MemoryRecorder(kinds=("send", "decide"))
                    seed_recorder = failover
                    if trial_recorder is not None:
                        seed_recorder = CompositeRecorder(failover, trial_recorder)
                if engine == "sync":
                    net = SyncNetwork(
                        spec.n,
                        factory,
                        ids=spec.ids,
                        seed=seed,
                        awake=spec.awake,
                        max_rounds=spec.max_rounds,
                        faults=faults,
                        recorder=seed_recorder,
                    )
                    result = net.run()
                    record = _sync_record(spec.n, seed, result, spec.params)
                else:
                    net = AsyncNetwork(
                        spec.n,
                        factory,
                        ids=spec.ids,
                        seed=seed,
                        scheduler=scheduler,
                        wake_times=spec.wake_times,
                        max_events=spec.max_events,
                        faults=faults,
                        recorder=seed_recorder,
                    )
                    result = net.run()
                    record = _async_record(spec.n, seed, result, spec.params)
                if failover is not None:
                    measured = _measure_failover(result, failover.events)
                    record.extra["failover"] = measured
                    if measured["reelection_time"] is not None:
                        record.extra["metrics"]["gauges"]["failover_latency"] = (
                            measured["reelection_time"]
                        )
                if keep_result:
                    record.extra["result"] = result
                records.append(record)
    finally:
        if jsonl is not None:
            jsonl.close()
    if jsonl is not None:
        records[0].extra["trace"] = {
            "path": spec.trace,
            "events": jsonl.events_written,
        }
    return records


def _fast_profiler(spec: RunSpec) -> Optional[Any]:
    if not spec.profile:
        return None
    from repro.telemetry.profile import PhaseProfiler

    return PhaseProfiler()


def _execute_fast(
    spec: RunSpec, *, telemetry: Optional[Any], keep_result: bool
) -> List[RunRecord]:
    from repro.fastsync import FastSyncNetwork

    faults = spec.effective_faults()
    fast_trace = telemetry
    if spec.trace is not None and fast_trace is None:
        from repro.telemetry import FastTelemetry

        fast_trace = FastTelemetry()
    # Every engine run executes one chunk of seeds as lanes; an unbatched
    # spec runs one lane per seed.  The fault runtime (and the quorum
    # veto it feeds) is single-lane — it replays one run's sequential
    # fault streams in the object engine's draw order, which has no lane
    # axis — so batched
    # faulted and quorum specs run one lane per seed too, with the same
    # records and shard boundaries.
    batched = spec.batch is not None and faults is None and not spec.quorum
    size = spec.batch if batched else 1
    seeds = list(spec.seeds)
    records: List[RunRecord] = []
    for start in range(0, len(seeds), size):
        with paused_gc():
            chunk = seeds[start : start + size]
            profiler = _fast_profiler(spec)
            # Unnamed, so each network (and its lane buffers) is freed
            # before the next chunk builds its own.
            results = FastSyncNetwork(
                spec.n,
                ids=spec.ids,
                seeds=chunk,
                mode=spec.mode,
                max_rounds=spec.max_rounds,
                roots=spec.roots,
                faults=faults,
                quorum=spec.quorum,
                telemetry=fast_trace,
                profiler=profiler,
            ).run(_fast_algorithm(spec.algorithm, spec.params))
            for seed, result in zip(chunk, results):
                record = _fast_record(spec.n, seed, result, spec.params)
                if batched:
                    record.extra["batch"] = len(chunk)
                if profiler is not None:
                    # One execution, one timer set: lanes share it.
                    record.extra["profile"] = profiler.as_dict()
                if keep_result:
                    record.extra["result"] = result
                records.append(record)
    if spec.trace is not None and telemetry is None:
        from repro.telemetry import JsonlRecorder, RunContext

        context = RunContext(
            algorithm=spec.algorithm_name or repr(spec.algorithm),
            n=spec.n,
            seed=spec.seeds[0],
            engine="fast",
            mode=fast_trace.mode,
            params=spec.params,
        )
        lanes = fast_trace.lanes
        with JsonlRecorder(spec.trace, context=context) as jsonl:
            for lane in lanes:
                # Single-lane traces stay annotation-free (byte-stable
                # with earlier exports); batched runs stamp each lane so
                # render_timeline(lane=...) can untangle them.
                if len(lanes) > 1:
                    jsonl.annotate(lane=lane)
                for event in fast_trace.events(lane):
                    jsonl.emit(event)
            written = jsonl.events_written
        records[0].extra["trace"] = {"path": spec.trace, "events": written}
    return records


def execute_spec(
    spec: RunSpec,
    *,
    recorder: Optional[Any] = None,
    telemetry: Optional[Any] = None,
    scheduler: Optional[Any] = None,
    keep_result: bool = False,
) -> List[RunRecord]:
    """Execute every seed of one spec in-process, one record per seed.

    The runtime-only knobs (``recorder`` event sinks, ``FastTelemetry``
    binds, async ``scheduler`` adversaries, ``keep_result`` raw-result
    stashing) are deliberately *not* spec fields: they carry live
    objects, and specs must stay picklable.  Cells carrying them run in
    the parent process.

    Each seed's work (each lane chunk's on the fast engine) runs with
    the cyclic garbage collector paused (:func:`repro.common.paused_gc`):
    building the network, ``run()`` and assembling the record.  A run
    frees its state by reference counting, so the collector's sweeps
    would only re-traverse live port maps and messages.  Pausing per
    seed bounds any cyclic garbage left pending to one run.
    """
    engine = spec.resolved_engine()
    if engine == "fast":
        if recorder is not None or scheduler is not None:
            raise ValueError(
                "recorder=/scheduler= are object-engine knobs; the fast "
                "engine takes telemetry= (FastTelemetry) instead"
            )
        return _execute_fast(spec, telemetry=telemetry, keep_result=keep_result)
    if telemetry is not None:
        raise ValueError("telemetry= (FastTelemetry) needs the fast engine")
    # Free the fast engine's cached wirings before the object engine's
    # own peak.  Looked up, not imported: without a loaded fast engine
    # (or without numpy) nothing is cached.
    fast_engine = sys.modules.get("repro.fastsync.engine")
    if fast_engine is not None:
        fast_engine.release_wirings()
    if engine == "async":
        return _execute_object(
            spec, "async", recorder=recorder, scheduler=scheduler,
            keep_result=keep_result,
        )
    if scheduler is not None:
        raise ValueError("scheduler= adversaries need the async engine")
    return _execute_object(
        spec, "sync", recorder=recorder, scheduler=None, keep_result=keep_result,
    )


def run(
    spec: RunSpec,
    *,
    recorder: Optional[Any] = None,
    telemetry: Optional[Any] = None,
    scheduler: Optional[Any] = None,
    keep_result: bool = False,
) -> RunRecord:
    """Execute a single-seed :class:`RunSpec` and return its record."""
    if len(spec.seeds) != 1 or spec.batch is not None:
        raise ValueError(
            "run() executes exactly one seed (no batch); use sweep() for "
            "seed grids and batched lanes"
        )
    return execute_spec(
        spec,
        recorder=recorder,
        telemetry=telemetry,
        scheduler=scheduler,
        keep_result=keep_result,
    )[0]


def _shard(spec: RunSpec, workers: int) -> List[RunSpec]:
    """Split one spec into seed-block sub-specs (scheduler cells).

    Fast batched specs shard on their lane-chunk boundaries — the exact
    chunks the in-process executor would run, so lane grouping (and with
    it bit-identity) is preserved.  Everything else blocks seeds so each
    spec yields about ``4 * workers`` cells; every seed is independently
    seeded, so the block size never affects results.
    """
    seeds = spec.seeds
    if spec.batch is not None:
        return [
            dataclasses.replace(spec, seeds=seeds[start : start + spec.batch])
            for start in range(0, len(seeds), spec.batch)
        ]
    if workers <= 1 or len(seeds) == 1:
        return [spec]
    block = max(1, math.ceil(len(seeds) / (workers * 4)))
    return [
        dataclasses.replace(spec, seeds=seeds[start : start + block])
        for start in range(0, len(seeds), block)
    ]


def resolve_engines(grid: List[RunSpec]) -> None:
    """Look up each named algorithm of ``grid`` for its resolved engine.

    Runs in the calling process, once per distinct (engine, election,
    parameters): a name with no class for its engine, or parameters its
    class rejects, raise here, before any cell is scheduled.  It also
    imports what the cells will run — the engines, each object
    election (built once, so a wrapper imports its inner election) and,
    for a faulted grid, the fault layer — so fork-started pool workers
    inherit them and import nothing during a cell.  Fast lookups import
    numpy and :mod:`repro.fastsync`; object lookups go through
    :mod:`repro.core.registry` and load no numpy.
    """
    engines = {spec.resolved_engine() for spec in grid}
    if engines - {"fast"}:
        # What _execute_object imports.
        from repro.asyncnet.engine import AsyncNetwork  # noqa: F401
        from repro.sync.engine import SyncNetwork  # noqa: F401
    if "fast" in engines:
        # What _execute_fast imports.
        from repro.fastsync import FastSyncNetwork  # noqa: F401
    if any(spec.effective_faults() is not None for spec in grid):
        # What a faulted run imports on first use: the fault and
        # adversary runtimes, the detectors and the failover recorder.
        from repro.adversary.runtime import AdversaryRuntime  # noqa: F401
        from repro.faults.detectors import engine_detector  # noqa: F401
        from repro.faults.runtime import FaultRuntime  # noqa: F401
        from repro.trace.events import MemoryRecorder  # noqa: F401
    seen = set()
    for spec in grid:
        if spec.algorithm_name is None:
            continue
        engine = spec.resolved_engine()
        key = (engine, repr(spec.object_election()))
        if key in seen:
            continue
        seen.add(key)
        if engine == "fast":
            from repro.fastsync import get_fast_algorithm

            get_fast_algorithm(spec.algorithm_name)
        else:
            _object_factory(spec, engine)()


def _shared_wiring_keys(cells: List[SweepCell]) -> Set[Tuple[int, int]]:
    """The exact-mode ``(n, seed)`` port matrices two or more cells need.

    Only these are worth publishing to the other pool workers: a key
    one cell needs is built once whoever runs that cell.
    """
    seen: Set[Tuple[int, int]] = set()
    shared: Set[Tuple[int, int]] = set()
    for cell in cells:
        spec = cell.payload
        if spec.resolved_engine() != "fast":
            continue
        from repro.fastsync.engine import port_mode

        if port_mode(spec.n, spec.mode) != "exact":
            continue
        for key in {(spec.n, seed) for seed in spec.seeds}:
            (shared if key in seen else seen).add(key)
    return shared


def _cell_cost(spec: RunSpec) -> float:
    """Relative cost estimate for ragged-aware ordering (big-n first)."""
    return float(spec.n) * len(spec.seeds)


def sweep(
    specs: Union[RunSpec, Iterable[RunSpec]],
    *,
    workers: int = 1,
    registry: Optional[Any] = None,
    executor_factory: Optional[Callable[[int], Any]] = None,
    monitor: Optional[Any] = None,
    progress: Optional[Any] = None,
    spool_dir: Optional[str] = None,
) -> List[RunRecord]:
    """Execute a spec grid, optionally sharded across worker processes.

    Records come back in grid order — spec-major, seed-minor — and are
    **bit-identical** for every ``workers`` value (each seed owns its
    RNG streams, so sharding never perturbs a draw; wall-clock ``extra``
    fields are the only machine-dependent bits — see
    :func:`repro.analysis.canonical_record`).  ``registry`` receives the
    merged per-worker metric streams plus the scheduler's own gauges
    (worker utilization, steal counts).  ``executor_factory`` overrides
    the ``ProcessPoolExecutor`` constructor (tests inject broken pools);
    ``workers=1`` — and any cell that cannot cross a process boundary —
    runs in-process.

    ``monitor`` is a :class:`repro.monitor.SweepMonitor`: after the
    records are collected it runs record-level invariant checks and
    theory-bound conformance over the whole grid (and appends a ledger
    entry when configured) — read ``monitor.violations`` /
    ``monitor.conformance`` afterwards.  ``progress`` is a
    :class:`repro.monitor.ProgressListener` (e.g. ``SweepProgress``)
    receiving live cell start/finish events from the scheduler.
    Neither affects the records.

    ``spool_dir`` enables cross-worker telemetry spooling: every process
    that executes a cell appends its metric/profile snapshot to that
    directory, and :func:`repro.obs.collect` merges the shards into a
    deterministic :class:`~repro.obs.SweepReport` afterwards.

    Before any cell is scheduled, every distinct (algorithm, resolved
    engine) of the grid is looked up through the registry in this
    process.  A name with no class for its engine fails here, before a
    pool starts, as does an object election that rejects its
    parameters (each is built once here).  The lookup also imports what
    the cells run — the engines, the elections (a wrapper's inner one
    included) and, for a faulted grid, the fault layer; this module
    imports the record module, :mod:`repro.analysis.runner` — so
    fork-started workers inherit them and import nothing during any
    cell.  A grid with fast cells
    imports numpy and :mod:`repro.fastsync` into this process, about
    16 MB of resident memory in the parent; an object-only grid loads
    numpy nowhere.

    A pooled sweep (``workers > 1``) in which two or more exact-mode
    fast cells need the same ``(n, seed)`` port matrix (the Table 1
    shape: several algorithms over one seed block) runs inside
    :func:`repro.fastsync.engine.shared_wirings` for those keys: the
    first process to need such a matrix builds and publishes it to a
    temporary directory, and the others memory-map it instead of
    building their own.  Fork-started workers inherit the directory;
    under spawn or forkserver each worker builds privately.  The
    directory is removed before ``sweep()`` returns; a grid without a
    repeated key creates none and writes nothing.
    """
    if isinstance(specs, RunSpec):
        specs = [specs]
    grid = list(specs)
    for item in grid:
        if not isinstance(item, RunSpec):
            raise ValueError(
                f"sweep() takes RunSpec items, got {type(item).__name__}"
            )
    resolve_engines(grid)
    cells = []
    for spec in grid:
        for shard in _shard(spec, workers):
            cells.append(
                SweepCell(
                    index=len(cells), cost=_cell_cost(shard), payload=shard
                )
            )
    from repro.sweep.worker import run_spec_cell

    wirings = contextlib.nullcontext()
    shared = _shared_wiring_keys(cells) if workers > 1 else set()
    if shared:
        from repro.fastsync.engine import shared_wirings

        wirings = shared_wirings(shared)
    with wirings:
        per_cell = run_cells(
            cells,
            run_spec_cell,
            workers=workers,
            registry=registry,
            executor_factory=executor_factory,
            progress=progress,
            spool_dir=spool_dir,
        )
    records = [record for cell_records in per_cell for record in cell_records]
    if monitor is not None:
        monitor.observe_sweep(grid, records)
    return records
