"""Sharded, work-stealing execution of picklable cells.

The scheduler is deliberately generic: a *cell* is any picklable payload
plus an order index and a cost estimate, and a *cell function* is a
module-level callable returning ``(value, metrics_dict)``.  The RunSpec
sweep (``repro.sweep.api``) and the scenario sweep CLI both ride it.

Scheduling model
----------------

Cells are submitted to a ``ProcessPoolExecutor`` in **descending cost
order** (ragged-aware: big-``n`` cells first, so a monster cell never
lands last on an otherwise drained pool).  The pool's shared task queue
is pull-based — an idle worker takes the next pending cell — which *is*
work stealing at the cell granularity: the scheduler plans a round-robin
"home" worker per cell and counts every cell executed away from its
home as a steal (``sweep.steals`` gauge).  Per-worker utilization
gauges come from each cell's measured wall time.

Degradation is graceful and total-order preserving: ``workers=1`` (or a
single cell) never creates a pool; cells whose payloads do not pickle
run in the parent; and if the pool dies mid-sweep (``BrokenProcessPool``
— a worker was OOM-killed, say) every cell without a result is re-run
in-process.  Results are always returned in cell-index order, and
per-cell metric payloads are merged into the parent registry in that
same deterministic order.
"""

from __future__ import annotations

import os
import pickle
import time
from concurrent.futures import as_completed
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.telemetry.metrics import MetricsRegistry

__all__ = ["SweepCell", "run_cells"]


@dataclass(frozen=True)
class SweepCell:
    """One schedulable unit: order index, cost estimate, payload."""

    index: int
    cost: float
    payload: Any


def _default_executor_factory(workers: int) -> Any:
    from concurrent.futures import ProcessPoolExecutor

    from repro.sweep.worker import share_cores

    cores = len(os.sched_getaffinity(0))
    return ProcessPoolExecutor(
        max_workers=workers,
        initializer=share_cores,
        initargs=(max(1, cores // workers),),
    )


def _pool_errors():
    from concurrent.futures.process import BrokenProcessPool

    # BrokenProcessPool for a dead worker; OSError for a pool that can't
    # spawn at all; pickle errors for payload/result marshalling.
    return (BrokenProcessPool, OSError, pickle.PicklingError, TypeError)


def _notify(progress: Any, hook: str, *args: Any) -> None:
    """Fire one progress hook; listener bugs never kill the sweep."""
    if progress is None:
        return
    method = getattr(progress, hook, None)
    if method is None:
        return
    try:
        method(*args)
    except Exception:
        pass


def run_cells(
    cells: List[SweepCell],
    fn: Callable[[Any], Any],
    *,
    workers: int = 1,
    registry: Optional[MetricsRegistry] = None,
    executor_factory: Optional[Callable[[int], Any]] = None,
    progress: Optional[Any] = None,
    spool_dir: Optional[str] = None,
) -> List[Any]:
    """Execute every cell; return their values in cell-index order.

    ``fn`` must be a module-level function (worker processes import it
    by qualified name) mapping ``payload -> (value, metrics_dict)``.
    ``registry`` collects the merged metric streams and the scheduler
    gauges; pass ``None`` to skip collection.  ``progress`` is an
    optional :class:`repro.monitor.ProgressListener` receiving cell
    start/finish events, worker slots, and wall times as the sweep runs.
    ``spool_dir`` makes every executing process (pool workers and the
    inline fallback) append per-cell snapshots to that directory —
    see :mod:`repro.obs` for the collector and frontends.
    """
    from repro.sweep.worker import invoke_cell

    start = time.perf_counter()
    _notify(
        progress, "start", len(cells), sum(cell.cost for cell in cells), workers
    )
    values: Dict[int, Any] = {}
    metric_payloads: Dict[int, Dict[str, Any]] = {}
    busy_by_slot: Dict[int, float] = {}
    steals = 0
    inline: List[SweepCell] = []
    pool_cells: List[SweepCell] = []

    by_cost = sorted(cells, key=lambda cell: (-cell.cost, cell.index))
    if workers <= 1 or len(cells) <= 1:
        inline = sorted(cells, key=lambda cell: cell.index)
    else:
        for cell in by_cost:
            try:
                pickle.dumps(cell.payload)
            except Exception:
                inline.append(cell)
            else:
                pool_cells.append(cell)

    if pool_cells:
        pid_slots: Dict[int, int] = {}
        try:
            executor = (executor_factory or _default_executor_factory)(workers)
        except _pool_errors():
            inline.extend(pool_cells)
        else:
            futures = {}
            try:
                with executor:
                    try:
                        for home, cell in enumerate(pool_cells):
                            future = executor.submit(
                                invoke_cell, fn, cell.payload, spool_dir,
                                cell.index,
                            )
                            futures[future] = (cell, home % workers)
                            _notify(progress, "cell_start", cell)
                    except _pool_errors():
                        pass  # whatever never got submitted re-runs inline
                    for future in as_completed(futures):
                        cell, home_slot = futures[future]
                        try:
                            value, metrics, pid, wall = future.result()
                        except _pool_errors():
                            continue  # picked up by the inline fallback below
                        slot = pid_slots.setdefault(
                            pid, len(pid_slots) % workers
                        )
                        busy_by_slot[slot] = busy_by_slot.get(slot, 0.0) + wall
                        steals += slot != home_slot
                        values[cell.index] = value
                        metric_payloads[cell.index] = metrics
                        _notify(progress, "cell_finish", cell, wall, slot)
            except _pool_errors():
                pass
            inline.extend(
                cell
                for cell in pool_cells
                if cell.index not in values
            )

    inline_count = len(inline)
    for cell in sorted(inline, key=lambda cell: cell.index):
        _notify(progress, "cell_start", cell)
        value, metrics, pid, wall = invoke_cell(
            fn, cell.payload, spool_dir, cell.index
        )
        busy_by_slot[0] = busy_by_slot.get(0, 0.0) + wall
        values[cell.index] = value
        metric_payloads[cell.index] = metrics
        _notify(progress, "cell_finish", cell, wall, 0)

    _notify(progress, "finish", time.perf_counter() - start)
    if registry is not None:
        for index in sorted(metric_payloads):
            registry.merge(metric_payloads[index])
        elapsed = time.perf_counter() - start
        registry.gauge("sweep.workers").set(workers)
        registry.gauge("sweep.cells").set(len(cells))
        registry.gauge("sweep.steals").set(steals)
        registry.gauge("sweep.inline_cells").set(inline_count)
        registry.gauge("sweep.elapsed_s").set(elapsed)
        for slot, busy in sorted(busy_by_slot.items()):
            registry.gauge(f"sweep.worker_utilization[{slot}]").set(
                min(1.0, busy / elapsed) if elapsed > 0 else 0.0
            )
    return [values[cell.index] for cell in sorted(cells, key=lambda c: c.index)]
