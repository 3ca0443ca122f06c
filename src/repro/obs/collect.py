"""The deterministic spool collector: worker shards → one SweepReport.

:func:`collect` reads every ``worker-*.jsonl`` shard in a spool
directory and merges the snapshots **in cell-index order** — the same
deterministic order the live scheduler uses — so the merged counters,
the kernel-phase profile aggregates and the canonical report are
byte-identical no matter how many workers ran the sweep or which worker
happened to execute which cell.  Wall-clock quantities (per-cell walls,
per-worker utilization timelines) are kept, but segregated: they feed
``repro top`` and the HTML report, and :meth:`SweepReport.canonical`
excludes them so equivalence tests can compare reports as bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.obs.spool import SPOOL_SCHEMA, read_spool
from repro.telemetry.metrics import MetricsRegistry

__all__ = ["WorkerTimeline", "SweepReport", "collect"]


@dataclass
class WorkerTimeline:
    """One worker's contribution: which cells, in what wall time."""

    worker: str
    cells: List[int] = field(default_factory=list)
    busy_s: float = 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "worker": self.worker,
            "cells": list(self.cells),
            "busy_s": self.busy_s,
        }


@dataclass
class SweepReport:
    """Merged view of one spooled sweep.

    ``metrics`` is the merged registry payload (counters add, histogram
    summaries combine exactly — identical to what the live parent would
    hold); ``profile`` aggregates the ``profile.<phase>`` histograms
    into per-kernel call counts and wall totals; ``cell_walls`` and
    ``workers`` carry the machine-dependent timeline the frontends plot.
    ``torn_lines`` counts the spool lines that did not parse (a worker
    killed mid-write); like the timeline, it stays out of
    :meth:`canonical`.
    """

    schema: str
    cells: int
    records: int
    messages: int
    metrics: Dict[str, Any]
    profile: Dict[str, Dict[str, float]]
    cell_walls: Dict[int, float] = field(default_factory=dict)
    workers: List[WorkerTimeline] = field(default_factory=list)
    torn_lines: int = 0

    def canonical(self) -> Dict[str, Any]:
        """The deterministic projection: identical for any worker count.

        Counters and per-phase call counts are functions of the workload
        alone; everything wall-clock (cell walls, worker timelines,
        ``total_s`` sums, histogram extremes over timings) is excluded —
        and so is the cell count, which depends on how the scheduler
        seed-sharded the grid for the worker pool.
        """
        return {
            "schema": self.schema,
            "records": self.records,
            "messages": self.messages,
            "counters": dict(self.metrics.get("counters", {})),
            "profile_calls": {
                phase: int(agg["calls"]) for phase, agg in self.profile.items()
            },
        }

    def canonical_bytes(self) -> bytes:
        return json.dumps(self.canonical(), sort_keys=True).encode()

    def as_dict(self) -> Dict[str, Any]:
        return {
            "schema": self.schema,
            "cells": self.cells,
            "records": self.records,
            "messages": self.messages,
            "metrics": self.metrics,
            "profile": {k: dict(v) for k, v in self.profile.items()},
            "cell_walls": {str(k): v for k, v in sorted(self.cell_walls.items())},
            "workers": [w.as_dict() for w in self.workers],
            "torn_lines": self.torn_lines,
        }

    def summary(self) -> str:
        lines = [
            f"sweep report: {self.cells} cells, {self.records} records, "
            f"{self.messages} messages, {len(self.workers)} worker(s)"
            + (f", {self.torn_lines} torn line(s) skipped" if self.torn_lines else "")
        ]
        for timeline in self.workers:
            lines.append(
                f"  {timeline.worker}: {len(timeline.cells)} cells, "
                f"busy {timeline.busy_s:.2f}s"
            )
        if self.profile:
            grand = sum(agg["total_s"] for agg in self.profile.values()) or 1.0
            for phase, agg in sorted(
                self.profile.items(), key=lambda kv: -kv[1]["total_s"]
            ):
                lines.append(
                    f"  kernel {phase}: {int(agg['calls'])} calls, "
                    f"{agg['total_s']:.3f}s ({agg['total_s'] / grand:.0%})"
                )
        return "\n".join(lines)


def collect(spool_dir: str) -> SweepReport:
    """Merge one spool directory into a :class:`SweepReport`.

    Snapshots merge in cell-index order (ties broken by worker name),
    so duplicate deliveries of a cell — the scheduler's inline fallback
    re-running cells a dead pool half-finished — keep the first copy
    only and the report stays deterministic.
    """
    parsed = read_spool(spool_dir)
    snapshots = sorted(parsed, key=lambda pair: (pair[1]["cell"], pair[0]))
    registry = MetricsRegistry()
    cell_walls: Dict[int, float] = {}
    timelines: Dict[str, WorkerTimeline] = {}
    seen: set = set()
    for worker, payload in snapshots:
        cell = int(payload["cell"])
        if cell in seen:
            continue
        seen.add(cell)
        registry.merge(payload.get("metrics") or {})
        wall = float(payload.get("wall_s", 0.0))
        cell_walls[cell] = wall
        timeline = timelines.setdefault(worker, WorkerTimeline(worker=worker))
        timeline.cells.append(cell)
        timeline.busy_s += wall
    metrics = registry.as_dict()
    profile: Dict[str, Dict[str, float]] = {}
    for name, summary in metrics.get("histograms", {}).items():
        if not name.startswith("profile."):
            continue
        profile[name[len("profile."):]] = {
            "calls": int(summary.get("count", 0)),
            "total_s": float(summary.get("total", 0.0)),
        }
    counters = metrics.get("counters", {})
    return SweepReport(
        schema=SPOOL_SCHEMA,
        cells=len(seen),
        records=int(counters.get("sweep.records", 0)),
        messages=int(counters.get("sweep.messages", 0)),
        metrics=metrics,
        profile=dict(sorted(profile.items())),
        cell_walls=cell_walls,
        workers=[timelines[name] for name in sorted(timelines)],
        torn_lines=parsed.torn,
    )
