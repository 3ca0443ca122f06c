"""Per-worker telemetry spooling for the sharded sweep scheduler.

Worker processes normally ship their metric payloads back to the parent
inside the future result — which works, but leaves nothing behind: a
crashed parent loses everything, nothing can watch a sweep from outside,
and per-cell wall times evaporate once the merged gauges are computed.
The spool is the durable side channel: every cell appends one JSON line
to ``<spool_dir>/worker-<pid>.jsonl`` *from inside the process that ran
it* (pool workers and the parent's inline fallback alike), so the spool
is complete for any worker count and any degradation path.

One spool file is a header line followed by cell snapshots::

    {"schema": "repro.obs/1", "pid": 12345}
    {"cell": 3, "pid": 12345, "wall_s": 0.41, "metrics": {...}}

Snapshots carry the cell's full metric payload — including the
``profile.<phase>`` histograms that ``run_spec_cell`` folds in for
``profile=True`` specs — so the collector (:mod:`repro.obs.collect`)
can rebuild the merged registry and the kernel-phase aggregates without
the parent process having survived.  Spool writes never raise into the
cell: a full disk degrades to an unspooled sweep, not a failed one.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.common import ParsedLines

__all__ = [
    "SPOOL_SCHEMA",
    "DEFAULT_OBS_ROOT",
    "new_spool_dir",
    "spool_snapshot",
    "read_spool",
]

SPOOL_SCHEMA = "repro.obs/1"

#: Default root for sweep spool directories (one subdir per sweep).
DEFAULT_OBS_ROOT = os.path.join(".repro", "obs")


def new_spool_dir(
    root: str = DEFAULT_OBS_ROOT, sweep_id: Optional[str] = None
) -> str:
    """Create (and return) a fresh spool directory for one sweep.

    ``sweep_id`` defaults to a timestamp + pid tag — unique enough for
    concurrent sweeps on one machine without any coordination.
    """
    if sweep_id is None:
        sweep_id = time.strftime("%Y%m%d-%H%M%S") + f"-{os.getpid()}"
    path = os.path.join(root, sweep_id)
    os.makedirs(path, exist_ok=True)
    return path


def _spool_file(directory: str) -> str:
    return os.path.join(directory, f"worker-{os.getpid()}.jsonl")


def spool_snapshot(
    directory: str,
    *,
    cell: int,
    wall_s: float,
    metrics: Dict[str, Any],
    extra: Optional[Dict[str, Any]] = None,
) -> bool:
    """Append one cell snapshot to this process's spool file.

    Returns whether the write happened; any OS-level failure is
    swallowed — observability must never fail the workload it observes.
    """
    payload: Dict[str, Any] = {
        "cell": int(cell),
        "pid": os.getpid(),
        "wall_s": float(wall_s),
        "metrics": metrics,
    }
    if extra:
        payload.update(extra)
    try:
        os.makedirs(directory, exist_ok=True)
        path = _spool_file(directory)
        header = None
        if not os.path.exists(path):
            header = json.dumps(
                {"schema": SPOOL_SCHEMA, "pid": os.getpid()}, sort_keys=True
            )
        with open(path, "a", encoding="utf-8") as fh:
            if header is not None:
                fh.write(header + "\n")
            fh.write(json.dumps(payload, sort_keys=True, default=str) + "\n")
        return True
    except OSError:
        return False


def read_spool(directory: str) -> List[Tuple[str, Dict[str, Any]]]:
    """Every parseable snapshot as ``(worker, payload)`` pairs.

    Workers are the file stems (``worker-<pid>``), read in sorted
    filename order; header lines and unparseable lines are skipped, so a
    half-written spool (sweep still running, worker OOM-killed) still
    reads cleanly.  The list's ``torn`` attribute counts the lines that
    did not parse.
    """
    out = ParsedLines()
    if not os.path.isdir(directory):
        return out
    for name in sorted(os.listdir(directory)):
        if not (name.startswith("worker-") and name.endswith(".jsonl")):
            continue
        worker = name[: -len(".jsonl")]
        try:
            with open(os.path.join(directory, name), encoding="utf-8") as fh:
                lines = fh.readlines()
        except OSError:
            continue
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError:
                out.torn += 1
                continue
            if isinstance(payload, dict) and "cell" in payload:
                out.append((worker, payload))
    return out
