"""The persistent run ledger: one JSONL line per monitored run/sweep.

``.repro/ledger.jsonl`` accumulates a durable history of what was run
and what it cost: the spec hash (so identical workloads are comparable
across commits), the git SHA, message/round distribution statistics
per algorithm, every violation, the conformance rate, and wall time.
``repro history`` lists it; ``repro compare <ref>`` diffs the message
and round distributions of two entries and exits non-zero when the new
entry regresses beyond slack — the cross-commit complement of the
in-process bench-regression gate.

Entries are append-only and self-describing (``schema`` field); readers
skip lines they cannot parse, so mixed-version ledgers stay usable, and
count the torn ones (``read_ledger(path).torn``).
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
import re
import shutil
import subprocess
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.common import ParsedLines

__all__ = [
    "LEDGER_SCHEMA",
    "DEFAULT_LEDGER_PATH",
    "spec_hash",
    "git_sha",
    "check_label",
    "make_entry",
    "append_entry",
    "read_ledger",
    "prune_ledger",
    "resolve_ref",
    "compare_entries",
    "LedgerDiff",
]

LEDGER_SCHEMA = "repro.ledger/1"

#: The shortest hash prefix :func:`resolve_ref` accepts (git's own minimum).
MIN_HASH_PREFIX = 4

#: Refs :func:`resolve_ref` reads as ledger indices.
_INDEX_REF = re.compile(r"-?[0-9]+")

#: Where monitored runs land unless told otherwise.
DEFAULT_LEDGER_PATH = os.path.join(".repro", "ledger.jsonl")


def spec_hash(specs: Sequence[Any]) -> str:
    """Stable hash of a workload: same specs → same hash across commits.

    Hashes each spec's observable coordinates (algorithm name or
    factory qualname, n, engine, seeds, params, batch, mode) — not
    object identities — so a re-run of the same campaign on a later
    commit lands on the same hash and ``repro compare`` can pair them.
    """
    descriptors = []
    for spec in specs:
        algorithm = getattr(spec, "algorithm", spec)
        if not isinstance(algorithm, str):
            algorithm = getattr(algorithm, "__qualname__", None) or repr(
                getattr(algorithm, "__class__", algorithm)
            )
        descriptors.append(
            {
                "algorithm": algorithm,
                "n": getattr(spec, "n", None),
                "engine": getattr(spec, "engine", None),
                "seeds": list(getattr(spec, "seeds", ()) or ()),
                "params": dict(sorted((getattr(spec, "params", {}) or {}).items())),
                "batch": getattr(spec, "batch", None),
                "mode": getattr(spec, "mode", None),
            }
        )
    payload = json.dumps(descriptors, sort_keys=True, default=str)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def git_sha() -> Optional[str]:
    """The current commit, or None outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def _distribution(values: Sequence[float]) -> Dict[str, float]:
    if not values:
        return {"count": 0, "total": 0.0, "mean": 0.0, "max": 0.0}
    total = float(sum(values))
    return {
        "count": len(values),
        "total": total,
        "mean": total / len(values),
        "max": float(max(values)),
    }


def _per_algorithm(records: Sequence[Any], attr: str) -> Dict[str, Dict[str, float]]:
    buckets: Dict[str, List[float]] = {}
    for record in records:
        name = record.extra.get("algorithm", "?")
        buckets.setdefault(name, []).append(float(getattr(record, attr)))
    return {name: _distribution(vals) for name, vals in sorted(buckets.items())}


def check_label(label: Optional[str]) -> Optional[str]:
    """Return ``label``, refusing one that :func:`resolve_ref` would read as an index.

    An all-digit label (``"2024"``, ``"-1"``) could be written but never
    looked up again, so it raises ``ValueError``.
    """
    if label is not None and _INDEX_REF.fullmatch(label):
        raise ValueError(
            f"ledger label {label!r} would read as an entry index; "
            "use a label with a non-digit character"
        )
    return label


def make_entry(
    records: Sequence[Any],
    *,
    specs: Optional[Sequence[Any]] = None,
    violations: Sequence[Any] = (),
    conformance: Optional[Any] = None,
    wall_time_s: Optional[float] = None,
    label: Optional[str] = None,
    context: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Build one JSON-safe ledger entry from a monitored run's artifacts."""
    entry = {
        "schema": LEDGER_SCHEMA,
        "ts": time.time(),
        "label": check_label(label),
        "git_sha": git_sha(),
        "spec_hash": spec_hash(specs) if specs is not None else None,
        "runs": len(records),
        "messages": _distribution([float(r.messages) for r in records]),
        "time": _distribution([float(r.time) for r in records]),
        "by_algorithm": {
            "messages": _per_algorithm(records, "messages"),
            "time": _per_algorithm(records, "time"),
        },
        "violations": [
            v.to_dict() if hasattr(v, "to_dict") else dict(v) for v in violations
        ],
        "conformance": (
            conformance.to_dict()
            if hasattr(conformance, "to_dict")
            else conformance
        ),
        "wall_time_s": wall_time_s,
        "context": dict(context or {}),
    }
    return entry


@contextmanager
def _locked(path: str):
    """Hold the exclusive lock that serialises appends and prunes of ``path``.

    The lock is ``flock`` on a sidecar ``<path>.lock``, not on the ledger
    itself: a prune replaces the ledger file, and a lock on the old file
    would not exclude a writer that opens the new one.
    """
    with open(path + ".lock", "a") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        yield  # closing the sidecar releases the lock


def append_entry(entry: Dict[str, Any], path: str = DEFAULT_LEDGER_PATH) -> str:
    """Append one entry (creating the ledger and its directory)."""
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with _locked(path), open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(entry, default=str) + "\n")
    return path


def read_ledger(path: str = DEFAULT_LEDGER_PATH) -> List[Dict[str, Any]]:
    """All parseable entries, oldest first (unknown lines are skipped).

    The list's ``torn`` attribute counts the lines that did not parse.
    """
    entries = ParsedLines()
    if not os.path.exists(path):
        return entries
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                entries.torn += 1
                continue
            if isinstance(entry, dict):
                entries.append(entry)
    return entries


def prune_ledger(path: str = DEFAULT_LEDGER_PATH, *, keep: int) -> Dict[str, int]:
    """Keep only the newest ``keep`` entries; returns kept/dropped counts.

    The ledger is append-only by design, so unbounded campaigns grow it
    without limit; pruning rewrites the file with the most recent
    ``keep`` parseable entries (unparseable lines are dropped too — they
    were already invisible to every reader).  The rewrite goes through a
    temp file of its own and an atomic replace, so a crash mid-prune
    never leaves a truncated ledger, and it holds the append lock from
    the read to the replace, so an entry appended meanwhile is never lost.
    """
    if keep < 0:
        raise ValueError("keep must be >= 0")
    if not os.path.exists(path):
        return {"kept": 0, "dropped": 0}
    with _locked(path):
        entries = read_ledger(path)
        kept = entries[-keep:] if keep else []
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(path) or ".", prefix=os.path.basename(path) + ".",
            suffix=".tmp",
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                for entry in kept:
                    fh.write(json.dumps(entry, default=str) + "\n")
            shutil.copymode(path, tmp)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    return {"kept": len(kept), "dropped": len(entries) - len(kept)}


def resolve_ref(entries: Sequence[Dict[str, Any]], ref: str) -> Dict[str, Any]:
    """Resolve a user-facing entry reference.

    Accepts a ledger index (``0`` oldest, ``-1`` latest), an exact
    ``--label``, or a git-SHA / spec-hash prefix of at least
    :data:`MIN_HASH_PREFIX` characters (newest match wins).  An all-digit
    ref is always an index, so ``7`` never matches a SHA starting with 7.
    """
    entries = list(entries)
    if not entries:
        raise LookupError("the ledger is empty")
    if _INDEX_REF.fullmatch(ref):
        index = int(ref)
        if -len(entries) <= index < len(entries):
            return entries[index]
        raise LookupError(
            f"no ledger entry at index {ref}: the valid range is "
            f"{-len(entries)}..{len(entries) - 1}"
        )
    for entry in reversed(entries):
        if entry.get("label") == ref:
            return entry
        if len(ref) < MIN_HASH_PREFIX:
            continue
        for key in ("git_sha", "spec_hash"):
            value = entry.get(key)
            if isinstance(value, str) and value.startswith(ref):
                return entry
    raise LookupError(f"no ledger entry matches {ref!r}")


@dataclass
class LedgerDiff:
    """Message/round distribution diff between two ledger entries."""

    base_label: str
    new_label: str
    regressed: bool = False
    lines: List[str] = field(default_factory=list)
    deltas: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "base": self.base_label,
            "new": self.new_label,
            "regressed": self.regressed,
            "lines": list(self.lines),
            "deltas": {k: dict(v) for k, v in self.deltas.items()},
        }

    def summary(self) -> str:
        head = f"ledger compare: {self.base_label} -> {self.new_label}"
        verdict = "REGRESSED" if self.regressed else "ok"
        return "\n".join([head, *self.lines, f"verdict: {verdict}"])


def _entry_label(entry: Dict[str, Any]) -> str:
    sha = entry.get("git_sha") or "?"
    label = entry.get("label")
    base = sha[:8] if isinstance(sha, str) else "?"
    return f"{base}({label})" if label else base


def compare_entries(
    base: Dict[str, Any],
    new: Dict[str, Any],
    *,
    slack: float = 0.10,
) -> LedgerDiff:
    """Diff two entries' per-algorithm message/round means.

    ``regressed`` is set when any algorithm's mean message count in
    ``new`` exceeds the base mean by more than ``slack`` (relative), or
    when ``new`` carries violations the base did not.  Rounds/time are
    reported but only messages gate — round counts are small integers
    where relative slack is too noisy to enforce.
    """
    diff = LedgerDiff(base_label=_entry_label(base), new_label=_entry_label(new))
    if base.get("spec_hash") != new.get("spec_hash"):
        diff.lines.append(
            "note: spec hashes differ "
            f"({base.get('spec_hash')} vs {new.get('spec_hash')}) — "
            "comparing different workloads"
        )
    for metric in ("messages", "time"):
        base_by = (base.get("by_algorithm") or {}).get(metric, {})
        new_by = (new.get("by_algorithm") or {}).get(metric, {})
        for name in sorted(set(base_by) | set(new_by)):
            b = base_by.get(name)
            a = new_by.get(name)
            if b is None or a is None:
                diff.lines.append(
                    f"{metric}/{name}: only in "
                    + ("new entry" if b is None else "base entry")
                )
                continue
            b_mean, a_mean = float(b.get("mean", 0.0)), float(a.get("mean", 0.0))
            rel = 0.0 if b_mean == 0 else (a_mean - b_mean) / b_mean
            diff.deltas[f"{metric}/{name}"] = {
                "base_mean": b_mean,
                "new_mean": a_mean,
                "rel": rel,
            }
            marker = ""
            if metric == "messages" and rel > slack:
                diff.regressed = True
                marker = f"  REGRESSION (> {slack:.0%} slack)"
            diff.lines.append(
                f"{metric}/{name}: mean {b_mean:.1f} -> {a_mean:.1f} "
                f"({rel:+.1%}){marker}"
            )
    base_violations = len(base.get("violations") or ())
    new_violations = len(new.get("violations") or ())
    if new_violations > base_violations:
        diff.regressed = True
        diff.lines.append(
            f"violations: {base_violations} -> {new_violations}  REGRESSION"
        )
    elif new_violations or base_violations:
        diff.lines.append(f"violations: {base_violations} -> {new_violations}")
    return diff
