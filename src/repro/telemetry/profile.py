"""Wall-clock phase profiling for the vectorized kernels.

A :class:`PhaseProfiler` accumulates named wall-clock buckets —
``sampling`` (distinct-target generation, with the referee
``maximum.at`` streamed into it), ``scatter`` (referee answer counts),
``compaction`` (survivor pruning), plus whatever a caller wraps.  The fast engine and the vectorized ports call
:meth:`FastSyncNetwork.profile` around their kernels; with no profiler
attached that hook is a shared no-op context, so the disabled path adds
one cheap call per phase per round (the telemetry-overhead bench guards
the budget).
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Tuple

__all__ = ["PhaseProfiler", "NULL_PROFILE"]


class _NullPhase:
    """Shared do-nothing context for the profiler-disabled path."""

    __slots__ = ()

    def __enter__(self) -> "_NullPhase":
        return self

    def __exit__(self, *_exc: Any) -> None:
        return None


#: The singleton no-op phase; ``net.profile(...)`` returns this when no
#: profiler is attached, so disabled profiling allocates nothing.
NULL_PROFILE = _NullPhase()


class _Phase:
    __slots__ = ("_profiler", "_name", "_start")

    def __init__(self, profiler: "PhaseProfiler", name: str) -> None:
        self._profiler = profiler
        self._name = name

    def __enter__(self) -> "_Phase":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *_exc: Any) -> None:
        self._profiler.add(self._name, time.perf_counter() - self._start)


class PhaseProfiler:
    """Accumulates per-phase call counts and wall-clock totals."""

    def __init__(self) -> None:
        self._calls: Dict[str, int] = {}
        self._totals: Dict[str, float] = {}

    def phase(self, name: str) -> _Phase:
        """A context manager timing one occurrence of ``name``."""
        return _Phase(self, name)

    def add(self, name: str, seconds: float) -> None:
        self._calls[name] = self._calls.get(name, 0) + 1
        self._totals[name] = self._totals.get(name, 0.0) + seconds

    @property
    def phases(self) -> List[str]:
        return sorted(self._totals)

    def total(self, name: str) -> float:
        return self._totals.get(name, 0.0)

    def calls(self, name: str) -> int:
        return self._calls.get(name, 0)

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        """JSON-safe ``{phase: {"calls": k, "total_s": t}}`` summary."""
        return {
            name: {"calls": self._calls[name], "total_s": self._totals[name]}
            for name in self.phases
        }

    def summary(self, *, min_share: float = 0.0) -> List[Tuple[str, int, float, float]]:
        """``(phase, calls, total_s, share)`` rows, largest first."""
        grand = sum(self._totals.values()) or 1.0
        rows = [
            (name, self._calls[name], total, total / grand)
            for name, total in self._totals.items()
            if total / grand >= min_share
        ]
        return sorted(rows, key=lambda row: row[2], reverse=True)
