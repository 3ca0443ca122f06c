"""Experiment records.

:class:`RunRecord` flattens one engine result into the row every bench
and table works with.  Runs are executed by :mod:`repro.sweep.api`
(``RunSpec`` → ``run``/``sweep``), which builds these records and
guarantees determinism: record ``i`` of a sweep depends only on its
spec and seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

__all__ = ["RunRecord"]


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
