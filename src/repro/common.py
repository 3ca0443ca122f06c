"""Common value types and helpers shared by the engines."""

from __future__ import annotations

import enum
import gc
from typing import Any, List, Optional

__all__ = [
    "Decision",
    "ParsedLines",
    "ProtocolError",
    "SimulationLimitExceeded",
    "SurvivorAccounting",
    "message_kind",
    "paused_gc",
]


class Decision(enum.Enum):
    """Irrevocable output of a node in (implicit) leader election.

    Exactly one node must output :attr:`LEADER`; every other node outputs
    :attr:`NON_LEADER`.  In the *explicit* variant nodes additionally
    output the leader's ID.
    """

    LEADER = "leader"
    NON_LEADER = "non_leader"


class ProtocolError(RuntimeError):
    """An algorithm violated the model (e.g. revoked a decision)."""


class SimulationLimitExceeded(RuntimeError):
    """The engine hit a safety limit (rounds/events) without terminating."""


class SurvivorAccounting:
    """Crash-aware leader accounting shared by both engines' run results.

    Expects ``ids``, ``leaders`` (node indices that decided LEADER) and
    ``crashed`` (node indices that crash-stopped) on the instance.
    Under crash faults a committed leader may die and be replaced, in
    which case ``leaders`` legitimately has two entries; failover
    correctness is judged by :attr:`unique_surviving_leader`.
    """

    ids: List[int]
    leaders: List[int]
    crashed: List[int]

    @property
    def crashed_count(self) -> int:
        return len(self.crashed)

    @property
    def surviving_leaders(self) -> List[int]:
        """Leaders that were still alive when the run ended."""
        dead = set(self.crashed)
        return [u for u in self.leaders if u not in dead]

    @property
    def unique_surviving_leader(self) -> bool:
        """Exactly one *alive* node holds LEADER at the end of the run."""
        return len(self.surviving_leaders) == 1

    @property
    def surviving_leader_id(self) -> Optional[int]:
        survivors = self.surviving_leaders
        return self.ids[survivors[0]] if len(survivors) == 1 else None


class ParsedLines(list):
    """The objects a JSONL reader parsed, in file order.

    ``torn`` counts the lines it skipped because they did not parse: a
    write cut off mid-line by a crash, or two writers interleaved.
    """

    torn = 0


def message_kind(payload: Any) -> str:
    """Best-effort message kind for metrics.

    By convention, algorithm payloads are tuples whose first element is a
    short string tag (``("compete", rank)``); bare strings are their own
    kind; anything else is bucketed by type name.
    """
    if isinstance(payload, tuple) and payload and isinstance(payload[0], str):
        return payload[0]
    if isinstance(payload, str):
        return payload
    return type(payload).__name__


class paused_gc:
    """Disable the cyclic garbage collector for a ``with`` block.

    An engine run allocates many long-lived container objects (port
    maps, inboxes, message tuples) and frees them by reference counting,
    so the collector's generation sweeps only re-traverse live state.
    The previous state comes back on exit, exceptions included: a caller
    that had the collector off keeps it off.  A class rather than a
    generator-based context manager: it is entered once per seed.
    """

    __slots__ = ("_was_enabled",)

    def __enter__(self) -> None:
        self._was_enabled = gc.isenabled()
        gc.disable()

    def __exit__(self, *exc_info: Any) -> None:
        if self._was_enabled:
            gc.enable()
