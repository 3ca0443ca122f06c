"""Message/time accounting for synchronous executions.

The counters mirror the quantities the paper reasons about:

* total messages (message complexity),
* the last round with a send (time complexity under the paper's
  convention that a ``k``-round algorithm sends in rounds ``1..k``),
* per-round send counts (used by the Lemma 3.9 adversary experiments),
* per-kind counts (used by benches to split e.g. wake-up vs compete
  traffic),
* *port opens* — first use of a port by its owner, the quantity the
  Ω(n log n) argument of Theorem 3.11 counts.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict

__all__ = ["SyncMetrics"]


@dataclass
class SyncMetrics:
    messages_total: int = 0
    last_send_round: int = 0
    rounds_executed: int = 0
    wake_count: int = 0
    port_opens: int = 0
    sends_by_round: Dict[int, int] = field(default_factory=dict)
    messages_by_kind: Counter = field(default_factory=Counter)

    def record_sends(self, round_no: int, kind: str, count: int, opened: int) -> None:
        """Account ``count`` sends of one kind, ``opened`` of them over fresh ports."""
        self.messages_total += count
        if round_no > self.last_send_round:
            self.last_send_round = round_no
        self.sends_by_round[round_no] = self.sends_by_round.get(round_no, 0) + count
        self.messages_by_kind[kind] += count
        self.port_opens += opened

    def summary(self) -> str:
        kinds = ", ".join(f"{k}={v}" for k, v in sorted(self.messages_by_kind.items()))
        return (
            f"messages={self.messages_total} last_send_round={self.last_send_round} "
            f"rounds={self.rounds_executed} port_opens={self.port_opens} [{kinds}]"
        )
