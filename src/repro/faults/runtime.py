"""Per-run mutable fault state shared by an engine and its detectors.

The :class:`FaultRuntime` is the single ground truth about failures in a
run: which nodes have crashed and when, which messages were dropped or
duplicated, and which policy kills are still pending.  Engines drive it
through three hooks:

* :meth:`due_crashes` (synchronous engine) / :meth:`static_crashes`
  (asynchronous engine, which turns them into heap events up front),
* :meth:`observe_send`, which lets :class:`~repro.faults.plan.LeaderKillPolicy`
  schedule adversarial crashes, and
* :meth:`deliveries`, which decides the fate of each message under the
  plan's link-fault rules.

All randomness is drawn from one ``random.Random`` seeded from the run
seed, consumed in engine-call order — which is itself deterministic — so
the whole fault trajectory is a pure function of ``(seed, plan,
algorithm, n)``.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.faults.plan import FaultPlan

__all__ = ["FaultMetrics", "FaultRuntime"]


@dataclass
class FaultMetrics:
    """Failure accounting for one run (exposed on the run result)."""

    crashes: List[Tuple[float, int]] = field(default_factory=list)
    policy_kills: List[Tuple[float, int, str]] = field(default_factory=list)
    suppressed_crashes: int = 0
    dropped_messages: int = 0
    duplicated_messages: int = 0
    partition_blocked: int = 0
    # Byzantine accounting: total altered sends plus a per-mode breakdown
    # (corrupt/forge/replay/equivocate), filled by the AdversaryRuntime.
    tampered_messages: int = 0
    tampered_by_mode: Dict[str, int] = field(default_factory=dict)
    # node index -> (crash time, first time any alive node suspected it)
    first_suspected: Dict[int, float] = field(default_factory=dict)

    @property
    def crash_count(self) -> int:
        return len(self.crashes)

    def note_tamper(self, mode: str) -> None:
        """Record one Byzantine message alteration of ``mode``."""
        self.tampered_messages += 1
        self.tampered_by_mode[mode] = self.tampered_by_mode.get(mode, 0) + 1

    def detection_latencies(self, crashed_at: Dict[int, float]) -> List[float]:
        """Measured crash→first-suspicion latency per detected crash."""
        return [
            self.first_suspected[u] - when
            for u, when in crashed_at.items()
            if u in self.first_suspected
        ]

    def summary(self) -> str:
        return (
            f"crashes={self.crash_count} policy_kills={len(self.policy_kills)} "
            f"dropped={self.dropped_messages} duplicated={self.duplicated_messages} "
            f"partition_blocked={self.partition_blocked} "
            f"tampered={self.tampered_messages}"
        )


class FaultRuntime:
    """Ground-truth failure state + stochastic fault decisions for one run."""

    def __init__(self, plan: FaultPlan, n: int, ids: List[int], seed: int) -> None:
        plan.validate_for(n)
        self.plan = plan
        self.n = n
        self.ids = list(ids)
        self.seed = seed
        self.rng = random.Random(f"faults:{seed}")
        self.metrics = FaultMetrics()
        self.crashed_at: Dict[int, float] = {}
        self._protected = frozenset(plan.protect)
        # (when, node) min-heap of crashes not yet applied (sync engine).
        self._pending: List[Tuple[float, int]] = [
            (crash.at, crash.node) for crash in plan.crashes
        ]
        heapq.heapify(self._pending)
        self._kills_left: List[int] = [policy.max_kills for policy in plan.policies]
        self._kill_marked: set = set()  # nodes already targeted by a policy
        # Per-link-rule remaining drop budget (None = unbounded).
        self._drops_left: List[Optional[int]] = [rule.max_drops for rule in plan.links]
        self.adversary = None
        if plan.adversary is not None:
            # Deferred import: the crash-only fault layer stays free of
            # the adversary package unless a plan actually carries one.
            from repro.adversary.runtime import AdversaryRuntime

            self.adversary = AdversaryRuntime(
                plan.adversary, n, self.ids, seed, self.metrics
            )

    # ------------------------------------------------------------------ #
    # ground truth queries

    def alive_count(self) -> int:
        return self.n - len(self.crashed_at)

    # ------------------------------------------------------------------ #
    # crash scheduling

    def approve_crash(self, u: int) -> bool:
        """Whether crashing ``u`` now is admissible (guards survivors)."""
        if u in self.crashed_at or u in self._protected:
            self.metrics.suppressed_crashes += u not in self.crashed_at
            return False
        if self.alive_count() <= 1:
            self.metrics.suppressed_crashes += 1
            return False
        return True

    def note_crash(self, u: int, when: float) -> None:
        """Record an applied crash (engines call this exactly once per crash)."""
        self.crashed_at[u] = when
        self.metrics.crashes.append((when, u))

    def due_crashes(self, now: float) -> List[int]:
        """Pop every scheduled crash with ``at <= now`` (synchronous engine)."""
        due = []
        while self._pending and self._pending[0][0] <= now:
            _at, node = heapq.heappop(self._pending)
            due.append(node)
        return due

    def static_crashes(self) -> List[Tuple[float, int]]:
        """The plan's up-front crash schedule (asynchronous engine events)."""
        return sorted((crash.at, crash.node) for crash in self.plan.crashes)

    def drain_pending(self) -> List[Tuple[float, int]]:
        """Crashes still scheduled when the run went quiescent.

        The synchronous engine applies these at run end so the ground
        truth (who eventually died) matches the asynchronous engine,
        whose heap keeps crash events alive past protocol quiescence.
        """
        drained = []
        while self._pending:
            drained.append(heapq.heappop(self._pending))
        return drained

    def kills_remaining(self) -> int:
        """Total kill budget the policies have left (0 = all spent).

        The vectorized adapter short-circuits whole send batches on
        this, so it must stay O(#policies).
        """
        return sum(left for left in self._kills_left if left > 0)

    def observe_send(self, now: float, sender: int, kind: str) -> List[Tuple[float, int]]:
        """Feed one send to the kill policies; return newly scheduled crashes.

        The synchronous engine relies on the internal pending heap, the
        asynchronous engine turns the returned ``(when, node)`` pairs
        into heap events; both see the same schedule.
        """
        new: List[Tuple[float, int]] = []
        for i, policy in enumerate(self.plan.policies):
            if self._kills_left[i] <= 0 or kind not in policy.kinds:
                continue
            if sender in self._kill_marked or sender in self._protected:
                continue
            self._kills_left[i] -= 1
            self._kill_marked.add(sender)
            when = now + policy.delay
            self.metrics.policy_kills.append((when, sender, kind))
            heapq.heappush(self._pending, (when, sender))
            new.append((when, sender))
        return new

    # ------------------------------------------------------------------ #
    # link faults

    def deliveries(self, src: int, dst: int, kind: str, now: float = 0.0) -> int:
        """How many copies of this message reach ``dst`` (0, 1 or 2).

        ``now`` is the send round/time; active
        :class:`~repro.faults.plan.PartitionMask` windows are checked
        first (and consume no randomness), then the stochastic link
        rules.  Consumes randomness only when a link rule matches, so
        fault-free traffic does not perturb the fault RNG stream.
        """
        for mask in self.plan.partitions:
            if mask.blocks(src, dst, now):
                self.metrics.partition_blocked += 1
                return 0
        for i, rule in enumerate(self.plan.links):
            if rule.matches(src, dst, kind):
                return self.link_copies(i, self.rng.random)
        return 1

    def link_copies(self, i: int, draw: Callable[[], float]) -> int:
        """Copies (0, 1 or 2) of one message claimed by link rule ``i``.

        ``draw`` yields the next double of the ``faults:{seed}`` stream:
        :meth:`deliveries` passes ``self.rng.random``, the vectorized
        adapter a buffered numpy copy of the same stream.  Draws once
        for the drop (while the rule's budget lasts) and once more for
        the duplicate unless the message was dropped.
        """
        rule = self.plan.links[i]
        drops_left = self._drops_left[i]
        may_drop = rule.drop_prob and (drops_left is None or drops_left > 0)
        if may_drop and draw() < rule.drop_prob:
            if drops_left is not None:
                self._drops_left[i] = drops_left - 1
            self.metrics.dropped_messages += 1
            return 0
        if rule.duplicate_prob and draw() < rule.duplicate_prob:
            self.metrics.duplicated_messages += 1
            return 2
        return 1

    def delivered_payloads(
        self, src: int, dst: int, kind: str, payload, now: float = 0.0
    ):
        """The payload list ``dst`` receives for this send (tamper-aware).

        Composes :meth:`deliveries` (partitions + stochastic link rules
        decide how many copies survive) with the Byzantine
        :class:`~repro.adversary.runtime.AdversaryRuntime` (which may
        rewrite each surviving copy, or append a replayed stale one).
        Engines call this instead of :meth:`deliveries`; without an
        adversary it degenerates to ``[payload] * copies``.
        """
        copies = self.deliveries(src, dst, kind, now)
        if self.adversary is None:
            return [payload] * copies
        return self.adversary.deliver(src, dst, payload, copies)

    # ------------------------------------------------------------------ #
    # detector support

    def note_suspicion(self, u: int, now: float) -> None:
        """Record the first time a crashed node was suspected by anyone."""
        if u in self.crashed_at and u not in self.metrics.first_suspected:
            self.metrics.first_suspected[u] = now
