"""Streaming invariant monitors over the engine recorder seam.

A :class:`MonitorSuite` *is* a recorder: attach it to a
:class:`~repro.sync.SyncNetwork` / :class:`~repro.asyncnet.AsyncNetwork`
(directly or fanned in through a
:class:`~repro.trace.CompositeRecorder`) and the election is checked
while it runs.  The fast engine has no per-event hooks; its runs are
checked from :class:`~repro.telemetry.FastTelemetry` aggregates plus a
sampled-lane object-engine replay (:func:`repro.monitor.monitor_fast_lane`).

The invariants are the safety/liveness contract every election run of
this repo is supposed to satisfy:

``unique_leader_per_epoch``
    At no point are two committed leaders simultaneously alive.  This
    is exactly the scenario layer's split-brain condition — decisions
    are irrevocable within a run, so the reigning set only shrinks via
    crashes.
``agreement``
    Alive nodes that named a leader (explicit variant) all name the
    same one.
``validity``
    Every named leader ID belongs to a member that actually woke (a
    contender); nobody elects a ghost.
``quorum_one_leader``
    PR 4 quorum semantics: a leader only commits while a majority of
    the full membership is alive, and committed reigns never overlap.
``termination_bound``
    Every awake, uncrashed node decides, and (optionally) all activity
    stays below an explicit round/time bound.
``congest`` (opt-in, not in :func:`default_monitors`)
    Every sent payload fits in ``O(log n)`` bits — the paper's §2 claim
    that its algorithms keep their complexities under CONGEST.

Violations are collected, never raised — see
:class:`~repro.monitor.Violation`.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Any, Dict, List, Optional, Sequence, Set

from repro.trace.events import EventRecorder, TraceEvent
from repro.common import Decision, message_kind
from repro.monitor.violations import Violation, trace_slice

__all__ = [
    "InvariantMonitor",
    "UniqueLeaderMonitor",
    "AgreementMonitor",
    "ValidityMonitor",
    "QuorumOneLeaderMonitor",
    "TerminationMonitor",
    "CongestMonitor",
    "payload_bits",
    "congest_budget",
    "MonitorSuite",
    "default_monitors",
    "MONITOR_NAMES",
]

#: Recent-event window kept for violation trace slices.
DEFAULT_WINDOW = 512


class InvariantMonitor:
    """One streaming checker; subclasses observe events and report."""

    name = "invariant"

    def bind(self, suite: "MonitorSuite") -> None:
        self.suite = suite

    def observe(self, event: TraceEvent) -> None:  # pragma: no cover - interface
        pass

    def finish(self, result: Optional[Any] = None) -> None:
        """Final checks once the run ended (``result`` when available)."""

    def _report(
        self, message: str, *, when: Optional[float] = None, node: Optional[int] = None
    ) -> None:
        self.suite.report(self.name, message, when=when, node=node)


class UniqueLeaderMonitor(InvariantMonitor):
    """At most one committed leader alive at any instant.

    ``concurrent_leaders`` after the run equals the engine's
    ``len(result.surviving_leaders)`` accounting whenever the event
    stream is complete.  The scenario layer's split-brain metric is that
    engine count; ``tests/test_scenario_monitor_routing.py`` replays
    every scenario act through this monitor as the cross-check.
    """

    name = "unique_leader_per_epoch"

    def __init__(self) -> None:
        self.reigning: Set[int] = set()
        self.crashed: Set[int] = set()
        self.max_concurrent = 0
        self._flagged: Set[frozenset] = set()

    @property
    def concurrent_leaders(self) -> int:
        """Committed leaders still alive (after the observed stream)."""
        return len(self.reigning)

    def observe(self, event: TraceEvent) -> None:
        if event.kind == "decide":
            decision = event.detail[0]
            if decision is Decision.LEADER:
                self.reigning.add(event.node)
                self.max_concurrent = max(self.max_concurrent, len(self.reigning))
                if len(self.reigning) > 1:
                    key = frozenset(self.reigning)
                    if key not in self._flagged:
                        self._flagged.add(key)
                        self._report(
                            f"{len(self.reigning)} leaders simultaneously alive "
                            f"(nodes {sorted(self.reigning)})",
                            when=event.when,
                            node=event.node,
                        )
        elif event.kind == "crash":
            self.crashed.add(event.node)
            self.reigning.discard(event.node)

    def finish(self, result: Optional[Any] = None) -> None:
        if result is None or not self._flagged:
            surviving = getattr(result, "surviving_leaders", None)
            if surviving is not None and len(surviving) > 1 and not self._flagged:
                # The stream missed it (monitor attached late, filtered
                # hooks): the engine's own survivor accounting is
                # authoritative, so cross-check it.
                self._flagged.add(frozenset(surviving))
                self._report(
                    f"{len(surviving)} leaders alive at run end "
                    f"(nodes {sorted(surviving)})"
                )


class AgreementMonitor(InvariantMonitor):
    """Alive nodes with explicit outputs all name the same leader."""

    name = "agreement"

    def __init__(self) -> None:
        self.outputs: Dict[int, int] = {}
        self.crashed: Set[int] = set()
        self._flagged: Set[frozenset] = set()

    def observe(self, event: TraceEvent) -> None:
        if event.kind == "crash":
            self.crashed.add(event.node)
            return
        if event.kind != "decide":
            return
        output = event.detail[1]
        if output is None:
            return  # implicit variant / quorum abstention: nothing to compare
        self.outputs[event.node] = output
        alive = {
            out for node, out in self.outputs.items() if node not in self.crashed
        }
        if len(alive) > 1:
            key = frozenset(alive)
            if key not in self._flagged:
                self._flagged.add(key)
                self._report(
                    f"alive nodes disagree on the leader: ids {sorted(alive)}",
                    when=event.when,
                    node=event.node,
                )


class ValidityMonitor(InvariantMonitor):
    """Every named leader ID belongs to a member that actually woke.

    Needs the suite's ``ids`` context to map IDs back to nodes; without
    it only the membership check runs (an unknown ID is still flagged).
    """

    name = "validity"

    def __init__(self) -> None:
        self.woken: Set[int] = set()
        self._flagged: Set[int] = set()

    def observe(self, event: TraceEvent) -> None:
        if event.kind == "wake":
            self.woken.add(event.node)
            return
        if event.kind != "decide":
            return
        output = event.detail[1]
        if output is None or output in self._flagged:
            return
        id_to_node = self.suite.id_to_node
        if id_to_node is None:
            return
        owner = id_to_node.get(output)
        if owner is None:
            self._flagged.add(output)
            self._report(
                f"elected id {output} is not a member id",
                when=event.when,
                node=event.node,
            )
        elif owner not in self.woken:
            self._flagged.add(output)
            self._report(
                f"elected id {output} (node {owner}) never woke — not a contender",
                when=event.when,
                node=event.node,
            )


class QuorumOneLeaderMonitor(InvariantMonitor):
    """PR 4 quorum semantics: commits need a live majority, reigns never overlap.

    Attach when the run promises quorum gating (``quorum_reelect`` or
    ``--quorum`` scenario acts); a plain re-election wrapper under a
    partition legitimately violates this, which is exactly the failure
    mode the quorum layer exists to close.
    """

    name = "quorum_one_leader"

    def __init__(self) -> None:
        self.reigning: Set[int] = set()
        self.crashed: Set[int] = set()
        self._flagged_minority: Set[int] = set()
        self._flagged_overlap: Set[frozenset] = set()

    def observe(self, event: TraceEvent) -> None:
        if event.kind == "crash":
            self.crashed.add(event.node)
            self.reigning.discard(event.node)
            return
        if event.kind != "decide" or event.detail[0] is not Decision.LEADER:
            return
        n = self.suite.n
        if n is not None:
            alive = n - len(self.crashed)
            if alive < n // 2 + 1 and event.node not in self._flagged_minority:
                self._flagged_minority.add(event.node)
                self._report(
                    f"leader committed with only {alive}/{n} members alive "
                    "(no live majority)",
                    when=event.when,
                    node=event.node,
                )
        self.reigning.add(event.node)
        if len(self.reigning) > 1:
            key = frozenset(self.reigning)
            if key not in self._flagged_overlap:
                self._flagged_overlap.add(key)
                self._report(
                    f"overlapping committed reigns: nodes {sorted(self.reigning)}",
                    when=event.when,
                    node=event.node,
                )


class TerminationMonitor(InvariantMonitor):
    """Every awake, uncrashed node decides — optionally within ``bound``."""

    name = "termination_bound"

    def __init__(self, bound: Optional[float] = None) -> None:
        self.bound = bound
        self.woken: Set[int] = set()
        self.decided: Set[int] = set()
        self.crashed: Set[int] = set()
        self._bound_flagged = False

    def observe(self, event: TraceEvent) -> None:
        if event.kind == "wake":
            self.woken.add(event.node)
        elif event.kind == "decide":
            self.decided.add(event.node)
        elif event.kind == "crash":
            self.crashed.add(event.node)
        if (
            self.bound is not None
            and not self._bound_flagged
            and event.when > self.bound
        ):
            self._bound_flagged = True
            self._report(
                f"activity at t={event.when:g} exceeds the termination bound "
                f"{self.bound:g}",
                when=event.when,
                node=event.node,
            )

    def finish(self, result: Optional[Any] = None) -> None:
        undecided: List[int] = []
        if result is not None and hasattr(result, "decisions"):
            crashed = set(getattr(result, "crashed", ()) or ())
            woken = self.woken or set(range(len(result.decisions)))
            undecided = [
                u
                for u, decision in enumerate(result.decisions)
                if decision is None and u not in crashed and u in woken
            ]
        else:
            undecided = sorted(self.woken - self.decided - self.crashed)
        if undecided:
            self._report(
                f"{len(undecided)} awake node(s) never decided "
                f"(e.g. node {undecided[0]})"
            )


#: Bits for a payload's kind tag: each algorithm uses O(1) kinds, and
#: 8 bits covers every kind in this package.
KIND_BITS = 8


def payload_bits(payload: Any) -> int:
    """Estimated wire size of one message payload, in bits.

    Payloads are tuples ``(kind, field, ...)`` of ints (IDs, ranks,
    levels) and bools (see :func:`repro.common.message_kind`).  Raises
    ``TypeError`` for a field of any other type.
    """
    if payload is None or isinstance(payload, bool):
        return 1
    if isinstance(payload, int):
        return max(1, payload.bit_length())
    if isinstance(payload, str):
        return KIND_BITS
    if isinstance(payload, tuple):
        return sum(payload_bits(field) for field in payload)
    raise TypeError(f"cannot size payload field of type {type(payload).__name__}")


def congest_budget(n: int) -> float:
    """The per-message CONGEST budget: ``8·log2(n)`` bits plus a tag.

    The factor 8 absorbs the constant number of O(log n)-bit fields per
    message (ranks live in ``[n^4]`` — four words — plus an ID).
    """
    return 8 * math.log2(max(n, 2)) + KIND_BITS


class CongestMonitor(InvariantMonitor):
    """Every sent payload fits in :func:`congest_budget` bits (§2).

    Opt-in: sizing every payload is per-message work the default set
    does not pay, and flattened sweep records carry no payloads.  The
    budget uses the suite's ``n``.  One violation is reported per
    message kind that overflows or cannot be sized.  ``messages`` counts
    every send; ``total_bits`` and ``max_bits`` cover the sized ones.
    """

    name = "congest"

    def __init__(self) -> None:
        self.messages = 0
        self.total_bits = 0
        self.max_bits = 0
        self._flagged: Set[str] = set()

    def bind(self, suite: "MonitorSuite") -> None:
        if suite.n is None:
            raise ValueError("CongestMonitor needs a suite with n or ids")
        super().bind(suite)
        self.budget = congest_budget(suite.n)

    def observe(self, event: TraceEvent) -> None:
        if event.kind != "send":
            return
        self.messages += 1
        payload = event.detail[3]
        try:
            bits = payload_bits(payload)
        except TypeError as exc:
            self._flag(payload, f"payload {payload!r} cannot be sized: {exc}", event)
            return
        self.total_bits += bits
        self.max_bits = max(self.max_bits, bits)
        if bits > self.budget:
            self._flag(
                payload,
                f"payload {payload!r} needs {bits} bits > CONGEST budget "
                f"{self.budget:.0f} bits for n={self.suite.n}",
                event,
            )

    def _flag(self, payload: Any, message: str, event: TraceEvent) -> None:
        kind = message_kind(payload)
        if kind not in self._flagged:
            self._flagged.add(kind)
            self._report(message, when=event.when, node=event.node)


#: Names of the default invariants (``default_monitors(quorum=True)``),
#: in attachment order; the opt-in ``congest`` audit is not among them.
MONITOR_NAMES = (
    "unique_leader_per_epoch",
    "agreement",
    "validity",
    "quorum_one_leader",
    "termination_bound",
)


def default_monitors(
    *, quorum: bool = False, bound: Optional[float] = None
) -> List[InvariantMonitor]:
    """The standard checker set; ``quorum_one_leader`` only when promised."""
    monitors: List[InvariantMonitor] = [
        UniqueLeaderMonitor(),
        AgreementMonitor(),
        ValidityMonitor(),
    ]
    if quorum:
        monitors.append(QuorumOneLeaderMonitor())
    monitors.append(TerminationMonitor(bound=bound))
    return monitors


class MonitorSuite(EventRecorder):
    """A recorder that fans engine events into invariant monitors.

    Pass as ``recorder=`` to any object-engine entrypoint (or into a
    :class:`~repro.trace.CompositeRecorder` next to a JSONL trace), or
    feed a recorded stream through :meth:`replay`.  Call :meth:`finish`
    once the run ended — monitors run their final checks against the
    engine result — then read :attr:`violations`.
    """

    def __init__(
        self,
        monitors: Optional[Sequence[InvariantMonitor]] = None,
        *,
        n: Optional[int] = None,
        ids: Optional[Sequence[int]] = None,
        quorum: bool = False,
        bound: Optional[float] = None,
        context: Optional[Dict[str, Any]] = None,
        window: int = DEFAULT_WINDOW,
    ) -> None:
        super().__init__()
        if monitors is None:
            monitors = default_monitors(quorum=quorum, bound=bound)
        self.monitors = list(monitors)
        if ids is None and n is not None:
            ids = list(range(1, n + 1))
        self.n = n if n is not None else (len(ids) if ids is not None else None)
        self.ids = list(ids) if ids is not None else None
        self.id_to_node: Optional[Dict[int, int]] = (
            {node_id: u for u, node_id in enumerate(self.ids)}
            if self.ids is not None
            else None
        )
        self.context: Dict[str, Any] = dict(context or {})
        self.violations: List[Violation] = []
        self._ring: deque = deque(maxlen=window)
        self._finished = False
        for monitor in self.monitors:
            monitor.bind(self)

    # -------------------------------------------------------------- #
    # recorder seam

    def _record(self, event: TraceEvent) -> None:
        self._ring.append(event)
        for monitor in self.monitors:
            monitor.observe(event)

    def replay(self, events: Sequence[TraceEvent]) -> "MonitorSuite":
        """Feed an already-recorded stream (bit-equal to live attachment)."""
        for event in events:
            self._record(event)
        return self

    # -------------------------------------------------------------- #
    # results

    def report(
        self,
        monitor: str,
        message: str,
        *,
        when: Optional[float] = None,
        node: Optional[int] = None,
    ) -> None:
        self.violations.append(
            Violation(
                monitor=monitor,
                message=message,
                when=when,
                node=node,
                context=dict(self.context),
                trace_slice=trace_slice(list(self._ring), when),
            )
        )

    def finish(self, result: Optional[Any] = None) -> List[Violation]:
        """Run every monitor's final checks; idempotent."""
        if not self._finished:
            self._finished = True
            for monitor in self.monitors:
                monitor.finish(result)
        return self.violations

    def monitor(self, name: str) -> InvariantMonitor:
        """Look up an attached monitor by invariant name."""
        for m in self.monitors:
            if m.name == name:
                return m
        raise KeyError(f"no monitor named {name!r} attached")

    @property
    def ok(self) -> bool:
        return not self.violations
