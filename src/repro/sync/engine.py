"""The synchronous round engine.

Semantics (Section 2 of the paper):

* All nodes share a global round counter ``1, 2, ...``.
* In round ``r`` every awake, non-halted node takes one step
  (:meth:`repro.sync.SyncAlgorithm.on_round`) and may send messages over
  its ports; every message sent in round ``r`` is delivered at the start
  of round ``r + 1``.
* An asleep node wakes when a message is delivered to it, and takes its
  first step in the delivery round with that message in its inbox.
* Port endpoints are resolved lazily through a
  :class:`repro.net.ports.PortMap`, so the adversarial KT0 semantics are
  preserved: a node learns nothing about a port until it uses it.

The engine is fully deterministic given ``(seed, ids, port map policy,
wake-up set, algorithm factory)``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.common import (
    Decision,
    ProtocolError,
    SimulationLimitExceeded,
    SurvivorAccounting,
    message_kind,
)
from repro.net.ports import LazyPortMap, PortMap, RandomPortPolicy, sample_range
from repro.sync.algorithm import SyncAlgorithm
from repro.sync.metrics import SyncMetrics
from repro.sync.wakeup import simultaneous_wakeup

__all__ = ["SyncContext", "SyncNetwork", "SyncRunResult"]


class SyncContext:
    """Per-node handle through which an algorithm interacts with the clique.

    One context object exists per node for the lifetime of a run; the
    engine refreshes its round number before each step.  The node's
    ``random.Random`` is built from its seed when :attr:`rng` is first
    read, so nodes that never draw never pay for seeding one.
    """

    __slots__ = ("_net", "node", "my_id", "n", "_seed", "_rng", "round", "wake_round")

    def __init__(self, net: "SyncNetwork", node: int, my_id: int, seed: int):
        self._net = net
        self.node = node
        self.my_id = my_id
        self.n = net.n
        self._seed = seed
        self._rng: Optional[random.Random] = None
        self.round = 0
        self.wake_round = 0

    @property
    def rng(self) -> random.Random:
        """This node's private random stream."""
        rng = self._rng
        if rng is None:
            rng = self._rng = random.Random(self._seed)
        return rng

    # ------------------------------------------------------------------ #
    # topology

    @property
    def port_count(self) -> int:
        """Number of ports (``n - 1``)."""
        return self.n - 1

    def all_ports(self) -> range:
        """All port numbers, ``0 .. n-2``."""
        return range(self.n - 1)

    def sample_ports(self, m: int) -> List[int]:
        """``m`` distinct ports sampled uniformly at random (no replacement)."""
        if m > self.port_count:
            raise ValueError(f"cannot sample {m} of {self.port_count} ports")
        return sample_range(self.rng, self.port_count, m)

    # ------------------------------------------------------------------ #
    # communication

    def send(self, port: int, payload: Any) -> None:
        """Send ``payload`` over ``port``; delivered at the start of round+1."""
        self._net._send(self.node, (port,), payload)

    def send_many(self, ports: Sequence[int], payload: Any) -> None:
        """Send the same payload over each port in ``ports`` (a list, tuple or range)."""
        self._net._send(self.node, ports, payload)

    def broadcast(self, payload: Any) -> None:
        """Send ``payload`` over every port (``n - 1`` messages)."""
        self._net._send(self.node, range(self.n - 1), payload)

    # ------------------------------------------------------------------ #
    # decisions

    @property
    def decision(self) -> Optional[Decision]:
        """This node's decision so far (``None`` while undecided)."""
        return self._net.decisions[self.node]

    def decide_leader(self) -> None:
        """Irrevocably output LEADER."""
        self._net._decide(self.node, Decision.LEADER, self.my_id)

    def decide_follower(self, leader_id: Optional[int] = None) -> None:
        """Irrevocably output NON_LEADER (optionally naming the leader)."""
        self._net._decide(self.node, Decision.NON_LEADER, leader_id)

    def halt(self) -> None:
        """Terminate this node; it takes no further steps."""
        self._net._halt(self.node)

    # ------------------------------------------------------------------ #
    # failure detection (faults subsystem)

    @property
    def detector(self):
        """This node's failure-detector oracle (see :mod:`repro.faults`).

        Always available; without a fault plan it is a perfect detector
        over a crash-free run (it never suspects anyone).
        """
        return self._net.detector_for(self.node)


@dataclass
class SyncRunResult(SurvivorAccounting):
    """Summary of one synchronous execution."""

    n: int
    ids: List[int]
    rounds_executed: int
    messages: int
    last_send_round: int
    leaders: List[int]
    decisions: List[Optional[Decision]]
    outputs: List[Optional[int]]
    awake_count: int
    halted_count: int
    dropped_deliveries: int
    metrics: SyncMetrics
    crashed: List[int] = field(default_factory=list)
    fault_metrics: Optional[Any] = None  # FaultMetrics when a plan was active

    @property
    def leader_ids(self) -> List[int]:
        """IDs of the nodes that decided LEADER."""
        return [self.ids[u] for u in self.leaders]

    @property
    def unique_leader(self) -> bool:
        """Exactly one node decided LEADER."""
        return len(self.leaders) == 1

    @property
    def elected_id(self) -> Optional[int]:
        """The elected ID if the election produced a unique leader."""
        return self.ids[self.leaders[0]] if self.unique_leader else None

    @property
    def decided_count(self) -> int:
        return sum(1 for d in self.decisions if d is not None)

    def explicit_agreement(self) -> bool:
        """Explicit-election check: every decided non-leader names the leader.

        Nodes that decided NON_LEADER with ``leader_id=None`` (implicit
        election) do not count against agreement.
        """
        if not self.unique_leader:
            return False
        expected = self.elected_id
        for u, decision in enumerate(self.decisions):
            if decision is Decision.NON_LEADER and self.outputs[u] is not None:
                if self.outputs[u] != expected:
                    return False
        return True


class SyncNetwork:
    """A synchronous ``n``-clique executing one algorithm instance per node."""

    def __init__(
        self,
        n: int,
        algorithm_factory: Callable[[], SyncAlgorithm],
        *,
        ids: Optional[Sequence[int]] = None,
        seed: int = 0,
        port_map: Optional[PortMap] = None,
        awake: Optional[Sequence[int]] = None,
        max_rounds: Optional[int] = None,
        recorder: Optional[Any] = None,
        faults: Optional[Any] = None,
    ) -> None:
        if n < 1:
            raise ValueError("need n >= 1")
        self.n = n
        self.seed = seed
        master = random.Random(seed)
        if ids is None:
            ids = list(range(1, n + 1))
        if len(ids) != n:
            raise ValueError(f"need {n} IDs, got {len(ids)}")
        if len(set(ids)) != n:
            raise ValueError("IDs must be distinct")
        self.ids = list(ids)
        if port_map is None:
            port_map = LazyPortMap(n, RandomPortPolicy(random.Random(master.getrandbits(64))))
        self.port_map = port_map
        self.recorder = recorder
        self.max_rounds = max_rounds if max_rounds is not None else max(4096, 32 * n)

        self.algorithms: List[SyncAlgorithm] = [algorithm_factory() for _ in range(n)]
        self.contexts: List[SyncContext] = [
            SyncContext(self, u, self.ids[u], master.getrandbits(64)) for u in range(n)
        ]
        self.decisions: List[Optional[Decision]] = [None] * n
        self.outputs: List[Optional[int]] = [None] * n
        self.leaders: List[int] = []
        self.metrics = SyncMetrics()

        self.fault_plan = faults
        self.fault_runtime = None
        if faults is not None:
            from repro.faults.runtime import FaultRuntime

            self.fault_runtime = FaultRuntime(faults, n, self.ids, seed)
        self._detectors: Dict[int, Any] = {}

        self._awake: List[bool] = [False] * n
        self._halted: List[bool] = [False] * n
        self._crashed: List[bool] = [False] * n
        self._active: Set[int] = set()
        self._used_send_ports: List[Set[int]] = [set() for _ in range(n)]
        self._inboxes_next: Dict[int, List[Tuple[int, Any]]] = {}
        self._dropped_deliveries = 0
        self.round = 0

        wake_set = simultaneous_wakeup(n) if awake is None else frozenset(awake)
        if not wake_set:
            raise ValueError("at least one node must be awake initially")
        if not all(0 <= u < n for u in wake_set):
            raise ValueError("initially-awake node indices must be in [0, n)")
        self._initial_wake = wake_set

    # ------------------------------------------------------------------ #
    # engine internals (called by contexts)

    def _send(self, u: int, ports: Sequence[int], payload: Any) -> None:
        """Send one payload from ``u`` over each of ``ports``, in order."""
        if self._halted[u] or self._crashed[u]:
            raise ProtocolError(f"halted/crashed node {u} attempted to send")
        endpoints: List[Tuple[int, int]] = []
        try:
            self.port_map.resolve_many(u, ports, endpoints)
        finally:
            # A policy may raise mid-batch: the sends it resolved before
            # that still go out and count, as callers that catch the
            # escape read the totals.
            if endpoints:
                self._queue_sends(u, ports, endpoints, payload)

    def _queue_sends(
        self, u: int, ports: Sequence[int], endpoints: List[Tuple[int, int]], payload: Any
    ) -> None:
        """Queue the sends ``ports[i] -> endpoints[i]`` for the next round."""
        kind = message_kind(payload)
        round_no = self.round
        recorder = self.recorder
        runtime = self.fault_runtime
        inboxes = self._inboxes_next
        used = self._used_send_ports[u]
        opened = len(used)
        used.update(ports[: len(endpoints)])
        self.metrics.record_sends(round_no, kind, len(endpoints), len(used) - opened)
        for port, (v, j) in zip(ports, endpoints):
            if recorder is not None:
                recorder.on_send(round_no, u, port, v, j, payload)
            if runtime is None:
                inboxes.setdefault(v, []).append((j, payload))
                continue
            runtime.observe_send(round_no, u, kind)
            for delivered in runtime.delivered_payloads(u, v, kind, payload, round_no):
                # Byzantine rewrites (and replayed stale copies) are
                # traced separately: on_send above logged what the
                # sender handed the network, on_tamper logs what the
                # receiver will see.
                if (
                    delivered is not payload
                    and recorder is not None
                    and hasattr(recorder, "on_tamper")
                ):
                    recorder.on_tamper(round_no, u, v, payload, delivered)
                inboxes.setdefault(v, []).append((j, delivered))

    def _decide(self, u: int, decision: Decision, output: Optional[int]) -> None:
        previous = self.decisions[u]
        if previous is not None:
            if previous is decision and self.outputs[u] == output:
                return
            raise ProtocolError(
                f"node {u} tried to change its decision from {previous} to {decision}"
            )
        self.decisions[u] = decision
        self.outputs[u] = output
        if decision is Decision.LEADER:
            self.leaders.append(u)
        if self.recorder is not None:
            self.recorder.on_decide(self.round, u, decision, output)

    def _halt(self, u: int) -> None:
        if not self._halted[u]:
            self._halted[u] = True
            self._active.discard(u)

    def _crash(self, u: int, when: Optional[float] = None) -> None:
        """Crash-stop ``u`` (at the start of the current round by default)."""
        if when is None:
            when = self.round
        self._crashed[u] = True
        self._active.discard(u)
        self.fault_runtime.note_crash(u, when)
        if self.recorder is not None and hasattr(self.recorder, "on_crash"):
            self.recorder.on_crash(when, u)

    def _apply_due_crashes(self) -> None:
        if self.fault_runtime is None:
            return
        for u in self.fault_runtime.due_crashes(self.round):
            if self.fault_runtime.approve_crash(u):
                self._crash(u)

    def detector_for(self, u: int):
        """The failure-detector oracle of node ``u`` (cached per run)."""
        detector = self._detectors.get(u)
        if detector is None:
            from repro.faults.detectors import engine_detector

            detector = engine_detector(
                self.fault_plan, u, self.ids, self.fault_runtime, port_map=self.port_map
            )
            self._detectors[u] = detector
        return detector

    def _wake(self, u: int) -> None:
        if self._awake[u] or self._halted[u] or self._crashed[u]:
            return
        self._awake[u] = True
        self._active.add(u)
        self.metrics.wake_count += 1
        ctx = self.contexts[u]
        ctx.round = self.round
        ctx.wake_round = self.round
        if self.recorder is not None:
            self.recorder.on_wake(self.round, u)
        self.algorithms[u].on_wake(ctx)

    # ------------------------------------------------------------------ #
    # execution

    def run(self) -> SyncRunResult:
        """Execute rounds until every non-asleep node has halted."""
        self.round = 1
        self._apply_due_crashes()
        for u in sorted(self._initial_wake):
            self._wake(u)
        while True:
            if self.round > self.max_rounds:
                raise SimulationLimitExceeded(
                    f"no termination after {self.max_rounds} rounds "
                    f"(n={self.n}, active={len(self._active)})"
                )
            inboxes = self._inboxes_next
            self._inboxes_next = {}
            # Deliveries wake sleeping destinations (in index order, for
            # determinism of the wake hooks).
            for v in sorted(inboxes):
                if self._halted[v] or self._crashed[v]:
                    self._dropped_deliveries += len(inboxes[v])
                elif not self._awake[v]:
                    self._wake(v)
            self.metrics.rounds_executed = self.round
            for u in sorted(self._active):
                ctx = self.contexts[u]
                ctx.round = self.round
                self.algorithms[u].on_round(ctx, inboxes.get(u, []))
            if not self._active and not self._inboxes_next:
                break
            self.round += 1
            self._apply_due_crashes()
        # Post-quiescence crashes still happen (to the machines, not the
        # protocol): record them so survivor accounting matches reality.
        if self.fault_runtime is not None:
            for at, u in self.fault_runtime.drain_pending():
                if self.fault_runtime.approve_crash(u):
                    self._crash(u, when=at)
        return self._result()

    def _result(self) -> SyncRunResult:
        return SyncRunResult(
            n=self.n,
            ids=self.ids,
            rounds_executed=self.metrics.rounds_executed,
            messages=self.metrics.messages_total,
            last_send_round=self.metrics.last_send_round,
            leaders=list(self.leaders),
            decisions=list(self.decisions),
            outputs=list(self.outputs),
            awake_count=sum(self._awake),
            halted_count=sum(self._halted),
            dropped_deliveries=self._dropped_deliveries,
            metrics=self.metrics,
            crashed=[u for u in range(self.n) if self._crashed[u]],
            fault_metrics=(
                self.fault_runtime.metrics if self.fault_runtime is not None else None
            ),
        )
