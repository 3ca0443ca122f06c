"""The asynchronous event-driven engine.

Implementation notes:

* Events live in a binary heap keyed by ``(time, seq)`` where ``seq`` is a
  global monotonic counter; ties in time are therefore broken by
  scheduling order, making runs fully deterministic.
* FIFO links: the delivery time of a message on directed link ``u → v``
  is clamped to be no earlier than the previously scheduled delivery on
  the same link.
* A sleeping node is woken by its first delivery: ``on_wake`` runs first,
  then ``on_message`` for the waking message, at the same timestamp —
  matching Algorithm 2's "if an asleep node receives a message ... then"
  step.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.common import (
    Decision,
    ProtocolError,
    SimulationLimitExceeded,
    SurvivorAccounting,
    message_kind,
)
from repro.asyncnet.algorithm import AsyncAlgorithm
from repro.asyncnet.metrics import AsyncMetrics
from repro.asyncnet.schedulers import DelayScheduler, UnitDelayScheduler
from repro.net.ports import LazyPortMap, PortMap, RandomPortPolicy, sample_range

__all__ = ["AsyncContext", "AsyncNetwork", "AsyncRunResult"]

_EVENT_WAKE = 0
_EVENT_DELIVER = 1
_EVENT_CRASH = 2
_EVENT_TIMER = 3


class AsyncContext:
    """Per-node handle for interacting with the asynchronous clique.

    The node's ``random.Random`` is built from its seed when :attr:`rng`
    is first read, as in :class:`repro.sync.engine.SyncContext`.
    """

    __slots__ = ("_net", "node", "my_id", "n", "_seed", "_rng", "now", "wake_time")

    def __init__(self, net: "AsyncNetwork", node: int, my_id: int, seed: int):
        self._net = net
        self.node = node
        self.my_id = my_id
        self.n = net.n
        self._seed = seed
        self._rng: Optional[random.Random] = None
        self.now = 0.0
        self.wake_time = 0.0

    @property
    def rng(self) -> random.Random:
        """This node's private random stream."""
        rng = self._rng
        if rng is None:
            rng = self._rng = random.Random(self._seed)
        return rng

    @property
    def port_count(self) -> int:
        return self.n - 1

    def sample_ports(self, m: int) -> List[int]:
        """``m`` distinct ports sampled uniformly (no replacement)."""
        if m > self.port_count:
            raise ValueError(f"cannot sample {m} of {self.port_count} ports")
        return sample_range(self.rng, self.port_count, m)

    def send(self, port: int, payload: Any) -> None:
        self._net._send(self.node, (port,), payload)

    def send_many(self, ports: Sequence[int], payload: Any) -> None:
        self._net._send(self.node, ports, payload)

    def broadcast(self, payload: Any) -> None:
        self._net._send(self.node, range(self.n - 1), payload)

    @property
    def decision(self) -> Optional[Decision]:
        return self._net.decisions[self.node]

    def decide_leader(self) -> None:
        self._net._decide(self.node, Decision.LEADER, self.my_id)

    def decide_follower(self, leader_id: Optional[int] = None) -> None:
        self._net._decide(self.node, Decision.NON_LEADER, leader_id)

    def halt(self) -> None:
        """Stop processing messages (deliveries to this node are dropped)."""
        self._net._halt(self.node)

    # ------------------------------------------------------------------ #
    # timers and failure detection (faults subsystem)

    def set_timer(self, delay: float, tag: Any = None) -> None:
        """Schedule :meth:`AsyncAlgorithm.on_timer` at ``now + delay``.

        Timers are node-local (they are not messages, cost nothing and
        bypass the fault plan); a timer pending when its owner halts or
        crashes is silently discarded.  Unlike message delays, ``delay``
        may exceed one time unit.
        """
        self._net._set_timer(self.node, delay, tag)

    @property
    def detector(self):
        """This node's failure-detector oracle (see :mod:`repro.faults`).

        Always available; without a fault plan it is a perfect detector
        over a crash-free run (it never suspects anyone).
        """
        return self._net.detector_for(self.node)


@dataclass
class AsyncRunResult(SurvivorAccounting):
    """Summary of one asynchronous execution."""

    n: int
    ids: List[int]
    messages: int
    time: float
    events: int
    leaders: List[int]
    decisions: List[Optional[Decision]]
    outputs: List[Optional[int]]
    awake_count: int
    dropped_deliveries: int
    metrics: AsyncMetrics
    crashed: List[int] = field(default_factory=list)
    fault_metrics: Optional[Any] = None  # FaultMetrics when a plan was active

    @property
    def leader_ids(self) -> List[int]:
        return [self.ids[u] for u in self.leaders]

    @property
    def unique_leader(self) -> bool:
        return len(self.leaders) == 1

    @property
    def elected_id(self) -> Optional[int]:
        return self.ids[self.leaders[0]] if self.unique_leader else None

    @property
    def decided_count(self) -> int:
        return sum(1 for d in self.decisions if d is not None)


class AsyncNetwork:
    """An asynchronous ``n``-clique with adversarial delays and wake-up."""

    def __init__(
        self,
        n: int,
        algorithm_factory: Callable[[], AsyncAlgorithm],
        *,
        ids: Optional[Sequence[int]] = None,
        seed: int = 0,
        port_map: Optional[PortMap] = None,
        scheduler: Optional[DelayScheduler] = None,
        wake_times: Optional[Dict[int, float]] = None,
        max_events: Optional[int] = None,
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
        if len(ids) != n or len(set(ids)) != n:
            raise ValueError("need n distinct IDs")
        self.ids = list(ids)
        if port_map is None:
            # The paper requires the async adversary to fix the port
            # mapping *obliviously* (before the first wake-up); a random
            # policy seeded independently of node randomness satisfies
            # that.
            port_map = LazyPortMap(n, RandomPortPolicy(random.Random(master.getrandbits(64))))
        self.port_map = port_map
        self.scheduler = scheduler if scheduler is not None else UnitDelayScheduler()
        self.recorder = recorder
        self.max_events = max_events if max_events is not None else max(200_000, 400 * n)

        self.algorithms: List[AsyncAlgorithm] = [algorithm_factory() for _ in range(n)]
        self.contexts: List[AsyncContext] = [
            AsyncContext(self, u, self.ids[u], master.getrandbits(64)) for u in range(n)
        ]
        self.decisions: List[Optional[Decision]] = [None] * n
        self.outputs: List[Optional[int]] = [None] * n
        self.leaders: List[int] = []
        self.metrics = AsyncMetrics()

        self.fault_plan = faults
        self.fault_runtime = None
        self._detectors: Dict[int, Any] = {}

        self._awake: List[bool] = [False] * n
        self._halted: List[bool] = [False] * n
        self._crashed: List[bool] = [False] * n
        self._heap: List[Tuple[float, int, int, int, int, Any]] = []
        self._seq = 0
        # Directed link u -> v, keyed u * n + v: its latest delivery time.
        self._link_last_delivery: Dict[int, float] = {}
        self._dropped = 0
        self._now = 0.0

        if faults is not None:
            from repro.faults.runtime import FaultRuntime

            self.fault_runtime = FaultRuntime(faults, n, self.ids, seed)
            for at, node in self.fault_runtime.static_crashes():
                self._push(at, _EVENT_CRASH, node, -1, None)

        if wake_times is None:
            wake_times = {0: 0.0}
        if not wake_times:
            raise ValueError("the adversary must wake at least one node")
        for node, t in sorted(wake_times.items()):
            if not 0 <= node < n:
                raise ValueError("wake-time node indices must be in [0, n)")
            if not 0 <= t < float("inf"):
                raise ValueError(f"wake times must be finite and >= 0, got {t!r}")
            self._push(t, _EVENT_WAKE, node, -1, None)

    # ------------------------------------------------------------------ #
    # event plumbing

    def _push(self, time: float, kind: int, node: int, port: int, payload: Any) -> None:
        heapq.heappush(self._heap, (time, self._seq, kind, node, port, payload))
        self._seq += 1

    def _send(self, u: int, ports: Sequence[int], payload: Any) -> None:
        """Send one payload from ``u`` over each of ``ports``, in order."""
        if self._halted[u] or self._crashed[u]:
            raise ProtocolError(f"halted/crashed node {u} attempted to send")
        endpoints: List[Tuple[int, int]] = []
        try:
            self.port_map.resolve_many(u, ports, endpoints)
        finally:
            # A policy may raise mid-batch: the sends resolved before that
            # still go out and count, like the sync engine's.
            if endpoints:
                self._schedule_sends(u, ports, endpoints, payload)

    def _schedule_sends(
        self, u: int, ports: Sequence[int], endpoints: List[Tuple[int, int]], payload: Any
    ) -> None:
        """Push a delivery event for each send ``ports[i] -> endpoints[i]``."""
        kind = message_kind(payload)
        now = self._now
        delay_of = self.scheduler.delay
        last_delivery = self._link_last_delivery
        recorder = self.recorder
        runtime = self.fault_runtime
        heap, push = self._heap, heapq.heappush
        seq = self._seq
        base = u * self.n
        sent = 0
        try:
            for port, (v, j) in zip(ports, endpoints):
                delay = delay_of(u, v, now, payload)
                if not 0.0 < delay <= 1.0:
                    raise ProtocolError(f"scheduler produced delay {delay!r} outside (0, 1]")
                deliver_at = now + delay
                link = base + v
                previous = last_delivery.get(link)
                if previous is not None and deliver_at < previous:
                    deliver_at = previous  # FIFO: never overtake on the same link
                last_delivery[link] = deliver_at
                sent += 1
                if recorder is not None:
                    recorder.on_send(now, u, port, v, j, payload)
                if runtime is None:
                    push(heap, (deliver_at, seq, _EVENT_DELIVER, v, j, payload))
                    seq += 1
                    continue
                for when, node in runtime.observe_send(now, u, kind):
                    push(heap, (when, seq, _EVENT_CRASH, node, -1, None))
                    seq += 1
                for delivered in runtime.delivered_payloads(u, v, kind, payload, now):
                    # Byzantine rewrites (and replayed stale copies) are
                    # traced separately from the honest on_send record.
                    if (
                        delivered is not payload
                        and recorder is not None
                        and hasattr(recorder, "on_tamper")
                    ):
                        recorder.on_tamper(now, u, v, payload, delivered)
                    push(heap, (deliver_at, seq, _EVENT_DELIVER, v, j, delivered))
                    seq += 1
        finally:
            # Counted even when a send raises mid-batch.
            self._seq = seq
            if sent:
                self.metrics.messages_total += sent
                self.metrics.messages_by_kind[kind] += sent

    def _set_timer(self, u: int, delay: float, tag: Any) -> None:
        if self._halted[u] or self._crashed[u]:
            raise ProtocolError(f"halted/crashed node {u} attempted to set a timer")
        if not 0 < delay < float("inf"):
            raise ProtocolError(f"timer delay must be finite and > 0, got {delay!r}")
        self._push(self._now + delay, _EVENT_TIMER, u, -1, tag)

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
            self.recorder.on_decide(self._now, u, decision, output)

    def _halt(self, u: int) -> None:
        self._halted[u] = True

    def _crash(self, u: int) -> None:
        """Crash-stop ``u`` now; its pending deliveries/timers are dropped."""
        self._crashed[u] = True
        self.fault_runtime.note_crash(u, self._now)
        if self.recorder is not None and hasattr(self.recorder, "on_crash"):
            self.recorder.on_crash(self._now, u)

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
        self.metrics.wake_count += 1
        self.metrics.first_wake_time = min(self.metrics.first_wake_time, self._now)
        ctx = self.contexts[u]
        ctx.now = self._now
        ctx.wake_time = self._now
        if self.recorder is not None:
            self.recorder.on_wake(self._now, u)
        self.algorithms[u].on_wake(ctx)

    # ------------------------------------------------------------------ #
    # execution

    def run(self) -> AsyncRunResult:
        """Process events until quiescence (empty event queue)."""
        heap, heappop, metrics = self._heap, heapq.heappop, self.metrics
        max_events, recorder = self.max_events, self.recorder
        halted, crashed, awake = self._halted, self._crashed, self._awake
        contexts, algorithms = self.contexts, self.algorithms
        while heap:
            if metrics.events_processed >= max_events:
                raise SimulationLimitExceeded(
                    f"no quiescence after {max_events} events (n={self.n})"
                )
            time, _seq, kind, node, port, payload = heappop(heap)
            self._now = time
            metrics.events_processed += 1
            if kind == _EVENT_CRASH:
                # Crashes are adversary actions, not protocol activity:
                # they do not extend the measured time span by themselves.
                if self.fault_runtime.approve_crash(node):
                    self._crash(node)
                continue
            if kind == _EVENT_TIMER:
                if halted[node] or crashed[node]:
                    continue  # discarded with its owner; no time-span effect
                metrics.last_event_time = max(metrics.last_event_time, time)
                metrics.timers_fired += 1
                ctx = contexts[node]
                ctx.now = time
                algorithms[node].on_timer(ctx, payload)
                continue
            metrics.last_event_time = max(metrics.last_event_time, time)
            if kind == _EVENT_WAKE:
                self._wake(node)
                continue
            # delivery
            if halted[node] or crashed[node]:
                self._dropped += 1
                continue
            if not awake[node]:
                self._wake(node)
            ctx = contexts[node]
            ctx.now = time
            if recorder is not None:
                recorder.on_deliver(time, node, port, payload)
            algorithms[node].on_message(ctx, port, payload)
        return self._result()

    def _result(self) -> AsyncRunResult:
        return AsyncRunResult(
            n=self.n,
            ids=self.ids,
            messages=self.metrics.messages_total,
            time=self.metrics.time_span,
            events=self.metrics.events_processed,
            leaders=list(self.leaders),
            decisions=list(self.decisions),
            outputs=list(self.outputs),
            awake_count=sum(self._awake),
            dropped_deliveries=self._dropped,
            metrics=self.metrics,
            crashed=[u for u in range(self.n) if self._crashed[u]],
            fault_metrics=(
                self.fault_runtime.metrics if self.fault_runtime is not None else None
            ),
        )
