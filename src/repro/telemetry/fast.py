"""Fast-engine observability: aggregate counters and the lane tracer.

The vectorized engine never materializes per-message Python objects, so
its telemetry is *aggregate by construction*: a :class:`FastTelemetry`
attached to a :class:`~repro.fastsync.FastSyncNetwork` collects
per-round send/survivor/decide tallies from inside
:meth:`~repro.fastsync.FastSyncNetwork.tick` and the accounting
primitives — a constant number of O(1)/O(batch) numpy reductions per
round, no per-event Python — and replays them as ``round``/``decide``
:class:`~repro.trace.TraceEvent` aggregates for the JSONL exporter.

For *event-level* cross-engine debugging, :func:`trace_fast_lane` runs
one exact-mode fast execution and then replays one lane on the
object-model engine over the **same wiring and seed schedule** (the
exact-mode equivalence contract), recording the full per-message trace.
The returned :class:`LaneTrace` carries both results, the object-side
events, and a field-by-field aggregate comparison — when the two engines
diverge, ``mismatches`` plus a trace diff localizes the first bad round.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.trace.events import CompositeRecorder, MemoryRecorder, TraceEvent

__all__ = ["FastTelemetry", "LaneTrace", "trace_fast_lane"]

#: Aggregate events use this pseudo-node (they describe the whole lane).
AGGREGATE_NODE = -1


class FastTelemetry:
    """Lane-aware aggregate counters for one fast-engine execution.

    Attach via ``FastSyncNetwork(..., telemetry=FastTelemetry())`` (or
    ``run(spec, telemetry=...)`` on a fast :class:`~repro.sweep.RunSpec`).
    Single runs record under
    lane ``0``; batch runs record one stream per lane.  All values are
    plain Python ints, so the object is JSON-safe after the run.
    """

    def __init__(self) -> None:
        self.n: Optional[int] = None
        self.batch: Optional[int] = None
        self.mode: Optional[str] = None
        # lane -> round -> {kind: count} / survivors / (round, leaders)
        self._sends: Dict[int, Dict[int, Dict[str, int]]] = {}
        self._survivors: Dict[int, Dict[int, int]] = {}
        self._decides: Dict[int, Tuple[int, Tuple[int, ...]]] = {}

    # ------------------------------------------------------------------ #
    # engine-facing hooks

    def bind(self, net: Any) -> None:
        if self.n is not None:
            raise RuntimeError("a FastTelemetry is single-use, like the network")
        self.n = net.n
        self.batch = net.batch
        self.mode = net.mode

    def on_tick(self, lane: int, round_no: int, survivors: int) -> None:
        self._survivors.setdefault(lane, {})[int(round_no)] = int(survivors)

    def on_send(self, lane: int, round_no: int, kind: str, count: int) -> None:
        if count <= 0:
            return
        per_round = self._sends.setdefault(lane, {}).setdefault(int(round_no), {})
        per_round[kind] = per_round.get(kind, 0) + int(count)

    def on_decide(self, lane: int, round_no: int, leaders: Sequence[int]) -> None:
        self._decides[lane] = (int(round_no), tuple(int(u) for u in leaders))

    # ------------------------------------------------------------------ #
    # results

    @property
    def lanes(self) -> List[int]:
        seen = set(self._sends) | set(self._survivors) | set(self._decides)
        return sorted(seen) or [0]

    def sends_by_round(self, lane: int = 0) -> Dict[int, int]:
        """Per-round totals — comparable to ``SyncMetrics.sends_by_round``."""
        return {
            r: sum(kinds.values())
            for r, kinds in sorted(self._sends.get(lane, {}).items())
        }

    def messages_by_kind(self, lane: int = 0) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for kinds in self._sends.get(lane, {}).values():
            for kind, count in kinds.items():
                totals[kind] = totals.get(kind, 0) + count
        return dict(sorted(totals.items()))

    def survivors_by_round(self, lane: int = 0) -> Dict[int, int]:
        return dict(sorted(self._survivors.get(lane, {}).items()))

    def decide_round(self, lane: int = 0) -> Optional[int]:
        entry = self._decides.get(lane)
        return entry[0] if entry else None

    def events(self, lane: int = 0) -> List[TraceEvent]:
        """The lane's aggregate stream as trace events.

        One ``round`` event per executed round — ``detail`` is
        ``(sends, survivors, ((kind, count), ...))`` — plus one
        ``decide`` event per lane with the leader node tuple.
        """
        rounds = sorted(
            set(self._survivors.get(lane, {})) | set(self._sends.get(lane, {}))
        )
        out = []
        for r in rounds:
            kinds = self._sends.get(lane, {}).get(r, {})
            survivors = self._survivors.get(lane, {}).get(
                r, self.n if self.n is not None else 0
            )
            out.append(
                TraceEvent(
                    "round",
                    float(r),
                    AGGREGATE_NODE,
                    (sum(kinds.values()), survivors, tuple(sorted(kinds.items()))),
                )
            )
        entry = self._decides.get(lane)
        if entry is not None:
            when, leaders = entry
            out.append(TraceEvent("decide", float(when), AGGREGATE_NODE, (leaders,)))
        return out

    def as_dict(self, lane: int = 0) -> Dict[str, Any]:
        """JSON-safe summary of one lane's aggregate stream."""
        return {
            "mode": self.mode,
            "sends_by_round": {str(r): c for r, c in self.sends_by_round(lane).items()},
            "messages_by_kind": self.messages_by_kind(lane),
            "survivors_by_round": {
                str(r): c for r, c in self.survivors_by_round(lane).items()
            },
            "decide_round": self.decide_round(lane),
        }


@dataclass
class LaneTrace:
    """One sampled lane, executed on both engines over identical wiring."""

    lane: int
    fast_result: Any                    # FastRunResult of the sampled lane
    sync_result: Any                    # SyncRunResult of the object twin
    telemetry: FastTelemetry            # fast-side aggregate counters
    events: List[TraceEvent]            # object-side per-message events
    mismatches: List[str] = field(default_factory=list)

    @property
    def matches(self) -> bool:
        """Bit-exact aggregate agreement between the two engines."""
        return not self.mismatches


def _compare(fast: Any, telemetry: FastTelemetry, lane: int, sync: Any) -> List[str]:
    """Field-by-field aggregate comparison; one line per divergence."""
    out = []
    checks = [
        ("messages", fast.messages, sync.messages),
        ("last_send_round", fast.last_send_round, sync.last_send_round),
        ("rounds_executed", fast.rounds_executed, sync.rounds_executed),
        ("leader_ids", sorted(fast.leader_ids), sorted(sync.leader_ids)),
        ("messages_by_kind", dict(fast.messages_by_kind),
         dict(sync.metrics.messages_by_kind)),
        ("sends_by_round", dict(fast.sends_by_round),
         dict(sync.metrics.sends_by_round)),
        ("telemetry/sends_by_round", telemetry.sends_by_round(lane),
         dict(sync.metrics.sends_by_round)),
    ]
    for name, a, b in checks:
        if a != b:
            out.append(f"{name}: fast={a!r} object={b!r}")
    return out


def trace_fast_lane(
    n: int,
    algorithm: str,
    *,
    seed: int = 0,
    seeds: Optional[Sequence[int]] = None,
    lane: int = 0,
    ids: Optional[Sequence[int]] = None,
    params: Optional[Dict[str, Any]] = None,
    max_rounds: Optional[int] = None,
    recorder: Optional[Any] = None,
) -> LaneTrace:
    """Run one lane on both engines over identical wiring (exact mode).

    ``algorithm`` is a registry name with both a fast port and an
    object-model implementation (simultaneous wake-up only).  The fast
    engine runs first — one lane per seed of ``seeds`` (default
    ``[seed]``) — then the sampled ``lane`` is replayed on
    :class:`~repro.sync.SyncNetwork` over
    :meth:`~repro.fastsync.FastSyncNetwork.port_map` with the same seed,
    which by the exact-mode contract consumes identical randomness.  The
    object side records full per-message events
    (``recorder`` is fanned in as well, e.g. a
    :class:`~repro.telemetry.JsonlRecorder`), and ``mismatches`` lists
    any aggregate divergence between the two executions.
    """
    from repro.core import get_algorithm
    from repro.fastsync import FastSyncNetwork, get_fast_algorithm
    from repro.sync.engine import SyncNetwork

    params = dict(params or {})
    seeds = [int(seed)] if seeds is None else [int(s) for s in seeds]
    if not 0 <= lane < len(seeds):
        raise ValueError(
            f"lane {lane} out of range: the run has exactly one lane per "
            f"seed ({len(seeds)})"
        )
    telemetry = FastTelemetry()
    net = FastSyncNetwork(
        n, ids=ids, seeds=seeds, mode="exact", max_rounds=max_rounds,
        telemetry=telemetry,
    )
    fast_result = net.run(get_fast_algorithm(algorithm)(**params))[lane]
    lane_seed = seeds[lane]
    port_map = net.port_map(lane)

    memory = MemoryRecorder()
    twin_recorder: Any = memory
    if recorder is not None:
        twin_recorder = CompositeRecorder(memory, recorder)
    twin = SyncNetwork(
        n,
        get_algorithm(algorithm).make(**params),
        ids=ids,
        seed=lane_seed,
        port_map=port_map,
        max_rounds=max_rounds,
        recorder=twin_recorder,
    )
    sync_result = twin.run()
    return LaneTrace(
        lane=lane,
        fast_result=fast_result,
        sync_result=sync_result,
        telemetry=telemetry,
        events=memory.events,
        mismatches=_compare(fast_result, telemetry, lane, sync_result),
    )
