"""Execute a :class:`~repro.scenarios.Scenario` against a real engine.

The runner is the orchestration layer the ROADMAP's churn items share:
it walks the event timeline in fire order, keeps the *persistent* node
states (up/down, persisted epoch, believed leader) that outlive any
single engine run, and realizes every election epoch as one **act** — a
standard run of the synchronous, asynchronous, or fast engine over the
current membership, configured through the existing fault subsystem
(:class:`~repro.faults.FaultPlan` detector specs, ``LinkFaults``,
``LeaderKillPolicy`` churn, and the new ``PartitionMask``).

Execution contract
------------------

* **Acts are atomic.**  An event whose timestamp lands inside a running
  election takes effect at the act boundary (elections are serialized:
  an act never starts before the previous one ended).  In-flight churn
  is modeled *inside* acts by the scenario's ``kill_policy`` and
  ``link_faults``, which the engines apply with measured detection and
  re-election latencies.
* **Failure-triggered acts start after the detection lag.**  A leader
  crash at ``t`` is detected at ``t + lag`` (the act's detector spec),
  so measured failover latency composes the oracle lag with the real
  engine-measured election and commit time.
* **Partitions run as one act.**  The partition window is a single
  full-membership engine run carrying a :class:`~repro.faults.PartitionMask`
  — cross-component traffic is dropped by the runtime and the
  partition-aware detectors make the re-election wrapper elect one
  leader *per component* in the same run.  The heal triggers a fresh
  full-membership act at ``end + lag``.
* **Recovery is elect-lower-epoch.**  A recovering node rejoins with
  its persisted epoch, which can never exceed the group's current epoch
  (epochs only grow, and any leadership change the node missed bumped
  the group further).  It therefore adopts the current leader and epoch
  as a follower; it never contests leadership on rejoin.  The runner
  asserts the invariant.
* **Joins** allocate a fresh ID and epoch 0, then follow the same
  adoption path.  Under ``membership_policy="membership_change"`` every
  join/recovery additionally forces a re-election (the coordination-
  service flavor); under the default ``"leader_loss"`` only lost
  leadership does.
* **One act path.**  Every act is one ``run(spec, keep_result=True)``
  call (the re-election wrapper on sync/async, the bare inner election
  on fast), and its outcome is read off the raw engine result the same
  way on every engine; only the per-node output vector is read per
  engine.  ``concurrent_leaders`` is ``len(result.surviving_leaders)``,
  the leaders alive at act end (> 1 is a split brain); the
  ``unique_leader_per_epoch`` monitor replaying an act's events counts
  the same, which the tests cross-check.  An act that hits an engine
  limit is *stalled*: no result, one epoch minted, no belief updated.

Everything is deterministic per ``(scenario, n, engine, seed)``: act
seeds are derived from the run seed and the act index, and all engine
randomness flows from them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.runner import RunRecord
from repro.common import SimulationLimitExceeded
from repro.faults.plan import DetectorSpec, FaultPlan, PartitionMask
from repro.scenarios.events import (
    LAST_CRASHED,
    LEADER,
    CrashEvent,
    ElectEvent,
    JoinEvent,
    PartitionEvent,
    RecoverEvent,
    Scenario,
    SlanderEvent,
)
from repro.scenarios.metrics import EpochRecord, ScenarioMetrics, compute_metrics

__all__ = [
    "NodeState",
    "ScenarioResult",
    "ScenarioRunner",
    "run_scenario",
]

ENGINES = ("sync", "async", "fast")


@dataclass
class NodeState:
    """Persistent per-node scenario state (outlives individual acts)."""

    index: int
    node_id: int
    up: bool = True
    epoch: int = 0                      # persisted across crash/recover
    leader: Optional[int] = None        # believed leader ID
    crashed_times: List[float] = field(default_factory=list)
    recovered_times: List[float] = field(default_factory=list)


@dataclass
class ScenarioResult:
    """Everything one scenario execution produced."""

    scenario: Scenario
    engine: str
    n_initial: int
    seed: int
    epochs: List[EpochRecord]
    states: List[NodeState]
    baseline: Any                       # RunRecord of the fault-free election
    metrics: ScenarioMetrics
    notes: List[str]

    @property
    def final_leader_id(self) -> Optional[int]:
        return self.metrics.final_leader_id

    @property
    def final_agreed(self) -> bool:
        return self.metrics.final_agreed


class ScenarioRunner:
    """Drive one scenario on one engine (see module docstring)."""

    def __init__(
        self,
        scenario: Scenario,
        n: int,
        *,
        engine: str = "sync",
        seed: int = 0,
        inner: Optional[str] = None,
        lag: float = 1.0,
        commit_rounds: int = 4,
        commit_delay: float = 4.0,
        poll_interval: float = 0.5,
        restart_rounds: Optional[int] = None,
        restart_delay: Optional[float] = None,
        quorum: bool = False,
        ids: Optional[Sequence[int]] = None,
        max_events: int = 5_000_000,
        recorder: Optional[Any] = None,
    ) -> None:
        if engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
        if n < max(2, scenario.min_n):
            raise ValueError(
                f"scenario {scenario.name!r} needs n >= {max(2, scenario.min_n)}"
            )
        if engine == "fast" and recorder is not None:
            raise ValueError(
                "the fast engine has no per-event recorder hooks — record "
                "scenario traces with --engine sync or async (fast runs "
                "expose aggregate telemetry only)"
            )
        self.scenario = scenario
        self.engine = engine
        self.n = n
        self.seed = seed
        if inner is None:
            inner = {
                "sync": "afek_gafni",
                "async": "async_tradeoff",
                "fast": "improved_tradeoff",
            }[engine]
        self.inner = inner
        self.lag = lag
        # Every act's detector; its own check rejects a negative or NaN lag.
        self._detector = DetectorSpec(kind="perfect", lag=lag)
        self.commit_rounds = commit_rounds
        self.commit_delay = commit_delay
        self.poll_interval = poll_interval
        self.restart_rounds = restart_rounds
        self.restart_delay = restart_delay
        self.quorum = quorum
        # The re-election wrapper every object-engine act runs.
        self._wrapper = "quorum_reelect" if quorum else "reelect"
        self.max_events = max_events
        self.recorder = recorder
        if ids is None:
            ids = list(range(1, n + 1))
        if len(ids) != n or len(set(ids)) != n:
            raise ValueError(f"need {n} distinct initial IDs")
        self._initial_ids = list(ids)
        self._check_timeline()
        # Resolve ``inner`` now, so a bad name fails here rather than in
        # the first act (``KeyError``: unknown or no vectorized port;
        # ``ValueError``: wrong engine for the re-election wrapper).
        if engine == "fast":
            from repro.fastsync import get_fast_algorithm

            get_fast_algorithm(inner)
        else:
            self._reelect = self._reelect_factory()
            self._reelect()
        if engine == "async":
            from repro.core.registry import refuse_duplicates

            refuse_duplicates(self._wrapper, {"inner": inner}, scenario.link_faults)

    def _check_timeline(self) -> None:
        """Reject partitions of unknown nodes and joins that reuse an ID.

        Walks the events in fire order with the run's own allocation (a
        join appends the next index and takes its pinned ID or the
        largest ID + 1), so a malformed timeline fails here, not mid-run.
        """
        size = self.n
        taken = set(self._initial_ids)
        for ev in self.scenario.sorted_events():
            if isinstance(ev, JoinEvent):
                node_id = max(taken) + 1 if ev.node_id is None else ev.node_id
                if node_id in taken:
                    raise ValueError(f"join at t={ev.at:g}: node ID {node_id} already in use")
                taken.add(node_id)
                size += 1
            elif isinstance(ev, PartitionEvent):
                for u in (u for comp in ev.components for u in comp):
                    if not 0 <= u < size:
                        raise ValueError(
                            f"partition at t={ev.start:g}: component member {u} "
                            f"does not exist (the clique has {size} nodes then)"
                        )

    # ------------------------------------------------------------------ #
    # state helpers

    def _up_states(self) -> List[NodeState]:
        return [st for st in self.states if st.up]

    def _id_to_state(self, node_id: int) -> Optional[NodeState]:
        # IDs are distinct and never reassigned, so the index built in
        # run() (and extended on joins) stays valid for the whole run —
        # a linear scan here made every believed-leader lookup O(n).
        return self._state_by_id.get(node_id)

    def _group_of(self, st: NodeState) -> List[NodeState]:
        """The up members that can currently reach ``st`` (incl. itself).

        Under a partition, a node outside every component is isolated —
        reachable by nobody, including other unlisted nodes.
        """
        up = self._up_states()
        if self._partition is None:
            return up
        comp = self._component_index(st.index)
        if comp is None:
            return [m for m in up if m.index == st.index]
        return [m for m in up if self._component_index(m.index) == comp]

    def _component_index(self, index: int) -> Optional[int]:
        assert self._partition is not None
        for c, comp in enumerate(self._partition.components):
            if index in comp:
                return c
        return None

    def _believed_leaders(self) -> Tuple[int, ...]:
        """Distinct believed-leader IDs whose nodes are actually up."""
        beliefs = {st.leader for st in self.states if st.up}
        beliefs.discard(None)
        return tuple(sorted(b for b in beliefs if self._owner_up(b)))

    def _is_agreed(self) -> bool:
        """Exactly one up leader, followed by every up node, no split."""
        if self._partition is not None:
            return False
        beliefs = {st.leader for st in self.states if st.up}
        if len(beliefs) != 1:
            return False
        (leader,) = beliefs
        return leader is not None and self._owner_up(leader)

    def _owner_up(self, node_id: int) -> bool:
        owner = self._id_to_state(node_id)
        return owner is not None and owner.up

    def _mark(self, t: float) -> None:
        self._timeline.append((t, self._believed_leaders(), self._is_agreed()))

    def _note(self, text: str) -> None:
        self.notes.append(text)

    def _annotate(self, **fields: Any) -> None:
        """Stamp scenario coordinates onto the trace stream, if any."""
        annotate = getattr(self.recorder, "annotate", None)
        if annotate is not None:
            annotate(**fields)

    # ------------------------------------------------------------------ #
    # act execution

    def _act_seed(self, index: Any) -> int:
        return random.Random(f"scenario:{self.scenario.name}:{self.seed}:{index}").getrandbits(32)

    def _trial(
        self, m: int, member_ids: Sequence[int], act_seed: int, plan: FaultPlan
    ):
        """One election act as a one-seed :class:`RunSpec` run.

        Every engine run the scenario makes, acts and baseline, goes
        through here, and the record keeps its raw engine result in
        ``extra["result"]``.  The object engines run the re-election
        wrapper under ``plan`` with every node awake; the fast engine
        runs the bare inner election under :meth:`_act_plan_for_fast`.
        """
        from repro.sweep.api import run
        from repro.sweep.spec import RunSpec

        if self.engine == "fast":
            fields: Dict[str, Any] = dict(
                algorithm=self.inner, faults=self._act_plan_for_fast(plan), quorum=self.quorum
            )
        else:
            fields = dict(algorithm=self._reelect, faults=plan)
        if self.engine == "async":
            fields.update(wake_times={u: 0.0 for u in range(m)}, max_events=self.max_events)
        spec = RunSpec(n=m, engine=self.engine, seeds=(act_seed,), ids=tuple(member_ids), **fields)
        return run(spec, recorder=self.recorder, keep_result=True)

    def preload(self) -> None:
        """Import what :meth:`run` executes: the engine, the election and
        the fault layer.

        A pooled ``repro scenarios sweep`` calls it in the parent before
        the pool starts, so fork-started workers inherit the modules and
        import nothing during a cell (``sweep()`` does the same for
        ``RunSpec`` grids).
        """
        from repro.adversary.plan import AdversaryPlan  # noqa: F401  (act plans)
        from repro.sweep.api import resolve_engines
        from repro.sweep.spec import RunSpec

        algorithm = self.inner if self.engine == "fast" else self._reelect
        plan = FaultPlan(detector=self._detector)
        resolve_engines([RunSpec(algorithm=algorithm, n=self.n, engine=self.engine, faults=plan)])

    @staticmethod
    def _act_plan_for_fast(plan: FaultPlan) -> Optional[FaultPlan]:
        """The act plan the fast engine receives: ``None`` when inert.

        The detector spec alone has no effect on the bare vectorized
        elections (the fast acts run the inner election directly, not a
        detector-driven re-election wrapper), so an act whose plan
        carries nothing but the detector keeps the plain fast path.
        """
        if (
            plan.links
            or plan.partitions
            or plan.policies
            or plan.adversary is not None
        ):
            return plan
        return None

    def _reelect_factory(self):
        from repro.core.registry import get_algorithm

        if self.engine == "sync":
            timing = dict(commit_rounds=self.commit_rounds, restart_rounds=self.restart_rounds)
        else:
            timing = dict(
                commit_delay=self.commit_delay, poll_interval=self.poll_interval,
                restart_delay=self.restart_delay,
            )
        return get_algorithm(self._wrapper).make(engine=self.engine, inner=self.inner, **timing)

    @staticmethod
    def _sanitize_record(record) -> None:
        """Make ``record.extra`` JSON-safe (exports ride through it)."""
        record.extra.pop("result", None)
        record.extra.pop("failover", None)
        fm = record.extra.pop("fault_metrics", None)
        if fm is not None:
            record.extra["fault_summary"] = {
                "crashes": fm.crash_count,
                "policy_kills": len(fm.policy_kills),
                "dropped": fm.dropped_messages,
                "duplicated": fm.duplicated_messages,
                "partition_blocked": fm.partition_blocked,
                "tampered": fm.tampered_messages,
            }

    def _act_adversary(self, members: List[NodeState], slanders: Tuple = ()):
        """The act-local Byzantine plan: scenario plan + event slanders.

        Scenario-level adversary indices name *initial* nodes; this
        remaps them onto act-local positions (and drops entries whose
        nodes are not in the act).  ``slanders`` are extra
        :class:`~repro.adversary.SlanderWindow` specs, already in
        act-local time but still in global node indices.
        """
        from dataclasses import replace

        from repro.adversary.plan import AdversaryPlan

        plan = self.scenario.adversary
        if plan is None and not slanders:
            return None
        pos = {st.index: local for local, st in enumerate(members)}
        byzantine: List[int] = []
        tampers: List[Any] = []
        windows: List[Any] = []
        if plan is not None:
            byzantine = [pos[u] for u in plan.byzantine if u in pos]
            for rule in plan.tampers:
                if rule.src is not None and rule.src not in pos:
                    continue
                if rule.dst is not None and rule.dst not in pos:
                    continue
                if rule.src is None and not byzantine:
                    continue  # every byzantine sender left the act
                tampers.append(
                    replace(
                        rule,
                        src=None if rule.src is None else pos[rule.src],
                        dst=None if rule.dst is None else pos[rule.dst],
                    )
                )
            windows.extend(self._remap_slanders(plan.slanders, pos))
        windows.extend(self._remap_slanders(slanders, pos))
        if not tampers and not windows:
            return None
        act_plan = AdversaryPlan(
            byzantine=tuple(byzantine), tampers=tuple(tampers), slanders=tuple(windows)
        )
        try:
            act_plan.validate_for(len(members))
        except ValueError as exc:
            # The membership shrank under the adversary (e.g. crashes left
            # f >= n/2 of the act corrupted): the guarantees are void, so
            # the act runs honestly and the note records why.
            self._note(f"adversary dropped for this act: {exc}")
            return None
        return act_plan

    @staticmethod
    def _remap_slanders(slanders: Tuple, pos: Dict[int, int]) -> List[Any]:
        from dataclasses import replace

        out = []
        for window in slanders:
            if window.accuser not in pos:
                continue  # dead accusers spread no rumors
            victims = tuple(pos[v] for v in window.victims if v in pos)
            if not victims:
                continue
            out.append(
                replace(window, accuser=pos[window.accuser], victims=victims)
            )
        return out

    def _outputs(self, result: Any, surviving: Optional[int]) -> List[Optional[int]]:
        """The leader each act member believes in (``None``: no belief)."""
        m = len(result.ids)
        if self.engine == "fast":
            # The faulted folds report every node's output; a fault-free
            # fold elects one leader that everyone follows.
            return list(result.outputs) if result.outputs is not None else [surviving] * m
        return [
            result.outputs[u]
            if result.decisions[u] is not None and result.outputs[u] is not None
            else (result.ids[u] if u in result.leaders else None)
            for u in range(m)
        ]

    def _run_act(
        self,
        trigger: str,
        t_event: float,
        t_start: float,
        members: List[NodeState],
        *,
        policies: Tuple = (),
        slanders: Tuple = (),
    ) -> EpochRecord:
        members = sorted(members, key=lambda st: st.index)
        m = len(members)
        member_ids = [st.node_id for st in members]
        act_index = len(self.epochs)
        act_seed = self._act_seed(act_index)
        plan = FaultPlan(
            links=self.scenario.link_faults,
            partitions=self._active_masks(members),
            policies=tuple(policies),
            detector=self._detector,
            adversary=self._act_adversary(members, slanders),
        )
        self._annotate(act=act_index, trigger=trigger, epoch=self.epoch_counter + 1)
        try:
            record = self._trial(m, member_ids, act_seed, plan)
        except SimulationLimitExceeded as exc:
            # A node wedged without ever learning a leader (the plain
            # wrapper under slander is the canonical case: the victim
            # is excluded from every coord broadcast).  The act is kept
            # as stalled, with no result: it mints one epoch, nobody's
            # belief is updated, and agreement stays broken.
            self._note(f"{trigger} act at t={t_event:g} stalled: {exc}")
            record = RunRecord(
                n=m, seed=act_seed, messages=0, time=0.0,
                unique_leader=False, elected_id=None, leaders=0,
                decided=0, awake=m, params={},
                extra={"rounds_executed": 0.0, "stalled": True},
            )
        result = record.extra.get("result")
        failover = record.extra.get("failover", {})
        self._sanitize_record(record)

        # The act outcome, read off the raw engine result on every engine
        # (a stalled act has none: it committed nothing and minted one epoch).
        leader_ids: List[int] = []
        crashed: List[int] = []
        surviving, fm, concurrent, epochs_minted = None, None, 0, 1
        if result is not None:
            leader_ids = list(result.leader_ids)
            surviving = result.surviving_leader_id
            crashed = list(result.crashed)
            fm = result.fault_metrics
            # Leaders alive at act end: > 1 means the act really split
            # the brain (one leader per component under a partition).
            concurrent = len(result.surviving_leaders)
            # Every committed leader is an epoch, and so is every
            # frontrunner a kill policy aborted before its commit.
            aborted = sum(1 for u in crashed if u not in result.leaders)
            epochs_minted = max(1, len(leader_ids) + aborted)
        # Rounds on the synchronous engines, time units on the async one.
        duration = float(record.extra.get("rounds_executed", record.time))
        t_end = t_start + duration

        # Persist the outcome: every participant moves to the new epoch
        # and adopts the leader its own engine run committed to (per
        # component under a partition mask).
        first_epoch = self.epoch_counter + 1
        self.epoch_counter += epochs_minted
        if result is not None:
            outputs = self._outputs(result, surviving)
            down = set(crashed)
            for local, st in enumerate(members):
                if local in down:
                    st.up = False
                    st.crashed_times.append(t_end)
                    self.counts["crashes"] += 1
                    continue
                st.epoch = self.epoch_counter
                belief = outputs[local]
                if belief is not None:
                    st.leader = belief
                elif self.quorum:
                    # Under quorum gating a None output is an abstention —
                    # the node is leaderless, it did not silently adopt the
                    # (unreachable) majority leader.
                    st.leader = None
                else:
                    st.leader = surviving
        epoch = EpochRecord(
            epoch=first_epoch, trigger=trigger, t_event=t_event, t_start=t_start,
            duration=duration, t_end=t_end,
            members=[st.index for st in members], member_ids=member_ids,
            leader_ids=leader_ids, surviving_leader_id=surviving,
            messages=record.messages, record=record, epochs_minted=epochs_minted,
            reelection_time=failover.get("reelection_time"),
            detection_latencies=list(failover.get("detection_latencies", [])),
            in_act_crashes=len(crashed),
            dropped_messages=fm.dropped_messages if fm else 0,
            duplicated_messages=fm.duplicated_messages if fm else 0,
            partition_blocked=fm.partition_blocked if fm else 0,
            tampered_messages=fm.tampered_messages if fm else 0,
            concurrent_leaders=concurrent,
        )
        self.epochs.append(epoch)
        self.act_floor = t_end
        self._mark(t_end)
        return epoch

    # ------------------------------------------------------------------ #
    # event handling

    def _resolve_crash_target(self, node) -> Optional[NodeState]:
        if node == LEADER:
            leaders = self._believed_leaders()
            if len(leaders) != 1:
                self._note(f"crash(leader) skipped: leaders={list(leaders)}")
                return None
            return self._id_to_state(leaders[0])
        if not 0 <= node < len(self.states):
            self._note(f"crash({node}) skipped: no such node")
            return None
        return self.states[node]

    def _resolve_recover_target(self, node) -> Optional[NodeState]:
        if node == LAST_CRASHED:
            down = [st for st in self.states if not st.up and st.crashed_times]
            if not down:
                self._note("recover(last_crashed) skipped: nobody is down")
                return None
            return max(down, key=lambda st: (st.crashed_times[-1], st.index))
        if not 0 <= node < len(self.states):
            self._note(f"recover({node}) skipped: no such node")
            return None
        return self.states[node]

    def _on_crash(self, ev: CrashEvent) -> None:
        st = self._resolve_crash_target(ev.node)
        if st is None or not st.up:
            if st is not None:
                self._note(f"crash({st.index}) skipped: already down")
            return
        if len(self._up_states()) <= 1:
            self._note(f"crash({st.index}) suppressed: last node standing")
            return
        was_leader = st.node_id in self._believed_leaders()
        st.up = False
        st.crashed_times.append(ev.at)
        self.counts["crashes"] += 1
        self._mark(ev.at)
        needs_election = was_leader or (
            self.scenario.membership_policy == "membership_change"
        )
        if not needs_election:
            return
        group = self._group_of(st)
        if not group:
            self._note(f"crash({st.index}): empty survivor group, no election")
            return
        trigger = "failover" if was_leader else "membership"
        t_start = max(ev.at + self.lag, self.act_floor)
        self._run_act(trigger, ev.at, t_start, group)

    def _on_recover(self, ev: RecoverEvent) -> None:
        st = self._resolve_recover_target(ev.node)
        if st is None or st.up:
            if st is not None:
                self._note(f"recover({st.index}) skipped: already up")
            return
        st.up = True
        st.recovered_times.append(ev.at)
        self.counts["recoveries"] += 1
        # Elect-lower-epoch: the persisted epoch can never exceed the
        # group's — the node missed every transition while it was down.
        assert st.epoch <= self.epoch_counter, (
            f"recovered node {st.index} carries epoch {st.epoch} > "
            f"current {self.epoch_counter}"
        )
        stale_epoch = st.epoch
        group = self._group_of(st)
        peers = [m for m in group if m.index != st.index]
        leaders = sorted({m.leader for m in peers if m.leader is not None})
        st.leader = leaders[0] if len(leaders) == 1 else None
        st.epoch = max(m.epoch for m in group) if peers else st.epoch
        self._note(
            f"recover({st.index}): rejoined with persisted epoch {stale_epoch}, "
            f"adopted epoch {st.epoch} leader {st.leader}"
        )
        self._mark(ev.at)
        if self.scenario.membership_policy == "membership_change":
            t_start = max(ev.at, self.act_floor)
            self._run_act("membership", ev.at, t_start, group)

    def _on_join(self, ev: JoinEvent) -> None:
        node_id = ev.node_id
        if node_id is None:  # IDs were checked at construction
            node_id = max(self._state_by_id) + 1
        st = NodeState(index=len(self.states), node_id=node_id)
        leaders = self._believed_leaders()
        st.leader = leaders[0] if len(leaders) == 1 else None
        st.epoch = self.epoch_counter
        self.states.append(st)
        self._state_by_id[st.node_id] = st
        self.counts["joins"] += 1
        self._mark(ev.at)
        if self.scenario.membership_policy == "membership_change":
            t_start = max(ev.at, self.act_floor)
            self._run_act("membership", ev.at, t_start, self._group_of(st))

    def _active_masks(self, members: List[NodeState]) -> Tuple[PartitionMask, ...]:
        """The act-local partition mask, if a partition is active."""
        if self._partition is None:
            return ()
        local_components = []
        member_indexes = [st.index for st in members]
        for comp in self._partition.components:
            comp_set = set(comp)
            local = tuple(
                i for i, g in enumerate(member_indexes) if g in comp_set
            )
            if local:
                local_components.append(local)
        if len(local_components) < 2:
            return ()  # the act runs entirely inside one component
        return (PartitionMask(components=tuple(local_components), start=0.0, end=None),)

    def _on_partition(self, ev: PartitionEvent) -> None:
        if self._partition is not None:
            self._note(f"partition at t={ev.start} skipped: one is already active")
            return
        self._partition = ev
        self._mark(ev.start)  # the split itself breaks agreement
        t_start = max(ev.start, self.act_floor)
        self._run_act("partition", ev.start, t_start, self._up_states())

    def _on_heal(self, at: float) -> None:
        self._partition = None
        self._mark(at)
        t_start = max(at + self.lag, self.act_floor)
        self._run_act("heal", at, t_start, self._up_states())

    def _on_elect(self, ev: ElectEvent) -> None:
        t_start = max(ev.at, self.act_floor)
        self._run_act("elect", ev.at, t_start, self._up_states())

    def _on_slander(self, ev: SlanderEvent) -> None:
        """Byzantine rumor: run a re-election act under a slander window.

        The victim stays *up* — only the detectors lie about it.  The
        act elects among the honest majority; with ``quorum`` enabled
        the victim rejoins as a follower (coord catch-up), without it
        the act legitimately splits the brain (victim keeps its old
        belief, possibly its old reign).
        """
        from repro.adversary.plan import SlanderWindow

        if not 0 <= ev.accuser < len(self.states):
            self._note(f"slander by {ev.accuser} skipped: no such node")
            return
        accuser = self.states[ev.accuser]
        if not accuser.up:
            self._note(f"slander by {accuser.index} skipped: accuser is down")
            return
        if ev.victim == LEADER:
            leaders = self._believed_leaders()
            if len(leaders) != 1:
                self._note(f"slander(leader) skipped: leaders={list(leaders)}")
                return
            victim = self._id_to_state(leaders[0])
        elif not 0 <= ev.victim < len(self.states):
            self._note(f"slander({ev.victim}) skipped: no such node")
            return
        else:
            victim = self.states[ev.victim]
        if victim is None or not victim.up:
            self._note("slander skipped: victim is down (no rumor needed)")
            return
        if victim.index == accuser.index:
            self._note(f"slander({victim.index}) skipped: self-slander")
            return
        self._mark(ev.at)  # the rumor breaks agreement until re-election
        group = self._group_of(accuser)
        if victim.index not in [st.index for st in group]:
            self._note("slander skipped: victim unreachable from accuser")
            return
        window = SlanderWindow(
            accuser=accuser.index, victims=(victim.index,), start=0.0,
            end=ev.duration,
        )
        t_start = max(ev.at + self.lag, self.act_floor)
        self._run_act("slander", ev.at, t_start, group, slanders=(window,))

    # ------------------------------------------------------------------ #
    # main loop

    def run(self) -> ScenarioResult:
        self.states = [
            NodeState(index=i, node_id=self._initial_ids[i]) for i in range(self.n)
        ]
        self._state_by_id = {st.node_id: st for st in self.states}
        self.epochs: List[EpochRecord] = []
        self.notes: List[str] = []
        self.counts = {"crashes": 0, "recoveries": 0, "joins": 0}
        self.epoch_counter = 0
        self.act_floor = 0.0
        self._partition: Optional[PartitionEvent] = None
        self._timeline: List[Tuple[float, Tuple[int, ...], bool]] = []
        self._mark(0.0)

        # The initial election (with the scenario's in-run churn policy).
        policies = (self.scenario.kill_policy,) if self.scenario.kill_policy else ()
        self._run_act("initial", 0.0, 0.0, self._up_states(), policies=policies)

        # Fire events in order; partition heals interleave at their end
        # times.  Windows are half-open ([start, end)), so a heal at t
        # processes *before* any event at t — a new partition may start
        # exactly where the previous one ended.
        agenda: List[Tuple[float, int, int, str, Any]] = []
        for i, ev in enumerate(self.scenario.sorted_events()):
            agenda.append((ev.at, 1, i, "event", ev))
            if isinstance(ev, PartitionEvent):
                agenda.append((ev.end, 0, i, "heal", ev))
        agenda.sort(key=lambda item: (item[0], item[1], item[2]))
        handlers = {
            CrashEvent: self._on_crash, RecoverEvent: self._on_recover,
            JoinEvent: self._on_join, PartitionEvent: self._on_partition,
            ElectEvent: self._on_elect, SlanderEvent: self._on_slander,
        }
        for _at, _prio, _seq, kind, ev in agenda:
            if kind == "event":
                handlers[type(ev)](ev)
            elif self._partition is ev:
                self._on_heal(ev.end)

        baseline = self._run_baseline()
        leaders = self._believed_leaders()
        final_leader = leaders[0] if len(leaders) == 1 else None
        metrics = compute_metrics(
            self.epochs, self._timeline, baseline, self.counts,
            final_leader_id=final_leader, final_agreed=self._is_agreed(),
        )
        return ScenarioResult(
            scenario=self.scenario, engine=self.engine, n_initial=self.n,
            seed=self.seed, epochs=self.epochs, states=self.states,
            baseline=baseline, metrics=metrics, notes=self.notes,
        )

    def _run_baseline(self):
        """The fault-free single election the overhead ratios divide by."""
        self._annotate(act=None, epoch=None, trigger="baseline")
        record = self._trial(
            self.n, self._initial_ids, self._act_seed("baseline"),
            FaultPlan(detector=self._detector),
        )
        self._annotate(trigger=None)
        self._sanitize_record(record)
        return record


def run_scenario(
    scenario: Scenario, n: int, *, engine: str = "sync", seed: int = 0, **config: Any
) -> ScenarioResult:
    """One-call convenience wrapper around :class:`ScenarioRunner`."""
    return ScenarioRunner(scenario, n, engine=engine, seed=seed, **config).run()
