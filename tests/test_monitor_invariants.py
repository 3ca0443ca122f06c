"""Event-level invariant monitors: every checker fires on a broken toy.

Each "toy" is a deliberately wrong SyncAlgorithm that breaks exactly one
invariant; attaching a :class:`MonitorSuite` as the engine recorder must
surface the breach as a :class:`Violation` (never an exception), and a
post-hoc :meth:`replay` of the recorded stream must be bit-equal to the
live attachment.  A healthy paper algorithm closes the loop: zero
violations.
"""

import pytest

from repro.analysis import RunSpec, run
from repro.common import Decision
from repro.core import get_algorithm
from repro.monitor import (
    MONITOR_NAMES,
    AgreementMonitor,
    MonitorSuite,
    QuorumOneLeaderMonitor,
    TerminationMonitor,
    UniqueLeaderMonitor,
    ValidityMonitor,
    Violation,
    default_monitors,
    trace_slice,
)
from repro.sync.engine import SyncNetwork
from repro.trace import CompositeRecorder, MemoryRecorder, TraceEvent


# --------------------------------------------------------------------- #
# broken toys — each violates exactly one invariant


class EveryoneLeader:
    """Every node crowns itself: unique_leader_per_epoch must fire."""

    def on_wake(self, ctx):
        pass

    def on_round(self, ctx, inbox):
        ctx.decide_leader()
        ctx.halt()


class SelfishFollowers:
    """Every node follows *itself*: agreement must fire (validity holds —
    each named id is a woken member)."""

    def on_wake(self, ctx):
        pass

    def on_round(self, ctx, inbox):
        ctx.decide_follower(ctx.my_id)
        ctx.halt()


class GhostFollower:
    """Everyone follows an id outside the membership: validity must fire."""

    def on_wake(self, ctx):
        pass

    def on_round(self, ctx, inbox):
        ctx.decide_follower(999_999)
        ctx.halt()


class Sleepwalker:
    """Names a member that never woke (runs with ``awake=[0]``)."""

    def on_wake(self, ctx):
        pass

    def on_round(self, ctx, inbox):
        ctx.decide_follower(2)  # default ids: id 2 is node 1, who is asleep
        ctx.halt()


class Mute:
    """Halts without ever deciding: termination_bound must fire at finish."""

    def on_wake(self, ctx):
        pass

    def on_round(self, ctx, inbox):
        ctx.halt()


class Procrastinator:
    """Decides correctly but only in round 5 — breaks an explicit bound."""

    def on_wake(self, ctx):
        pass

    def on_round(self, ctx, inbox):
        if ctx.round >= 5:
            if ctx.my_id == 1:
                ctx.decide_leader()
            else:
                ctx.decide_follower(1)
            ctx.halt()


def run_with_suite(factory, n=5, suite=None, **net_kw):
    suite = suite if suite is not None else MonitorSuite(n=n)
    result = SyncNetwork(n, factory, recorder=suite, **net_kw).run()
    suite.finish(result)
    return result, suite


def fired(suite):
    return {v.monitor for v in suite.violations}


class TestBrokenToys:
    def test_everyone_leader_trips_unique_leader(self):
        result, suite = run_with_suite(EveryoneLeader)
        assert "unique_leader_per_epoch" in fired(suite)
        assert not suite.ok
        unique = suite.monitor("unique_leader_per_epoch")
        assert unique.concurrent_leaders == 5
        assert unique.max_concurrent == 5
        # One violation per new reigning set, not one per event replayed.
        assert (
            len([v for v in suite.violations
                 if v.monitor == "unique_leader_per_epoch"]) == 4
        )

    def test_everyone_leader_trips_quorum_overlap(self):
        _, suite = run_with_suite(
            EveryoneLeader, suite=MonitorSuite(n=5, quorum=True)
        )
        assert "quorum_one_leader" in fired(suite)

    def test_selfish_followers_trip_agreement_only(self):
        _, suite = run_with_suite(SelfishFollowers)
        assert "agreement" in fired(suite)
        assert "validity" not in fired(suite)

    def test_ghost_follower_trips_validity(self):
        _, suite = run_with_suite(GhostFollower)
        violations = [v for v in suite.violations if v.monitor == "validity"]
        assert len(violations) == 1  # deduped by offending id
        assert "not a member id" in violations[0].message

    def test_sleepwalker_trips_validity(self):
        _, suite = run_with_suite(Sleepwalker, awake=[0])
        violations = [v for v in suite.violations if v.monitor == "validity"]
        assert len(violations) == 1
        assert "never woke" in violations[0].message

    def test_mute_trips_termination_at_finish(self):
        _, suite = run_with_suite(Mute)
        violations = [
            v for v in suite.violations if v.monitor == "termination_bound"
        ]
        assert len(violations) == 1
        assert "never decided" in violations[0].message
        assert violations[0].when is None  # finish-time, not a round

    def test_procrastinator_trips_explicit_bound(self):
        _, suite = run_with_suite(
            Procrastinator, suite=MonitorSuite(n=5, bound=2.0)
        )
        violations = [
            v for v in suite.violations if v.monitor == "termination_bound"
        ]
        assert violations and "exceeds the termination bound" in violations[0].message
        assert violations[0].when is not None and violations[0].when > 2.0

    def test_procrastinator_ok_without_bound(self):
        _, suite = run_with_suite(Procrastinator)
        assert suite.ok

    def test_quorum_minority_commit_via_replay(self):
        suite = MonitorSuite(monitors=[QuorumOneLeaderMonitor()], n=5)
        events = (
            [TraceEvent("wake", 1.0, u, ()) for u in range(5)]
            + [TraceEvent("crash", 2.0, u, ()) for u in (1, 2, 3)]
            + [TraceEvent("decide", 3.0, 0, (Decision.LEADER, 1))]
        )
        suite.replay(events).finish()
        assert [v.monitor for v in suite.violations] == ["quorum_one_leader"]
        assert "no live majority" in suite.violations[0].message

    def test_crash_ends_a_reign(self):
        monitor = UniqueLeaderMonitor()
        suite = MonitorSuite(monitors=[monitor], n=3)
        suite.replay(
            [
                TraceEvent("decide", 1.0, 0, (Decision.LEADER, 1)),
                TraceEvent("crash", 2.0, 0, ()),
                TraceEvent("decide", 3.0, 1, (Decision.LEADER, 2)),
            ]
        ).finish()
        # Sequential reigns separated by a crash: never two alive at once.
        assert suite.ok
        assert monitor.concurrent_leaders == 1
        assert monitor.max_concurrent == 1


class TestHealthyRuns:
    @pytest.mark.parametrize(
        "name",
        [
            "improved_tradeoff",
            "las_vegas",
            "afek_gafni",
            "small_id",
            "kutten16",
            "adversarial_2round",
            "monarchical",
        ],
    )
    def test_paper_algorithm_is_clean(self, name):
        spec = get_algorithm(name)
        params = {"d": 4} if name == "small_id" else {}
        result, suite = run_with_suite(spec.make(**params), n=16, seed=3)
        assert result.unique_leader
        assert suite.ok
        assert suite.violations == []

    @pytest.mark.parametrize("name", ["async_tradeoff", "async_afek_gafni"])
    def test_async_algorithm_is_clean(self, name):
        suite = MonitorSuite(n=16)
        record = run(
            RunSpec(algorithm=name, n=16, engine="async", seeds=(3,)), recorder=suite
        )
        suite.finish()
        assert record.unique_leader
        assert suite.violations == []
        assert suite.monitor("termination_bound").decided == set(range(16))


def wake(node, when=0.0):
    return TraceEvent("wake", when, node, ())


def decide(node, decision, output, when=1.0):
    return TraceEvent("decide", when, node, (decision, output))


def replayed(events, n=4):
    suite = MonitorSuite(n=n)
    suite.replay(events).finish()
    return suite


class TestElectionValidityFromStream:
    """Election validity (Section 2) judged from a recorded event stream:
    one leader, every awake node decided, explicit outputs agree."""

    def test_valid_explicit_election(self):
        events = [wake(u) for u in range(4)] + [decide(2, Decision.LEADER, 3)] + [
            decide(u, Decision.NON_LEADER, 3) for u in (0, 1, 3)
        ]
        assert replayed(events).violations == []

    def test_two_leaders_invalid(self):
        events = [wake(u) for u in range(4)] + [
            decide(0, Decision.LEADER, 1),
            decide(1, Decision.LEADER, 2),
        ]
        assert "unique_leader_per_epoch" in fired(replayed(events))

    def test_undecided_awake_node_invalid(self):
        events = [wake(u) for u in range(4)] + [decide(0, Decision.LEADER, 1)] + [
            decide(u, Decision.NON_LEADER, 1) for u in (1, 2)
        ]
        suite = replayed(events)
        [violation] = suite.violations
        assert violation.monitor == "termination_bound"
        assert "1 awake node(s) never decided (e.g. node 3)" in violation.message

    def test_sleeping_and_crashed_nodes_need_not_decide(self):
        events = [wake(u) for u in range(3)] + [
            TraceEvent("crash", 0.5, 2, ()),
            decide(0, Decision.LEADER, 1),
            decide(1, Decision.NON_LEADER, 1),
        ]
        assert replayed(events).violations == []

    def test_disagreeing_output_invalid(self):
        events = [wake(u) for u in range(4)] + [
            decide(0, Decision.LEADER, 1),
            decide(1, Decision.NON_LEADER, 1),
            decide(2, Decision.NON_LEADER, 4),
            decide(3, Decision.NON_LEADER, 1),
        ]
        suite = replayed(events)
        assert fired(suite) == {"agreement"}
        assert "ids [1, 4]" in suite.violations[0].message

    def test_crashed_node_output_no_longer_disagrees(self):
        events = [wake(u) for u in range(3)] + [
            decide(2, Decision.NON_LEADER, 3),
            TraceEvent("crash", 1.5, 2, ()),
            decide(0, Decision.LEADER, 1, when=2.0),
            decide(1, Decision.NON_LEADER, 1, when=2.0),
        ]
        assert replayed(events, n=3).violations == []

    def test_implicit_outputs_are_not_compared(self):
        events = [wake(u) for u in range(3)] + [decide(0, Decision.LEADER, None)] + [
            decide(u, Decision.NON_LEADER, None) for u in (1, 2)
        ]
        assert replayed(events, n=3).violations == []


class TestReplayEquivalence:
    def test_replay_is_bit_equal_to_live_attachment(self):
        memory = MemoryRecorder()
        live = MonitorSuite(n=5, context={"path": "either"})
        result = SyncNetwork(
            5, EveryoneLeader, recorder=CompositeRecorder(memory, live)
        ).run()
        live.finish(result)

        replayed = MonitorSuite(n=5, context={"path": "either"})
        replayed.replay(memory.events).finish(result)

        assert [v.to_dict() for v in live.violations] == [
            v.to_dict() for v in replayed.violations
        ]
        assert live.violations  # the comparison is not vacuous

    def test_unique_leader_finish_cross_checks_result(self):
        # A suite that saw no events at all still flags a split brain
        # from the engine's own survivor accounting.
        result = SyncNetwork(4, EveryoneLeader).run()
        suite = MonitorSuite(monitors=[UniqueLeaderMonitor()], n=4)
        suite.finish(result)
        assert not suite.ok
        assert "alive at run end" in suite.violations[0].message


class TestSuiteMechanics:
    def test_default_monitor_set(self):
        names = [m.name for m in default_monitors()]
        assert names == [
            "unique_leader_per_epoch",
            "agreement",
            "validity",
            "termination_bound",
        ]
        with_quorum = [m.name for m in default_monitors(quorum=True)]
        assert set(with_quorum) == set(MONITOR_NAMES)

    def test_monitor_lookup(self):
        suite = MonitorSuite(n=3)
        assert isinstance(suite.monitor("agreement"), AgreementMonitor)
        assert isinstance(suite.monitor("validity"), ValidityMonitor)
        assert isinstance(
            suite.monitor("termination_bound"), TerminationMonitor
        )
        with pytest.raises(KeyError, match="quorum_one_leader"):
            suite.monitor("quorum_one_leader")

    def test_ids_default_to_engine_convention(self):
        suite = MonitorSuite(n=4)
        assert suite.ids == [1, 2, 3, 4]
        assert suite.id_to_node == {1: 0, 2: 1, 3: 2, 4: 3}

    def test_explicit_ids_and_inferred_n(self):
        suite = MonitorSuite(ids=[30, 10, 20])
        assert suite.n == 3
        assert suite.id_to_node[20] == 2

    def test_finish_is_idempotent(self):
        _, suite = run_with_suite(Mute)
        before = len(suite.violations)
        suite.finish()
        suite.finish()
        assert len(suite.violations) == before

    def test_violations_carry_context_and_slice(self):
        _, suite = run_with_suite(
            EveryoneLeader, suite=MonitorSuite(n=4, context={"algorithm": "toy"})
        )
        violation = suite.violations[0]
        assert violation.context["algorithm"] == "toy"
        assert violation.trace_slice  # events around the offense captured
        assert all(isinstance(line, str) for line in violation.trace_slice)
        assert "decide" in " ".join(violation.trace_slice)


class TestViolationRecord:
    def test_str_and_dict(self):
        violation = Violation(
            monitor="agreement",
            message="nodes disagree",
            when=3.0,
            node=2,
            context={"n": 5},
            trace_slice=["[   3.00] decide  node=2 (...)"],
        )
        assert str(violation) == "[agreement] at t=3 node=2: nodes disagree"
        payload = violation.to_dict()
        assert payload["monitor"] == "agreement"
        assert payload["context"] == {"n": 5}
        assert payload["trace_slice"] == violation.trace_slice

    def test_trace_slice_window_and_cap(self):
        events = [TraceEvent("send", float(r), 0, (0, 1, 0, "x")) for r in range(10)]
        window = trace_slice(events, 5.0)
        assert len(window) == 3  # rounds 4, 5, 6
        capped = trace_slice(events, 5.0, radius=100.0, limit=4)
        assert len(capped) == 4
        tail = trace_slice(events, None, limit=3)
        assert len(tail) == 3 and "9" in tail[-1]
