"""The Byzantine-tolerant ``quorum_reelect`` wrapper, on both engines.

Covers the three Byzantine-closing behaviors (abstention below quorum,
ack-gated commits, coord catch-up for slandered stragglers) and the
acceptance bar: convergence under f < n/2 combined crash + slander
adversaries, with the plain wrapper's failure modes pinned alongside.
"""

import pytest

from repro.adversary import (
    AdversaryPlan,
    AsyncQuorumReElectionElection,
    QuorumReElectionElection,
    SlanderWindow,
)
from repro.analysis import RunSpec, run
from repro.common import Decision, SimulationLimitExceeded
from repro.faults import (
    CrashFault,
    DetectorSpec,
    FaultPlan,
    PartitionMask,
    ReElectionElection,
)


def sync_trial(n, plan, seed=0, factory=None, **params):
    return run(
        RunSpec(
            algorithm=factory or (lambda: QuorumReElectionElection(**params)),
            n=n, engine="sync", seeds=(seed,), faults=plan,
        ),
        keep_result=True,
    )


def async_trial(n, plan, seed=0, **params):
    return run(
        RunSpec(
            algorithm=lambda: AsyncQuorumReElectionElection(**params),
            n=n, engine="async", seeds=(seed,), faults=plan,
            wake_times={u: 0.0 for u in range(n)}, max_events=5_000_000,
        ),
        keep_result=True,
    )


def slander_plan(n, f, crash_node=None, crash_at=6.0, start=2.0, end=None):
    """Slander the f top-ID nodes (+ optionally crash one other node)."""
    crashes = () if crash_node is None else (CrashFault(node=crash_node, at=crash_at),)
    return FaultPlan(
        crashes=crashes,
        detector=DetectorSpec(kind="perfect", lag=1.0),
        adversary=AdversaryPlan(
            byzantine=(0,),
            slanders=(
                SlanderWindow(accuser=0, victims=tuple(range(n - f, n)),
                              start=start, end=end),
            ),
        ),
    )


class TestSlanderTolerance:
    @pytest.mark.parametrize("n,f", [(5, 1), (9, 2), (9, 3), (12, 4)])
    def test_sync_survives_slander(self, n, f):
        record = sync_trial(n, slander_plan(n, f))
        assert record.extra["unique_surviving_leader"]
        # The slandered victims are alive: they must follow, not contest.
        result = record.extra["result"]
        assert result.decided_count == n
        leader = record.extra["surviving_leader_id"]
        for u in range(n - f, n):
            assert result.decisions[u] is Decision.NON_LEADER
            assert result.outputs[u] == leader

    @pytest.mark.parametrize("n,f", [(5, 1), (9, 2)])
    def test_async_survives_slander(self, n, f):
        record = async_trial(n, slander_plan(n, f))
        assert record.extra["unique_surviving_leader"]
        result = record.extra["result"]
        leader = record.extra["surviving_leader_id"]
        for u in range(n - f, n):
            assert result.decisions[u] is Decision.NON_LEADER
            assert result.outputs[u] == leader

    @pytest.mark.parametrize("engine_trial", [sync_trial, async_trial])
    def test_survives_combined_crash_and_slander(self, engine_trial):
        """The acceptance bar: f < n/2 crash + slander adversaries."""
        n = 9
        for seed in (0, 1, 2):
            record = engine_trial(n, slander_plan(n, 2, crash_node=3), seed=seed)
            assert record.extra["unique_surviving_leader"], seed
            assert len(record.extra["crashed"]) == 1

    def test_slandered_monarch_is_deposed_but_agrees(self):
        """Slander the max-ID node: the quorum elects the runner-up and
        the alive victim adopts it through coord catch-up."""
        n = 7
        record = sync_trial(n, slander_plan(n, 1))
        assert record.extra["surviving_leader_id"] == n - 1  # runner-up id
        result = record.extra["result"]
        assert result.outputs[n - 1] == n - 1  # the victim follows it

    @pytest.mark.parametrize("start", [4.0, 6.0, 7.0, 8.0, 10.0])
    def test_mid_commit_slander_cannot_split_the_brain(self, start):
        """Regression: slander landing *inside* the first leader's commit
        window once produced two committed leaders across epochs (the
        victim committed epoch 0 on stale acks while the majority
        elected epoch 1).  The live-quorum rule — acks expire per commit
        round, and followers only ack their current epoch — makes the
        overtaken commit starve, and the new reign's all-port coord
        sweeps the victim up as a follower."""
        n = 7
        for seed in (0, 1):
            record = sync_trial(
                n, slander_plan(n, 1, start=start), seed=seed
            )
            result = record.extra["result"]
            assert len(result.surviving_leaders) == 1, (start, seed)

    def test_plain_reelect_breaks_under_slander(self):
        """The hole the quorum wrapper closes: the plain wrapper leaves
        the victim spinning forever (it is excluded from every coord)."""
        n = 7
        with pytest.raises(SimulationLimitExceeded):
            sync_trial(n, slander_plan(n, 1), factory=ReElectionElection)


class TestPartitionAbstention:
    def partition_plan(self, n, minority):
        comps = (tuple(range(minority)), tuple(range(minority, n)))
        return FaultPlan(
            partitions=(PartitionMask(components=comps, start=0.0, end=None),),
            detector=DetectorSpec(kind="perfect", lag=1.0),
        )

    def test_minority_never_elects(self):
        n, minority = 9, 4
        record = sync_trial(n, self.partition_plan(n, minority))
        result = record.extra["result"]
        assert result.leader_ids == [n]  # only the majority side elected
        for u in range(minority):
            assert result.decisions[u] is Decision.NON_LEADER
            assert result.outputs[u] is None  # abstained, adopted nobody

    def test_plain_wrapper_split_brains(self):
        n, minority = 9, 4
        record = sync_trial(
            n, self.partition_plan(n, minority), factory=ReElectionElection
        )
        result = record.extra["result"]
        assert len(result.leader_ids) == 2  # one leader per component

    def test_even_split_elects_nobody(self):
        """No component holds a majority: CP semantics, nobody leads."""
        n = 8
        record = sync_trial(n, self.partition_plan(n, 4))
        result = record.extra["result"]
        assert result.leader_ids == []
        assert all(d is Decision.NON_LEADER for d in result.decisions)

    def test_async_minority_never_elects(self):
        n, minority = 9, 4
        record = async_trial(n, self.partition_plan(n, minority))
        result = record.extra["result"]
        assert len(result.leader_ids) == 1
        for u in range(minority):
            assert result.outputs[u] is None


class TestQuorumMechanics:
    def test_crash_only_behaves_like_reelect(self):
        """Without Byzantine behavior the quorum wrapper elects the same
        survivor the plain wrapper does (it is a strict hardening)."""
        n = 8
        plan = FaultPlan(
            crashes=(CrashFault(node=n - 1, at=4.0),),
            detector=DetectorSpec(kind="perfect", lag=1.0),
        )
        quorum = sync_trial(n, plan)
        plain = sync_trial(n, plan, factory=ReElectionElection)
        assert quorum.extra["unique_surviving_leader"]
        assert plain.extra["unique_surviving_leader"]
        assert quorum.extra["surviving_leader_id"] == plain.extra["surviving_leader_id"]

    def test_majority_crash_means_no_leader(self):
        """f >= n/2 crashes: survivors abstain rather than risk a
        minority reign (the documented CP tradeoff)."""
        n = 7
        plan = FaultPlan(
            crashes=tuple(CrashFault(node=u, at=2.0) for u in range(4)),
            detector=DetectorSpec(kind="perfect", lag=1.0),
        )
        record = sync_trial(n, plan)
        result = record.extra["result"]
        assert result.leader_ids == []

    def test_threshold_is_validated_at_construction(self):
        with pytest.raises(ValueError, match="majority"):
            QuorumReElectionElection(threshold=0.3)
        with pytest.raises(ValueError, match="majority"):
            AsyncQuorumReElectionElection(threshold=1.0)

    def test_supermajority_threshold(self):
        """A 2/3 threshold abstains where a majority would elect."""
        n = 9
        plan = FaultPlan(
            partitions=(
                PartitionMask(components=((0, 1, 2, 3), (4, 5, 6, 7, 8)),
                              start=0.0, end=None),
            ),
            detector=DetectorSpec(kind="perfect", lag=1.0),
        )
        record = sync_trial(n, plan, threshold=2 / 3)
        result = record.extra["result"]
        # 5 of 9 is a majority but not > 2/3: nobody elects anywhere.
        assert result.leader_ids == []

    def test_single_node_self_elects(self):
        plan = FaultPlan(detector=DetectorSpec(kind="perfect", lag=1.0))
        record = sync_trial(1, plan)
        assert record.extra["surviving_leader_id"] == 1

    def test_fault_free_equivalence_across_engines(self):
        """Cross-engine validation: both engines converge with explicit
        agreement under the same fault-free plan."""
        n = 6
        plan = FaultPlan(detector=DetectorSpec(kind="perfect", lag=1.0))
        for seed in (0, 1):
            s = sync_trial(n, plan, seed=seed)
            a = async_trial(n, plan, seed=seed)
            assert s.extra["unique_surviving_leader"]
            assert a.extra["unique_surviving_leader"]
            for record in (s, a):
                result = record.extra["result"]
                leader = record.extra["surviving_leader_id"]
                for u in range(n):
                    if result.decisions[u] is Decision.NON_LEADER:
                        assert result.outputs[u] == leader
