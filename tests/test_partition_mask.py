"""PartitionMask: plan validation, runtime blocking, detector awareness."""

import pytest

from repro.faults import (
    DetectorSpec,
    FaultPlan,
    FaultRuntime,
    LinkFaults,
    MonarchicalElection,
    PartitionMask,
    ReElectionElection,
    make_detector,
)
from repro.analysis import RunSpec, run


class TestMaskValidation:
    def test_basic_properties(self):
        mask = PartitionMask(components=((0, 1), (2, 3)), start=2.0, end=6.0)
        assert mask.component_of(0) == 0
        assert mask.component_of(3) == 1
        assert mask.component_of(9) is None
        assert not mask.active(1.9)
        assert mask.active(2.0)
        assert not mask.active(6.0)  # heal is automatic at end

    def test_blocks_cross_component_only(self):
        mask = PartitionMask(components=((0, 1), (2,)), start=0.0)
        assert mask.blocks(0, 2, 5.0)
        assert not mask.blocks(0, 1, 5.0)
        assert mask.blocks(3, 0, 5.0)  # unlisted nodes are isolated
        assert mask.blocks(3, 4, 5.0)

    def test_endless_mask_never_heals(self):
        mask = PartitionMask(components=((0,), (1,)), start=1.0, end=None)
        assert mask.active(1e9)

    def test_validation(self):
        with pytest.raises(ValueError):
            PartitionMask(components=())
        with pytest.raises(ValueError):
            PartitionMask(components=((0, 1), (1, 2)))
        with pytest.raises(ValueError):
            PartitionMask(components=((0,), ()))
        with pytest.raises(ValueError):
            PartitionMask(components=((0,), (1,)), start=3.0, end=3.0)
        plan = FaultPlan(partitions=(PartitionMask(components=((0,), (9,))),))
        with pytest.raises(ValueError, match="out of range"):
            plan.validate_for(4)
        assert plan.has_partitions


class TestRuntimeBlocking:
    def plan(self, **kwargs):
        return FaultPlan(
            partitions=(PartitionMask(components=((0, 1), (2, 3)), **kwargs),)
        )

    def test_window_respected(self):
        rt = FaultRuntime(self.plan(start=2.0, end=6.0), 4, [1, 2, 3, 4], seed=0)
        assert rt.deliveries(0, 2, "x", now=1.0) == 1   # before the window
        assert rt.deliveries(0, 2, "x", now=2.0) == 0   # inside
        assert rt.deliveries(0, 1, "x", now=3.0) == 1   # same component
        assert rt.deliveries(0, 2, "x", now=6.0) == 1   # healed
        assert rt.metrics.partition_blocked == 1

    def test_partition_consumes_no_randomness(self):
        """A mask must not perturb the link-fault RNG stream."""
        lossy = (LinkFaults(drop_prob=0.5),)
        with_mask = FaultPlan(
            links=lossy,
            partitions=(PartitionMask(components=((0, 1), (2, 3)), start=100.0),),
        )
        without_mask = FaultPlan(links=lossy)
        rt_a = FaultRuntime(with_mask, 4, [1, 2, 3, 4], seed=7)
        rt_b = FaultRuntime(without_mask, 4, [1, 2, 3, 4], seed=7)
        fates_a = [rt_a.deliveries(0, 1, "x", now=1.0) for _ in range(64)]
        fates_b = [rt_b.deliveries(0, 1, "x", now=1.0) for _ in range(64)]
        assert fates_a == fates_b


class TestPartitionAwareDetectors:
    def detector(self, node, lag=1.0, end=8.0):
        spec = DetectorSpec(kind="perfect", lag=lag)
        mask = PartitionMask(components=((0, 1), (2, 3)), start=2.0, end=end)
        return make_detector(spec, node, [1, 2, 3, 4], None, partitions=(mask,))

    def test_suspects_cross_component_during_window(self):
        det = self.detector(0)
        assert det.suspects(2.5) == frozenset()          # lag not yet elapsed
        assert det.suspects(3.0) == frozenset({3, 4})    # other side suspected
        assert det.suspects(9.0) == frozenset()          # heal + lag forgives

    def test_alive_and_trusted_follow_the_component(self):
        det = self.detector(3)
        assert det.alive(3.0) == [3, 4]
        assert det.trusted(3.0) == 4

    def test_last_transition_tracks_partition_edges(self):
        det = self.detector(0)
        assert det.last_transition(2.0) == 0.0
        assert det.last_transition(3.5) == 3.0   # start + lag
        assert det.last_transition(10.0) == 9.0  # end + lag


class TestPartitionedElections:
    def test_monarchical_sync_elects_per_component(self):
        plan = FaultPlan(
            partitions=(PartitionMask(components=((0, 1, 2), (3, 4, 5)), start=0.0),),
            detector=DetectorSpec(kind="perfect", lag=1.0),
        )
        record = run(
            RunSpec(
                algorithm=lambda: MonarchicalElection(stable_rounds=3), n=6,
                engine="sync", seeds=(1,), faults=plan,
            ),
            keep_result=True,
        )
        result = record.extra["result"]
        assert sorted(result.leader_ids) == [3, 6]
        assert result.outputs == [3, 3, 3, 6, 6, 6]

    def test_reelect_sync_elects_per_component(self):
        plan = FaultPlan(
            partitions=(PartitionMask(components=((0, 1, 2), (3, 4, 5)), start=0.0),),
            detector=DetectorSpec(kind="perfect", lag=1.0),
        )
        record = run(
            RunSpec(
                algorithm=lambda: ReElectionElection(
                    inner="afek_gafni", commit_rounds=3
                ),
                n=6,
                engine="sync",
                seeds=(1,),
                faults=plan,
            ),
            keep_result=True,
        )
        result = record.extra["result"]
        assert sorted(result.leader_ids) == [3, 6]

    def test_reelect_async_elects_per_component(self):
        from repro.faults import AsyncReElectionElection

        plan = FaultPlan(
            partitions=(PartitionMask(components=((0, 1, 2), (3, 4, 5)), start=0.0),),
            detector=DetectorSpec(kind="perfect", lag=1.0),
        )
        record = run(
            RunSpec(
                algorithm=lambda: AsyncReElectionElection(
                    inner="async_tradeoff", commit_delay=3.0
                ),
                n=6,
                engine="async",
                seeds=(1,),
                faults=plan,
                wake_times={u: 0.0 for u in range(6)},
                max_events=500_000,
            ),
            keep_result=True,
        )
        result = record.extra["result"]
        assert len(result.leader_ids) == 2
        # One leader per component, every node follows its own side.
        left = {result.outputs[u] for u in (0, 1, 2)}
        right = {result.outputs[u] for u in (3, 4, 5)}
        assert len(left) == 1 and len(right) == 1
        assert left != right

    def test_healing_mask_lets_a_late_election_cross(self):
        # A partition that heals before the election finishes does not
        # wedge it: messages after `end` flow again.
        plan = FaultPlan(
            partitions=(
                PartitionMask(components=((0, 1), (2, 3)), start=0.0, end=2.0),
            ),
            detector=DetectorSpec(kind="perfect", lag=1.0),
        )
        record = run(
            RunSpec(
                algorithm=lambda: MonarchicalElection(stable_rounds=6), n=4,
                engine="sync", seeds=(1,), faults=plan,
            ),
            keep_result=True,
        )
        result = record.extra["result"]
        # After heal + stability window everyone converges on the max.
        assert result.leader_ids == [4]
