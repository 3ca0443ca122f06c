"""The epoch re-election wrapper: kill leaders, keep electing survivors."""

import pytest

from repro.analysis import RunSpec, run
from repro.asyncnet.engine import AsyncNetwork
from repro.common import SimulationLimitExceeded
from repro.core import LasVegasElection
from repro.faults import (
    AsyncReElectionElection,
    CrashFault,
    DetectorSpec,
    FaultPlan,
    LeaderKillPolicy,
    LinkFaults,
    ReElectionElection,
)
from repro.sync.engine import SyncNetwork

KILL_SYNC = FaultPlan(
    policies=(LeaderKillPolicy(kinds=("ree_coord",), delay=1, max_kills=1),),
    detector=DetectorSpec(lag=1),
)
KILL_ASYNC = FaultPlan(
    policies=(LeaderKillPolicy(kinds=("ree_coord",), delay=0.5, max_kills=1),),
    detector=DetectorSpec(lag=1.0),
)


class TestSyncReElection:
    def test_fault_free_matches_inner_outcome(self):
        # Without faults the wrapper is a thin shell: afek_gafni elects
        # the max ID under simultaneous wake-up, and so does the wrapper.
        result = SyncNetwork(
            32, lambda: ReElectionElection(inner="afek_gafni"), seed=0
        ).run()
        assert result.unique_leader
        assert result.elected_id == 32
        assert result.decided_count == 32

    def test_frontrunner_kill_reelects_survivor(self):
        net = SyncNetwork(
            32,
            lambda: ReElectionElection(inner="afek_gafni", commit_rounds=4),
            seed=1,
            faults=KILL_SYNC,
        )
        result = net.run()
        assert result.crashed, "the kill policy must have fired"
        assert result.unique_surviving_leader
        # The dead frontrunner held the max ID; the survivor is second-max.
        assert result.surviving_leader_id == 31
        # Epoch restarted exactly once on every surviving node.
        assert all(
            alg.epochs_run == 2
            for u, alg in enumerate(net.algorithms)
            if u not in result.crashed
        )

    def test_wrapped_las_vegas(self):
        record = run(RunSpec(
            algorithm=lambda: ReElectionElection(inner="las_vegas", commit_rounds=4),
            n=48,
            engine="sync",
            seeds=(3,),
            faults=KILL_SYNC,
        ))
        reelection_time = record.extra["failover"]["reelection_time"]
        assert len(record.extra["crashed"]) == 1
        assert record.extra["unique_surviving_leader"]
        assert reelection_time is not None and reelection_time > 0

    def test_callable_inner_factory(self):
        result = SyncNetwork(
            16,
            lambda: ReElectionElection(inner=lambda: LasVegasElection()),
            seed=0,
        ).run()
        assert result.unique_leader

    def test_inner_params_plumb_through(self):
        result = SyncNetwork(
            16, lambda: ReElectionElection(inner="afek_gafni", ell=6), seed=0
        ).run()
        assert result.unique_leader

    def test_adversarial_wakeup_with_kill(self):
        record = run(RunSpec(
            algorithm=lambda: ReElectionElection(inner="afek_gafni", commit_rounds=4),
            n=48,
            engine="sync",
            seeds=(5,),
            awake=[0, 7, 13],
            faults=KILL_SYNC,
        ))
        assert len(record.extra["crashed"]) == 1
        assert record.extra["unique_surviving_leader"]

    def test_static_crash_of_nonleader_restarts_epoch(self):
        # Any membership change restarts the election; node 0 is almost
        # surely not the max-ID winner, yet the epoch still advances.
        plan = FaultPlan(crashes=(CrashFault(node=0, at=2),), detector=DetectorSpec(lag=1))
        net = SyncNetwork(
            24,
            lambda: ReElectionElection(inner="afek_gafni", commit_rounds=4),
            seed=2,
            faults=plan,
        )
        result = net.run()
        assert result.unique_surviving_leader
        assert result.surviving_leader_id == 24
        survivors = [alg for u, alg in enumerate(net.algorithms) if u != 0]
        assert all(alg.epochs_run == 2 for alg in survivors)

    def test_two_kills_three_epochs(self):
        plan = FaultPlan(
            policies=(LeaderKillPolicy(kinds=("ree_coord",), delay=1, max_kills=2),),
            detector=DetectorSpec(lag=1),
        )
        record = run(RunSpec(
            algorithm=lambda: ReElectionElection(inner="afek_gafni", commit_rounds=4),
            n=32,
            engine="sync",
            seeds=(4,),
            faults=plan,
        ))
        assert len(record.extra["crashed"]) == 2
        assert record.extra["unique_surviving_leader"]
        # Max and second-max died announcing; third-max survives.
        assert record.extra["surviving_leader_id"] == 30

    def test_bad_commit_rounds(self):
        with pytest.raises(ValueError):
            ReElectionElection(commit_rounds=0)

    def test_inner_params_conflict_with_callable(self):
        with pytest.raises(ValueError):
            ReElectionElection(inner=lambda: LasVegasElection(), ell=3)


class TestLossyCommit:
    """Regression: dropped ``ree_coord`` messages must not wedge the epoch.

    Before the bounded retransmit, the winner announced once (plus one
    commit-time copy): losing both wedged the victim follower forever —
    undecided, unhalted, spinning until ``SimulationLimitExceeded``.
    The commit window now carries ``commit_rounds + 1`` copies per link.
    """

    def coord_drop_plan(self, max_drops, victim=3):
        return FaultPlan(
            links=(
                LinkFaults(
                    drop_prob=1.0, max_drops=max_drops, dst=victim, kinds=("ree_coord",)
                ),
            ),
            detector=DetectorSpec(lag=1),
        )

    @pytest.mark.parametrize("max_drops", [1, 2, 4])
    def test_coord_drop_burst_recovers(self, max_drops):
        result = SyncNetwork(
            16,
            lambda: ReElectionElection(inner="afek_gafni", commit_rounds=4),
            seed=0,
            faults=self.coord_drop_plan(max_drops),
        ).run()
        assert result.unique_leader
        assert result.elected_id == 16
        assert result.decided_count == 16
        assert result.fault_metrics.dropped_messages == max_drops

    def test_retransmits_are_bounded(self):
        # Fault-free run: the coord traffic is (commit_rounds + 1) copies
        # per survivor link, not an unbounded stream.
        net = SyncNetwork(
            8, lambda: ReElectionElection(inner="afek_gafni", commit_rounds=3), seed=0
        )
        result = net.run()
        assert result.unique_leader
        assert result.metrics.messages_by_kind["ree_coord"] == (3 + 1) * 7

    def test_unbounded_adversary_still_wedges(self):
        # Losing *every* copy is beyond the bounded guarantee — the run
        # must fail loudly (limit exceeded), not silently mis-elect.
        with pytest.raises(SimulationLimitExceeded):
            SyncNetwork(
                16,
                lambda: ReElectionElection(inner="afek_gafni", commit_rounds=4),
                seed=0,
                faults=self.coord_drop_plan(max_drops=None),
                max_rounds=300,
            ).run()

    def test_drop_after_frontrunner_kill(self):
        # Epoch 2's commit succeeds even when its first coord copy into
        # the victim is dropped after a leader kill forced a re-election.
        plan = FaultPlan(
            policies=(LeaderKillPolicy(kinds=("ree_coord",), delay=1, max_kills=1),),
            links=(
                LinkFaults(drop_prob=1.0, max_drops=2, dst=5, kinds=("ree_coord",)),
            ),
            detector=DetectorSpec(lag=1),
        )
        record = run(RunSpec(
            algorithm=lambda: ReElectionElection(inner="afek_gafni", commit_rounds=4),
            n=24,
            engine="sync",
            seeds=(2,),
            faults=plan,
        ))
        assert len(record.extra["crashed"]) == 1
        assert record.extra["unique_surviving_leader"]
        assert record.extra["surviving_leader_id"] == 23

    def test_async_commit_survives_coord_drop(self):
        plan = FaultPlan(
            links=(
                LinkFaults(drop_prob=1.0, max_drops=2, dst=3, kinds=("ree_coord",)),
            ),
            detector=DetectorSpec(lag=1.0),
        )
        result = AsyncNetwork(
            16,
            lambda: AsyncReElectionElection(
                inner="async_tradeoff", commit_delay=4.0, poll_interval=0.5
            ),
            seed=1,
            wake_times={u: 0.0 for u in range(16)},
            max_events=2_000_000,
            faults=plan,
        ).run()
        assert result.unique_leader
        assert result.decided_count == 16
        assert result.fault_metrics.dropped_messages >= 1


class TestAsyncReElection:
    def test_fault_free(self):
        result = AsyncNetwork(
            32,
            lambda: AsyncReElectionElection(inner="async_tradeoff"),
            seed=0,
            wake_times={0: 0.0},
            max_events=2_000_000,
        ).run()
        assert result.unique_leader

    def test_frontrunner_kill_reelects_survivor(self):
        record = run(RunSpec(
            algorithm=lambda: AsyncReElectionElection(
                inner="async_tradeoff", commit_delay=4.0, poll_interval=0.5
            ),
            n=32,
            engine="async",
            seeds=(3,),
            wake_times={0: 0.0},
            max_events=2_000_000,
            faults=KILL_ASYNC,
        ))
        failover = record.extra["failover"]
        reelection_time = failover["reelection_time"]
        detection_latencies = failover["detection_latencies"]
        assert len(record.extra["crashed"]) == 1
        assert record.extra["unique_surviving_leader"]
        assert reelection_time is not None and reelection_time > 0
        assert detection_latencies and detection_latencies[0] >= 1.0

    def test_all_awake_with_kill(self):
        record = run(RunSpec(
            algorithm=lambda: AsyncReElectionElection(
                inner="async_tradeoff", commit_delay=4.0, poll_interval=0.5
            ),
            n=24,
            engine="async",
            seeds=(6,),
            wake_times={u: 0.0 for u in range(24)},
            max_events=2_000_000,
            faults=KILL_ASYNC,
        ))
        assert len(record.extra["crashed"]) == 1
        assert record.extra["unique_surviving_leader"]

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            AsyncReElectionElection(commit_delay=0)
        with pytest.raises(ValueError):
            AsyncReElectionElection(poll_interval=-1)
