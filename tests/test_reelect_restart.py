"""The bounded epoch-restart timeout (the ``reelect`` inner-loss fix).

Regression for the ROADMAP item "loss on *inner* algorithm messages
stalls by design — a retry/timeout epoch restart remains open": a
deterministic ``LinkFaults.max_drops`` schedule that swallows the whole
first inner election used to wedge the epoch forever (the run only
ended at the engine round/event limit).  With the timeout, nodes retry
the inner election in bounded attempts and commit.
"""

import pytest

from repro.analysis import RunSpec, run
from repro.common import SimulationLimitExceeded
from repro.faults import (
    AsyncReElectionElection,
    DetectorSpec,
    FaultPlan,
    LinkFaults,
    ReElectionElection,
)

# Drop every inner-election message until the budget runs out: the first
# attempt is guaranteed dead, later attempts run on clean links.
INNER_LOSS = FaultPlan(
    links=(LinkFaults(drop_prob=1.0, max_drops=40, kinds=("ree",)),),
    detector=DetectorSpec(kind="perfect", lag=1.0),
)


class TestSyncRestart:
    def test_stalls_with_restart_disabled(self):
        """The pre-fix behavior, pinned: restart_rounds=0 wedges."""
        with pytest.raises(SimulationLimitExceeded):
            run(
                RunSpec(
                    algorithm=lambda: ReElectionElection(
                        inner="afek_gafni", commit_rounds=3, restart_rounds=0
                    ),
                    n=6,
                    engine="sync",
                    seeds=(2,),
                    faults=INNER_LOSS,
                    max_rounds=300,
                )
            )

    def test_bounded_restart_recovers(self):
        record = run(
            RunSpec(
                algorithm=lambda: ReElectionElection(
                    inner="afek_gafni", commit_rounds=3, restart_rounds=16
                ),
                n=6,
                engine="sync",
                seeds=(2,),
                faults=INNER_LOSS,
                max_rounds=300,
            )
        )
        assert record.unique_leader
        assert record.elected_id == 6  # afek_gafni still elects the max ID
        # The retry fired: at least one extra attempt beyond the first.
        assert record.extra["rounds_executed"] > 16

    def test_adaptive_default_recovers_too(self):
        record = run(
            RunSpec(
                algorithm=lambda: ReElectionElection(inner="afek_gafni", commit_rounds=3),
                n=6,
                engine="sync",
                seeds=(2,),
                faults=INNER_LOSS,
            )
        )
        assert record.unique_leader

    def test_restart_is_deterministic(self):
        records = [
            run(
                RunSpec(
                    algorithm=lambda: ReElectionElection(
                        inner="afek_gafni", commit_rounds=3, restart_rounds=16
                    ),
                    n=6,
                    engine="sync",
                    seeds=(2,),
                    faults=INNER_LOSS,
                    max_rounds=300,
                )
            )
            for _ in range(2)
        ]
        assert records[0].messages == records[1].messages
        assert records[0].elected_id == records[1].elected_id
        assert records[0].time == records[1].time

    def test_no_restart_in_healthy_runs(self):
        """The adaptive timeout never fires when nothing is lost."""
        plan = FaultPlan(detector=DetectorSpec(kind="perfect", lag=1.0))
        algorithms = []

        def factory():
            algorithm = ReElectionElection(inner="afek_gafni", commit_rounds=3)
            algorithms.append(algorithm)
            return algorithm

        record = run(
            RunSpec(algorithm=factory, n=8, engine="sync", seeds=(1,), faults=plan)
        )
        assert record.unique_leader
        assert all(a.attempt == 0 for a in algorithms)

    def test_validation(self):
        with pytest.raises(ValueError):
            ReElectionElection(restart_rounds=-1)


class TestAsyncRestart:
    def test_stalls_with_restart_disabled(self):
        with pytest.raises(SimulationLimitExceeded):
            run(
                RunSpec(
                    algorithm=lambda: AsyncReElectionElection(
                        inner="async_tradeoff", commit_delay=3.0, restart_delay=0
                    ),
                    n=6,
                    engine="async",
                    seeds=(2,),
                    faults=INNER_LOSS,
                    wake_times={u: 0.0 for u in range(6)},
                    max_events=40_000,
                )
            )

    def test_bounded_restart_recovers(self):
        record = run(
            RunSpec(
                algorithm=lambda: AsyncReElectionElection(
                    inner="async_tradeoff", commit_delay=3.0, restart_delay=12.0
                ),
                n=6,
                engine="async",
                seeds=(2,),
                faults=INNER_LOSS,
                wake_times={u: 0.0 for u in range(6)},
                max_events=1_000_000,
            )
        )
        assert record.unique_leader
        assert record.decided == 6

    def test_restart_is_deterministic(self):
        records = [
            run(
                RunSpec(
                    algorithm=lambda: AsyncReElectionElection(
                        inner="async_tradeoff", commit_delay=3.0, restart_delay=12.0
                    ),
                    n=6,
                    engine="async",
                    seeds=(2,),
                    faults=INNER_LOSS,
                    wake_times={u: 0.0 for u in range(6)},
                    max_events=1_000_000,
                )
            )
            for _ in range(2)
        ]
        assert records[0].messages == records[1].messages
        assert records[0].elected_id == records[1].elected_id

    def test_validation(self):
        with pytest.raises(ValueError):
            AsyncReElectionElection(restart_delay=-0.5)
