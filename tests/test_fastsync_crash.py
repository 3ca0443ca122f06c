"""Crash masks on the vectorized engine, cross-checked at small n.

In ``exact`` mode a fastsync run under a crash schedule must replay the
object engine bit for bit: same port matrix, same crash rounds, same
winners, message totals, per-kind counts, round counters and survivor
accounting — all asserted by :func:`tests.helpers.assert_twin_run`.
The object twin runs the plain (crash-oblivious) ``improved_tradeoff``
under a ``FaultPlan`` crash schedule — the protocol tolerates missing
responses by demoting survivors, so crashes change outcomes without
stalling either engine.
"""

import pytest

pytest.importorskip("numpy")

from repro.fastsync import (  # noqa: E402
    FastSyncNetwork,
    VectorImprovedTradeoffElection,
)
from repro.sweep import RunSpec  # noqa: E402

from tests.helpers import assert_twin_run  # noqa: E402

CASES = [
    # (n, seed, ell, crashes)
    (8, 0, 3, [(7, 1)]),               # the max-ID node dies at wake-up
    (8, 1, 3, [(3, 2), (5, 2)]),       # two referees die together
    (16, 2, 5, [(15, 3), (0, 1)]),
    (16, 3, 5, [(4, 2)]),
    (5, 4, 3, [(4, 4)]),               # crash lands on the decision round
    (2, 5, 3, [(1, 1)]),
    (33, 6, 7, [(32, 5), (10, 2), (7, 9)]),  # one crash past quiescence
    (12, 7, 3, [(11, 1), (10, 1), (9, 1)]),  # top three all dead at wake
]


class TestCrossEngineEquivalence:
    @pytest.mark.parametrize("n,seed,ell,crashes", CASES)
    def test_exact_mode_replays_the_object_engine(self, n, seed, ell, crashes):
        assert_twin_run(
            RunSpec(
                algorithm="improved_tradeoff",
                n=n,
                seeds=(seed,),
                params={"ell": ell},
                crashes=tuple(crashes),
            )
        )

    def test_crash_free_schedule_is_a_noop(self):
        baseline = FastSyncNetwork(16, seed=9, mode="exact").run(
            VectorImprovedTradeoffElection(ell=5)
        )
        masked = FastSyncNetwork(16, seed=9, mode="exact", crashes=[]).run(
            VectorImprovedTradeoffElection(ell=5)
        )
        assert masked.leader_ids == baseline.leader_ids
        assert masked.messages == baseline.messages
        assert masked.sends_by_round == baseline.sends_by_round


class TestEngineMask:
    def test_alive_mask_follows_the_schedule(self):
        net = FastSyncNetwork(4, seed=0, crashes=[(2, 2)])
        assert net.alive.all()
        net.tick()
        assert net.alive.all()
        net.tick()
        assert not net.alive[0, 2] and net.alive.sum() == 3
        assert net.lane_crashed_at[0] == {2: 2.0}

    def test_last_survivor_guard(self):
        # The guard mirrors FaultRuntime.approve_crash: a crash that
        # would leave nobody alive is suppressed.
        net = FastSyncNetwork(2, seed=0, crashes=[(0, 1)])
        net.tick()
        assert net.alive[0, 1]
        with pytest.raises(ValueError):
            FastSyncNetwork(2, seed=0, crashes=[(0, 1), (1, 2)])

    def test_validation(self):
        with pytest.raises(ValueError, match="out of range"):
            FastSyncNetwork(4, crashes=[(9, 1)])
        with pytest.raises(ValueError, match="twice"):
            FastSyncNetwork(4, crashes=[(1, 1), (1, 2)])
        with pytest.raises(ValueError, match="at >= 0"):
            FastSyncNetwork(4, crashes=[(1, -1)])

    def test_unsupported_algorithm_refused(self):
        from repro.fastsync import VectorAdversarial2RoundElection

        net = FastSyncNetwork(8, seed=0, crashes=[(1, 2)])
        with pytest.raises(ValueError, match="crash-mask support"):
            net.run(VectorAdversarial2RoundElection())

    def test_scale_mode_crash_runs_are_deterministic(self):
        runs = [
            FastSyncNetwork(64, seed=3, mode="scale", crashes=[(63, 1), (5, 3)]).run(
                VectorImprovedTradeoffElection(ell=5)
            )
            for _ in range(2)
        ]
        assert runs[0].leader_ids == runs[1].leader_ids
        assert runs[0].messages == runs[1].messages
        assert runs[0].crashed == runs[1].crashed
