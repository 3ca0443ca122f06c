"""Crash schedules on the vectorized engine, cross-checked at small n.

A crash schedule reaches the fast engine only as a
``faults=FaultPlan(crashes=...)``, which runs the port's single-lane
``_run_faulted`` fold.  In ``exact`` mode that run must replay the
object engine bit for bit: same port matrix, same crash rounds, same
winners, message totals, per-kind counts, round counters and survivor
accounting — all asserted by :func:`tests.helpers.assert_twin_run`.
The object twin runs the plain (crash-oblivious) ``improved_tradeoff``
under the same plan — the protocol tolerates missing responses by
demoting survivors, so crashes change outcomes without stalling either
engine.
"""

import pytest

pytest.importorskip("numpy")

import numpy as np  # noqa: E402
from repro.faults import CrashFault, FaultPlan  # noqa: E402
from repro.fastsync import (  # noqa: E402
    FAST_ALGORITHMS,
    FastSyncNetwork,
    VectorImprovedTradeoffElection,
)
from repro.fastsync.faults import FastFaultRuntime  # noqa: E402
from repro.sweep import RunSpec  # noqa: E402

from tests.helpers import assert_twin_run, crash_plan  # noqa: E402

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

#: Every vectorized port, with parameters valid at every size below.
PORT_PARAMS = {
    "improved_tradeoff": {"ell": 5},
    "afek_gafni": {"ell": 4},
    "las_vegas": {},
    "small_id": {"d": 2},
    "kutten16": {},
    "adversarial_2round": {},
}

#: What an empty plan must leave unchanged.
NOOP_FIELDS = (
    "leaders",
    "messages",
    "messages_by_kind",
    "sends_by_round",
    "rounds_executed",
    "last_send_round",
    "decided_count",
    "awake_count",
)


class TestCrossEngineEquivalence:
    @pytest.mark.parametrize("n,seed,ell,crashes", CASES)
    def test_exact_mode_replays_the_object_engine(self, n, seed, ell, crashes):
        assert_twin_run(
            RunSpec(
                algorithm="improved_tradeoff",
                n=n,
                seeds=(seed,),
                params={"ell": ell},
                faults=crash_plan(crashes),
            )
        )


@pytest.mark.parametrize("mode", ["exact", "scale"])
@pytest.mark.parametrize("name", sorted(PORT_PARAMS))
def test_empty_plan_is_a_noop(name, mode):
    """``faults=FaultPlan()`` runs the fold, which must match ``run``."""
    factory = FAST_ALGORITHMS[name]
    params = PORT_PARAMS[name]
    for n, seed in [(2, 0), (5, 1), (16, 2), (64, 3)]:
        plain = FastSyncNetwork(n, seed=seed, mode=mode).run(factory(**params))
        folded = FastSyncNetwork(n, seed=seed, mode=mode, faults=FaultPlan()).run(
            factory(**params)
        )
        for field in NOOP_FIELDS:
            assert getattr(folded, field) == getattr(plain, field), (n, seed, field)


class TestEngineMask:
    def test_alive_mask_follows_the_schedule(self):
        net = FastSyncNetwork(4, seed=0, faults=crash_plan([(2, 2)]))
        assert net.alive.all()
        net.tick()
        assert net.alive.all()
        net.tick()
        assert not net.alive[0, 2] and net.alive.sum() == 3
        assert net.fault_runtime.crashed_at == {2: 2}

    def test_last_survivor_guard(self):
        # FaultRuntime.approve_crash refuses a crash that would leave
        # nobody alive, and counts it as suppressed.
        runtime = FastFaultRuntime(crash_plan([(0, 1)]), 2, [1, 2], seed=0)
        alive = np.ones(2, dtype=bool)
        runtime.apply_due_crashes(alive, 1)
        assert alive.tolist() == [False, True]
        assert not runtime.inner.approve_crash(1)
        assert runtime.metrics.suppressed_crashes == 1
        with pytest.raises(ValueError, match="every node"):
            FastSyncNetwork(2, seed=0, faults=crash_plan([(0, 1), (1, 2)]))

    def test_validation(self):
        with pytest.raises(ValueError, match="out of range"):
            FastSyncNetwork(4, faults=crash_plan([(9, 1)]))
        with pytest.raises(ValueError, match="twice"):
            crash_plan([(1, 1), (1, 2)])
        with pytest.raises(ValueError, match="at >= 0"):
            CrashFault(node=1, at=-1)

    def test_unsupported_algorithm_refused(self):
        class NoFold(VectorImprovedTradeoffElection):
            supports_faults = False

        net = FastSyncNetwork(8, seed=0, faults=crash_plan([(1, 2)]))
        with pytest.raises(ValueError, match="no FaultPlan fold"):
            net.run(NoFold())

    def test_crash_runs_are_single_lane(self):
        with pytest.raises(ValueError, match="single-lane"):
            FastSyncNetwork(8, seeds=[0, 1], faults=crash_plan([(1, 2)]))

    def test_scale_mode_crash_runs_are_deterministic(self):
        runs = [
            FastSyncNetwork(
                64, seed=3, mode="scale", faults=crash_plan([(63, 1), (5, 3)])
            ).run(VectorImprovedTradeoffElection(ell=5))
            for _ in range(2)
        ]
        assert runs[0].leader_ids == runs[1].leader_ids
        assert runs[0].messages == runs[1].messages
        assert runs[0].crashed == runs[1].crashed == [5, 63]
