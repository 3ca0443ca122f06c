"""Twin equivalence for the ``kutten16`` and ``adversarial_2round`` ports.

Same contract as ``tests/test_fastsync_equivalence.py`` (and the same
:func:`tests.helpers.assert_twin_run` oracle): in exact mode a fastsync
run and an object-model run from the same seed over the same
materialized port map must agree on winners and every complexity
counter.  ``adversarial_2round`` additionally sweeps adversarial wake-up
schedules (the engine's ``roots``), and ``kutten16`` sweeps ``FaultPlan``
crash schedules.
"""

import pytest

pytest.importorskip("numpy")

from repro.fastsync import (  # noqa: E402
    FastSyncNetwork,
    VectorAdversarial2RoundElection,
    VectorKutten16Election,
)
from repro.sweep import RunSpec  # noqa: E402

from tests.helpers import assert_twin_run, crash_plan, make_ids  # noqa: E402


class TestKutten16Twins:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 16, 33, 64])
    def test_twins_agree_small(self, n):
        for seed in (0, 1, 2):
            assert_twin_run(RunSpec(algorithm="kutten16", n=n, seeds=(seed,)))

    def test_twins_agree_at_256_with_scrambled_ids(self):
        assert_twin_run(
            RunSpec(
                algorithm="kutten16", n=256, seeds=(7,), ids=make_ids(256, seed=3)
            )
        )

    def test_tuned_coefficients_match(self):
        assert_twin_run(
            RunSpec(
                algorithm="kutten16",
                n=64,
                seeds=(5,),
                params={"candidate_coeff": 4.0, "referee_coeff": 1.0},
            )
        )

    @pytest.mark.parametrize(
        "n,seed,crashes",
        [
            (8, 0, [(7, 1)]),
            (16, 1, [(3, 2)]),
            (16, 2, [(0, 1), (5, 2), (9, 3)]),
            (24, 3, [(23, 3)]),  # a crash after quiescence
            (5, 4, [(4, 2), (1, 1)]),
        ],
    )
    def test_crash_masks_replay_the_object_engine(self, n, seed, crashes):
        fast, obj = assert_twin_run(
            RunSpec(
                algorithm="kutten16", n=n, seeds=(seed,), faults=crash_plan(crashes)
            )
        )
        assert fast is not None and obj is not None

    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            VectorKutten16Election(candidate_coeff=0.0)
        with pytest.raises(ValueError, match="positive"):
            VectorKutten16Election(referee_coeff=-1.0)


ROOT_SCHEDULES = [
    lambda n: [0],
    lambda n: [n - 1],
    lambda n: list(range(min(3, n))),
    lambda n: list(range(n)),          # the adversary wakes everyone
    lambda n: list(range(0, n, 2)),
]


class TestAdversarial2RoundTwins:
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 16, 33])
    @pytest.mark.parametrize("schedule", range(len(ROOT_SCHEDULES)))
    def test_twins_agree_across_wakeup_schedules(self, n, schedule):
        roots = tuple(ROOT_SCHEDULES[schedule](n))
        for seed in (0, 1, 2):
            assert_twin_run(
                RunSpec(
                    algorithm="adversarial_2round", n=n, seeds=(seed,), roots=roots
                )
            )

    def test_epsilon_parameter_matches(self):
        for eps in (0.3, 0.01):
            assert_twin_run(
                RunSpec(
                    algorithm="adversarial_2round",
                    n=64,
                    seeds=(9,),
                    roots=(0, 1),
                    params={"epsilon": eps},
                )
            )

    def test_scrambled_ids_match(self):
        assert_twin_run(
            RunSpec(
                algorithm="adversarial_2round",
                n=48,
                seeds=(3,),
                roots=(5,),
                ids=make_ids(48, seed=1),
            )
        )

    def test_default_roots_is_everyone(self):
        # No roots= means the adversary woke the whole clique, which is a
        # legal schedule for Theorem 4.1.
        fast = FastSyncNetwork(32, seed=2, mode="exact").run(
            VectorAdversarial2RoundElection()
        )
        assert fast.awake_count == 32

    def test_sleepers_stay_asleep_without_candidates(self):
        # epsilon near 1 makes candidacy essentially impossible, so only
        # roots and wake-up receivers ever wake — the ε failure mode.
        fast = FastSyncNetwork(64, seed=0, mode="exact", roots=[0]).run(
            VectorAdversarial2RoundElection(epsilon=0.999999)
        )
        assert fast.leaders == []
        assert fast.awake_count < 64
        assert fast.decided_count == fast.awake_count

    def test_validation(self):
        with pytest.raises(ValueError, match="epsilon"):
            VectorAdversarial2RoundElection(epsilon=1.5)
        with pytest.raises(ValueError, match="root"):
            FastSyncNetwork(8, roots=[])
        with pytest.raises(ValueError, match="range|\\[0, n\\)"):
            FastSyncNetwork(8, roots=[9])
