"""Crash schedules on the remaining vectorized ports, cross-checked at small n.

``tests/test_fastsync_crash.py`` pins the ``improved_tradeoff`` port;
this file covers ``afek_gafni``, ``las_vegas`` and ``small_id``
(``kutten16`` lives with its twin suite in
``tests/test_fastsync_new_ports.py``).  Each exact-mode run under a
``FaultPlan`` crash schedule must replay the object engine bit for bit
(:func:`tests.helpers.assert_twin_run`) — including the
*stall* modes: the Afek–Gafni reconstruction's final iteration contacts
every peer, so an early crash starves every candidate on both engines,
and a saturated Las Vegas referee count (``m = n - 1``) does the same.
"""

import random

import pytest

pytest.importorskip("numpy")

from repro.sweep import RunSpec  # noqa: E402

from tests.helpers import assert_twin_run, crash_plan  # noqa: E402


def crash_spec(algorithm, n, seed, crashes, params=None, ids=None, max_rounds=None):
    return RunSpec(
        algorithm=algorithm,
        n=n,
        seeds=(seed,),
        params=params or {},
        ids=ids,
        faults=crash_plan(crashes),
        max_rounds=max_rounds,
    )


class TestLasVegasCrashes:
    # referee_coeff below saturation: a crash demotes candidates that
    # sampled the corpse instead of freezing the whole protocol.
    @pytest.mark.parametrize(
        "n,seed,coeff,crashes",
        [
            (16, 0, 0.5, [(15, 1)]),       # max-ID node dies at wake-up
            (16, 1, 0.5, [(3, 2)]),
            (40, 2, 1.0, [(0, 1), (5, 4)]),
            (40, 3, 1.0, [(39, 3), (2, 6)]),
            (24, 5, 0.6, [(23, 2), (22, 5), (21, 7)]),
        ],
    )
    def test_exact_mode_replays_the_object_engine(self, n, seed, coeff, crashes):
        fast, obj = assert_twin_run(
            crash_spec("las_vegas", n, seed, crashes, {"referee_coeff": coeff})
        )
        assert fast is not None and obj is not None

    def test_saturated_referee_count_stalls_both_engines(self):
        # At n=8 the default referee count caps at n-1, so every
        # candidate contacts the corpse and nobody ever wins a full set.
        fast, obj = assert_twin_run(
            crash_spec("las_vegas", 8, 0, [(7, 1)], max_rounds=60)
        )
        assert fast is None and obj is None  # both engines hit the limit


class TestAfekGafniCrashes:
    # ell=4 -> two iterations, announce at round 5, follower receipt at 6.
    @pytest.mark.parametrize(
        "n,seed,crashes",
        [
            (8, 0, [(3, 6)]),     # a follower dies before the announcement lands
            (8, 1, [(7, 6)]),     # the freshly announced leader dies
            (16, 2, [(5, 10)]),   # post-quiescence crash
            (8, 3, [(6, 5), (2, 9)]),
        ],
    )
    def test_late_crashes_replay_the_object_engine(self, n, seed, crashes):
        fast, obj = assert_twin_run(
            crash_spec("afek_gafni", n, seed, crashes, {"ell": 4})
        )
        assert fast is not None and obj is not None

    @pytest.mark.parametrize("crashes", [[(7, 1)], [(2, 2)], [(0, 4)]])
    def test_early_crashes_stall_both_engines(self, crashes):
        # The reconstruction's final iteration contacts every peer, so a
        # pre-announcement corpse denies every candidate a full response
        # set: nobody announces and the referees idle to the round limit.
        fast, obj = assert_twin_run(
            crash_spec("afek_gafni", 8, 0, crashes, {"ell": 4}, max_rounds=64)
        )
        assert fast is None and obj is None


class TestSmallIdCrashes:
    @pytest.mark.parametrize(
        "n,seed,d,g,crashes",
        [
            (8, 0, 2, 1, [(0, 1)]),                      # min-ID holder dies early
            (12, 1, 3, 2, [(5, 2), (0, 1)]),
            (16, 2, 4, 1, [(0, 1), (1, 1), (2, 1), (3, 1)]),  # first window wiped out
            (9, 3, 3, 1, [(0, 2)]),
        ],
    )
    def test_exact_mode_replays_the_object_engine(self, n, seed, d, g, crashes):
        rng = random.Random(seed)
        ids = rng.sample(range(1, n * g + 1), n)
        assert_twin_run(
            crash_spec("small_id", n, seed, crashes, {"d": d, "g": g}, ids=ids)
        )

    def test_dead_window_stays_silent(self):
        # IDs 1..8, d=2: window 1 = {1, 2}.  Killing both holders at
        # round 1 pushes the opening to window 2 — one extra silent
        # round, and the minimum *live* broadcaster leads.
        fast, _ = assert_twin_run(
            crash_spec("small_id", 8, 0, [(0, 1), (1, 1)], {"d": 2})
        )
        assert fast.elected_id == 3
        assert fast.rounds_executed == 3
