"""The batch axis: one engine run executing many independent seeds.

The contract under test (see DESIGN.md "Batched fast engine"): lane
``b`` of ``FastSyncNetwork(n, seeds=[...])`` is **bit-exact** to a
single run with seed ``seeds[b]`` — same winners, same message totals,
per-kind and per-round counts, round counters, survivor accounting —
for every ported algorithm.  Lanes are deterministic per ``(n, seed,
mode)`` and independent of the batch composition in both port-model
modes.  Crash schedules are ``FaultPlan``s, and faulted runs are
single-lane, so a batched faulted spec runs one engine run per seed.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

pytest.importorskip("numpy")

from repro.fastsync import (  # noqa: E402
    FastSyncNetwork,
    VectorAdversarial2RoundElection,
    VectorAfekGafniElection,
    VectorImprovedTradeoffElection,
    VectorKutten16Election,
    VectorLasVegasElection,
    VectorSmallIdElection,
)

from repro.sweep import (  # noqa: E402
    RunSpec,
    canonical_record,
    execute_spec,
    run,
    sweep,
)

from tests.helpers import crash_plan, make_ids  # noqa: E402

LANE_FIELDS = (
    "n",
    "mode",
    "ids",
    "seed",
    "rounds_executed",
    "messages",
    "last_send_round",
    "leaders",
    "leader_ids",
    "decided_count",
    "awake_count",
    "halted_count",
    "messages_by_kind",
    "sends_by_round",
    "crashed",
)

MAKERS = {
    "improved_tradeoff": lambda: VectorImprovedTradeoffElection(ell=5),
    "afek_gafni": lambda: VectorAfekGafniElection(ell=4),
    "las_vegas": lambda: VectorLasVegasElection(referee_coeff=0.5),
    "small_id": lambda: VectorSmallIdElection(d=4, g=8),
    "kutten16": lambda: VectorKutten16Election(),
    "adversarial_2round": lambda: VectorAdversarial2RoundElection(),
}

#: Crash schedules (with the ``MAKERS`` parameters) that keep each
#: algorithm live: afek_gafni stalls on any crash before its
#: full-fan-out referee round, so it gets a late one.
CRASHES = {
    "improved_tradeoff": ({"ell": 5}, [(15, 1), (3, 2)]),
    "afek_gafni": ({"ell": 4}, [(3, 6)]),
    "las_vegas": ({"referee_coeff": 0.5}, [(15, 1), (3, 2)]),
    "small_id": ({"d": 4, "g": 8}, [(0, 1), (5, 2)]),
    "kutten16": ({}, [(15, 1), (3, 2)]),
}


def assert_lanes_match_singles(n, seeds, maker, *, ids=None, roots=None):
    """Batched lanes must replay the sequential single runs bit for bit."""
    singles = [
        FastSyncNetwork(n, ids=ids, seed=seed, mode="exact", roots=roots).run(maker())
        for seed in seeds
    ]
    lanes = FastSyncNetwork(
        n, ids=ids, seeds=seeds, mode="exact", roots=roots
    ).run(maker())
    assert len(lanes) == len(seeds)
    for single, lane in zip(singles, lanes):
        for field in LANE_FIELDS:
            assert getattr(single, field) == getattr(lane, field), field
    return lanes


class TestBatchedEqualsSequential:
    @pytest.mark.parametrize("name", sorted(MAKERS))
    def test_exact_lanes_replay_single_runs(self, name):
        ids = make_ids(16, seed=2) if name != "small_id" else None
        roots = [0, 5] if name == "adversarial_2round" else None
        assert_lanes_match_singles(
            16, [0, 1, 2, 3], MAKERS[name], ids=ids, roots=roots
        )

    @pytest.mark.parametrize("name", sorted(CRASHES))
    def test_exact_lanes_replay_single_runs_under_shared_crashes(self, name):
        # A batched crash spec runs one single-lane engine run per seed,
        # so every record equals that seed's own run.
        params, crashes = CRASHES[name]
        spec = RunSpec(
            algorithm=name, n=16, engine="fast", mode="exact", params=params,
            seeds=(0, 1, 2, 3), batch=4, faults=crash_plan(crashes),
        )
        singles = [
            run(dataclasses.replace(spec, seeds=(seed,), batch=None))
            for seed in spec.seeds
        ]
        batched = execute_spec(spec)
        assert [canonical_record(r) for r in batched] == [
            canonical_record(r) for r in singles
        ]

    def test_lanes_may_finish_in_different_rounds(self):
        # Las Vegas lanes terminate phase by phase; a decided lane's
        # round counter freezes while stragglers keep restarting.  A low
        # flat candidacy probability makes phase-1 failures likely, so
        # lanes genuinely diverge (seeds 0..7 at n=24 split 4 vs 7).
        lanes = FastSyncNetwork(24, seeds=list(range(8)), mode="exact").run(
            VectorLasVegasElection(candidate_prob_fn=lambda n, p: 0.05)
        )
        rounds = {lane.rounds_executed for lane in lanes}
        assert len(rounds) > 1, "want lanes finishing in different phases"
        for lane in lanes:
            assert lane.unique_leader

    def test_kutten16_zero_candidate_lane_ends_after_round_two(self):
        # Forcing tiny candidacy odds makes empty-candidate lanes likely;
        # those end at round 2 with zero messages like the object twin.
        lanes = FastSyncNetwork(16, seeds=list(range(20)), mode="exact").run(
            VectorKutten16Election(candidate_coeff=0.05)
        )
        empty = [lane for lane in lanes if lane.messages == 0]
        assert empty, "want at least one candidate-free lane"
        for lane in empty:
            assert lane.rounds_executed == 2
            assert lane.leaders == []
            assert lane.decided_count == 16


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_batch_property_exact_bit_equality(data):
    """Hypothesis: any (algorithm, n, seeds) batched run is bit-exact to
    the sequential single runs in exact mode."""
    name = data.draw(st.sampled_from(sorted(MAKERS)), label="algorithm")
    n = data.draw(st.integers(min_value=2, max_value=48), label="n")
    k = data.draw(st.integers(min_value=1, max_value=5), label="lanes")
    seeds = data.draw(
        st.lists(st.integers(0, 2**31 - 1), min_size=k, max_size=k), label="seeds"
    )
    ids = make_ids(n, seed=data.draw(st.integers(0, 7), label="id_seed"))
    maker = MAKERS[name]
    if name == "small_id":
        ids = None  # small_id needs the [1, n*g] universe; default 1..n works
        maker = lambda: VectorSmallIdElection(d=min(4, n), g=8)  # noqa: E731
    roots = None
    if name == "adversarial_2round":
        root_count = data.draw(st.integers(1, n), label="roots")
        roots = sorted(
            data.draw(
                st.sets(st.integers(0, n - 1), min_size=root_count, max_size=root_count)
            )
        )
    assert_lanes_match_singles(n, seeds, maker, ids=ids, roots=roots)


class TestScaleModeLanes:
    def test_lane_results_do_not_depend_on_batch_composition(self):
        # A single run is a batch of one lane, so every port's seed-7
        # result is the same run alone, as a one-lane batch, or packed
        # between other seeds.
        for name, maker in sorted(MAKERS.items()):
            single = FastSyncNetwork(4096, seed=7, mode="scale").run(maker())
            solo = FastSyncNetwork(4096, seeds=[7], mode="scale").run(maker())[0]
            packed = FastSyncNetwork(4096, seeds=[5, 7, 9], mode="scale").run(
                maker()
            )[1]
            for field in LANE_FIELDS:
                assert getattr(single, field) == getattr(packed, field), (name, field)
                assert getattr(solo, field) == getattr(packed, field), (name, field)

    def test_scale_lanes_are_deterministic(self):
        runs = [
            FastSyncNetwork(4096, seeds=[0, 1], mode="scale").run(
                VectorLasVegasElection()
            )
            for _ in range(2)
        ]
        for a, b in zip(*runs):
            assert a.messages == b.messages
            assert a.leaders == b.leaders
            assert a.sends_by_round == b.sends_by_round

    def test_scale_lanes_elect_the_max_id(self):
        lanes = FastSyncNetwork(4096, seeds=list(range(6)), mode="scale").run(
            VectorImprovedTradeoffElection(ell=5)
        )
        assert all(lane.unique_leader and lane.elected_id == 4096 for lane in lanes)


class TestEngineValidation:
    def test_batch_must_be_positive(self):
        with pytest.raises(ValueError, match="batch >= 1"):
            FastSyncNetwork(8, batch=0)

    def test_empty_seed_list_rejected(self):
        with pytest.raises(ValueError, match="lane seed"):
            FastSyncNetwork(8, seeds=[])

    def test_batch_and_seeds_must_agree(self):
        with pytest.raises(ValueError, match="disagrees"):
            FastSyncNetwork(8, seeds=[0, 1], batch=3)

    def test_batch_expands_to_consecutive_seeds(self):
        net = FastSyncNetwork(8, seed=5, batch=3)
        assert net.lane_seeds == (5, 6, 7)

    def test_roots_require_wakeup_aware_port(self):
        with pytest.raises(ValueError, match="wake-up"):
            FastSyncNetwork(8, seeds=[0, 1], roots=[0]).run(
                VectorImprovedTradeoffElection()
            )

    def test_undecided_lane_is_an_error(self):
        class Lazy(VectorImprovedTradeoffElection):
            def run(self, net):
                super().run(net)
                net._lane_leaders[1] = None  # simulate a port bug

        with pytest.raises(RuntimeError, match="lane 1"):
            FastSyncNetwork(8, seeds=[0, 1]).run(Lazy())


class TestRunnerIntegration:
    def test_batched_spec_matches_single_seed_runs(self):
        seeds = [3, 4, 5]
        spec = RunSpec(
            algorithm="improved_tradeoff", n=32, engine="fast", params={"ell": 3}
        )
        singles = [run(dataclasses.replace(spec, seeds=(s,))) for s in seeds]
        batched = execute_spec(
            dataclasses.replace(spec, seeds=tuple(seeds), batch=len(seeds))
        )
        for single, lane in zip(singles, batched):
            assert lane.extra["batch"] == 3
            assert (single.seed, single.messages, single.elected_id, single.time) == (
                lane.seed, lane.messages, lane.elected_id, lane.time
            )

    def test_batched_sweep_equals_unbatched_in_exact_mode(self):
        def grid(batch):
            return [
                RunSpec(
                    algorithm="afek_gafni", n=n, engine="fast", seeds=(0, 1, 2),
                    params={"ell": 4}, batch=batch,
                )
                for n in (16, 32)
            ]

        plain = sweep(grid(None))
        batched = sweep(grid(2))
        assert [(r.n, r.seed, r.messages, r.elected_id) for r in plain] == [
            (r.n, r.seed, r.messages, r.elected_id) for r in batched
        ]

    def test_batched_spec_with_roots(self):
        records = execute_spec(
            RunSpec(
                algorithm="adversarial_2round", n=64, engine="fast", seeds=(0, 1),
                batch=2, roots=[0, 1, 2],
            )
        )
        assert len(records) == 2
        for record in records:
            assert record.extra["engine"] == "fast"
