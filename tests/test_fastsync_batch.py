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
import os
import threading
import tracemalloc
import warnings

import pytest
from hypothesis import given, settings, strategies as st

np = pytest.importorskip("numpy")

from repro.fastsync import (  # noqa: E402
    FastSyncNetwork,
    VectorAdversarial2RoundElection,
    VectorAfekGafniElection,
    VectorImprovedTradeoffElection,
    VectorKutten16Election,
    VectorLasVegasElection,
    VectorSmallIdElection,
)

from repro.fastsync import algorithms, engine  # noqa: E402
from repro.sweep import (  # noqa: E402
    RunSpec,
    canonical_record,
    execute_spec,
    run,
    sweep,
)
from repro.sweep.scheduler import SweepCell, run_cells  # noqa: E402

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


def _lane_width_cell(payload):
    return engine.lane_width(), {}


def _fields(lanes):
    return [[getattr(lane, field) for field in LANE_FIELDS] for lane in lanes]


class TestLaneThreads:
    """Lanes sampled and scattered on threads give the one-thread bits."""

    def _lanes(self, monkeypatch, width, n, seeds, mode, name):
        monkeypatch.setattr(engine, "LANE_WIDTH", width)
        return FastSyncNetwork(n, seeds=seeds, mode=mode).run(MAKERS[name]())

    @pytest.mark.parametrize("name", sorted(MAKERS))
    def test_scale_results_do_not_depend_on_lane_width(self, monkeypatch, name):
        seeds = list(range(3, 3 + 4 + sorted(MAKERS).index(name) % 5))  # 4-8 lanes
        want = self._lanes(monkeypatch, 1, 4096, seeds, "scale", name)
        for width in (2, 3):
            got = self._lanes(monkeypatch, width, 4096, seeds, "scale", name)
            assert _fields(got) == _fields(want), width

    @pytest.mark.parametrize("name", sorted(MAKERS))
    def test_exact_results_do_not_depend_on_lane_width(self, monkeypatch, name):
        want = self._lanes(monkeypatch, 1, 64, [0, 1, 2, 3, 4], "exact", name)
        for width in (2, 3):
            got = self._lanes(monkeypatch, width, 64, [0, 1, 2, 3, 4], "exact", name)
            assert _fields(got) == _fields(want), width

    def test_no_thread_outlives_a_run_so_pools_fork_cleanly(self, monkeypatch):
        # Python 3.12 warns (an error under pytest.ini) when a process
        # forks with threads alive, so lane pools must be gone by then.
        monkeypatch.setattr(engine, "LANE_WIDTH", 2)
        before = threading.active_count()
        FastSyncNetwork(4096, seeds=[0, 1, 2, 3], mode="scale").run(
            VectorImprovedTradeoffElection(ell=3)
        )
        assert threading.active_count() == before
        grid = [
            RunSpec(
                algorithm=algorithm, n=4096, engine="fast", mode="scale",
                seeds=(0, 1, 2, 3), batch=2, params=params,
            )
            for algorithm, params in (("improved_tradeoff", {"ell": 3}), ("las_vegas", {}))
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            pooled = sweep(grid, workers=2)
        assert [canonical_record(r) for r in pooled] == [
            canonical_record(r) for r in sweep(grid, workers=1)
        ]

    def test_pool_workers_share_the_cores(self):
        cells = [SweepCell(index=i, cost=1.0, payload=None) for i in range(2)]
        widths = run_cells(cells, _lane_width_cell, workers=2)
        assert widths == [max(1, len(os.sched_getaffinity(0)) // 2)] * 2


def _iteration_peak(monkeypatch, n, seeds):
    """Traced peak of an ell=3 improved_tradeoff run, one lane at a time."""
    monkeypatch.setattr(engine, "LANE_WIDTH", 1)
    net = FastSyncNetwork(n, seeds=seeds, mode="scale")
    tracemalloc.start()
    try:
        net.run(VectorImprovedTradeoffElection(ell=3))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


#: Peak memory beside the sampler's collided rows: the run's per-node
#: arrays, one sampler block with its masks, one redraw chunk and one
#: scatter block's repeated ranks.
_SLACK = 8 * 2**20


class TestNoEdgeMatrix:
    """A compete iteration never holds a (rows x m) edge matrix."""

    def _bound(self, n):
        # improved_tradeoff ell=3 has one streamed iteration, m = ceil(sqrt(n)).
        m = VectorImprovedTradeoffElection(ell=3).referee_count(n, 1)
        collided = engine._collided_capacity(n, m, n) * m * 4  # ~40% of rows here
        matrix = n * m * 4  # one lane's int32 edge matrix
        assert collided + _SLACK < 0.7 * matrix
        return collided + _SLACK

    def test_iteration_peak_is_the_collided_rows(self, monkeypatch):
        # Three lanes one after another: each lane's buffer is gone before
        # the next lane samples.
        n = 40_000
        peak = _iteration_peak(monkeypatch, n, [0, 1, 2])
        assert peak <= self._bound(n), peak / 2**20

    @pytest.mark.slow
    def test_one_lane_at_the_benchmark_scale(self, monkeypatch):
        n = 100_000
        peak = _iteration_peak(monkeypatch, n, [0])
        assert peak <= self._bound(n), peak / 2**20


CUT_MAKERS = {
    "improved_tradeoff-3": lambda: VectorImprovedTradeoffElection(ell=3),
    "improved_tradeoff-5": lambda: VectorImprovedTradeoffElection(ell=5),
    "afek_gafni": lambda: VectorAfekGafniElection(),
}

#: ``_CUT_HITS`` values: the shipped one, one no lane qualifies for,
#: and one whose cut is so high that referees go unreached and the
#: check fails.
CUT_HITS = algorithms._CUT_HITS
NO_CUT = 10**9
FORCED_REPLAY = 1

_STREAM_PORTS = FastSyncNetwork.stream_ports


def _spy_checks(monkeypatch):
    """Record the verdict of every lane check ``stream_ports`` runs."""
    verdicts = []

    def spy(self, src, m, consume, *, sampled=False, check=None):
        def counted(b):
            ok = check(b)
            verdicts.append(ok)
            return ok

        return _STREAM_PORTS(
            self, src, m, consume, sampled=sampled,
            check=None if check is None else counted,
        )

    monkeypatch.setattr(FastSyncNetwork, "stream_ports", spy)
    return verdicts


def _cut_run(monkeypatch, hits, n, mode, seeds, maker):
    """Records, final lane generator states and every lane check's verdict."""
    monkeypatch.setattr(algorithms, "_CUT_HITS", hits)
    verdicts = _spy_checks(monkeypatch)
    net = FastSyncNetwork(n, seeds=seeds, mode=mode)
    lanes = net.run(maker())
    states = [g.bit_generator.state for g in net._lane_rngs or ()]
    return [[getattr(r, f) for f in LANE_FIELDS] for r in lanes], states, verdicts


class TestRankCut:
    """The referee rank cut and its replay leave every output bit-identical."""

    @pytest.mark.parametrize("seeds", [[5], [0, 1, 2]], ids=["1lane", "3lanes"])
    @pytest.mark.parametrize("mode", ["scale", "exact"])
    @pytest.mark.parametrize("n", [512, 4096])
    @pytest.mark.parametrize("name", sorted(CUT_MAKERS))
    def test_cut_and_replay_change_nothing(self, monkeypatch, name, n, mode, seeds):
        maker = CUT_MAKERS[name]
        cut = _cut_run(monkeypatch, CUT_HITS, n, mode, seeds, maker)
        uncut = _cut_run(monkeypatch, NO_CUT, n, mode, seeds, maker)
        replayed = _cut_run(monkeypatch, FORCED_REPLAY, n, mode, seeds, maker)
        # Records and final lane generator states: a replayed scale lane
        # ends where one uncut pass ends, not two.
        assert cut[:2] == uncut[:2]
        assert replayed[:2] == uncut[:2]
        assert False in replayed[2]  # some lane failed its check and streamed again
        assert all(uncut[2])
        if n == 4096 and name != "improved_tradeoff-5":
            # The first iteration's m = 64 puts every lane under the cut,
            # and no referee escapes it.
            assert all(cut[2]) and len(cut[2]) == len(seeds)

    def test_a_referee_below_the_cut_forces_the_replay(self, monkeypatch):
        # n = 6, ranks = node indices, every node competes over 3 ports
        # with an Afek-Gafni self floor.  _CUT_HITS = 1 keeps the top
        # ceil(6 / 3) = 2 senders, so the cut is rank 4.  Senders 4 and 5
        # reach referees 0, 1, 3 and 5, and referee 2 is reached only by
        # 0, 1 and 3: the cut leaves it at its floor 2 where the uncut
        # max is 3, so the lane must fail its check and replay.
        monkeypatch.setattr(algorithms, "_CUT_HITS", 1)
        first = [[1, 2, 3], [0, 2, 3], [0, 1, 3], [2, 0, 1], [0, 1, 5], [0, 1, 3]]
        wiring = np.array(
            [row + [v for v in range(6) if v != u and v not in row] for u, row in enumerate(first)],
            dtype=np.uint8,
        )
        net = FastSyncNetwork(6, mode="exact")
        net._lane_ports = wiring[None]
        verdicts = _spy_checks(monkeypatch)
        best = algorithms._referee_best(net, np.arange(6), 3, net.ids_rank_flat.copy())
        assert verdicts == [False]
        assert best.tolist() == [5, 5, 3, 5, 4, 5]  # 4 is nobody's target: its floor

    @pytest.mark.slow
    @pytest.mark.parametrize("name", ["improved_tradeoff-3", "afek_gafni"])
    def test_no_replay_on_the_benchmark_blocks(self, monkeypatch, name):
        # perfbench's scale_lanes inputs: 16 blocks of 4 seeds at n = 10^5.
        # Every lane passes its check; the blocks CI pins (0 and 7) are
        # also compared with uncut runs.
        maker = CUT_MAKERS[name]
        for seed in range(64):
            cut = _cut_run(monkeypatch, CUT_HITS, 100_000, "scale", [seed], maker)
            assert cut[2] == [True], seed
            if seed // 4 in (0, 7):
                uncut = _cut_run(monkeypatch, NO_CUT, 100_000, "scale", [seed], maker)
                assert cut[:2] == uncut[:2], seed
