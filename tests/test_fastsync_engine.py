"""The vectorized engine: modes, determinism, primitives, guard rails."""

import importlib
import random
import sys

import pytest

np = pytest.importorskip("numpy")

from repro.common import SimulationLimitExceeded  # noqa: E402
from repro.fastsync import (  # noqa: E402
    ArrayPortMap,
    FastSyncNetwork,
    VectorAfekGafniElection,
    VectorImprovedTradeoffElection,
    VectorLasVegasElection,
    VectorSmallIdElection,
    get_fast_algorithm,
)
from repro.fastsync.engine import _random_port_matrix  # noqa: E402


def _argsort_reference(keys):
    """The port matrix as a stable argsort of float keys, self sorting last."""
    n = keys.shape[0]
    keys = keys.copy()
    np.fill_diagonal(keys, np.inf)
    return np.argsort(keys, axis=1, kind="stable")[:, : n - 1]


class _PlantedTie:
    """A PCG64 generator whose next ``(n, n)`` raw block carries a planted tie.

    ``raw[row, col]`` is overwritten with ``raw[row, like] ^ flip``; the
    stream state itself is left alone, so regenerating a row from it
    yields the original draws.  ``raw`` keeps the planted block.
    """

    def __init__(self, seed, row, col, like, flip):
        self.bit_generator = self
        self._real = np.random.PCG64(seed)
        self._plant = (row, col, like, np.uint64(flip))
        self.raw = None

    @property
    def state(self):
        return self._real.state

    def random_raw(self, size):
        raw = self._real.random_raw(size)
        row, col, like, flip = self._plant
        raw[row, col] = raw[row, like] ^ flip
        self.raw = raw.copy()
        return raw


class TestConstruction:
    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            FastSyncNetwork(0)

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            FastSyncNetwork(8, mode="warp")

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValueError):
            FastSyncNetwork(3, ids=[1, 2, 2])

    def test_rejects_wrong_id_count(self):
        with pytest.raises(ValueError):
            FastSyncNetwork(3, ids=[1, 2])

    def test_auto_mode_switches_at_exact_limit(self):
        assert FastSyncNetwork(64, exact_limit=64).mode == "exact"
        assert FastSyncNetwork(65, exact_limit=64).mode == "scale"

    def test_default_ids_are_one_based(self):
        net = FastSyncNetwork(5)
        assert list(net.ids) == [1, 2, 3, 4, 5]


class TestPortModel:
    def test_port_matrix_rows_are_peer_permutations(self):
        pm = FastSyncNetwork(17, mode="exact", seed=3).port_map()
        for u in range(17):
            peers = [pm.resolve(u, i)[0] for i in range(16)]
            assert sorted(peers) == [v for v in range(17) if v != u]

    def test_port_map_adapter_is_involutive(self):
        net = FastSyncNetwork(9, mode="exact", seed=1)
        pm = net.port_map()
        for u in range(9):
            for i in range(8):
                v, j = pm.resolve(u, i)
                assert pm.resolve(v, j) == (u, i)

    def test_port_map_unavailable_in_scale_mode(self):
        with pytest.raises(RuntimeError, match="exact"):
            FastSyncNetwork(8, mode="scale").port_map()

    def test_array_port_map_validates_shape(self):
        with pytest.raises(ValueError):
            ArrayPortMap(np.zeros((4, 2), dtype=np.int64))

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 128, 1024, 2048, 2049])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_packed_sort_matches_stable_float_argsort(self, n, seed):
        got = _random_port_matrix(np.random.default_rng(np.random.PCG64(seed)), n)
        keys = np.random.default_rng(np.random.PCG64(seed)).random((n, n))
        np.testing.assert_array_equal(got, _argsort_reference(keys))

    def test_equal_keys_order_by_column(self):
        # Two identical raw draws in row 7: a stable sort keeps column 3
        # ahead of column 100, and so must the packed sort.
        planted = _PlantedTie(seed=5, row=7, col=100, like=3, flip=0)
        got = _random_port_matrix(planted, 128)
        keys = (planted.raw >> np.uint64(11)) * 2.0**-53
        np.testing.assert_array_equal(got, _argsort_reference(keys))

    def test_truncated_key_tie_is_repaired_above_2048(self):
        # At n = 2049 the packed key drops the lowest key bit.  Two draws
        # differing only there tie after packing; the row must come back
        # ordered by the full keys, which are regenerated from the stream.
        n = 2049
        planted = _PlantedTie(seed=5, row=7, col=900, like=3, flip=1 << 11)
        got = _random_port_matrix(planted, n)
        keys = np.random.default_rng(np.random.PCG64(5)).random((n, n))
        np.testing.assert_array_equal(got, _argsort_reference(keys))


class TestSamplingPrimitives:
    @pytest.mark.parametrize("mode", ["exact", "scale"])
    @pytest.mark.parametrize("m", [1, 3, 30, 31])
    def test_distinct_targets_exclude_self(self, mode, m):
        net = FastSyncNetwork(32, mode=mode, seed=7)
        src = np.arange(32)
        dst = net.sampled_targets(src, m)
        assert dst.shape == (32, m)
        for row, u in enumerate(src):
            targets = dst[row].tolist()
            assert u not in targets
            assert len(set(targets)) == m
            assert all(0 <= v < 32 for v in targets)

    def test_scale_argpartition_path(self):
        # m = 40 exceeds half of the 63 peers, so the scale sampler draws
        # the 23 excluded peers and keeps the rest (its complement branch).
        net = FastSyncNetwork(64, mode="scale", seed=5)
        dst = net.sampled_targets(np.arange(64), 40)
        for row in range(64):
            targets = dst[row].tolist()
            assert row not in targets
            assert len(set(targets)) == 40

    def test_first_ports_are_stable_in_exact_mode(self):
        net = FastSyncNetwork(16, mode="exact", seed=2)
        src = np.arange(16)
        first = net.first_ports(src, 3)
        again = net.first_ports(src, 5)
        assert (again[:, :3] == first).all()

    def test_too_many_ports_rejected(self):
        net = FastSyncNetwork(8, mode="scale")
        with pytest.raises(ValueError):
            net.first_ports(np.arange(8), 8)

    def test_bernoulli_extremes(self):
        net = FastSyncNetwork(16, mode="scale", seed=0)
        assert not net.bernoulli(0.0).any()
        assert net.bernoulli(1.0).all()


def _eager_streams(seed, n):
    """Every node's stream, built up front with SyncNetwork's schedule."""
    master = random.Random(seed)
    return [random.Random(master.getrandbits(64)) for _ in range(n)]


class TestLazyNodeStreams:
    @pytest.mark.parametrize(
        "algorithm",
        [
            VectorImprovedTradeoffElection(ell=3),
            VectorAfekGafniElection(ell=4),
            VectorSmallIdElection(d=4),
        ],
        ids=["improved_tradeoff", "afek_gafni", "small_id"],
    )
    def test_deterministic_ports_build_no_stream(self, algorithm):
        net = FastSyncNetwork(64, mode="exact", seeds=[3, 4])
        net.run(algorithm)
        assert [lane.built for lane in net._node_streams] == [0, 0]

    @pytest.mark.parametrize("seeds", [[11], [11, 12, 40]])
    def test_draws_match_eager_streams(self, seeds):
        n = 24
        net = FastSyncNetwork(n, mode="exact", seeds=seeds)
        eager = [_eager_streams(s, n) for s in seeds]
        lanes = len(seeds)
        rows = n * lanes
        full = net.first_ports(np.arange(rows), n - 1)

        # Touch a few nodes first, so later calls mix built and unbuilt
        # streams, then every node, then a subset of lanes.
        some = np.arange(0, rows, 5)
        expected = [eager[g // n][g % n].randrange(1, 10**9 + 1) for g in some]
        assert net.rank_draws(some, 10**9).tolist() == expected

        src = np.arange(1, rows, 3)
        got = net.sampled_targets(src, 4)
        for row, g in enumerate(src.tolist()):
            ports = eager[g // n][g % n].sample(range(n - 1), 4)
            assert got[row].tolist() == full[g, ports].tolist()

        coins = net.bernoulli(0.4)
        for b in range(lanes):
            assert coins[b].tolist() == [rng.random() < 0.4 for rng in eager[b]]

        chosen = np.arange(lanes)[::2]
        coins = net.bernoulli(0.7, lanes=chosen)
        for b in range(lanes):
            want = [rng.random() < 0.7 for rng in eager[b]] if b in chosen else [False] * n
            assert coins[b].tolist() == want

        everyone = np.arange(rows)
        expected = [eager[g // n][g % n].randrange(1, 50 + 1) for g in everyone]
        assert net.rank_draws(everyone, 50).tolist() == expected


class TestExecution:
    @pytest.mark.parametrize("mode", ["exact", "scale"])
    def test_deterministic_per_seed_and_mode(self, mode):
        runs = [
            FastSyncNetwork(96, mode=mode, seed=11).run(VectorLasVegasElection())
            for _ in range(2)
        ]
        assert runs[0].messages == runs[1].messages
        assert runs[0].leaders == runs[1].leaders
        assert runs[0].rounds_executed == runs[1].rounds_executed

    def test_network_is_single_use(self):
        net = FastSyncNetwork(8)
        net.run(VectorImprovedTradeoffElection(ell=3))
        with pytest.raises(RuntimeError, match="single-use"):
            net.run(VectorImprovedTradeoffElection(ell=3))

    def test_result_shape(self):
        result = FastSyncNetwork(64, seed=4).run(VectorImprovedTradeoffElection(ell=5))
        assert result.unique_leader
        assert result.elected_id == 64
        assert result.decided_count == 64
        assert result.awake_count == result.halted_count == 64
        assert result.crashed == [] and result.fault_metrics is None
        assert result.wall_time_s >= 0
        assert sum(result.messages_by_kind.values()) == result.messages
        assert sum(result.sends_by_round.values()) == result.messages

    def test_simulation_limit_raises(self):
        # A Las Vegas run whose candidacy coin never lands cannot elect.
        net = FastSyncNetwork(16, max_rounds=30)
        alg = VectorLasVegasElection(candidate_prob_fn=lambda n, phase: 0.0)
        with pytest.raises(SimulationLimitExceeded):
            net.run(alg)

    def test_forgotten_decide_is_an_error(self):
        class Lazy:
            def run(self, net):
                net.tick()

        with pytest.raises(RuntimeError, match="decide"):
            FastSyncNetwork(4).run(Lazy())


class TestRegistry:
    def test_unknown_name_suggests_known(self):
        with pytest.raises(KeyError, match="las_vegas"):
            get_fast_algorithm("monarchical")

    def test_core_registry_announces_fast_twins(self):
        from repro.core import ALGORITHMS

        for name in (
            "improved_tradeoff",
            "afek_gafni",
            "las_vegas",
            "small_id",
            "kutten16",
            "adversarial_2round",
        ):
            assert ALGORITHMS[name].has_fast, name
        assert not ALGORITHMS["monarchical"].has_fast

    def test_make_fast_builds_parameterized_port(self):
        from repro.core import ALGORITHMS

        alg = ALGORITHMS["improved_tradeoff"].make_fast(ell=7)()
        assert alg.ell == 7


class TestNumpyGuard:
    def test_missing_numpy_raises_guidance(self, monkeypatch):
        saved = {
            name: sys.modules.pop(name)
            for name in list(sys.modules)
            if name == "repro.fastsync" or name.startswith("repro.fastsync.")
        }
        try:
            monkeypatch.setitem(sys.modules, "numpy", None)
            with pytest.raises(ImportError, match=r"\.\[fast\]"):
                importlib.import_module("repro.fastsync")
        finally:
            sys.modules.pop("repro.fastsync", None)
            sys.modules.update(saved)
