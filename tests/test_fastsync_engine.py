"""The vectorized engine: modes, determinism, primitives, guard rails."""

import importlib
import sys

import pytest

np = pytest.importorskip("numpy")

from repro.common import SimulationLimitExceeded  # noqa: E402
from repro.fastsync import (  # noqa: E402
    ArrayPortMap,
    FastSyncNetwork,
    VectorImprovedTradeoffElection,
    VectorLasVegasElection,
    get_fast_algorithm,
)


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
