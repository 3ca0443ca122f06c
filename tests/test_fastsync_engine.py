"""The vectorized engine: modes, determinism, primitives, guard rails."""

import importlib
import math
import os
import random
import shutil
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

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
from repro.fastsync import algorithms, engine  # noqa: E402
from repro.fastsync.engine import _random_port_matrix, _sample_distinct  # noqa: E402

from tests.helpers import make_ids  # noqa: E402


def _argsort_reference(keys):
    """The port matrix as a stable argsort of float keys, self sorting last."""
    n = keys.shape[0]
    keys = keys.copy()
    np.fill_diagonal(keys, np.inf)
    return np.argsort(keys, axis=1, kind="stable")[:, : n - 1]


class _PlantedTie:
    """A PCG64 generator whose raw draws carry a planted tie in row ``row``.

    The port-matrix build draws ``(rows, n)`` row chunks; in the chunk
    that holds absolute row ``row``, ``raw[row, col]`` is overwritten
    with ``raw[row, like] ^ flip``.  The stream state itself is left
    alone, so regenerating a row from it yields the original draws.
    ``raw`` keeps the planted block: every row drawn so far.
    """

    def __init__(self, seed, row, col, like, flip):
        self.bit_generator = self
        self._real = np.random.PCG64(seed)
        self._plant = (row, col, like, np.uint64(flip))
        self._rows_drawn = 0
        self.raw = None

    @property
    def state(self):
        return self._real.state

    def random_raw(self, size):
        raw = self._real.random_raw(size)
        row, col, like, flip = self._plant
        lo = self._rows_drawn
        self._rows_drawn += size[0]
        if lo <= row < self._rows_drawn:
            raw[row - lo, col] = raw[row - lo, like] ^ flip
        self.raw = raw.copy() if self.raw is None else np.concatenate((self.raw, raw))
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

    @pytest.mark.parametrize("chunk", [1, 7, 100])
    @pytest.mark.parametrize("n", [2, 17, 40])
    def test_row_chunking_does_not_move_the_matrix(self, monkeypatch, chunk, n):
        # Chunks of one row, of a few rows and of rows plus a remainder
        # continue one stream: the matrix is the whole-block argsort.
        monkeypatch.setattr(engine, "_PORT_CHUNK_ELEMS", chunk * n)
        got = _random_port_matrix(np.random.default_rng(np.random.PCG64(4)), n)
        keys = np.random.default_rng(np.random.PCG64(4)).random((n, n))
        np.testing.assert_array_equal(got, _argsort_reference(keys))

    @pytest.mark.parametrize("n", [2, 256, 257, 2048])
    def test_matrix_is_stored_narrow(self, n):
        got = _random_port_matrix(np.random.default_rng(np.random.PCG64(0)), n)
        assert got.dtype == np.min_scalar_type(n - 1)
        assert got.dtype.itemsize == (1 if n <= 256 else 2)

    @pytest.mark.parametrize("chunk", [None, 8 * 128])
    def test_equal_keys_order_by_column(self, monkeypatch, chunk):
        # Two identical raw draws in row 7: a stable sort keeps column 3
        # ahead of column 100, and so must the packed sort.  With chunks
        # of 8 rows, the tie sits in the first chunk only.
        if chunk is not None:
            monkeypatch.setattr(engine, "_PORT_CHUNK_ELEMS", chunk)
        planted = _PlantedTie(seed=5, row=7, col=100, like=3, flip=0)
        got = _random_port_matrix(planted, 128)
        assert planted.raw.shape == (128, 128)
        keys = (planted.raw >> np.uint64(11)) * 2.0**-53
        np.testing.assert_array_equal(got, _argsort_reference(keys))

    @pytest.mark.parametrize("row", [7, 1000])
    def test_truncated_key_tie_is_repaired_above_2048(self, row):
        # At n = 2049 the packed key drops the lowest key bit.  Two draws
        # differing only there tie after packing; the row must come back
        # ordered by the full keys, which are regenerated from the stream.
        # Row 1000 lies in a later chunk than row 7, so the repair must
        # regenerate it from its absolute row offset.
        n = 2049
        planted = _PlantedTie(seed=5, row=row, col=900, like=3, flip=1 << 11)
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

    @pytest.mark.parametrize("mode", ["exact", "scale"])
    @pytest.mark.parametrize("primitive", ["first_ports", "sampled_targets"])
    def test_negative_port_count_rejected(self, mode, primitive):
        # Exact-mode first_ports once sliced [:, :-1] and returned n-2 columns.
        net = FastSyncNetwork(8, mode=mode)
        with pytest.raises(ValueError, match="m >= 0"):
            getattr(net, primitive)(np.arange(8), -1)

    def test_unsorted_scale_rows_rejected(self):
        # Rows are sliced per lane by searchsorted: unsorted, row 17 (lane
        # 1) would silently get lane-0 targets.
        net = FastSyncNetwork(16, batch=2, mode="scale")
        with pytest.raises(ValueError, match="sorted"):
            net.first_ports(np.array([17, 0]), 3)

    def test_bernoulli_extremes(self):
        net = FastSyncNetwork(16, mode="scale", seed=0)
        assert not net.bernoulli(0.0).any()
        assert net.bernoulli(1.0).all()


def _whole_matrix_sampler(rng, src, m, n):
    """The scale sampler as whole-matrix passes: the blocked writer's spec."""
    if m == n - 1:
        full = np.arange(n - 1)[None, :]
        return full + (full >= src[:, None])
    if m > (n - 1) // 2:
        keep = np.ones((len(src), n), dtype=bool)
        keep[np.arange(len(src)), src] = False
        keep[np.arange(len(src))[:, None], _whole_matrix_sampler(rng, src, n - 1 - m, n)] = False
        return np.nonzero(keep)[1].reshape(len(src), m)
    src32 = src.astype(np.int32)
    last = np.int32(n - 1)
    draw = rng.integers(0, n - 1, size=(len(src), m), dtype=np.int32)
    np.copyto(draw, last, where=draw == src32[:, None])
    if m == 1:
        return draw
    draw.sort(axis=1)
    pending = np.nonzero((draw[:, 1:] == draw[:, :-1]).any(axis=1))[0]
    while len(pending):
        sub = draw[pending]
        r_idx, c_idx = np.nonzero(sub[:, 1:] == sub[:, :-1])
        fresh = rng.integers(0, n - 1, size=len(r_idx), dtype=np.int32)
        np.copyto(fresh, last, where=fresh == src32[pending[r_idx]])
        sub[r_idx, c_idx + 1] = fresh
        sub.sort(axis=1)
        draw[pending] = sub
        pending = pending[(sub[:, 1:] == sub[:, :-1]).any(axis=1)]
    return draw


class TestBlockedSampler:
    @pytest.mark.parametrize("block", [1, 7, 1 << 18])
    @pytest.mark.parametrize(
        "n,m", [(2, 1), (8, 7), (50, 1), (50, 7), (50, 40), (200, 20), (5000, 60)]
    )
    def test_bit_identical_to_whole_matrix_passes(self, monkeypatch, block, n, m):
        # Blocks of a few rows (or one) split the first pass and every
        # redraw pass; the output and the generator's final state must
        # not move.
        monkeypatch.setattr(engine, "_BLOCK_ELEMS", block)
        for seed in range(3):
            src = np.sort(np.random.default_rng(seed + 9).integers(0, n, size=300))
            ref_rng = np.random.default_rng(seed)
            want = _whole_matrix_sampler(ref_rng, src, m, n)
            rng = np.random.default_rng(seed)
            out = np.empty((len(src), m), dtype=np.int32)
            _sample_distinct(rng, src, m, n, out, 5 * n)
            np.testing.assert_array_equal(out, want + 5 * n)
            assert rng.bit_generator.state == ref_rng.bit_generator.state


def _matrix_referee(dst, sid, init):
    """The referee answers from a whole edge matrix: max-scatter, then every column."""
    best = init.copy()
    np.maximum.at(best, dst.reshape(-1), np.repeat(sid, dst.shape[1]))
    return best, (best[dst] == sid[:, None]).all(axis=1)


#: Referee-iteration shapes: how (n, m) relate, and the port mode.
_REGIMES = {
    "sparse": "scale",  # m^2 << n: few collisions
    "dense": "scale",  # m^2 >> n: several redraw passes
    "complement": "scale",  # m > (n-1)/2: the excluded set is drawn
    "full": "scale",  # m = n-1
    "wiring": "exact",  # slices of the wiring matrix
}


def _regime_shape(data, regime):
    if regime == "sparse":
        n = data.draw(st.integers(400, 3000), label="n")
        return n, data.draw(st.integers(1, math.isqrt(n) // 4), label="m")
    if regime == "dense":
        n = data.draw(st.integers(40, 1500), label="n")
        return n, data.draw(st.integers(2 * math.isqrt(n), (n - 1) // 2), label="m")
    if regime == "complement":
        n = data.draw(st.integers(4, 600), label="n")
        return n, data.draw(st.integers((n - 1) // 2 + 1, n - 2), label="m")
    n = data.draw(st.integers(2, 300), label="n")
    if regime == "full":
        return n, n - 1
    return n, data.draw(st.integers(1, n - 1), label="m")


class TestStreamedIteration:
    """The streamed referee iteration against the whole-matrix reference."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_streamed_iteration_matches_the_matrix_reference(self, data):
        regime = data.draw(st.sampled_from(sorted(_REGIMES)), label="regime")
        mode = _REGIMES[regime]
        n, m = _regime_shape(data, regime)
        seeds = data.draw(st.lists(st.integers(0, 2**16), min_size=1, max_size=3), label="seeds")
        ids = make_ids(n, seed=data.draw(st.integers(0, 7), label="id_seed"))
        lanes = len(seeds)
        senders = np.flatnonzero(
            np.random.default_rng(data.draw(st.integers(0, 99), label="pick")).random(lanes * n)
            < data.draw(st.sampled_from([0.2, 1.0]), label="share")
        )
        block = data.draw(st.sampled_from([1, 7, 256, 1 << 18]), label="block")
        tiny_reserve = data.draw(st.booleans(), label="tiny_reserve")

        def net():
            return FastSyncNetwork(n, ids=ids, seeds=seeds, mode=mode)

        ref = net()
        sid = ref.ids_rank_flat[senders]
        init = np.full(lanes * n, -1, dtype=np.int32)
        if data.draw(st.booleans(), label="self_floor"):  # Afek-Gafni referees
            init[senders] = sid
        if mode == "exact":
            dst = ref.first_ports(senders, m)
        else:
            starts, stops = ref.lane_segments(senders)
            dst = np.concatenate([
                b * n + _whole_matrix_sampler(ref._lane_rngs[b], senders[s:e] - b * n, m, n)
                for b, (s, e) in enumerate(zip(starts, stops))
            ]).reshape(len(senders), m)
        want_best, ok = _matrix_referee(dst, sid, init)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine, "_BLOCK_ELEMS", block)
            if tiny_reserve:  # the compact buffer must grow
                patch.setattr(engine, "_collided_capacity", lambda rows, m, n: 1)
            streamed = net()
            best = algorithms._referee_best(streamed, senders, m, init)
            counted = net()
            survivors = algorithms._referee_iteration(
                counted, senders, m, init, "compete", "response"
            )
        np.testing.assert_array_equal(best, want_best)
        np.testing.assert_array_equal(survivors, senders[ok])
        if mode == "scale":
            for got in (streamed, counted):
                assert [g.bit_generator.state for g in got._lane_rngs] == [
                    g.bit_generator.state for g in ref._lane_rngs
                ]
        responses = (want_best > init).reshape(lanes, n).sum(axis=1)
        assert counted._kind_lanes.get("response", np.zeros(lanes)).tolist() == responses.tolist()


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


def _wiring_snapshot(n, seed):
    """One exact network's whole port map and a Las Vegas run on it.

    Las Vegas draws from the per-node streams, so the run also checks
    the cached node seeds.
    """
    pm = FastSyncNetwork(n, mode="exact", seed=seed).port_map()
    ports = [[pm.resolve(u, i) for i in range(n - 1)] for u in range(n)]
    r = FastSyncNetwork(n, mode="exact", seed=seed).run(VectorLasVegasElection())
    return ports, (r.leaders, r.messages, r.rounds_executed, r.messages_by_kind, r.sends_by_round)


_TABLE1_FAST = (
    ("improved_tradeoff", {"ell": 3}),
    ("afek_gafni", {}),
    ("las_vegas", {}),
    ("kutten16", {}),
    ("small_id", {"d": 4}),
    ("adversarial_2round", {}),
)


class TestWiringCache:
    def test_build_order_does_not_change_a_network(self):
        n, seed = 40, 9
        engine.release_wirings()
        cold = _wiring_snapshot(n, seed)
        # A hit after another seed, a rebuild after another n emptied
        # the cache, and a rebuild after an explicit release.
        for other_n, other_seed in [(n, seed + 1), (n, seed + 2), (2 * n, seed)]:
            _wiring_snapshot(other_n, other_seed)
            assert _wiring_snapshot(n, seed) == cold
        engine.release_wirings()
        assert _wiring_snapshot(n, seed) == cold

    def test_cache_holds_two_wirings_of_one_n(self):
        engine.release_wirings()
        first = engine._wiring(32, 0)
        assert engine._wiring(32, 0) is first
        for seed in (1, 2):
            engine._wiring(32, seed)
        assert sorted(engine._WIRINGS) == [(32, 1), (32, 2)]
        engine._wiring(48, 1)
        assert sorted(engine._WIRINGS) == [(48, 1)]
        engine.release_wirings()
        assert not engine._WIRINGS

    def test_cached_arrays_are_read_only(self):
        engine.release_wirings()
        net = FastSyncNetwork(16, mode="exact", seed=3)
        node_seeds, ports = engine._wiring(16, 3)
        assert isinstance(node_seeds, tuple)
        for matrix in (ports, net._lane_ports):
            assert not matrix.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                matrix[0, 0] = 1

    @pytest.mark.parametrize("n,seeds", [(200, [5]), (200, [5, 6, 7]), (16, [1, 2])])
    def test_global_targets_are_int64(self, n, seeds):
        # uint8 ports plus a lane offset of 200 or 400 would wrap.
        net = FastSyncNetwork(n, mode="exact", seeds=seeds)
        src = np.arange(len(seeds) * n)
        first = net.first_ports(src, n - 1)
        sampled = net.sampled_targets(src, 3)
        assert first.dtype == sampled.dtype == np.int64
        for g in src.tolist():
            lane, u = divmod(g, n)
            pm = net.port_map(lane)
            assert first[g].tolist() == [
                lane * n + pm.resolve(u, i)[0] for i in range(n - 1)
            ]
            assert all(t // n == lane and t % n != u for t in sampled[g].tolist())

    def test_table1_grid_records_do_not_depend_on_cache_hits(self):
        from repro.analysis import RunSpec, canonical_record, execute_spec, sweep

        grid = [
            RunSpec(
                algorithm=name, n=n, engine="fast", mode="exact",
                seeds=(3, 4), params=params,
            )
            for n in (64, 128)
            for name, params in _TABLE1_FAST
        ]
        alone = []
        for spec in grid:
            engine.release_wirings()
            alone += execute_spec(spec)
        want = [canonical_record(r) for r in alone]
        for workers in (1, 2):
            got = sweep(grid, workers=workers)
            assert [canonical_record(r) for r in got] == want

    def test_object_engine_spec_releases_the_cache(self):
        from repro.analysis import RunSpec, execute_spec

        FastSyncNetwork(32, mode="exact", seed=0)
        assert engine._WIRINGS
        execute_spec(RunSpec(algorithm="las_vegas", n=16, engine="sync", seeds=(0,)))
        assert not engine._WIRINGS


class TestSharedWirings:
    @pytest.fixture
    def builds(self, monkeypatch):
        """The ``n`` of every port-matrix build, from an empty cache."""
        calls = []
        build = engine._random_port_matrix

        def counted(rng, n):
            calls.append(n)
            return build(rng, n)

        monkeypatch.setattr(engine, "_random_port_matrix", counted)
        engine.release_wirings()
        yield calls
        engine.release_wirings()

    def test_a_published_matrix_is_loaded_not_rebuilt(self, builds):
        with engine.shared_wirings([(48, 5)]):
            directory = os.path.dirname(engine._SHARED_WIRINGS[(48, 5)])
            node_seeds, ports = engine._wiring(48, 5)
            assert os.listdir(directory) == ["48-5.npy"]
            engine.release_wirings()
            loaded_seeds, loaded = engine._wiring(48, 5)
        assert builds == [48]
        assert loaded_seeds == node_seeds
        assert loaded.dtype == ports.dtype and np.array_equal(loaded, ports)
        assert not loaded.flags.writeable
        assert engine._SHARED_WIRINGS == {}
        assert not os.path.exists(directory)

    def test_only_the_shared_keys_are_published(self, builds):
        with engine.shared_wirings([(48, 5)]):
            directory = os.path.dirname(engine._SHARED_WIRINGS[(48, 5)])
            _, ports = engine._wiring(48, 6)
            assert os.listdir(directory) == []
            engine.release_wirings()
            _, again = engine._wiring(48, 6)
        assert builds == [48, 48]
        assert np.array_equal(again, ports)

    @pytest.mark.parametrize("damage", ["truncated", "wrong_dtype"])
    def test_a_damaged_file_is_rebuilt_to_the_same_matrix(self, builds, damage):
        with engine.shared_wirings([(48, 5)]):
            path = engine._SHARED_WIRINGS[(48, 5)]
            _, ports = engine._wiring(48, 5)
            engine.release_wirings()
            if damage == "truncated":
                with open(path, "rb") as fh:
                    data = fh.read()
                with open(path, "wb") as fh:
                    fh.write(data[: len(data) // 2])
            else:
                np.save(path, ports.astype(np.int64))
            _, rebuilt = engine._wiring(48, 5)
            assert rebuilt.dtype == ports.dtype and np.array_equal(rebuilt, ports)
            # The rebuild republished a valid file.
            engine.release_wirings()
            engine._wiring(48, 5)
        assert builds == [48, 48]

    def test_a_vanished_directory_just_builds(self, builds):
        with engine.shared_wirings([(48, 5)]):
            shutil.rmtree(os.path.dirname(engine._SHARED_WIRINGS[(48, 5)]))
            _, ports = engine._wiring(48, 5)
            engine.release_wirings()
            _, again = engine._wiring(48, 5)
        assert builds == [48, 48]
        assert np.array_equal(again, ports)

    def test_without_a_directory_nothing_is_published(self, builds, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        engine._wiring(48, 5)
        assert engine._SHARED_WIRINGS == {} and not os.listdir(tmp_path)


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
