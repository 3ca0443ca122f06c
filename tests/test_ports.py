"""The clique port model (repro.net.ports)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.ports import (
    CallbackPortPolicy,
    CanonicalPortMap,
    LazyPortMap,
    PortMapExhausted,
    RandomPortPolicy,
    SequentialPortPolicy,
    random_port_map,
    sample_range,
)


class TestCanonicalPortMap:
    def test_involution(self):
        pm = CanonicalPortMap(7)
        for u in range(7):
            for i in range(6):
                v, j = pm.resolve(u, i)
                assert pm.resolve(v, j) == (u, i)

    def test_each_port_distinct_peer(self):
        pm = CanonicalPortMap(9)
        for u in range(9):
            peers = {pm.peer(u, i) for i in range(8)}
            assert peers == set(range(9)) - {u}

    def test_always_resolved(self):
        pm = CanonicalPortMap(4)
        assert pm.is_resolved(2, 1)

    def test_bad_port_rejected(self):
        pm = CanonicalPortMap(4)
        with pytest.raises(ValueError):
            pm.resolve(0, 3)
        with pytest.raises(ValueError):
            pm.resolve(4, 0)


class TestLazyPortMapRandom:
    def test_involution_after_resolution(self):
        pm = random_port_map(16, random.Random(0))
        endpoints = {}
        for u in range(16):
            for i in range(5):
                endpoints[(u, i)] = pm.resolve(u, i)
        for (u, i), (v, j) in endpoints.items():
            assert pm.resolve(v, j) == (u, i)

    def test_resolution_is_stable(self):
        pm = random_port_map(8, random.Random(1))
        first = pm.resolve(3, 2)
        for _ in range(5):
            assert pm.resolve(3, 2) == first

    def test_one_link_per_pair(self):
        pm = random_port_map(8, random.Random(2))
        peers = [pm.peer(0, i) for i in range(7)]
        assert sorted(peers) == [1, 2, 3, 4, 5, 6, 7]

    def test_exhaustion(self):
        pm = random_port_map(3, random.Random(3))
        for i in range(2):
            pm.resolve(0, i)
        # all peers of node 0 are now linked; resolving via policy for
        # another node is fine, but node 0 has no ports left anyway.
        with pytest.raises(ValueError):
            pm.resolve(0, 2)

    def test_link_count(self):
        pm = random_port_map(10, random.Random(4))
        pm.resolve(0, 0)
        pm.resolve(1, 5)
        assert pm.link_count() in (1, 2)  # (1,5) may have hit node 0

    def test_bound_port_count(self):
        pm = random_port_map(10, random.Random(5))
        assert pm.bound_port_count(0) == 0
        pm.resolve(0, 3)
        assert pm.bound_port_count(0) == 1

    @given(st.integers(2, 24), st.integers(0, 10))
    @settings(max_examples=25, deadline=None)
    def test_full_resolution_is_perfect_matching(self, n, seed):
        pm = random_port_map(n, random.Random(seed))
        seen = set()
        for u in range(n):
            for i in range(n - 1):
                v, j = pm.resolve(u, i)
                assert v != u
                seen.add((min(u, v), max(u, v)))
        assert len(seen) == n * (n - 1) // 2


class TestSequentialPolicy:
    def test_connects_to_smallest(self):
        pm = LazyPortMap(6, SequentialPortPolicy())
        assert pm.peer(3, 0) == 0
        assert pm.peer(3, 1) == 1
        assert pm.peer(3, 2) == 2
        assert pm.peer(3, 3) == 4  # 3 itself skipped

    def test_respects_existing_links(self):
        pm = LazyPortMap(4, SequentialPortPolicy())
        pm.force_link(1, 0, 0, 2)
        assert pm.peer(1, 1) == 2  # 0 already linked


class TestForceLink:
    def test_force_then_resolve(self):
        pm = random_port_map(5, random.Random(0))
        pm.force_link(0, 1, 3, 2)
        assert pm.resolve(0, 1) == (3, 2)
        assert pm.resolve(3, 2) == (0, 1)

    def test_force_duplicate_pair_rejected(self):
        pm = random_port_map(5, random.Random(0))
        pm.force_link(0, 1, 3, 2)
        with pytest.raises(PortMapExhausted):
            pm.force_link(0, 2, 3, 3)

    def test_force_bound_port_rejected(self):
        pm = random_port_map(5, random.Random(0))
        pm.force_link(0, 1, 3, 2)
        with pytest.raises(PortMapExhausted):
            pm.force_link(0, 1, 2, 0)

    def test_self_link_rejected(self):
        pm = random_port_map(5, random.Random(0))
        with pytest.raises(ValueError):
            pm.force_link(2, 0, 2, 1)


class TestCallbackPolicy:
    def test_callback_controls_peer(self):
        calls = []

        def choose(pm, u, port):
            calls.append((u, port))
            return (u + 2) % pm.n

        pm = LazyPortMap(7, CallbackPortPolicy(choose))
        assert pm.peer(1, 0) == 3
        assert calls == [(1, 0)]

    def test_invalid_callback_peer_raises(self):
        pm = LazyPortMap(4, CallbackPortPolicy(lambda pm_, u, p: u))
        with pytest.raises(PortMapExhausted):
            pm.resolve(0, 0)

    def test_callback_peer_port(self):
        policy = CallbackPortPolicy(lambda pm_, u, p: 2, lambda pm_, u, p, v: 1)
        pm = LazyPortMap(4, policy)
        assert pm.resolve(0, 0) == (2, 1)

    @pytest.mark.parametrize("j", [-1, 3, 7])
    def test_out_of_range_callback_peer_port_rejected(self, j):
        policy = CallbackPortPolicy(lambda pm_, u, p: 2, lambda pm_, u, p, v: j)
        pm = LazyPortMap(4, policy)
        with pytest.raises(ValueError, match="out of range"):
            pm.resolve(0, 0)
        assert pm.link_count() == 0

    def test_bound_callback_peer_port_rejected(self):
        policy = CallbackPortPolicy(lambda pm_, u, p: 2, lambda pm_, u, p, v: 1)
        pm = LazyPortMap(4, policy)
        pm.force_link(2, 1, 3, 0)
        with pytest.raises(PortMapExhausted, match="bound port"):
            pm.resolve(0, 0)

    def test_out_of_range_callback_peer_rejected(self):
        pm = LazyPortMap(4, CallbackPortPolicy(lambda pm_, u, p: 4))
        with pytest.raises(PortMapExhausted, match="invalid peer"):
            pm.resolve(0, 0)


class TestHelpers:
    def test_first_free_port_skips_bound(self):
        pm = random_port_map(5, random.Random(0))
        pm.force_link(1, 0, 2, 0)
        assert pm.first_free_port(2) == 1

    def test_random_free_port_all_bound(self):
        # Unreachable on a consistent map: every peer's ports are bound
        # although none of them is linked to node 0.
        pm = random_port_map(3, random.Random(0))
        pm._ports[1].update({0: (2, 1), 1: (2, 0)})
        pm._ports[2].update({0: (1, 1), 1: (1, 0)})
        with pytest.raises(PortMapExhausted, match="no free port"):
            pm.resolve(0, 0)

    def test_random_unlinked_peer_none_left(self):
        # Unreachable on a consistent map: node 0 counts as linked to
        # every peer while its port 0 is still unbound.
        pm = random_port_map(3, random.Random(0))
        pm._peer_to_port[0].update({1: 1, 2: 1})
        with pytest.raises(PortMapExhausted, match="linked to all peers"):
            pm.resolve(0, 0)

    def test_linked_peers(self):
        pm = random_port_map(6, random.Random(9))
        v, _ = pm.resolve(0, 0)
        assert set(pm.linked_peers(0)) == {v}


def _randrange_reference_policy(rng: random.Random, fallbacks: list) -> CallbackPortPolicy:
    """The ``randrange``-based draws ``RandomPortPolicy`` must reproduce."""

    def random_unlinked_peer(pm, u, port):
        linked = pm._peer_to_port[u]
        if pm.n - 1 - len(linked) <= 0:
            raise PortMapExhausted(f"node {u} is already linked to all peers")
        for _ in range(64):
            v = rng.randrange(pm.n)
            if v != u and v not in linked:
                return v
        fallbacks.append("peer")
        return rng.choice([v for v in range(pm.n) if v != u and v not in linked])

    def random_free_port(pm, u, port, v):
        bound = pm._ports[v]
        if pm.ports_per_node - len(bound) <= 0:
            raise PortMapExhausted(f"node {v} has no free port")
        for _ in range(64):
            j = rng.randrange(pm.ports_per_node)
            if j not in bound:
                return j
        fallbacks.append("port")
        return rng.choice([j for j in range(pm.ports_per_node) if j not in bound])

    return CallbackPortPolicy(random_unlinked_peer, random_free_port)


class TestRandomDrawsMatchRandrange:
    """``RandomPortPolicy`` inlines ``randrange``; the wiring must not move."""

    @staticmethod
    def _port_sequence(n: int, seed: int):
        order = random.Random(seed)
        scattered = [
            (order.randrange(n), order.randrange(n - 1)) for _ in range(4 * n)
        ]
        # Full broadcasts exhaust the eligible peers and ports, which is
        # where the 64-draw cap hands over to the explicit scan.
        broadcasters = range(n) if n <= 256 else order.sample(range(n), 6)
        return scattered + [(u, p) for u in broadcasters for p in range(n - 1)]

    # Which 64-draw caps each sequence runs into (the reference records it).
    FALLBACKS = {2: set(), 3: set(), 8: set(), 64: {"peer"}, 256: {"peer", "port"},
                 512: {"peer"}}

    @pytest.mark.parametrize("n", sorted(FALLBACKS))
    def test_same_endpoints_and_rng_state(self, n):
        fallbacks: list = []
        ref_rng, new_rng = random.Random(n), random.Random(n)
        reference = LazyPortMap(n, _randrange_reference_policy(ref_rng, fallbacks))
        inlined = LazyPortMap(n, RandomPortPolicy(new_rng))
        for u, port in self._port_sequence(n, seed=n + 1):
            assert inlined.resolve(u, port) == reference.resolve(u, port)
        assert inlined._ports == reference._ports
        assert inlined.link_count() == reference.link_count()
        assert new_rng.getstate() == ref_rng.getstate()
        assert set(fallbacks) == self.FALLBACKS[n]


class _CountingRandom(random.Random):
    """A ``Random`` that counts ``choice`` calls: the 64-draw cap's fallback."""

    def __init__(self, seed):
        super().__init__(seed)
        self.choices = 0

    def choice(self, seq):
        self.choices += 1
        return super().choice(seq)


def _policy(kind: str, rng: random.Random):
    if kind == "random":
        return RandomPortPolicy(rng)
    if kind == "sequential":
        return SequentialPortPolicy()

    def choose_peer(pm, u, port):
        while True:
            v = rng.randrange(pm.n)
            if v != u and not pm.linked(u, v):
                return v

    return CallbackPortPolicy(choose_peer)


class TestResolveMany:
    """One ``resolve_many`` per batch equals one ``resolve`` per port."""

    @pytest.mark.parametrize("kind", ["random", "sequential", "callback"])
    @pytest.mark.parametrize("n", [2, 3, 7, 64, 512, 1000])
    @given(data=st.data())
    @settings(max_examples=6, deadline=None)
    def test_same_endpoints_links_and_rng_state(self, kind, n, data):
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        port = st.integers(0, n - 2)
        batches = data.draw(
            st.lists(st.tuples(st.integers(0, n - 1), st.lists(port, max_size=24)),
                     max_size=10),
            label="batches",
        )
        broadcasters = data.draw(
            st.lists(st.integers(0, n - 1), min_size=1, max_size=2, unique=True),
            label="broadcasters",
        )
        # The scattered batches once more (all hits now), then whole-node
        # broadcasts that mix the ports resolved so far with fresh ones.
        batches += batches + [(u, range(n - 1)) for u in broadcasters]
        batch_rng, single_rng = _CountingRandom(seed), _CountingRandom(seed)
        batched = LazyPortMap(n, _policy(kind, batch_rng))
        single = LazyPortMap(n, _policy(kind, single_rng))
        for u, ports in batches:
            out: list = []
            batched.resolve_many(u, ports, out)
            assert out == [single.resolve(u, p) for p in ports]
        assert batched._ports == single._ports
        assert batched.link_count() == single.link_count()
        assert batch_rng.getstate() == single_rng.getstate()
        assert batch_rng.choices == single_rng.choices
        if kind == "random" and n >= 512:
            # The broadcasts' last ports ran into the 64-draw cap.
            assert batch_rng.choices > 0

    def test_bad_port_fails_before_the_batch_resolves(self):
        pm = random_port_map(8, random.Random(0))
        with pytest.raises(ValueError, match=r"port 7 out of range \[0, 7\) at node 2"):
            pm.resolve_many(2, [0, 1, 7, 3], [])
        assert pm.link_count() == 0

    def test_a_policy_raising_mid_batch_leaves_the_prefix(self):
        def choose(pm, u, port):
            if pm.link_count() == 2:
                raise PortMapExhausted("no third link")
            return next(v for v in range(pm.n) if v != u and not pm.linked(u, v))

        pm = LazyPortMap(6, CallbackPortPolicy(choose))
        out: list = []
        with pytest.raises(PortMapExhausted):
            pm.resolve_many(0, range(5), out)
        assert out == [(1, 0), (2, 0)]


class TestSampleRange:
    """``sample_range`` replays ``Random.sample(range(n), k)`` word for word."""

    # Both sides of CPython's pool-or-set switch: at n = 21/22 for k <= 5
    # and at n = 85/86 for k = 6.
    NS = [1, 2, 5, 6, 21, 22, 85, 86, 511, 2047, 10**5]

    @pytest.mark.parametrize("n", NS)
    def test_equals_random_sample(self, n):
        for seed in range(20):
            for k in sorted({0, 1, 5, 6, n}):
                if k > n:
                    continue
                ref, new = random.Random(seed), random.Random(seed)
                assert sample_range(new, n, k) == ref.sample(range(n), k), (seed, k)
                assert new.getstate() == ref.getstate(), (seed, k)

    @given(st.integers(1, 3000), st.data(), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_equals_random_sample_anywhere(self, n, data, seed):
        k = data.draw(st.integers(0, n), label="k")
        ref, new = random.Random(seed), random.Random(seed)
        assert sample_range(new, n, k) == ref.sample(range(n), k)
        assert new.getstate() == ref.getstate()

    @pytest.mark.parametrize("k", [-1, 6])
    def test_out_of_range_k_rejected(self, k):
        with pytest.raises(ValueError, match="Sample larger than population"):
            sample_range(random.Random(0), 5, k)
