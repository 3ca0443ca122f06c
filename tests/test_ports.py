"""The clique port model (repro.net.ports)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.ports import (
    CallbackPortPolicy,
    CanonicalPortMap,
    LazyPortMap,
    PortMapExhausted,
    SequentialPortPolicy,
    random_port_map,
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
        pm = LazyPortMap(3, SequentialPortPolicy())
        pm.resolve(0, 0)
        pm.resolve(0, 1)
        with pytest.raises(PortMapExhausted):
            pm.random_free_port(0, random.Random(0))

    def test_random_unlinked_peer_none_left(self):
        pm = LazyPortMap(3, SequentialPortPolicy())
        pm.resolve(0, 0)
        pm.resolve(0, 1)
        with pytest.raises(PortMapExhausted):
            pm.random_unlinked_peer(0, random.Random(0))

    def test_linked_peers(self):
        pm = random_port_map(6, random.Random(9))
        v, _ = pm.resolve(0, 0)
        assert set(pm.linked_peers(0)) == {v}
