"""Edge-case and invariant tests for both engines."""

import random

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.asyncnet.algorithm import AsyncAlgorithm
from repro.asyncnet.engine import AsyncNetwork
from repro.asyncnet.schedulers import UnitDelayScheduler
from repro.net.ports import LazyPortMap, PortMapExhausted, RandomPortPolicy
from repro.sync.algorithm import SyncAlgorithm
from repro.sync.engine import SyncNetwork


class TestSyncEdgeCases:
    def test_single_node_clique(self):
        class Solo(SyncAlgorithm):
            def on_round(self, ctx, inbox):
                assert ctx.port_count == 0
                ctx.decide_leader()
                ctx.halt()

        result = SyncNetwork(1, Solo).run()
        assert result.unique_leader

    def test_two_messages_same_port_same_round(self):
        got = []

        class Doubler(SyncAlgorithm):
            def on_round(self, ctx, inbox):
                if ctx.round == 1 and ctx.my_id == 1:
                    ctx.send(0, ("a",))
                    ctx.send(0, ("b",))
                got.extend(p for _q, p in inbox)
                if ctx.round >= 2:
                    ctx.halt()

        result = SyncNetwork(2, Doubler).run()
        assert result.messages == 2
        assert got == [("a",), ("b",)]  # delivery preserves send order

    def test_inbox_order_is_deterministic_across_senders(self):
        def run_once():
            seen = []

            class ManyToOne(SyncAlgorithm):
                def on_round(self, ctx, inbox):
                    if ctx.round == 1 and ctx.my_id > 1:
                        # everyone sends to node 0 via their port to it —
                        # locate it through the canonical map
                        from repro.net.ports import CanonicalPortMap

                        pm = CanonicalPortMap(ctx.n)
                        for port in range(ctx.port_count):
                            if pm.peer(ctx.node, port) == 0:
                                ctx.send(port, ("from", ctx.my_id))
                    if inbox:
                        seen.extend(p[1] for _q, p in inbox)
                    if ctx.round >= 2:
                        ctx.halt()

            from repro.net.ports import CanonicalPortMap

            SyncNetwork(6, ManyToOne, port_map=CanonicalPortMap(6)).run()
            return seen

        assert run_once() == run_once()

    def test_sample_ports_bounds(self):
        class Sampler(SyncAlgorithm):
            def on_round(self, ctx, inbox):
                ports = ctx.sample_ports(ctx.port_count)
                assert sorted(ports) == list(range(ctx.port_count))
                with pytest.raises(ValueError):
                    ctx.sample_ports(ctx.port_count + 1)
                ctx.halt()

        SyncNetwork(5, Sampler).run()

    def test_wake_hook_runs_before_first_round(self):
        order = []

        class Hooked(SyncAlgorithm):
            def on_wake(self, ctx):
                order.append(("wake", ctx.node))

            def on_round(self, ctx, inbox):
                order.append(("round", ctx.node))
                ctx.halt()

        SyncNetwork(2, Hooked).run()
        assert order == [("wake", 0), ("wake", 1), ("round", 0), ("round", 1)]

    def test_max_rounds_exact_boundary(self):
        class NRounds(SyncAlgorithm):
            def on_round(self, ctx, inbox):
                if ctx.round == 5:
                    ctx.halt()

        result = SyncNetwork(2, NRounds, max_rounds=5).run()
        assert result.rounds_executed == 5


class TestAsyncEdgeCases:
    def test_single_node(self):
        class Solo(AsyncAlgorithm):
            def on_wake(self, ctx):
                ctx.decide_leader()

            def on_message(self, ctx, port, payload):
                pass

        result = AsyncNetwork(1, Solo).run()
        assert result.unique_leader

    def test_send_to_self_impossible(self):
        received = []

        class Probe(AsyncAlgorithm):
            def on_wake(self, ctx):
                if ctx.node == 0:  # only the adversary-woken node sprays
                    for port in range(ctx.port_count):
                        ctx.send(port, ("probe",))

            def on_message(self, ctx, port, payload):
                received.append(ctx.node)

        AsyncNetwork(4, Probe, scheduler=UnitDelayScheduler()).run()
        # Every port of node 0 leads to a *different* node — no loopback.
        assert 0 not in received
        assert sorted(received) == [1, 2, 3]

    def test_duplicate_wake_event_is_idempotent(self):
        wakes = []

        class W(AsyncAlgorithm):
            def on_wake(self, ctx):
                wakes.append(ctx.node)

            def on_message(self, ctx, port, payload):
                pass

        net = AsyncNetwork(3, W, wake_times={1: 0.0})
        net._push(0.5, 0, 1, -1, None)  # adversary tries to wake node 1 again
        net.run()
        assert wakes == [1]

    def test_zero_events_after_halt_everywhere(self):
        class HaltOnWake(AsyncAlgorithm):
            def on_wake(self, ctx):
                ctx.send(0, ("x",))
                ctx.halt()

            def on_message(self, ctx, port, payload):
                raise AssertionError("should never process: all halted")

        result = AsyncNetwork(2, HaltOnWake, wake_times={0: 0.0, 1: 0.0}).run()
        assert result.dropped_deliveries == 2

    def test_equal_timestamps_processed_in_schedule_order(self):
        seen = []

        class TwoAtOnce(AsyncAlgorithm):
            def on_wake(self, ctx):
                if ctx.node == 0:
                    ctx.send(0, ("first",))
                    ctx.send(1, ("second",))

            def on_message(self, ctx, port, payload):
                seen.append((ctx.node, payload[0]))

        from repro.net.ports import CanonicalPortMap

        AsyncNetwork(
            3, TwoAtOnce, port_map=CanonicalPortMap(3), scheduler=UnitDelayScheduler()
        ).run()
        assert seen == [(1, "first"), (2, "second")]


class PortMapMachine(RuleBasedStateMachine):
    """Stateful property test: any interleaving of resolves and forced
    links keeps the port map a partial perfect matching."""

    N = 12

    def __init__(self):
        super().__init__()
        self.pm = LazyPortMap(self.N, RandomPortPolicy(random.Random(777)))
        self.resolved = {}

    @rule(u=st.integers(0, N - 1), port=st.integers(0, N - 2))
    def resolve(self, u, port):
        try:
            endpoint = self.pm.resolve(u, port)
        except PortMapExhausted:
            return
        previous = self.resolved.get((u, port))
        assert previous is None or previous == endpoint
        self.resolved[(u, port)] = endpoint

    @rule(
        u=st.integers(0, N - 1),
        i=st.integers(0, N - 2),
        v=st.integers(0, N - 1),
        j=st.integers(0, N - 2),
    )
    def force(self, u, i, v, j):
        try:
            self.pm.force_link(u, i, v, j)
        except (PortMapExhausted, ValueError):
            return
        self.resolved[(u, i)] = (v, j)
        self.resolved[(v, j)] = (u, i)

    @invariant()
    def involution_holds(self):
        for (u, port), (v, j) in self.resolved.items():
            assert self.pm.resolve(v, j) == (u, port)

    @invariant()
    def one_link_per_pair(self):
        pairs = {}
        for (u, port), (v, _j) in self.resolved.items():
            key = (min(u, v), max(u, v))
            pairs.setdefault(key, set()).add((u, port))
        for key, endpoints in pairs.items():
            assert len(endpoints) <= 2


TestPortMapStateful = PortMapMachine.TestCase
TestPortMapStateful.settings = settings(max_examples=20, stateful_step_count=30, deadline=None)


class TestWakeSetValidation:
    def test_sync_out_of_range_awake_rejected(self):
        import pytest as _pytest

        from repro.sync.engine import SyncNetwork as _SN
        from repro.sync.algorithm import SyncAlgorithm as _SA

        class Quiet(_SA):
            def on_round(self, ctx, inbox):
                ctx.halt()

        with _pytest.raises(ValueError):
            _SN(4, Quiet, awake=[7])
        with _pytest.raises(ValueError):
            _SN(4, Quiet, awake=[-1])

    def test_async_out_of_range_wake_times_rejected(self):
        import pytest as _pytest

        from repro.asyncnet.engine import AsyncNetwork as _AN
        from repro.asyncnet.algorithm import AsyncAlgorithm as _AA

        class Quiet(_AA):
            def on_message(self, ctx, port, payload):
                pass

        with _pytest.raises(ValueError):
            _AN(4, Quiet, wake_times={9: 0.0})


def _freed_by_refcount(make_net):
    """Run a network, drop it, and report whether refcounting alone freed it."""
    import gc
    import weakref

    gc.collect()
    gc.disable()
    try:
        net = make_net()
        net.run()
        ref = weakref.ref(net)
        del net
        return ref() is None
    finally:
        gc.enable()


class TestNetworksFreeWithoutTheCycleCollector:
    """A finished network holds its port map and every node's state; a
    context -> network cycle would keep it alive until a full collection."""

    def test_sync(self):
        from repro.core import AfekGafniElection

        assert _freed_by_refcount(lambda: SyncNetwork(32, AfekGafniElection, seed=1))

    def test_async(self):
        from repro.core import AsyncTradeoffElection

        assert _freed_by_refcount(lambda: AsyncNetwork(32, AsyncTradeoffElection, seed=1))

    @pytest.mark.parametrize("engine", ["sync", "async"])
    def test_faulted_reelect(self, engine):
        from repro.analysis import RunSpec
        from repro.sweep.api import _object_factory
        from repro.faults import CrashFault, DetectorSpec, FaultPlan

        plan = FaultPlan(crashes=(CrashFault(node=15, at=3),), detector=DetectorSpec(lag=1.0))
        factory = _object_factory(RunSpec(algorithm="reelect", n=16, engine=engine), engine)
        cls = SyncNetwork if engine == "sync" else AsyncNetwork
        assert _freed_by_refcount(lambda: cls(16, factory, seed=2, faults=plan))
