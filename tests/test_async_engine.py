"""The asynchronous event engine (repro.asyncnet)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.asyncnet.algorithm import AsyncAlgorithm
from repro.asyncnet.engine import AsyncNetwork
from repro.asyncnet.schedulers import (
    PerLinkDelayScheduler,
    RushScheduler,
    TargetedDelayScheduler,
    UniformDelayScheduler,
    UnitDelayScheduler,
)
from repro.common import ProtocolError, SimulationLimitExceeded
from repro.net.ports import CanonicalPortMap
from repro.trace import MemoryRecorder


class Quiet(AsyncAlgorithm):
    def on_message(self, ctx, port, payload):
        pass


class Burst(AsyncAlgorithm):
    """The woken node sends a burst over its first ports."""

    def __init__(self, count=3):
        self.count = count

    def on_wake(self, ctx):
        if ctx.wake_time == 0.0:
            for port in range(min(self.count, ctx.port_count)):
                ctx.send(port, ("burst", port))

    def on_message(self, ctx, port, payload):
        pass


class TestEventOrdering:
    def test_unit_delay_time_accounting(self):
        net = AsyncNetwork(4, Burst, scheduler=UnitDelayScheduler())
        result = net.run()
        assert result.time == pytest.approx(1.0)
        assert result.messages == 3

    def test_chain_time_adds_up(self):
        class Chain(AsyncAlgorithm):
            def on_wake(self, ctx):
                if ctx.wake_time == 0.0 and ctx.my_id == 1:
                    ctx.send(0, ("hop", 3))

            def on_message(self, ctx, port, payload):
                hops_left = payload[1]
                if hops_left > 0:
                    ctx.send(0 if port != 0 else 1, ("hop", hops_left - 1))

        net = AsyncNetwork(5, Chain, scheduler=UnitDelayScheduler(), seed=3)
        result = net.run()
        assert result.time == pytest.approx(4.0)
        assert result.messages == 4

    def test_delays_bounded_by_one_unit(self):
        class BadScheduler(UnitDelayScheduler):
            def delay(self, src, dst, send_time, payload):
                return 1.5

        with pytest.raises(ProtocolError):
            AsyncNetwork(3, Burst, scheduler=BadScheduler()).run()

    def test_rush_scheduler_near_zero_time(self):
        net = AsyncNetwork(4, Burst, scheduler=RushScheduler())
        result = net.run()
        assert result.time < 0.001


class TestFifo:
    def test_fifo_per_link_under_adversarial_delays(self):
        received = []

        class Sequenced(AsyncAlgorithm):
            def on_wake(self, ctx):
                if ctx.wake_time == 0.0 and ctx.my_id == 1:
                    for s in range(10):
                        ctx.send(0, ("seq", s))

            def on_message(self, ctx, port, payload):
                received.append(payload[1])

        class ShrinkingDelay(UnitDelayScheduler):
            """Later messages get smaller delays — tries to overtake."""

            def __init__(self):
                self.count = 0

            def delay(self, src, dst, send_time, payload):
                self.count += 1
                return max(0.05, 1.0 - 0.09 * self.count)

        AsyncNetwork(3, Sequenced, scheduler=ShrinkingDelay(), seed=1).run()
        assert received == list(range(10))

    @given(st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_fifo_under_random_delays(self, seed):
        received = []

        class Sequenced(AsyncAlgorithm):
            def on_wake(self, ctx):
                if ctx.wake_time == 0.0 and ctx.my_id == 1:
                    for s in range(8):
                        ctx.send(0, ("seq", s))

            def on_message(self, ctx, port, payload):
                received.append(payload[1])

        scheduler = UniformDelayScheduler(random.Random(seed))
        AsyncNetwork(2, Sequenced, scheduler=scheduler, seed=seed).run()
        assert received == list(range(8))


class TestWakeSemantics:
    def test_default_wakes_node_zero(self):
        woken = []

        class W(AsyncAlgorithm):
            def on_wake(self, ctx):
                woken.append(ctx.node)

            def on_message(self, ctx, port, payload):
                pass

        AsyncNetwork(5, W).run()
        assert woken == [0]

    def test_delivery_wakes_then_delivers(self):
        order = []

        class W(AsyncAlgorithm):
            def on_wake(self, ctx):
                order.append(("wake", ctx.node, ctx.now))
                if ctx.node == 0:
                    ctx.send(0, ("hi",))

            def on_message(self, ctx, port, payload):
                order.append(("msg", ctx.node, ctx.now))

        AsyncNetwork(3, W, port_map=CanonicalPortMap(3), scheduler=UnitDelayScheduler()).run()
        assert order == [("wake", 0, 0.0), ("wake", 1, 1.0), ("msg", 1, 1.0)]

    def test_staggered_adversarial_wake_times(self):
        times = {}

        class W(AsyncAlgorithm):
            def on_wake(self, ctx):
                times[ctx.node] = ctx.wake_time

            def on_message(self, ctx, port, payload):
                pass

        AsyncNetwork(4, W, wake_times={2: 0.0, 3: 2.5}).run()
        assert times == {2: 0.0, 3: 2.5}

    def test_time_span_from_first_wake(self):
        class W(AsyncAlgorithm):
            def on_wake(self, ctx):
                if ctx.node == 2:
                    ctx.send(0, ("x",))

            def on_message(self, ctx, port, payload):
                pass

        net = AsyncNetwork(4, W, wake_times={2: 5.0}, scheduler=UnitDelayScheduler())
        result = net.run()
        assert result.time == pytest.approx(1.0)  # 6.0 - 5.0

    def test_empty_wake_times_rejected(self):
        with pytest.raises(ValueError):
            AsyncNetwork(3, Quiet, wake_times={})

    def test_negative_wake_time_rejected(self):
        with pytest.raises(ValueError):
            AsyncNetwork(3, Quiet, wake_times={0: -1.0})

    @pytest.mark.parametrize("t", [float("inf"), float("nan")])
    def test_non_finite_wake_time_rejected(self, t):
        with pytest.raises(ValueError, match="finite"):
            AsyncNetwork(3, Quiet, wake_times={0: 0.0, 1: t})

    @pytest.mark.parametrize("t", [float("inf"), float("nan")])
    def test_non_finite_wake_time_rejected_through_run(self, t):
        from repro.sweep import RunSpec, run

        spec = RunSpec(algorithm="async_tradeoff", n=16, engine="async", wake_times={0: t})
        with pytest.raises(ValueError, match="finite"):
            run(spec)

    @pytest.mark.parametrize("delay", [float("inf"), float("nan")])
    def test_non_finite_timer_delay_rejected(self, delay):
        class BadTimer(AsyncAlgorithm):
            def on_wake(self, ctx):
                ctx.set_timer(delay)

            def on_message(self, ctx, port, payload):
                pass

        with pytest.raises(ProtocolError, match="finite"):
            AsyncNetwork(2, BadTimer).run()


class TestHaltAndDecisions:
    def test_halted_node_drops_deliveries(self):
        class HaltFast(AsyncAlgorithm):
            def on_wake(self, ctx):
                if ctx.node == 0:
                    ctx.send(0, ("a",))
                    ctx.send(0, ("b",))

            def on_message(self, ctx, port, payload):
                ctx.halt()

        net = AsyncNetwork(2, HaltFast, scheduler=UnitDelayScheduler())
        result = net.run()
        assert result.dropped_deliveries == 1

    def test_decision_irrevocable(self):
        class Flip(AsyncAlgorithm):
            def on_wake(self, ctx):
                ctx.decide_leader()
                ctx.decide_follower()

            def on_message(self, ctx, port, payload):
                pass

        with pytest.raises(ProtocolError):
            AsyncNetwork(2, Flip).run()

    def test_max_events_guard(self):
        class PingPong(AsyncAlgorithm):
            def on_wake(self, ctx):
                if ctx.node == 0:
                    ctx.send(0, ("ball",))

            def on_message(self, ctx, port, payload):
                ctx.send(port, payload)

        net = AsyncNetwork(2, PingPong, max_events=50)
        with pytest.raises(SimulationLimitExceeded):
            net.run()
        # The limit fires at exactly max_events, and the count survives the raise.
        assert net.metrics.events_processed == 50

    def test_event_before_the_current_time_is_refused(self):
        class Rewind(AsyncAlgorithm):
            def on_wake(self, ctx):
                ctx._net._push(ctx.now - 0.5, 0, 1, -1, None)

            def on_message(self, ctx, port, payload):
                pass

        with pytest.raises(ProtocolError, match="earlier than the current time 1.0"):
            AsyncNetwork(2, Rewind, wake_times={0: 1.0}).run()

    def test_event_at_the_current_time_runs_after_the_drained_bucket(self):
        order = []

        class Late(AsyncAlgorithm):
            def on_wake(self, ctx):
                order.append(ctx.node)
                if ctx.node == 0:
                    ctx._net._push(ctx.now, 0, 2, -1, None)  # wake node 2 now

            def on_message(self, ctx, port, payload):
                pass

        AsyncNetwork(3, Late, wake_times={0: 0.5, 1: 0.5}).run()
        assert order == [0, 1, 2]


class TestSchedulers:
    def test_constant_delay_is_declared_by_the_constant_schedulers_only(self):
        assert UnitDelayScheduler().constant_delay == 1.0
        assert RushScheduler(1e-3).constant_delay == 1e-3
        assert UniformDelayScheduler(random.Random(0)).constant_delay is None
        assert PerLinkDelayScheduler(random.Random(0)).constant_delay is None
        assert TargetedDelayScheduler({"x": 0.5}).constant_delay is None

        class Custom(UnitDelayScheduler):
            def delay(self, src, dst, send_time, payload):
                return 0.5

        assert Custom().constant_delay is None

    def test_constant_delays_skip_the_fifo_clamp_map(self):
        unit = AsyncNetwork(4, Burst, scheduler=UnitDelayScheduler())
        unit.run()
        assert unit._link_last_delivery == {}
        targeted = AsyncNetwork(4, Burst, scheduler=TargetedDelayScheduler({}))
        targeted.run()
        assert len(targeted._link_last_delivery) == 3

    def test_per_link_delays_are_stable(self):
        sched = PerLinkDelayScheduler(random.Random(0))
        d1 = sched.delay(1, 2, 0.0, None)
        d2 = sched.delay(1, 2, 5.0, None)
        assert d1 == d2
        assert 0 < d1 <= 1

    def test_per_link_directions_independent(self):
        sched = PerLinkDelayScheduler(random.Random(0))
        assert sched.delay(1, 2, 0.0, None) != pytest.approx(
            sched.delay(2, 1, 0.0, None)
        )

    def test_uniform_bounds_validated(self):
        with pytest.raises(ValueError):
            UniformDelayScheduler(random.Random(0), lo=0.0)
        with pytest.raises(ValueError):
            UniformDelayScheduler(random.Random(0), lo=0.5, hi=1.5)

    def test_rush_epsilon_validated(self):
        with pytest.raises(ValueError):
            RushScheduler(epsilon=0.0)


class TestDeterminism:
    def test_same_seed_same_trace(self):
        from repro.core import AsyncTradeoffElection

        r1 = AsyncNetwork(64, lambda: AsyncTradeoffElection(k=2), seed=9).run()
        r2 = AsyncNetwork(64, lambda: AsyncTradeoffElection(k=2), seed=9).run()
        assert r1.messages == r2.messages
        assert r1.leaders == r2.leaders
        assert r1.time == r2.time

    def test_recorder_sees_deliveries(self):
        rec = MemoryRecorder()
        AsyncNetwork(3, Burst, recorder=rec, scheduler=UnitDelayScheduler()).run()
        assert len(rec.of_kind("send")) == 2  # Burst(3) capped by ports? n=3 -> 2 ports
        assert len(rec.of_kind("deliver")) == 2
