"""One engine send per batch: ``send_many``/``broadcast`` equal single sends.

Both object engines hand a whole batch to one internal send.  A batch
must leave exactly the trace, deliveries and metrics that the same
messages sent one ``send`` at a time leave, with and without link faults.
"""

import random

import pytest

from repro.asyncnet.algorithm import AsyncAlgorithm
from repro.asyncnet.engine import AsyncNetwork
from repro.asyncnet.schedulers import UniformDelayScheduler
from repro.faults.plan import FaultPlan, LinkFaults
from repro.net.ports import CallbackPortPolicy, LazyPortMap
from repro.sync.algorithm import SyncAlgorithm
from repro.sync.engine import SyncNetwork
from repro.trace import MemoryRecorder

N = 8
PORTS = [4, 1, 4, 0, 6, 2]  # port 4 twice: one port open, two messages
FAULTS = [None, FaultPlan(links=(LinkFaults(drop_prob=0.3, duplicate_prob=0.3),))]


def _send_all(ctx, batched):
    if batched:
        ctx.send_many(PORTS, ("probe", 1))
        ctx.broadcast(("all",))
    else:
        for port in PORTS:
            ctx.send(port, ("probe", 1))
        for port in range(ctx.port_count):
            ctx.send(port, ("all",))


def _sync_factory(batched, inboxes):
    class Sender(SyncAlgorithm):
        def on_round(self, ctx, inbox):
            inboxes.append((ctx.round, ctx.node, list(inbox)))
            if ctx.node == 0 and ctx.round == 1:
                _send_all(ctx, batched)
                return
            if ctx.node == 0:
                ctx.send_many([], ("empty",))
            ctx.halt()

    return Sender


def _async_factory(batched):
    class Sender(AsyncAlgorithm):
        def on_wake(self, ctx):
            if ctx.node == 0:
                _send_all(ctx, batched)

        def on_message(self, ctx, port, payload):
            pass

    return Sender


def _sync_run(batched, faults):
    inboxes, recorder = [], MemoryRecorder()
    net = SyncNetwork(
        N, _sync_factory(batched, inboxes), seed=3, awake=[0], recorder=recorder,
        faults=faults,
    )
    net.run()
    return net.metrics, inboxes, recorder.events


@pytest.mark.parametrize("faults", FAULTS)
def test_sync_batch_equals_single_sends(faults):
    metrics, inboxes, events = _sync_run(True, faults)
    single_metrics, single_inboxes, single_events = _sync_run(False, faults)
    for name in ("messages_total", "sends_by_round", "messages_by_kind", "port_opens",
                 "last_send_round"):
        assert getattr(metrics, name) == getattr(single_metrics, name), name
    assert metrics.messages_total == len(PORTS) + N - 1
    assert metrics.port_opens == N - 1
    assert inboxes == single_inboxes
    assert events == single_events
    # The empty batch in round 2 left the round-1 accounting alone.
    assert metrics.last_send_round == 1
    assert set(metrics.sends_by_round) == {1}


@pytest.mark.parametrize("faults", FAULTS)
def test_async_batch_equals_single_sends(faults):
    def run(batched):
        recorder = MemoryRecorder()
        net = AsyncNetwork(
            N, _async_factory(batched), seed=3, recorder=recorder, faults=faults,
            scheduler=UniformDelayScheduler(random.Random(5)),
        )
        net.run()
        return net.metrics, recorder.events

    metrics, events = run(True)
    single_metrics, single_events = run(False)
    assert metrics.messages_total == single_metrics.messages_total == len(PORTS) + N - 1
    assert metrics.messages_by_kind == single_metrics.messages_by_kind
    # Sends, then deliveries in heap order, with their timestamps.
    assert events == single_events


class _Escape(Exception):
    pass


def _escape_on_third_link(pm, u, port):
    if pm.link_count() == 2:
        raise _Escape
    return next(v for v in range(pm.n) if v != u and not pm.linked(u, v))


class SyncSpray(SyncAlgorithm):
    def on_round(self, ctx, inbox):
        ctx.send_many(range(5), ("spray",))


class AsyncSpray(AsyncAlgorithm):
    def on_wake(self, ctx):
        ctx.send_many(range(5), ("spray",))

    def on_message(self, ctx, port, payload):
        pass


@pytest.mark.parametrize(
    "engine, algorithm", [(SyncNetwork, SyncSpray), (AsyncNetwork, AsyncSpray)]
)
def test_batch_cut_short_counts_the_sends_made(engine, algorithm):
    # A policy may raise mid-batch (the terminating-component search
    # does) and its caller still reads the totals of the sends made.
    policy = CallbackPortPolicy(_escape_on_third_link)
    net = engine(N, algorithm, port_map=LazyPortMap(N, policy))
    with pytest.raises(_Escape):
        net.run()
    assert net.metrics.messages_total == 2
    assert net.metrics.messages_by_kind == {"spray": 2}
