"""The numpy copy of the fault RNG stream that link rules draw from.

:class:`repro.fastsync.faults.MersenneStream` loads a ``random.Random``'s
MT19937 state into numpy and draws doubles a block at a time; the fast
engine decides link faults from it, so it must reproduce the object
runtime's ``random()`` calls bit for bit, however the draws are split.
The last test feeds whole send batches to
:class:`~repro.fastsync.faults.FastFaultRuntime` and checks every edge's
fate against :meth:`FaultRuntime.deliveries` called edge by edge.
"""

import random

import pytest

np = pytest.importorskip("numpy")

from repro.faults import FaultPlan, LinkFaults, PartitionMask  # noqa: E402
from repro.faults.runtime import FaultRuntime  # noqa: E402
from repro.fastsync.faults import FastFaultRuntime, MersenneStream  # noqa: E402

SEEDS = [0, 1, 3, 7, 2**16, 123456789]


def test_random_state_layout_is_what_the_stream_mirrors():
    # MersenneStream reads getstate() as (3, 624 key words + position,
    # gauss_next).  A CPython change to that layout must fail here, not
    # make faulted fast runs diverge from the object engine silently.
    version, internal, _gauss = random.Random("faults:0").getstate()
    assert version == 3
    assert isinstance(internal, tuple) and len(internal) == 625
    assert all(isinstance(word, int) for word in internal)
    assert all(0 <= word < 2**32 for word in internal[:624])
    assert internal[624] == 624


@pytest.mark.parametrize("seed", SEEDS)
def test_stream_matches_random_random(seed):
    rng = random.Random(f"faults:{seed}")
    stream = MersenneStream(random.Random(f"faults:{seed}"))
    got = stream.peek(2000)
    assert got.tolist() == [rng.random() for _ in range(2000)]


@pytest.mark.parametrize("seed", SEEDS)
def test_split_takes_and_returned_doubles_continue_the_stream(seed):
    rng = random.Random(f"faults:{seed}")
    expected = [rng.random() for _ in range(3000)]
    stream = MersenneStream(random.Random(f"faults:{seed}"))
    got = []
    # (peek, skip): skip < peek hands the tail back to the buffer; the
    # sizes cross the 624-word twist boundary several times.
    for peek, skip in [(5, 5), (700, 3), (10, 10), (1, 0), (900, 897), (1384, 1085)]:
        block = stream.peek(peek).tolist()
        assert block == expected[len(got):len(got) + peek]
        got.extend(block[:skip])
        stream.skip(skip)
    assert got == expected[:len(got)]
    assert stream.peek(1000).tolist() == expected[len(got):len(got) + 1000]


def test_stream_continues_a_partly_consumed_rng():
    rng = random.Random("faults:9")
    for _ in range(1001):  # mid-block: position is neither 0 nor 624
        rng.random()
    stream = MersenneStream(rng)
    assert stream.peek(50).tolist() == [rng.random() for _ in range(50)]


def test_unknown_state_layout_is_refused():
    class Odd(random.Random):
        def getstate(self):
            version, internal, gauss = super().getstate()
            return version + 1, internal, gauss

    with pytest.raises(ValueError, match="state layout"):
        MersenneStream(Odd(1))


#: Link-rule mixes for the batch-vs-edge check: one-draw rules only,
#: variable-draw rules only, and both interleaved within one batch by
#: kind and sender scopes, with and without a partition in front.
BATCH_PLANS = {
    "duplicate_only": FaultPlan(links=(LinkFaults(duplicate_prob=0.3),)),
    "drop_only": FaultPlan(links=(LinkFaults(drop_prob=0.4, kinds=("win",)),)),
    "drop_and_duplicate": FaultPlan(
        links=(LinkFaults(drop_prob=0.3, duplicate_prob=0.4),)
    ),
    "budget_then_wildcard": FaultPlan(
        links=(
            LinkFaults(drop_prob=0.6, max_drops=4, kinds=("win", "lose")),
            LinkFaults(duplicate_prob=0.1),
        )
    ),
    "interleaved": FaultPlan(
        links=(
            LinkFaults(drop_prob=0.5, duplicate_prob=0.3, max_drops=5, kinds=("win",)),
            LinkFaults(duplicate_prob=0.2, src=3),
            LinkFaults(drop_prob=0.3, dst=5),
            LinkFaults(duplicate_prob=0.05),
        ),
        partitions=(
            PartitionMask(components=((0, 1, 2, 3, 4, 5), (6, 7, 8, 9, 10, 11)), start=2, end=4),
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(BATCH_PLANS))
def test_batch_decisions_match_the_object_runtime_edge_by_edge(name):
    plan = BATCH_PLANS[name]
    n, seed = 12, 11
    fast = FastFaultRuntime(plan, n, range(1, n + 1), seed)
    obj = FaultRuntime(plan, n, list(range(1, n + 1)), seed)
    batches = np.random.default_rng(5)
    for now in range(1, 9):
        m = int(batches.integers(1, 60))
        src = np.sort(batches.integers(0, n, m))
        dst = (src + batches.integers(1, n, m)) % n
        if now % 3 == 0:
            kinds = "compete"
            per_edge = [kinds] * m
        else:
            per_edge = [str(k) for k in batches.choice(["win", "lose", "compete"], m)]
            kinds = per_edge
        got = fast.deliver(now, kinds, src, dst)
        want = {}
        for u, v, kind in zip(src.tolist(), dst.tolist(), per_edge):
            for _ in range(obj.deliveries(u, v, kind, now)):
                want.setdefault(kind, []).append((u, v))
        assert sorted(got) == sorted(want)
        for kind, pairs in want.items():
            assert list(zip(got[kind].src.tolist(), got[kind].dst.tolist())) == pairs
    assert fast.metrics == obj.metrics


def test_a_one_draw_batch_moves_the_stream_by_exactly_its_edges():
    # Rule 0 spends one double per compete; rule 1 (drop and duplicate)
    # spends one or two per win.  A batch claimed by rule 0 alone takes
    # its doubles as one slice, so the stream must sit exactly k doubles
    # on, and a following variable-draw batch must still replay the
    # object runtime edge by edge.
    plan = FaultPlan(
        links=(
            LinkFaults(duplicate_prob=0.3, kinds=("compete",)),
            LinkFaults(drop_prob=0.4, duplicate_prob=0.5, kinds=("win",)),
        )
    )
    n, seed = 9, 4
    fast = FastFaultRuntime(plan, n, range(1, n + 1), seed)
    obj = FaultRuntime(plan, n, list(range(1, n + 1)), seed)
    src = np.repeat(np.arange(n), n - 1)
    dst = (src + np.tile(np.arange(1, n), n)) % n
    k = src.size

    fast.deliver(1, "compete", src, dst)
    replay = random.Random(f"faults:{seed}")
    for _ in range(k):
        replay.random()
    assert fast._stream.peek(1).tolist() == [replay.random()]
    for u, v in zip(src.tolist(), dst.tolist()):
        obj.deliveries(u, v, "compete", 1)

    got = fast.deliver(2, "win", src, dst)
    want = []
    for u, v in zip(src.tolist(), dst.tolist()):
        want.extend([(u, v)] * obj.deliveries(u, v, "win", 2))
    assert list(zip(got["win"].src.tolist(), got["win"].dst.tolist())) == want
    assert fast.metrics == obj.metrics
    assert fast.metrics.dropped_messages and fast.metrics.duplicated_messages
