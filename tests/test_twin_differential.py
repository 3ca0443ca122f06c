"""Differential twin harness: every algorithm × every fault feature.

The proof layer of the vectorized fault runtime
(:class:`repro.fastsync.faults.FastFaultRuntime`): each case builds one
exact-mode :class:`~repro.sweep.RunSpec` and hands it to
:func:`tests.helpers.assert_twin_run`, which executes the spec on the
fast engine and on the object engine over the *same* port matrix and
asserts bit-identical decisions, per-node outputs, message/round
counters and the full fault-metrics ledger — crashes, partitions (with
auto-heal), stochastic and budgeted link faults, kill policies and all
four Byzantine tamper modes.  A hypothesis property then searches the
plan space at random (with shrinking) for divergences the fixed matrix
misses.
"""

import pytest
from hypothesis import given, settings, strategies as st

pytest.importorskip("numpy")

from repro.adversary.plan import AdversaryPlan, TamperRule  # noqa: E402
from repro.faults import (  # noqa: E402
    CrashFault,
    FaultPlan,
    LeaderKillPolicy,
    LinkFaults,
    PartitionMask,
)
from repro.sweep import RunSpec  # noqa: E402

from tests.helpers import assert_twin_run, make_ids  # noqa: E402

#: Every fault-capable vectorized port, with twin-safe parameters.
ALGOS = {
    "improved_tradeoff": {"ell": 5},
    "afek_gafni": {"ell": 4},
    "las_vegas": {},
    "small_id": {"d": 2},
    "kutten16": {},
    "adversarial_2round": {},
}

#: Announcement vocabulary across the six ports (kill-policy triggers).
KILL_KINDS = ("final", "elected", "announce", "ballot", "rank")

#: Kind scopes for random link rules: a single kind, and the interleaved
#: win/lose grants that reach the runtime as per-edge kind sequences.
LINK_KINDS = (("compete",), ("response",), ("win",), ("win", "lose"), KILL_KINDS)


def fault_features(n):
    """The per-feature plan matrix for an ``n``-clique."""
    half = tuple(range(n // 2))
    rest = tuple(range(n // 2, n))
    return {
        "crashes": FaultPlan(
            crashes=(CrashFault(node=n - 1, at=1), CrashFault(node=0, at=3))
        ),
        "partition_heal": FaultPlan(
            partitions=(PartitionMask(components=(half, rest), start=2, end=4),)
        ),
        "partition_forever": FaultPlan(
            partitions=(PartitionMask(components=(half, rest), start=1),)
        ),
        "isolate_node": FaultPlan(
            partitions=(
                PartitionMask(components=(tuple(range(1, n)),), start=2, end=5),
            )
        ),
        "drops": FaultPlan(links=(LinkFaults(drop_prob=0.3),)),
        "drop_budget": FaultPlan(links=(LinkFaults(drop_prob=1.0, max_drops=3),)),
        "duplicates": FaultPlan(links=(LinkFaults(duplicate_prob=0.4),)),
        "kill_policy": FaultPlan(
            policies=(
                LeaderKillPolicy(kinds=KILL_KINDS, delay=1.0, max_kills=1),
            ),
            protect=(0,),
        ),
        "tamper_corrupt": FaultPlan(
            adversary=AdversaryPlan(
                byzantine=(1,),
                tampers=(TamperRule(mode="corrupt", magnitude=3, prob=0.7),),
            )
        ),
        "tamper_forge": FaultPlan(
            adversary=AdversaryPlan(
                byzantine=(1,), tampers=(TamperRule(mode="forge", prob=0.7),)
            )
        ),
        "tamper_replay": FaultPlan(
            adversary=AdversaryPlan(
                byzantine=(1,), tampers=(TamperRule(mode="replay", prob=0.7),)
            )
        ),
        "tamper_equivocate": FaultPlan(
            adversary=AdversaryPlan(
                byzantine=(1,),
                tampers=(TamperRule(mode="equivocate", magnitude=2, prob=0.7),),
            )
        ),
        "mixed": FaultPlan(
            crashes=(CrashFault(node=n - 1, at=2),),
            links=(LinkFaults(drop_prob=0.2, kinds=("response",)),),
            partitions=(PartitionMask(components=(half, rest), start=3, end=5),),
        ),
    }


FEATURES = sorted(fault_features(8))


@pytest.mark.parametrize("algorithm", sorted(ALGOS))
@pytest.mark.parametrize("feature", FEATURES)
def test_twin_bit_identity(algorithm, feature):
    for n, seed in [(5, 1), (8, 2), (16, 3)]:
        plan = fault_features(n)[feature]
        spec = RunSpec(
            algorithm=algorithm,
            n=n,
            seeds=(seed,),
            params=ALGOS[algorithm],
            faults=plan,
            max_rounds=150,
        )
        assert_twin_run(spec)


@pytest.mark.parametrize("algorithm", sorted(ALGOS))
def test_twin_with_scrambled_ids_and_protection(algorithm):
    n = 12
    plan = FaultPlan(
        crashes=(CrashFault(node=7, at=2),),
        links=(LinkFaults(drop_prob=0.25, duplicate_prob=0.25),),
        protect=(3,),
    )
    params = dict(ALGOS[algorithm])
    if algorithm == "small_id":
        params["g"] = 8  # make_ids draws from [1, 8n]: Algorithm 1's universe
    spec = RunSpec(
        algorithm=algorithm,
        n=n,
        seeds=(4,),
        params=params,
        ids=make_ids(n, seed=5),
        faults=plan,
        max_rounds=150,
    )
    assert_twin_run(spec)


def test_twin_adversarial_roots_under_faults():
    # The wake-up-aware port honors roots= under a plan (roots map to
    # the object engine's awake= schedule inside assert_twin_run).
    for roots in [(0,), (2, 5), tuple(range(6))]:
        spec = RunSpec(
            algorithm="adversarial_2round",
            n=9,
            seeds=(6,),
            roots=roots,
            faults=FaultPlan(links=(LinkFaults(drop_prob=0.4),)),
            max_rounds=100,
        )
        assert_twin_run(spec)


def test_twin_stalls_match():
    # Cutting every announcement can stall afek_gafni's followers; the
    # helper accepts the case only when BOTH engines hit the limit.
    spec = RunSpec(
        algorithm="afek_gafni",
        n=4,
        seeds=(0,),
        params={"ell": 4},
        faults=FaultPlan(links=(LinkFaults(drop_prob=1.0, kinds=("elected",)),)),
        max_rounds=40,
    )
    fast, obj = assert_twin_run(spec)
    assert fast is None and obj is None  # stalled on both engines


@pytest.mark.parametrize(
    "algorithm,scope",
    [
        ("improved_tradeoff", "compete"),
        ("afek_gafni", "compete"),
        ("kutten16", "compete"),
        ("kutten16", "win"),
    ],
)
def test_twin_variable_and_one_draw_rules_share_rounds(algorithm, scope):
    # A scoped, budgeted drop+duplicate rule draws once or twice per
    # message it claims; the wildcard rule behind it draws exactly once.
    # Both kinds of edge then share rounds (and, for the interleaved
    # win/lose grants, one send batch), so the fast runtime must walk the
    # variable-draw edges over the doubles the one-draw edges between
    # them leave, and carry unused doubles into the next batch.
    plan = FaultPlan(
        links=(
            LinkFaults(
                drop_prob=0.5, duplicate_prob=0.3, max_drops=2, kinds=(scope,)
            ),
            LinkFaults(duplicate_prob=0.05),
        )
    )
    for n, seed in [(16, 0), (24, 5)]:
        spec = RunSpec(
            algorithm=algorithm,
            n=n,
            seeds=(seed,),
            params=ALGOS[algorithm],
            faults=plan,
            max_rounds=150,
        )
        fast, obj = assert_twin_run(spec)
        assert fast.rounds_executed >= 3
        # The budget ran out, so later claimed messages draw only once.
        assert obj.fault_metrics.dropped_messages == 2
        assert obj.fault_metrics.duplicated_messages > 0


@st.composite
def random_plans(draw):
    """A random FaultPlan over ``n`` nodes: the shrink-friendly generator."""
    n = draw(st.integers(min_value=4, max_value=12))
    crashes = []
    for node in draw(
        st.lists(st.integers(1, n - 1), max_size=2, unique=True)
    ):  # node 0 is protected below, so it never crashes
        crashes.append(CrashFault(node=node, at=draw(st.integers(1, 6))))
    links = []
    for _ in range(draw(st.integers(0, 2))):
        drop = draw(st.sampled_from([0.0, 0.3, 1.0]))
        dup = draw(st.sampled_from([0.4] if drop == 0.0 else [0.0, 0.4]))
        max_drops = None
        if drop > 0.0:
            max_drops = draw(st.one_of(st.none(), st.integers(1, 4)))
        links.append(
            LinkFaults(
                drop_prob=drop,
                duplicate_prob=dup,
                src=draw(st.one_of(st.none(), st.integers(0, n - 1))),
                dst=draw(st.one_of(st.none(), st.integers(0, n - 1))),
                kinds=draw(st.one_of(st.none(), st.sampled_from(LINK_KINDS))),
                max_drops=max_drops,
            )
        )
    partitions = []
    if draw(st.booleans()):
        cut = draw(st.integers(1, n - 1))
        start = draw(st.integers(1, 5))
        end = draw(st.one_of(st.none(), st.integers(start + 1, start + 4)))
        partitions.append(
            PartitionMask(
                components=(tuple(range(cut)), tuple(range(cut, n))),
                start=start,
                end=end,
            )
        )
    policies = []
    if draw(st.booleans()):
        policies.append(
            LeaderKillPolicy(kinds=KILL_KINDS, delay=1.0, max_kills=1)
        )
    adversary = None
    if draw(st.booleans()):
        adversary = AdversaryPlan(
            byzantine=(draw(st.integers(0, n - 1)),),
            tampers=(
                TamperRule(
                    mode=draw(
                        st.sampled_from(
                            ["corrupt", "forge", "replay", "equivocate"]
                        )
                    ),
                    magnitude=draw(st.integers(1, 5)),
                    prob=draw(st.sampled_from([0.5, 1.0])),
                ),
            ),
        )
    plan = FaultPlan(
        crashes=tuple(crashes),
        links=tuple(links),
        partitions=tuple(partitions),
        policies=tuple(policies),
        protect=(0,),  # keep one node alive so crash lists stay legal
        adversary=adversary,
    )
    return n, plan


@pytest.mark.parametrize("algorithm", sorted(ALGOS))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_random_fault_plans_stay_bit_identical(algorithm, data):
    n, plan = data.draw(random_plans(), label="plan")
    seed = data.draw(st.integers(min_value=0, max_value=2**16), label="seed")
    spec = RunSpec(
        algorithm=algorithm,
        n=n,
        seeds=(seed,),
        params=ALGOS[algorithm],
        faults=plan,
        max_rounds=120,
    )
    assert_twin_run(spec)
