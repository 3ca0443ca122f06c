"""Shared helpers for the test suite (imported as ``tests.helpers``)."""

from __future__ import annotations

import os
import pathlib
import random
import subprocess
import sys

from repro.common import SimulationLimitExceeded
from repro.sync.engine import SyncNetwork


def make_ids(n: int, seed: int = 0, spread: int = 8) -> list:
    """A scrambled ID assignment from a Θ(n·spread) universe."""
    rng = random.Random(f"ids:{n}:{seed}")
    return rng.sample(range(1, spread * n + 1), n)


def run_cli(*argv: str) -> subprocess.CompletedProcess:
    """``python -m repro ARGV`` in a fresh interpreter (exit code, streams)."""
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )


def run_sync(n, factory, *, seed=0, ids=None, awake=None, port_map=None, max_rounds=None):
    """One-liner synchronous run used throughout the tests."""
    net = SyncNetwork(
        n,
        factory,
        ids=ids,
        seed=seed,
        awake=awake,
        port_map=port_map,
        max_rounds=max_rounds,
    )
    return net.run()


#: FaultMetrics fields covered by the twin contract.  ``first_suspected``
#: is deliberately absent: it is detector-driven, and the vectorized
#: ports do not instantiate failure detectors.
FAULT_METRIC_FIELDS = (
    "crashes",
    "policy_kills",
    "suppressed_crashes",
    "dropped_messages",
    "duplicated_messages",
    "partition_blocked",
    "tampered_messages",
    "tampered_by_mode",
)


def crash_plan(crashes):
    """A crash-only FaultPlan from ``(node, at)`` pairs."""
    from repro.faults import CrashFault, FaultPlan

    return FaultPlan(crashes=tuple(CrashFault(node=u, at=at) for u, at in crashes))


def assert_twin_run(spec):
    """Execute one exact-mode spec on both engines; assert bit-identity.

    The differential oracle of the vectorized engine: the spec runs once
    on :class:`FastSyncNetwork` (``mode="exact"``, faults and roots
    taken from the spec) and once on the object engine wired to the very
    same port matrix, and every observable the two share must be
    bit-identical — winners, per-node outputs, message totals, per-kind
    and per-round send counts, round counters, survivor accounting and
    the full fault-metrics ledger.  ``halted_count`` and
    ``dropped_deliveries`` are engine-private (the folds do not model
    straggler bookkeeping) and stay out of the contract.

    A spec that stalls must stall on *both* engines: when the object twin
    raises :class:`SimulationLimitExceeded` the fast run must have raised
    it too, and the helper returns ``(None, None)``.  Otherwise it
    returns ``(fast_result, obj_result)`` for extra assertions.
    """
    from repro.fastsync import FastSyncNetwork
    from repro.sweep.api import _fast_algorithm, _object_factory

    if len(spec.seeds) != 1 or spec.batch is not None:
        raise ValueError("assert_twin_run compares one seed at a time")
    if spec.quorum:
        raise ValueError(
            "the quorum veto is an engine-level gate, not part of the "
            "bit-exact twin contract; compare quorum specs by hand"
        )
    seed = spec.seeds[0]
    fast_net = FastSyncNetwork(
        spec.n,
        ids=spec.ids,
        seed=seed,
        mode="exact",
        max_rounds=spec.max_rounds,
        roots=spec.roots,
        faults=spec.effective_faults(),
    )
    port_map = fast_net.port_map()
    fast_stall = None
    fast = None
    try:
        fast = fast_net.run(_fast_algorithm(spec.algorithm, spec.params))
    except SimulationLimitExceeded as exc:
        fast_stall = exc
    awake = spec.roots if spec.roots is not None else spec.awake
    obj_net = SyncNetwork(
        spec.n,
        _object_factory(spec, "sync"),
        ids=spec.ids,
        seed=seed,
        awake=awake,
        port_map=port_map,
        max_rounds=spec.max_rounds,
        faults=spec.effective_faults(),
    )
    try:
        obj = obj_net.run()
    except SimulationLimitExceeded:
        assert fast_stall is not None, (
            "object engine stalled but the fast engine terminated"
        )
        return None, None
    assert fast_stall is None, (
        f"fast engine stalled but the object engine terminated: {fast_stall}"
    )
    assert fast.leaders == obj.leaders
    assert fast.leader_ids == obj.leader_ids
    assert fast.messages == obj.messages
    assert fast.rounds_executed == obj.rounds_executed
    assert fast.last_send_round == obj.last_send_round
    assert fast.decided_count == obj.decided_count
    assert fast.awake_count == obj.awake_count
    assert fast.messages_by_kind == dict(obj.metrics.messages_by_kind)
    assert fast.sends_by_round == dict(obj.metrics.sends_by_round)
    assert fast.crashed == obj.crashed
    if fast.outputs is not None:
        assert fast.outputs == obj.outputs
    if fast.fault_metrics is not None and obj.fault_metrics is not None:
        for name in FAULT_METRIC_FIELDS:
            assert getattr(fast.fault_metrics, name) == getattr(
                obj.fault_metrics, name
            ), f"fault_metrics.{name} diverged"
    return fast, obj
