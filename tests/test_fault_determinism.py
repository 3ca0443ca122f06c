"""Satellite guarantee: same ``(seed, FaultPlan)`` ⇒ identical executions.

Each engine must reproduce a fault-injected run byte for byte: the full
recorded event trace (sends, wakes, decisions, crashes — including
payloads) and the flattened :class:`RunRecord` must be identical across
repeated runs, and must react to either a different seed or a different
plan.
"""

import dataclasses

import pytest

from repro.analysis import RunSpec, run
from repro.faults import (
    AsyncReElectionElection,
    CrashFault,
    DetectorSpec,
    FaultPlan,
    LeaderKillPolicy,
    LinkFaults,
    MonarchicalElection,
    AsyncMonarchicalElection,
    ReElectionElection,
)
from repro.trace import MemoryRecorder

# Monarchical is detector-driven, so it additionally tolerates lossy and
# duplicating links; the re-election wrapper only claims crash tolerance
# (its inner algorithms assume reliable links), so its plan sticks to
# crashes + adversarial kills.
PLAN = FaultPlan(
    crashes=(CrashFault(node=3, at=2),),
    links=(LinkFaults(drop_prob=0.05, duplicate_prob=0.05),),
    policies=(LeaderKillPolicy(kinds=("ree_coord", "coord"), delay=1, max_kills=1),),
    detector=DetectorSpec(lag=1),
)
REELECT_PLAN = dataclasses.replace(PLAN, links=())
OTHER_PLAN = dataclasses.replace(PLAN, crashes=(CrashFault(node=4, at=2),))


def freeze(events):
    return [(e.kind, e.when, e.node, repr(e.detail)) for e in events]


def strip_record(record):
    # fault_metrics / raw result objects differ by identity; compare values.
    extra = dict(record.extra)
    metrics = extra.pop("fault_metrics", None)
    flat = dataclasses.asdict(dataclasses.replace(record, extra={}))
    flat["extra"] = {k: v for k, v in extra.items()}
    if metrics is not None:
        flat["fault_metrics"] = (
            metrics.crashes,
            metrics.policy_kills,
            metrics.dropped_messages,
            metrics.duplicated_messages,
            metrics.first_suspected,
        )
    return flat


def sync_execution(seed, plan):
    recorder = MemoryRecorder()
    record = run(
        RunSpec(
            algorithm=lambda: MonarchicalElection(stable_rounds=4),
            n=24,
            engine="sync",
            seeds=(seed,),
            faults=plan,
        ),
        recorder=recorder,
    )
    return freeze(recorder.events), strip_record(record)


def sync_reelect_execution(seed, plan):
    recorder = MemoryRecorder()
    record = run(
        RunSpec(
            algorithm=lambda: ReElectionElection(inner="afek_gafni", commit_rounds=4),
            n=24,
            engine="sync",
            seeds=(seed,),
            faults=plan,
        ),
        recorder=recorder,
    )
    return freeze(recorder.events), strip_record(record)


def async_execution(seed, plan):
    recorder = MemoryRecorder()
    record = run(
        RunSpec(
            algorithm=lambda: AsyncMonarchicalElection(
                poll_interval=0.5, stable_polls=5
            ),
            n=24,
            engine="async",
            seeds=(seed,),
            wake_times={u: 0.0 for u in range(24)},
            faults=plan,
        ),
        recorder=recorder,
    )
    return freeze(recorder.events), strip_record(record)


def async_reelect_execution(seed, plan):
    recorder = MemoryRecorder()
    record = run(
        RunSpec(
            algorithm=lambda: AsyncReElectionElection(
                inner="async_tradeoff", commit_delay=4.0, poll_interval=0.5
            ),
            n=24,
            engine="async",
            seeds=(seed,),
            wake_times={0: 0.0},
            max_events=2_000_000,
            faults=plan,
        ),
        recorder=recorder,
    )
    return freeze(recorder.events), strip_record(record)


EXECUTIONS = [
    ("sync-monarchical", sync_execution, PLAN),
    ("sync-reelect", sync_reelect_execution, REELECT_PLAN),
    ("async-monarchical", async_execution, PLAN),
    ("async-reelect", async_reelect_execution, REELECT_PLAN),
]
IDS = [e[0] for e in EXECUTIONS]


@pytest.mark.parametrize("label,execute,plan", EXECUTIONS, ids=IDS)
def test_identical_trace_and_record_per_seed_and_plan(label, execute, plan):
    trace_a, record_a = execute(11, plan)
    trace_b, record_b = execute(11, plan)
    assert trace_a == trace_b, f"{label}: trace diverged for identical (seed, plan)"
    assert record_a == record_b, f"{label}: RunRecord diverged"
    assert any(kind == "crash" for kind, *_ in trace_a), "plan must actually crash"


@pytest.mark.parametrize("label,execute,plan", EXECUTIONS, ids=IDS)
def test_seed_changes_execution(label, execute, plan):
    trace_a, _ = execute(11, plan)
    trace_c, _ = execute(12, plan)
    assert trace_a != trace_c, f"{label}: seed had no effect"


def test_plan_changes_execution():
    trace_a, _ = sync_execution(11, PLAN)
    trace_d, _ = sync_execution(11, OTHER_PLAN)
    assert trace_a != trace_d, "crashing a different node must change the trace"


def test_detection_metrics_reproducible():
    _, record_a = sync_execution(11, PLAN)
    _, record_b = sync_execution(11, PLAN)
    assert record_a["fault_metrics"] == record_b["fault_metrics"]
    assert record_a["extra"]["unique_surviving_leader"]
