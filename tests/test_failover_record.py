"""``RunRecord.extra["failover"]``: failover numbers measured by the executor.

Every faulted sync/async run measures detection latency, re-election
time and post-crash message cost off its own event stream.  The pinned
values below were produced by the pre-executor failover wrapper on the
same specs, so the move into ``sweep/api`` is pinned bit for bit.
"""

import pickle

import pytest

from repro.analysis import RunSpec, run, sweep
from repro.core import get_algorithm
from repro.faults import CrashFault, DetectorSpec, FaultPlan, LeaderKillPolicy
from repro.sweep.spec import canonical_record

#: (engine, algorithm, plan, seed, messages, detection_latencies,
#:  reelection_time, messages_after_first_crash)
PINNED = [
    ("sync", "reelect", "kill", 0, 235, [1], 9.0, 133),
    ("sync", "reelect", "kill", 1, 233, [1], 9.0, 132),
    ("sync", "reelect", "crash", 0, 213, [1], 9.0, 144),
    ("sync", "reelect", "crash", 1, 211, [1], 9.0, 143),
    ("sync", "quorum_reelect", "kill", 0, 302, [1], 10.0, 200),
    ("sync", "quorum_reelect", "kill", 1, 300, [1], 10.0, 199),
    ("sync", "quorum_reelect", "crash", 0, 269, [1], 10.0, 200),
    ("sync", "quorum_reelect", "crash", 1, 267, [1], 10.0, 199),
    ("async", "reelect", "kill", 0, 615, [1.0], 9.0, 302),
    ("async", "reelect", "kill", 1, 583, [1.0], 7.0, 304),
    ("async", "reelect", "crash", 0, 624, [1.0], 9.0, 338),
    ("async", "reelect", "crash", 1, 638, [1.0], 9.0, 332),
    ("async", "quorum_reelect", "kill", 0, 715, [1.0], 9.0, 402),
    ("async", "quorum_reelect", "kill", 1, 683, [1.0], 7.0, 404),
    ("async", "quorum_reelect", "crash", 0, 722, [1.0], 9.0, 436),
    ("async", "quorum_reelect", "crash", 1, 771, [1.0], 9.0, 438),
]


def plan_for(kind, engine, n):
    if kind == "kill":
        return FaultPlan(
            policies=(LeaderKillPolicy(delay=1 if engine == "sync" else 0.5),),
            detector=DetectorSpec(lag=1.0),
        )
    return FaultPlan(
        crashes=(CrashFault(node=n - 1, at=4.0),),
        detector=DetectorSpec(kind="perfect", lag=1.0),
    )


def faulted_spec(engine, name, kind, seed):
    n = 12 if engine == "sync" else 10
    wake = {}
    if engine == "async":
        wake = dict(wake_times={u: 0.0 for u in range(n)}, max_events=2_000_000)
    return RunSpec(
        algorithm=get_algorithm(name).make(engine=engine),
        n=n,
        engine=engine,
        seeds=(seed,),
        faults=plan_for(kind, engine, n),
        **wake,
    )


@pytest.mark.parametrize(
    "engine,name,kind,seed,messages,latencies,reelection,after", PINNED
)
def test_failover_extra_is_pinned(
    engine, name, kind, seed, messages, latencies, reelection, after
):
    record = run(faulted_spec(engine, name, kind, seed))
    assert record.messages == messages
    assert record.extra["failover"] == {
        "detection_latencies": latencies,
        "reelection_time": reelection,
        "messages_after_first_crash": after,
    }
    assert record.extra["metrics"]["gauges"]["failover_latency"] == reelection
    # Plain data: the event stream it was measured from is gone.
    pickle.dumps(record.extra["failover"])


def test_fault_free_runs_carry_no_failover():
    record = run(RunSpec(algorithm="reelect", n=8, engine="sync"))
    assert "failover" not in record.extra


def test_faulted_grid_is_identical_across_worker_counts():
    plan = plan_for("crash", "sync", 12)
    grid = [
        RunSpec(algorithm=name, n=12, engine="sync", seeds=(0, 1, 2), faults=plan)
        for name in ("reelect", "quorum_reelect")
    ]
    one = [canonical_record(r) for r in sweep(grid, workers=1)]
    two = [canonical_record(r) for r in sweep(grid, workers=2)]
    assert one == two
    assert all("failover" in record["extra"] for record in one)
