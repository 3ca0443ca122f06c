"""Trace-digest pins of the fault-tolerant wrappers on both object engines.

Every case runs one ``reelect``, ``quorum_reelect`` or ``monarchical``
election through ``run(RunSpec(..., trace=...))`` and compares the
sha256 of its JSONL trace, plus the record's ``messages``, ``time``,
``leaders`` and ``elected_id``, with ``tests/data/reelect_trace_digests.txt``.
The trace carries full payloads, so the epoch and attempt tags of every
wrapped message and every ``qr_ack`` vote are covered byte for byte.
A case that raises is pinned by its exception type and message, next
to the digest of the trace written up to the raise.

The matrix crosses the wrappers with crashes, leader kills, coord loss,
lossy inner traffic (which fires restart attempts), a sole survivor, a
single awake root, detector slander, a partition and a sampling inner
election, plus each engine's own timing knobs.

Regenerate the data file (only when a change is *meant* to alter
traces) with ``PYTHONPATH=src python tests/test_reelect_pinned.py``.
"""

from __future__ import annotations

import hashlib
import pathlib
import random
import sys
import tempfile

import pytest

from repro.adversary import AdversaryPlan, SlanderWindow
from repro.analysis import RunSpec, run
from repro.asyncnet import UniformDelayScheduler
from repro.faults import (
    CrashFault,
    DetectorSpec,
    FaultPlan,
    LeaderKillPolicy,
    LinkFaults,
    PartitionMask,
)

DATA = pathlib.Path(__file__).resolve().parent / "data" / "reelect_trace_digests.txt"
SEEDS = (0, 1)
N = 16


def _plan(engine, **kwargs):
    kwargs.setdefault("detector", DetectorSpec(lag=1.0))
    return FaultPlan(**kwargs)


def _kill(engine, max_kills, kinds=("ree_coord",)):
    delay = 1 if engine == "sync" else 0.5
    return LeaderKillPolicy(kinds=kinds, delay=delay, max_kills=max_kills)


def _slander(accusers, start):
    return AdversaryPlan(
        slanders=tuple(
            SlanderWindow(accuser=a, victims=(8,), start=start, end=60)
            for a in accusers
        )
    )


def _wrapper_cases(engine):
    """(case, RunSpec kwargs, scheduler) for reelect/quorum_reelect."""
    sync = engine == "sync"
    restart = {"restart_rounds": 24} if sync else {"restart_delay": 12}
    one_root = {"awake": (5,)} if sync else {"wake_times": {5: 0.0}}
    inner = "kutten16" if sync else "async_afek_gafni"
    # A commit window long enough for the round-5 slander to land inside it.
    slow_commit = {"commit_rounds": 12} if sync else {"commit_delay": 12}
    cases = [
        ("crash", dict(faults=_plan(engine, crashes=(CrashFault(node=N - 1, at=3),))), None),
        ("kill2", dict(faults=_plan(engine, policies=(_kill(engine, 2),))), None),
        ("coordloss_kill", dict(faults=_plan(
            engine,
            links=(LinkFaults(drop_prob=1.0, kinds=("ree_coord",), max_drops=3),),
            policies=(_kill(engine, 1),),
        )), None),
        ("loss5", dict(faults=_plan(engine, links=(LinkFaults(drop_prob=0.05),))), None),
        ("loss5_window", dict(
            faults=_plan(engine, links=(LinkFaults(drop_prob=0.05),)), params=restart,
        ), None),
        ("sole_survivor", dict(n=3, faults=_plan(
            engine, crashes=(CrashFault(node=1, at=2), CrashFault(node=2, at=2)),
        )), None),
        ("one_root", dict(faults=_plan(engine), **one_root), None),
        ("slander", dict(faults=_plan(engine), adversary=_slander((0,), 5),
                         params=slow_commit), None),
        # Plain reelect never terminates here (the victim keeps waiting
        # for its own reign), so the engine limit is kept small.
        ("slander4", dict(faults=_plan(engine), adversary=_slander((0, 1, 2, 3), 1),
                          **({"max_rounds": 512} if sync else {"max_events": 20000})),
         None),
        ("partition_10_6", dict(faults=_plan(engine, partitions=(
            PartitionMask(components=(tuple(range(10)), tuple(range(10, N))), start=1),
        ))), None),
        ("sampling_inner", dict(faults=_plan(engine, crashes=(CrashFault(node=N - 1, at=3),)),
                                params={"inner": inner}), None),
    ]
    if sync:
        cases.append(("dup30", dict(
            faults=_plan(engine, links=(LinkFaults(duplicate_prob=0.3),)),
        ), None))
    else:
        cases += [
            ("all_awake", dict(
                faults=_plan(engine, crashes=(CrashFault(node=N - 1, at=3),)),
                wake_times={u: 0.0 for u in range(N)},
            ), None),
            ("poll2_commit6", dict(
                faults=_plan(engine, policies=(_kill(engine, 1),)),
                params={"poll_interval": 2, "commit_delay": 6},
            ), None),
            ("jitter_loss3", dict(
                faults=_plan(engine, links=(LinkFaults(drop_prob=0.03),)),
            ), "uniform"),
            # Jittered delays let a peer's higher-epoch traffic beat my poll.
            ("jitter_crash", dict(faults=_plan(
                engine, crashes=(CrashFault(node=N - 1, at=3),),
                links=(LinkFaults(drop_prob=0.03),),
            )), "uniform"),
            # Lost votes stall a quorum leader's commit timer: it retransmits
            # and re-arms, but its followers have committed and halted.
            ("ackloss", dict(faults=_plan(engine, links=(
                LinkFaults(drop_prob=1.0, kinds=("qr_ack",), max_drops=150),
            )), max_events=20000), None),
        ]
    return cases


def _monarchical_cases(engine):
    awake = {} if engine == "sync" else {"wake_times": {u: 0.0 for u in range(N)}}
    noisy = DetectorSpec(
        kind="eventually_perfect", lag=1.0, noise_horizon=6.0, false_prob=0.3
    )
    return [
        ("crash", dict(faults=_plan(engine, crashes=(CrashFault(node=N - 1, at=3),)),
                       **awake), None),
        ("kill", dict(faults=_plan(engine, policies=(_kill(engine, 1, ("coord",)),)),
                      **awake), None),
        ("diamond_p", dict(faults=_plan(
            engine, crashes=(CrashFault(node=N - 1, at=3),), detector=noisy,
        ), **awake), None),
    ]


def _matrix():
    out = []
    for algorithm in ("reelect", "quorum_reelect", "monarchical"):
        for engine in ("sync", "async"):
            make = _monarchical_cases if algorithm == "monarchical" else _wrapper_cases
            for case, kwargs, scheduler in make(engine):
                for seed in SEEDS:
                    out.append((f"{algorithm}-{engine}-{case}-s{seed}",
                                algorithm, engine, seed, kwargs, scheduler))
    return out


MATRIX = _matrix()


def _digest(algorithm, engine, seed, kwargs, scheduler) -> str:
    kwargs = dict(kwargs)
    n = kwargs.pop("n", N)
    sched = None
    if scheduler == "uniform":
        sched = UniformDelayScheduler(random.Random(5))
    with tempfile.TemporaryDirectory() as tmp:
        trace = pathlib.Path(tmp) / "trace.jsonl"
        try:
            record = run(
                RunSpec(algorithm=algorithm, n=n, engine=engine, seeds=(seed,),
                        trace=str(trace), **kwargs),
                scheduler=sched,
            )
        except Exception as exc:  # pinned: the same failure, the same trace
            outcome = f"raises {type(exc).__name__}: {exc}"
        else:
            outcome = (f"messages={record.messages} time={record.time!r} "
                       f"leaders={record.leaders} elected_id={record.elected_id}")
        sha = hashlib.sha256(trace.read_bytes()).hexdigest()
    return f"{sha} {outcome}"


def _pinned():
    pins = {}
    for line in DATA.read_text().splitlines():
        case, _, digest = line.partition(" ")
        pins[case] = digest
    return pins


PINS = _pinned() if DATA.exists() else {}


@pytest.mark.parametrize("case,algorithm,engine,seed,kwargs,scheduler", MATRIX,
                         ids=[m[0] for m in MATRIX])
def test_trace_digest_is_pinned(case, algorithm, engine, seed, kwargs, scheduler):
    assert _digest(algorithm, engine, seed, kwargs, scheduler) == PINS[case]


def test_matrix_matches_data_file():
    assert sorted(PINS) == sorted(m[0] for m in MATRIX)


if __name__ == "__main__":
    lines = [f"{m[0]} {_digest(*m[1:])}" for m in MATRIX]
    DATA.write_text("\n".join(lines) + "\n")
    sys.stdout.write(f"wrote {len(lines)} digests to {DATA}\n")
