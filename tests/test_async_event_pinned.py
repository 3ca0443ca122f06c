"""Trace-digest pins of the asynchronous engine's event order.

Every case runs one async election through ``run(RunSpec(...,
trace=...), scheduler=...)`` and compares the sha256 of its JSONL trace,
plus the record's ``messages``, ``time``, ``events`` and leaders, with
``tests/data/async_event_digests.txt``.  The trace stamps every send,
delivery, wake, decide, timer-driven send and crash with its time and
payload, so any change in which event runs first at a shared time shows
as a new digest.

The matrix crosses ``async_tradeoff``, ``async_afek_gafni`` and async
``reelect`` (which arms timers and loses its leader to a
``LeaderKillPolicy`` crash) with the five delay schedulers: unit, seeded
uniform, rush, seeded per-link and per-kind targeted.  The first and
third have one constant delay; the others exercise the per-link FIFO
clamp.

Regenerate the data file (only when a change is *meant* to alter event
order) with ``PYTHONPATH=src python tests/test_async_event_pinned.py``.
"""

from __future__ import annotations

import hashlib
import pathlib
import random
import sys
import tempfile

import pytest

from repro.analysis import RunSpec, run
from repro.asyncnet import (
    PerLinkDelayScheduler,
    RushScheduler,
    TargetedDelayScheduler,
    UniformDelayScheduler,
    UnitDelayScheduler,
)
from repro.faults import DetectorSpec, FaultPlan, LeaderKillPolicy

DATA = pathlib.Path(__file__).resolve().parent / "data" / "async_event_digests.txt"
SEEDS = (0, 1)
N = 32

#: Rush some kinds, stall others: the FIFO clamp fires on mixed links.
TARGETED = {
    "compete": 0.01, "win": 1.0, "req": 0.01, "cancel": 1.0, "ree_coord": 0.3,
}

SCHEDULERS = {
    "unit": UnitDelayScheduler,
    "uniform": lambda: UniformDelayScheduler(random.Random(5)),
    "rush": RushScheduler,
    "perlink": lambda: PerLinkDelayScheduler(random.Random(7)),
    "targeted": lambda: TargetedDelayScheduler(TARGETED),
}

ALGORITHMS = {
    "async_tradeoff": {},
    "async_afek_gafni": {},
    "reelect": dict(faults=FaultPlan(
        detector=DetectorSpec(lag=1.0),
        policies=(LeaderKillPolicy(kinds=("ree_coord",), delay=0.5, max_kills=1),),
    )),
}

MATRIX = [
    (f"{algorithm}-{scheduler}-s{seed}", algorithm, scheduler, seed)
    for algorithm in ALGORITHMS
    for scheduler in SCHEDULERS
    for seed in SEEDS
]


def _digest(algorithm: str, scheduler: str, seed: int) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        trace = pathlib.Path(tmp) / "trace.jsonl"
        record = run(
            RunSpec(algorithm=algorithm, n=N, engine="async", seeds=(seed,),
                    trace=str(trace), **ALGORITHMS[algorithm]),
            scheduler=SCHEDULERS[scheduler](),
        )
        sha = hashlib.sha256(trace.read_bytes()).hexdigest()
    return (f"{sha} messages={record.messages} time={record.time!r} "
            f"events={record.extra['events']} leaders={record.leaders} "
            f"elected_id={record.elected_id}")


def _pinned():
    pins = {}
    for line in DATA.read_text().splitlines():
        case, _, digest = line.partition(" ")
        pins[case] = digest
    return pins


PINS = _pinned() if DATA.exists() else {}


@pytest.mark.parametrize("case,algorithm,scheduler,seed", MATRIX,
                         ids=[m[0] for m in MATRIX])
def test_event_order_is_pinned(case, algorithm, scheduler, seed):
    assert _digest(algorithm, scheduler, seed) == PINS[case]


def test_matrix_matches_data_file():
    assert sorted(PINS) == sorted(m[0] for m in MATRIX)


if __name__ == "__main__":
    lines = [f"{m[0]} {_digest(*m[1:])}" for m in MATRIX]
    DATA.write_text("\n".join(lines) + "\n")
    sys.stdout.write(f"wrote {len(lines)} digests to {DATA}\n")
