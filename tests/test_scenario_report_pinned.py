"""Report-digest pins of every named scenario on all three engines.

Every case runs one named scenario through :func:`run_scenario` and
compares the sha256 of its :func:`scenario_report`, dumped with
``sort_keys=True``, with ``tests/data/scenario_report_digests.txt``.
Each exported record's ``extra`` is stripped of ``VOLATILE_EXTRA_KEYS``
first (``tests.helpers.stable_scenario_report``): fast records carry
``wall_time_s``, which no rerun reproduces.

The grid crosses the named scenarios with sync/async/fast, quorum on
and off, seeds 0 and 1 and n in {9, 16}.  ``max_events=20000`` keeps
each async act that wedges under slander short (at the default cap one
such act runs for seconds).  Wedged acts on both object engines are
recorded as stalled, and the grid covers them.

Regenerate the data file (only when a change is *meant* to alter
reports), from the repository root, with
``PYTHONPATH=src python -m tests.test_scenario_report_pinned``.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys

import pytest

from repro.scenarios import NAMED_SCENARIOS, get_scenario, run_scenario

from tests.helpers import stable_scenario_report

DATA = pathlib.Path(__file__).resolve().parent / "data" / "scenario_report_digests.txt"
ENGINES = ("sync", "async", "fast")
SIZES = (9, 16)
SEEDS = (0, 1)
MAX_EVENTS = 20_000


def _matrix():
    out = []
    for name in sorted(NAMED_SCENARIOS):
        for engine in ENGINES:
            for quorum in (False, True):
                for n in SIZES:
                    for seed in SEEDS:
                        case = f"{name}-{engine}-{'quorum' if quorum else 'plain'}-n{n}-s{seed}"
                        out.append((case, name, engine, quorum, n, seed))
    return out


MATRIX = _matrix()


def _digest(name, engine, quorum, n, seed) -> str:
    result = run_scenario(
        get_scenario(name, n), n, engine=engine, seed=seed, quorum=quorum,
        max_events=MAX_EVENTS,
    )
    text = json.dumps(stable_scenario_report(result), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _pinned():
    pins = {}
    for line in DATA.read_text().splitlines():
        case, _, digest = line.partition(" ")
        pins[case] = digest
    return pins


PINS = _pinned() if DATA.exists() else {}


@pytest.mark.parametrize("case,name,engine,quorum,n,seed", MATRIX,
                         ids=[m[0] for m in MATRIX])
def test_report_digest_is_pinned(case, name, engine, quorum, n, seed):
    assert _digest(name, engine, quorum, n, seed) == PINS[case]


def test_matrix_matches_data_file():
    assert sorted(PINS) == sorted(m[0] for m in MATRIX)


if __name__ == "__main__":
    lines = [f"{m[0]} {_digest(*m[1:])}" for m in MATRIX]
    DATA.write_text("\n".join(lines) + "\n")
    sys.stdout.write(f"wrote {len(lines)} digests to {DATA}\n")
