"""Byte-for-byte pins of the failover-facing CLI surfaces.

Each case runs one ``python -m repro`` command in a fresh interpreter
and compares its stdout with a checked-in capture under ``tests/data``.
The commands cover every subcommand that reads failover or adversary
numbers off a run record (``faults``, ``adversary run|sweep`` and the
scenario runner behind ``scenarios sweep``), so any drift in what the
executor measures shows up here as a diff.
"""

import pathlib

import pytest

from tests.helpers import run_cli

DATA = pathlib.Path(__file__).resolve().parent / "data"

PINNED = [
    (
        "cli_faults_reelect_kill_leader.txt",
        ["faults", "reelect", "--n", "32", "--kill-leader", "--seeds", "0", "1", "2"],
    ),
    (
        "cli_faults_reelect_async_roots.txt",
        ["faults", "reelect", "--n", "16", "--engine", "async", "--kill-leader",
         "--roots", "1"],
    ),
    (
        "cli_faults_monarchical_crash_drop.txt",
        ["faults", "monarchical", "--n", "64", "--crash", "63@2", "--drop", "0.02"],
    ),
    (
        "cli_adversary_run.txt",
        ["adversary", "run", "--n", "9", "--slander", "0:8@5-60", "--crash", "3@10"],
    ),
    (
        "cli_adversary_run_async.txt",
        ["adversary", "run", "--n", "9", "--engine", "async", "--slander", "0:8@5-60",
         "--crash", "3@10"],
    ),
    (
        "cli_adversary_sweep_json.txt",
        ["adversary", "sweep", "--ns", "8", "16", "--mode", "both", "--json", "-"],
    ),
    (
        "cli_scenarios_sweep.txt",
        ["scenarios", "sweep", "election_storm", "--ns", "16", "--seeds", "0", "1"],
    ),
]


@pytest.mark.parametrize(
    "capture,argv", PINNED, ids=[name[len("cli_"):-len(".txt")] for name, _ in PINNED]
)
def test_cli_output_is_pinned(capture, argv):
    proc = run_cli(*argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.encode() == (DATA / capture).read_bytes()


#: ``scenarios sweep`` on the fast engine, captured as one file: the
#: n=2100 rows run scale-mode acts, and under las_vegas the four
#: ``rolling_restart`` seeds crash different leaders, so their
#: memberships diverge from the first restart on.
FAST_SWEEPS = [
    ["scenarios", "sweep", "election_storm", "--ns", "24", "2100",
     "--seeds", "0", "1", "--engine", "fast"],
    ["scenarios", "sweep", "rolling_restart", "--ns", "24",
     "--seeds", "0", "1", "2", "3", "--inner", "las_vegas", "--engine", "fast"],
]


@pytest.mark.parametrize("workers", ["1", "2"])
def test_fast_scenario_sweep_is_pinned(workers):
    pytest.importorskip("numpy")
    out = b""
    for argv in FAST_SWEEPS:
        proc = run_cli(*argv, "--workers", workers)
        assert proc.returncode == 0, proc.stderr
        out += proc.stdout.encode()
    assert out == (DATA / "cli_scenarios_sweep_fast.txt").read_bytes()
