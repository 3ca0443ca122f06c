"""Construction-time checks of the fault-layer elections' parameters.

Round and poll counts must be integers, delays finite and positive (a
restart delay of 0 turns the timeout off), and the inner election of a
re-election wrapper must be crash-oblivious.  Each bad value fails in the
constructor with a ``ValueError``, which the CLI reports as one
``error:`` line with exit 2 instead of a mid-run traceback.
"""

import math

import pytest

from repro.adversary import AsyncQuorumReElectionElection, QuorumReElectionElection
from repro.faults import (
    AsyncMonarchicalElection,
    AsyncReElectionElection,
    MonarchicalElection,
    ReElectionElection,
)

from tests.helpers import run_cli

NAN, INF = math.nan, math.inf

BAD = [
    (ReElectionElection, {"commit_rounds": 1.5}),
    (ReElectionElection, {"commit_rounds": True}),
    (ReElectionElection, {"restart_rounds": 2.5}),
    (ReElectionElection, {"restart_rounds": -1}),
    (QuorumReElectionElection, {"commit_rounds": 0}),
    (AsyncReElectionElection, {"commit_delay": NAN}),
    (AsyncReElectionElection, {"commit_delay": INF}),
    (AsyncReElectionElection, {"commit_delay": "4"}),
    (AsyncReElectionElection, {"poll_interval": NAN}),
    (AsyncReElectionElection, {"poll_interval": 0}),
    (AsyncReElectionElection, {"restart_delay": NAN}),
    (AsyncReElectionElection, {"restart_delay": -1.0}),
    (AsyncQuorumReElectionElection, {"commit_delay": INF}),
    (MonarchicalElection, {"stable_rounds": 1.5}),
    (AsyncMonarchicalElection, {"stable_polls": 2.5}),
    (AsyncMonarchicalElection, {"poll_interval": NAN}),
]


@pytest.mark.parametrize(
    "cls,params", BAD, ids=[f"{cls.__name__}-{params}" for cls, params in BAD]
)
def test_bad_timing_parameter_rejected(cls, params):
    (name,) = params
    with pytest.raises(ValueError, match=name):
        cls(**params)


@pytest.mark.parametrize(
    "cls,params",
    [
        (ReElectionElection, {"restart_rounds": 0}),
        (AsyncReElectionElection, {"restart_delay": 0}),
        (AsyncReElectionElection, {"commit_delay": 6, "poll_interval": 2}),
    ],
)
def test_zero_restart_and_integer_delays_accepted(cls, params):
    cls(**params)


@pytest.mark.parametrize(
    "cls,inner",
    [
        (ReElectionElection, "monarchical"),
        (ReElectionElection, "reelect"),
        (QuorumReElectionElection, "quorum_reelect"),
        (AsyncReElectionElection, "reelect"),
    ],
)
def test_fault_layer_inner_rejected(cls, inner):
    with pytest.raises(ValueError, match="crash-oblivious"):
        cls(inner=inner)


@pytest.mark.parametrize(
    "cls",
    [
        ReElectionElection,
        AsyncReElectionElection,
        QuorumReElectionElection,
        AsyncQuorumReElectionElection,
    ],
)
def test_bad_inner_parameter_rejected_at_construction(cls):
    # Keywords the wrapper does not take configure the inner election,
    # which is built once in the constructor to check them.
    with pytest.raises(TypeError, match="foo"):
        cls(foo=1)


@pytest.mark.parametrize(
    "argv",
    [
        ["reelect", "--engine", "async", "--param", "commit_delay=nan"],
        ["reelect", "--engine", "async", "--param", "commit_delay=inf"],
        ["reelect", "--engine", "async", "--param", "poll_interval=nan"],
        ["reelect", "--engine", "async", "--param", "restart_delay=nan"],
        ["monarchical", "--engine", "async", "--param", "poll_interval=nan"],
        ["reelect", "--param", "restart_rounds=2.5"],
        ["reelect", "--param", "commit_rounds=1.5"],
        ["monarchical", "--param", "stable_rounds=1.5"],
        ["monarchical", "--engine", "async", "--param", "stable_polls=2.5"],
        ["reelect", "--param", "inner=monarchical"],
        ["reelect", "--param", "inner=reelect"],
        ["reelect", "--param", "foo=1"],
        ["quorum_reelect", "--engine", "async", "--param", "foo=1"],
    ],
    ids=lambda argv: "-".join(argv[:1] + argv[-1:]),
)
def test_cli_reports_one_error_line(argv):
    proc = run_cli("faults", *argv[:1], "--n", "8", "--seeds", "0", *argv[1:])
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
