"""Property test: quorum re-election under random crash schedules is safe.

Hypothesis drives ``quorum_reelect`` with arbitrary crash schedules of
``f < n/2`` nodes; the event-level ``unique_leader_per_epoch`` and
``quorum_one_leader`` monitors must stay silent on every run — two
committed leaders simultaneously alive, or a commit without a live
majority, would be exactly the split-brain the quorum layer exists to
rule out.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.adversary import QuorumReElectionElection
from repro.analysis import RunSpec, run
from repro.common import SimulationLimitExceeded
from repro.faults import CrashFault, DetectorSpec, FaultPlan
from repro.monitor import (
    MonitorSuite,
    QuorumOneLeaderMonitor,
    UniqueLeaderMonitor,
)


@st.composite
def crash_schedules(draw):
    """n, a crash schedule of f < n/2 distinct nodes, and an engine seed."""
    n = draw(st.integers(min_value=4, max_value=9))
    f = draw(st.integers(min_value=0, max_value=(n - 1) // 2))
    nodes = draw(
        st.lists(
            st.integers(min_value=0, max_value=n - 1),
            unique=True, min_size=f, max_size=f,
        )
    )
    times = draw(
        st.lists(
            st.integers(min_value=1, max_value=12), min_size=f, max_size=f
        )
    )
    seed = draw(st.integers(min_value=0, max_value=2**16))
    crashes = tuple(
        CrashFault(node=node, at=float(at)) for node, at in zip(nodes, times)
    )
    return n, crashes, seed


def monitored_trial(n, crashes, seed, *, max_rounds=None):
    plan = FaultPlan(
        crashes=crashes, detector=DetectorSpec(kind="perfect", lag=1.0)
    )
    suite = MonitorSuite(
        monitors=[UniqueLeaderMonitor(), QuorumOneLeaderMonitor()],
        n=n,
        context={"n": n, "seed": seed, "crashes": len(crashes)},
    )
    record = run(
        RunSpec(
            algorithm=QuorumReElectionElection, n=n, engine="sync",
            seeds=(seed,), max_rounds=max_rounds, faults=plan,
        ),
        recorder=suite,
        keep_result=True,
    )
    suite.finish(record.extra["result"])
    return record, suite


class TestQuorumSafetyProperty:
    @settings(max_examples=25, deadline=None)
    @given(crash_schedules())
    def test_minority_crashes_never_split_the_brain(self, schedule):
        n, crashes, seed = schedule
        try:
            record, suite = monitored_trial(n, crashes, seed, max_rounds=256)
        except SimulationLimitExceeded:
            # Adversarial crash timing can stall re-election (a liveness
            # edge — e.g. the round-1 coordinator crashing with a second
            # crash queued); this property pins *safety* only, so a
            # stalled run carries no verdict either way.
            assume(False)
        assert suite.ok, [str(v) for v in suite.violations]
        # And the engine's own accounting agrees with the silent monitor.
        assert len(record.extra["result"].surviving_leaders) <= 1

    def test_fixed_minority_crash_converges_uniquely(self):
        # A deterministic anchor next to the property: crash 2 of 7
        # (including the initial winner's likely id-range) and require a
        # unique surviving leader, not just the absence of a violation.
        crashes = (CrashFault(node=6, at=4.0), CrashFault(node=0, at=6.0))
        record, suite = monitored_trial(7, crashes, seed=1)
        assert suite.ok
        assert record.extra["unique_surviving_leader"]
