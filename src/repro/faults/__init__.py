"""Fault injection, failure detectors, and fault-tolerant election.

This subsystem adds the crash-recovery axis to the reproduction: engines
accept a :class:`FaultPlan` (crash schedules, per-link message drop and
duplication, adversarial "kill the frontrunner" policies), nodes get
failure-detector oracles through their contexts, and two fault-tolerant
algorithms — :class:`MonarchicalElection` and the epoch-based
:class:`ReElectionElection` wrapper around any registered algorithm —
turn fault schedules into survivable failovers.  Everything is
deterministic per ``(seed, FaultPlan)``.
"""

from repro.faults.detectors import (
    EventuallyPerfectDetector,
    FailureDetector,
    PerfectDetector,
    make_detector,
)
from repro.faults.monarchical import (
    AsyncMonarchicalElection,
    MonarchicalElection,
    safe_stable_rounds,
)
from repro.faults.plan import (
    CrashFault,
    DetectorSpec,
    FaultPlan,
    LeaderKillPolicy,
    LinkFaults,
    PartitionMask,
)
from repro.faults.reelect import AsyncReElectionElection, ReElectionElection
from repro.faults.runtime import FaultMetrics, FaultRuntime

__all__ = [
    "CrashFault",
    "LinkFaults",
    "PartitionMask",
    "LeaderKillPolicy",
    "DetectorSpec",
    "FaultPlan",
    "FaultMetrics",
    "FaultRuntime",
    "FailureDetector",
    "PerfectDetector",
    "EventuallyPerfectDetector",
    "make_detector",
    "MonarchicalElection",
    "AsyncMonarchicalElection",
    "safe_stable_rounds",
    "ReElectionElection",
    "AsyncReElectionElection",
]
