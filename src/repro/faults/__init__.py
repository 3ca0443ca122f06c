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

from repro._exports import lazy_exports


def _detectors():
    from repro.faults.detectors import (  # noqa: F401
        EventuallyPerfectDetector,
        FailureDetector,
        PerfectDetector,
        make_detector,
    )

    return locals()


def _monarchical():
    from repro.faults.monarchical import (  # noqa: F401
        AsyncMonarchicalElection,
        MonarchicalElection,
        safe_stable_rounds,
    )

    return locals()


def _plan():
    from repro.faults.plan import (  # noqa: F401
        CrashFault,
        DetectorSpec,
        FaultPlan,
        LeaderKillPolicy,
        LinkFaults,
        PartitionMask,
    )

    return locals()


def _reelect():
    from repro.faults.reelect import AsyncReElectionElection, ReElectionElection  # noqa: F401

    return locals()


def _runtime():
    from repro.faults.runtime import FaultMetrics, FaultRuntime  # noqa: F401

    return locals()


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

__getattr__ = lazy_exports(
    globals(),
    _detectors,
    _monarchical,
    _plan,
    _reelect,
    _runtime,
)
