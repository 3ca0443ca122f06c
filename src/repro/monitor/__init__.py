"""Runtime verification and sweep health for the election engines.

Four layers, composable:

* :class:`MonitorSuite` + the invariant monitors — streaming safety/
  liveness checkers that attach to any object-engine run through the
  recorder seam (:mod:`repro.monitor.invariants`); sampled-lane replay
  and aggregate checks cover the fast engine (:mod:`repro.monitor.fast`).
* Theory-bound conformance — per-algorithm message/round envelopes from
  the paper's theorem statements, checked against completed records
  (:mod:`repro.monitor.conformance`).
* :class:`SweepMonitor` — the ``sweep(..., monitor=)`` hook running
  record-level invariants + conformance over whole campaigns
  (:mod:`repro.monitor.api`).
* Sweep health — live progress (:mod:`repro.monitor.progress`) and the
  persistent run ledger with ``repro history`` / ``repro compare``
  (:mod:`repro.monitor.ledger`).
"""

from repro._exports import lazy_exports


def _violations():
    from repro.monitor.violations import Violation, trace_slice  # noqa: F401

    return locals()


def _invariants():
    from repro.monitor.invariants import (  # noqa: F401
        AgreementMonitor,
        CongestMonitor,
        InvariantMonitor,
        MONITOR_NAMES,
        MonitorSuite,
        QuorumOneLeaderMonitor,
        TerminationMonitor,
        UniqueLeaderMonitor,
        ValidityMonitor,
        default_monitors,
    )

    return locals()


def _conformance():
    from repro.monitor.conformance import (  # noqa: F401
        ConformanceResult,
        ConformanceSummary,
        ENVELOPES,
        Envelope,
        check_record,
        get_envelope,
        summarize,
    )

    return locals()


def _fast():
    from repro.monitor.fast import check_fast_telemetry, monitor_fast_lane  # noqa: F401

    return locals()


def _api():
    from repro.monitor.api import SweepMonitor, check_record_invariants  # noqa: F401

    return locals()


def _progress():
    from repro.monitor.progress import ProgressEvent, ProgressListener, SweepProgress  # noqa: F401

    return locals()


def _ledger():
    from repro.monitor.ledger import (  # noqa: F401
        DEFAULT_LEDGER_PATH,
        LEDGER_SCHEMA,
        LedgerDiff,
        append_entry,
        compare_entries,
        git_sha,
        make_entry,
        prune_ledger,
        read_ledger,
        resolve_ref,
        spec_hash,
    )

    return locals()


__all__ = [
    # violations
    "Violation",
    "trace_slice",
    # invariants
    "InvariantMonitor",
    "MonitorSuite",
    "UniqueLeaderMonitor",
    "AgreementMonitor",
    "ValidityMonitor",
    "QuorumOneLeaderMonitor",
    "TerminationMonitor",
    "CongestMonitor",
    "default_monitors",
    "MONITOR_NAMES",
    # conformance
    "Envelope",
    "ConformanceResult",
    "ConformanceSummary",
    "ENVELOPES",
    "get_envelope",
    "check_record",
    "summarize",
    # fast engine
    "check_fast_telemetry",
    "monitor_fast_lane",
    # sweep hook
    "SweepMonitor",
    "check_record_invariants",
    # progress
    "ProgressListener",
    "ProgressEvent",
    "SweepProgress",
    # ledger
    "LEDGER_SCHEMA",
    "DEFAULT_LEDGER_PATH",
    "spec_hash",
    "git_sha",
    "make_entry",
    "append_entry",
    "prune_ledger",
    "read_ledger",
    "resolve_ref",
    "compare_entries",
    "LedgerDiff",
]

__getattr__ = lazy_exports(
    globals(),
    _violations,
    _invariants,
    _conformance,
    _fast,
    _api,
    _progress,
    _ledger,
)
