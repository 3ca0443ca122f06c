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

from repro.monitor.violations import Violation, trace_slice
from repro.monitor.invariants import (
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
from repro.monitor.conformance import (
    ConformanceResult,
    ConformanceSummary,
    ENVELOPES,
    Envelope,
    check_record,
    get_envelope,
    summarize,
)
from repro.monitor.fast import check_fast_telemetry, monitor_fast_lane
from repro.monitor.api import SweepMonitor, check_record_invariants
from repro.monitor.progress import ProgressEvent, ProgressListener, SweepProgress
from repro.monitor.ledger import (
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
