"""The sweep-facing monitor surface: ``sweep(..., monitor=SweepMonitor())``.

A :class:`SweepMonitor` consumes a completed sweep — the spec grid plus
its records in grid order — and produces the full observability
artifact set in one pass: record-level invariant checks, theory-bound
conformance against each algorithm's envelope, an aggregate
:class:`~repro.monitor.ConformanceSummary`, and (optionally) a ledger
entry.  The object-engine event-level monitors
(:class:`~repro.monitor.MonitorSuite`) are finer-grained but need a
live recorder; this layer works on flattened
:class:`~repro.analysis.RunRecord` rows, so it covers every engine —
including multi-process sweeps whose events never reach the parent.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence

from repro.monitor.conformance import (
    ConformanceSummary,
    check_record,
    summarize,
)
from repro.monitor.ledger import check_label
from repro.monitor.violations import Violation

__all__ = ["check_record_invariants", "SweepMonitor"]


def check_record_invariants(
    record: Any, *, context: Optional[Dict[str, Any]] = None
) -> List[Violation]:
    """Invariant checks derivable from one flattened record.

    Coarser than the event-level monitors (a record has counts, not
    streams) but engine-agnostic.  Fault-free records are checked for
    leader uniqueness and full termination; faulty records only for
    survivor uniqueness when the engine's accounting flags it — the
    flattened row cannot distinguish "leader crashed" from "two
    survivors", so faulty runs needing exact verdicts should attach a
    :class:`~repro.monitor.MonitorSuite` instead.
    """
    context = dict(context or {})
    context.setdefault("n", record.n)
    context.setdefault("seed", record.seed)
    if "algorithm" in record.extra:
        context.setdefault("algorithm", record.extra["algorithm"])
    violations: List[Violation] = []

    def report(monitor: str, message: str) -> None:
        violations.append(
            Violation(monitor=monitor, message=message, context=dict(context))
        )

    crashed = record.extra.get("crashed")
    if crashed:
        if record.extra.get("unique_surviving_leader") is False and record.leaders:
            report(
                "unique_leader_per_epoch",
                f"{record.leaders} leader(s) decided and survivor accounting "
                "is non-unique (crashed run — attach a MonitorSuite for the "
                "exact reigning set)",
            )
        return violations
    if record.leaders > 1:
        report(
            "unique_leader_per_epoch",
            f"{record.leaders} nodes decided LEADER in one fault-free run",
        )
    if record.leaders == 0:
        report("termination_bound", "no node elected itself leader")
    if record.decided < record.awake:
        report(
            "termination_bound",
            f"only {record.decided} of {record.awake} awake nodes decided",
        )
    return violations


class SweepMonitor:
    """Pass as ``sweep(..., monitor=)`` to check every record of a sweep.

    After the sweep returns, the monitor holds ``violations`` (invariant
    breaches), ``conformance`` (a :class:`ConformanceSummary` over the
    records with registered envelopes) and ``ok``.  With ``ledger`` set
    (a path, or True for the default ``.repro/ledger.jsonl``) the sweep
    is also appended to the persistent run ledger.
    """

    def __init__(
        self,
        *,
        slack: Optional[float] = None,
        ledger: Any = None,
        label: Optional[str] = None,
        context: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.slack = slack
        self.ledger = ledger
        self.label = check_label(label)
        self.context = dict(context or {})
        self.violations: List[Violation] = []
        self.conformance: ConformanceSummary = ConformanceSummary()
        self.ledger_path: Optional[str] = None
        self._t0 = time.perf_counter()

    @property
    def ok(self) -> bool:
        return not self.violations and self.conformance.ok

    def observe_sweep(
        self, specs: Sequence[Any], records: Sequence[Any]
    ) -> None:
        """Check a completed sweep (called by :func:`repro.analysis.sweep`).

        ``records`` are in grid order — spec-major, seed-minor — so each
        spec owns the next ``len(spec.seeds)`` rows; the algorithm name
        is stamped into ``record.extra["algorithm"]`` from its spec,
        which is what keys the envelope lookup and the ledger's
        per-algorithm distributions.
        """
        cursor = 0
        checks = []
        for spec in specs:
            count = len(getattr(spec, "seeds", (0,)))
            name = getattr(spec, "algorithm_name", None)
            for record in records[cursor : cursor + count]:
                if name is not None:
                    record.extra.setdefault("algorithm", name)
                self.violations.extend(
                    check_record_invariants(record, context=dict(self.context))
                )
                checks.append(check_record(record, slack=self.slack))
            cursor += count
        # Anything past the spec-major mapping (defensive: callers with
        # hand-built grids) still gets invariant + conformance checks.
        for record in records[cursor:]:
            self.violations.extend(
                check_record_invariants(record, context=dict(self.context))
            )
            checks.append(check_record(record, slack=self.slack))
        self.conformance = summarize(checks)
        if self.ledger:
            from repro.monitor.ledger import (
                DEFAULT_LEDGER_PATH,
                append_entry,
                make_entry,
            )

            path = (
                DEFAULT_LEDGER_PATH if self.ledger is True else str(self.ledger)
            )
            entry = make_entry(
                records,
                specs=specs,
                violations=self.violations,
                conformance=self.conformance,
                wall_time_s=time.perf_counter() - self._t0,
                label=self.label,
                context=self.context,
            )
            self.ledger_path = append_entry(entry, path)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "ok": self.ok,
            "violations": [v.to_dict() for v in self.violations],
            "conformance": self.conformance.to_dict(),
            "ledger_path": self.ledger_path,
        }

    def summary(self) -> str:
        lines = [
            f"violations: {len(self.violations)}",
            f"conformance: {self.conformance.conforming}/{self.conformance.total} "
            f"({self.conformance.rate:.1%})",
        ]
        for violation in self.violations[:10]:
            lines.append(f"  {violation}")
        for failure in self.conformance.failures[:10]:
            lines.append(f"  {failure}")
        return "\n".join(lines)
