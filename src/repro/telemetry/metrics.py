"""Per-run metrics: counters, gauges and histograms.

A :class:`MetricsRegistry` is a small, dependency-free aggregation
surface modeled on production metrics APIs: named counters (monotonic),
gauges (last value wins) and histograms (summary statistics over
observations).  :func:`run_metrics` derives the standard election
metrics from any engine result — messages per round, rounds to decide,
per-phase message breakdown, tampered/dropped deliveries — and
``sweep.api`` merges them into ``RunRecord.extra["metrics"]``, so
every sweep, bench and scenario gets them for free.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "run_metrics"]


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        self.value += amount


class Gauge:
    """A point-in-time value (last set wins)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: Optional[float] = None

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Streaming summary statistics over observed values."""

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    def observe_many(self, values: Iterable[float]) -> None:
        for value in values:
            self.observe(value)

    @property
    def mean(self) -> Optional[float]:
        return self.total / self.count if self.count else None

    def as_dict(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
        }


class MetricsRegistry:
    """Named counters/gauges/histograms for one run.

    Access creates on first use (``registry.counter("messages").inc()``);
    :meth:`as_dict` flattens everything into the JSON-safe layout stored
    under ``RunRecord.extra["metrics"]``.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        return self._counters.setdefault(name, Counter())

    def gauge(self, name: str) -> Gauge:
        return self._gauges.setdefault(name, Gauge())

    def histogram(self, name: str) -> Histogram:
        return self._histograms.setdefault(name, Histogram())

    def as_dict(self) -> Dict[str, Any]:
        return {
            "counters": {k: c.value for k, c in sorted(self._counters.items())},
            "gauges": {k: g.value for k, g in sorted(self._gauges.items())},
            "histograms": {
                k: h.as_dict() for k, h in sorted(self._histograms.items())
            },
        }

    def merge(self, other: Any) -> None:
        """Fold another registry (or its :meth:`as_dict` payload) into this one.

        Counters add, gauges take the incoming value when set (last merge
        wins — merge in a deterministic order), histogram summaries
        combine exactly (count/total add, min/max extend).  The dict form
        is what sweep worker processes ship back to the parent, so the
        scheduler can aggregate per-worker metric streams without
        pickling live registries.
        """
        payload = other.as_dict() if isinstance(other, MetricsRegistry) else other
        for name, value in payload.get("counters", {}).items():
            self.counter(name).inc(int(value))
        for name, value in payload.get("gauges", {}).items():
            if value is not None:
                self.gauge(name).set(value)
        for name, summary in payload.get("histograms", {}).items():
            hist = self.histogram(name)
            count = int(summary.get("count", 0))
            if not count:
                continue
            hist.count += count
            hist.total += float(summary.get("total", 0.0))
            for bound, pick in (("min", min), ("max", max)):
                incoming = summary.get(bound)
                if incoming is None:
                    continue
                current = getattr(hist, bound)
                setattr(
                    hist,
                    bound,
                    incoming if current is None else pick(current, incoming),
                )


def run_metrics(result: Any, *, failover_latency: Optional[float] = None) -> MetricsRegistry:
    """The standard election metrics of one engine result.

    Works uniformly over ``SyncRunResult``, ``AsyncRunResult`` and
    ``FastRunResult`` (duck-typed: absent quantities are simply not
    reported).  The ``messages`` counter equals the run's total message
    count — the same number :class:`~repro.analysis.RunRecord` carries —
    which the telemetry tests pin down.
    """
    registry = MetricsRegistry()
    registry.counter("messages").inc(int(result.messages))
    registry.gauge("leaders").set(len(result.leaders))
    decided = getattr(result, "decided_count", None)
    if decided is not None:
        registry.gauge("decided").set(int(decided))

    # Rounds to decide / time span.  Sync-like results count rounds;
    # async results report the continuous time span instead.
    rounds = getattr(result, "rounds_executed", None)
    if rounds is not None:
        registry.gauge("rounds_to_decide").set(int(rounds))
    last_send = getattr(result, "last_send_round", None)
    if last_send is not None:
        registry.gauge("last_send_round").set(int(last_send))
    time_span = getattr(result, "time", None)
    if time_span is not None:
        registry.gauge("time_span").set(float(time_span))

    # Per-phase breakdown + per-round histogram.  Fast results carry the
    # dicts inline; object results carry them on ``result.metrics``.
    by_kind = getattr(result, "messages_by_kind", None)
    by_round = getattr(result, "sends_by_round", None)
    inner = getattr(result, "metrics", None)
    if by_kind is None and inner is not None:
        by_kind = getattr(inner, "messages_by_kind", None)
    if by_round is None and inner is not None:
        by_round = getattr(inner, "sends_by_round", None)
    if by_kind:
        for kind, count in by_kind.items():
            registry.counter(f"messages[{kind}]").inc(int(count))
    if by_round:
        registry.histogram("messages_per_round").observe_many(by_round.values())

    # Failure accounting, when a fault plan (or crash schedule) ran.
    crashed = getattr(result, "crashed", None)
    if crashed:
        registry.counter("crashes").inc(len(crashed))
    fm = getattr(result, "fault_metrics", None)
    if fm is not None:
        registry.counter("dropped_deliveries").inc(int(fm.dropped_messages))
        registry.counter("duplicated_deliveries").inc(int(fm.duplicated_messages))
        registry.counter("tampered_deliveries").inc(int(fm.tampered_messages))
    if failover_latency is not None:
        registry.gauge("failover_latency").set(float(failover_latency))
    return registry
