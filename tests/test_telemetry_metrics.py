"""Metrics registry: primitives and RunRecord consistency across engines."""

import pytest

from repro.analysis import RunSpec, run
from repro.core import get_algorithm
from repro.telemetry import Counter, Histogram, MetricsRegistry, run_metrics


class TestPrimitives:
    def test_counter_is_monotonic(self):
        c = Counter()
        c.inc()
        c.inc(4)
        assert c.value == 5
        with pytest.raises(ValueError, match="only go up"):
            c.inc(-1)

    def test_histogram_summary(self):
        h = Histogram()
        h.observe_many([1, 3, 8])
        assert h.count == 3
        assert h.min == 1 and h.max == 8
        assert h.mean == 4.0
        assert h.as_dict()["total"] == 12.0

    def test_registry_creates_on_first_use(self):
        reg = MetricsRegistry()
        reg.counter("x").inc(2)
        reg.gauge("y").set(1.5)
        reg.histogram("z").observe(3)
        d = reg.as_dict()
        assert d["counters"] == {"x": 2}
        assert d["gauges"] == {"y": 1.5}
        assert d["histograms"]["z"]["count"] == 1


class TestRunRecordConsistency:
    """The ``messages`` counter equals ``RunRecord.messages``, per engine."""

    def test_sync_trial(self):
        spec = get_algorithm("improved_tradeoff")
        record = run(RunSpec(algorithm=spec.make(), n=32, engine="sync"))
        metrics = record.extra["metrics"]
        assert metrics["counters"]["messages"] == record.messages
        assert metrics["gauges"]["leaders"] == 1
        assert metrics["gauges"]["decided"] == 32

    def test_async_trial(self):
        spec = get_algorithm("async_tradeoff")
        record = run(RunSpec(algorithm=spec.make(k=2), n=32, engine="async"))
        metrics = record.extra["metrics"]
        assert metrics["counters"]["messages"] == record.messages
        assert metrics["gauges"]["time_span"] == record.time

    def test_fast_trial(self):
        pytest.importorskip("numpy")
        record = run(RunSpec(algorithm="improved_tradeoff", n=64, engine="fast"))
        metrics = record.extra["metrics"]
        assert metrics["counters"]["messages"] == record.messages
        assert metrics["gauges"]["rounds_to_decide"] == record.extra["rounds_executed"]

    def test_per_kind_counters_sum_to_messages(self):
        spec = get_algorithm("improved_tradeoff")
        record = run(RunSpec(algorithm=spec.make(), n=32, engine="sync", seeds=(1,)))
        counters = record.extra["metrics"]["counters"]
        by_kind = {k: v for k, v in counters.items() if k.startswith("messages[")}
        assert by_kind
        assert sum(by_kind.values()) == counters["messages"]

    def test_messages_per_round_histogram(self):
        spec = get_algorithm("improved_tradeoff")
        record = run(RunSpec(algorithm=spec.make(), n=32, engine="sync"))
        hist = record.extra["metrics"]["histograms"]["messages_per_round"]
        assert hist["total"] == record.messages


class TestFailoverLatencyGauge:
    def test_failover_trial_reports_latency(self):
        from repro.faults import CrashFault, DetectorSpec, FaultPlan
        from repro.faults import run_failover_trial

        spec = get_algorithm("reelect")
        plan = FaultPlan(
            crashes=(CrashFault(node=7, at=6.0),),
            detector=DetectorSpec(kind="perfect", lag=1.0),
        )
        report = run_failover_trial(
            "sync", 8, spec.make(), plan, seed=0, max_rounds=400,
        )
        gauges = report.record.extra["metrics"]["gauges"]
        if report.reelection_time is not None:
            assert gauges["failover_latency"] == report.reelection_time
        # Crash accounting flows through the same registry.
        assert report.record.extra["metrics"]["counters"]["crashes"] == report.crashes

    def test_run_metrics_failover_kwarg(self):
        spec = get_algorithm("improved_tradeoff")
        record = run(
            RunSpec(algorithm=spec.make(), n=16, engine="sync"), keep_result=True
        )
        reg = run_metrics(record.extra["result"], failover_latency=3.5)
        assert reg.as_dict()["gauges"]["failover_latency"] == 3.5
