"""Fast-engine telemetry: aggregate counters, lane tracing, profiling."""

import pytest

pytest.importorskip("numpy")

from repro.fastsync import FastSyncNetwork, get_fast_algorithm  # noqa: E402
from repro.telemetry import (  # noqa: E402
    AGGREGATE_NODE,
    FastTelemetry,
    PhaseProfiler,
    trace_fast_lane,
)

from tests.helpers import crash_plan  # noqa: E402


def _run(n=64, algorithm="improved_tradeoff", seed=0, **net_kwargs):
    telemetry = FastTelemetry()
    net = FastSyncNetwork(n, seed=seed, mode="exact", telemetry=telemetry,
                          **net_kwargs)
    result = net.run(get_fast_algorithm(algorithm)())
    return result, telemetry


class TestAggregateCounters:
    """Telemetry tallies equal the engine's own result counters, exactly."""

    def test_totals_match_result(self):
        result, telemetry = _run()
        assert sum(telemetry.sends_by_round().values()) == result.messages
        assert telemetry.sends_by_round() == result.sends_by_round
        assert telemetry.messages_by_kind() == dict(result.messages_by_kind)

    def test_decide_round_and_survivors(self):
        result, telemetry = _run()
        assert telemetry.decide_round() == result.rounds_executed
        # No fault plan: every round reports the full clique alive.
        assert set(telemetry.survivors_by_round().values()) == {result.n}

    def test_batched_lanes_record_independent_streams(self):
        telemetry = FastTelemetry()
        net = FastSyncNetwork(48, seeds=[3, 4, 5], mode="exact",
                              telemetry=telemetry)
        results = net.run(get_fast_algorithm("las_vegas")())
        assert telemetry.lanes == [0, 1, 2]
        for lane, result in enumerate(results):
            assert sum(telemetry.sends_by_round(lane).values()) == result.messages
            assert telemetry.messages_by_kind(lane) == dict(result.messages_by_kind)

    def test_events_are_aggregate_trace_events(self):
        result, telemetry = _run()
        events = telemetry.events()
        rounds = [e for e in events if e.kind == "round"]
        assert all(e.node == AGGREGATE_NODE for e in events)
        assert sum(e.detail[0] for e in rounds) == result.messages
        decide = [e for e in events if e.kind == "decide"]
        assert len(decide) == 1
        assert decide[0].detail[0] == tuple(result.leaders)

    def test_telemetry_is_single_use(self):
        _result, telemetry = _run(n=16)
        with pytest.raises(RuntimeError, match="single-use"):
            FastSyncNetwork(16, seed=0, telemetry=telemetry)

    def test_crash_schedule_shrinks_survivors(self):
        result, telemetry = _run(n=32, algorithm="las_vegas",
                                 faults=crash_plan([(0, 2.0), (1, 2.0), (2, 2.0)]))
        survivors = telemetry.survivors_by_round()
        assert min(survivors.values()) <= 29
        assert max(survivors.values()) == 32


class TestLaneTracer:
    """One lane replayed on the object engine agrees bit-exactly."""

    def test_single_run_matches(self):
        lane = trace_fast_lane(48, "improved_tradeoff", seed=11)
        assert lane.matches, lane.mismatches
        assert lane.fast_result.messages == lane.sync_result.messages
        assert any(e.kind == "send" for e in lane.events)

    def test_batched_lane_matches(self):
        lane = trace_fast_lane(48, "improved_tradeoff", seeds=[5, 6, 7], lane=1)
        assert lane.matches, lane.mismatches
        assert lane.lane == 1

    def test_lane_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            trace_fast_lane(16, "las_vegas", seeds=[0, 1], lane=5)

    def test_single_run_rejects_nonzero_lane(self):
        with pytest.raises(ValueError, match="exactly one lane"):
            trace_fast_lane(16, "las_vegas", seed=0, lane=1)

    def test_recorder_fans_in(self):
        import io

        from repro.telemetry import JsonlRecorder, load_trace

        sink = io.StringIO()
        rec = JsonlRecorder(sink)
        lane = trace_fast_lane(32, "las_vegas", seed=2, recorder=rec)
        rec.close()
        sink.seek(0)
        trace = load_trace(sink)
        assert trace.events == lane.events


class TestProfiler:
    def test_kernel_phases_are_timed(self):
        profiler = PhaseProfiler()
        net = FastSyncNetwork(256, seed=0, mode="exact", profiler=profiler)
        net.run(get_fast_algorithm("improved_tradeoff")())
        phases = profiler.as_dict()
        for phase in ("sampling", "scatter", "compaction"):
            assert phase in phases, phases
            assert phases[phase]["calls"] >= 1
            assert phases[phase]["total_s"] >= 0.0

    def test_disabled_profiling_uses_null_context(self):
        from repro.telemetry import NULL_PROFILE

        net = FastSyncNetwork(16, seed=0)
        assert net.profile("sampling") is NULL_PROFILE

    def test_fast_spec_profile_flag(self):
        from repro.analysis import RunSpec, run

        record = run(
            RunSpec(algorithm="improved_tradeoff", n=64, engine="fast", profile=True)
        )
        profile = record.extra["profile"]
        assert "sampling" in profile
        assert profile["sampling"]["calls"] >= 1
