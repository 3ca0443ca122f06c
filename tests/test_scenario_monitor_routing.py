"""The scenario split-brain metric, cross-checked by the monitor.

``ScenarioRunner._run_act`` reads every act's ``concurrent_leaders``
off the raw engine result, as ``len(result.surviving_leaders)``: the
leaders still alive when the act ended.  The ``unique_leader_per_epoch``
monitor computes the same count independently, by replaying the act's
event stream.  These tests wrap :func:`repro.sweep.api.run` to capture
every act's raw engine artifacts, and pin that the monitor's count, the
engine's survivor accounting and the recorded epoch metric agree on
every act of every named scenario on both object engines, with and
without the quorum layer.  The fast engine has no event stream; there
the metric is pinned against the captured result alone.
"""

import pytest

import repro.sweep.api as api
from repro.monitor import MonitorSuite, UniqueLeaderMonitor
from repro.scenarios import NAMED_SCENARIOS, get_scenario, run_scenario
from repro.trace import CompositeRecorder, MemoryRecorder

#: Bounds the async acts that wedge under slander (they become stalled
#: acts, which run() never returns and the fixture never captures).
MAX_EVENTS = 20_000


@pytest.fixture
def captured(monkeypatch):
    """Capture (events, result) per run before the runner sanitizes them.

    Acts come first, in order, and the baseline election last.  Fast
    runs take no recorder, so their event list stays empty.
    """
    acts = []
    original = api.run

    def wrapper(spec, *, recorder=None, **kwargs):
        memory = MemoryRecorder()
        if spec.engine != "fast":
            recorder = memory if recorder is None else CompositeRecorder(memory, recorder)
        record = original(spec, recorder=recorder, **kwargs)
        acts.append((memory.events, record.extra["result"]))
        return record

    monkeypatch.setattr(api, "run", wrapper)
    return acts


def monitor_count(events, result):
    monitor = UniqueLeaderMonitor()
    MonitorSuite(monitors=[monitor], n=len(result.ids)).replay(events).finish(
        result
    )
    return monitor.concurrent_leaders


class TestMonitorMatchesEngineAccounting:
    @pytest.mark.parametrize("quorum", [False, True], ids=["plain", "quorum"])
    @pytest.mark.parametrize("engine", ["sync", "async"])
    @pytest.mark.parametrize("name", sorted(NAMED_SCENARIOS))
    def test_every_act_agrees(self, name, engine, quorum, captured):
        res = run_scenario(
            get_scenario(name, 9), 9, engine=engine, seed=0, quorum=quorum,
            max_events=MAX_EVENTS,
        )
        assert captured  # the seam actually ran through run()
        for events, result in captured:
            assert monitor_count(events, result) == len(
                result.surviving_leaders
            ), (name, result.leader_ids)
        finished = [e for e in res.epochs if not e.record.extra.get("stalled")]
        assert len(finished) == len(captured) - 1  # the baseline comes last
        for epoch, (events, result) in zip(finished, captured):
            assert epoch.concurrent_leaders == monitor_count(events, result)

    @pytest.mark.parametrize("quorum", [False, True], ids=["plain", "quorum"])
    @pytest.mark.parametrize("name", sorted(NAMED_SCENARIOS))
    def test_fast_acts_count_surviving_leaders(self, name, quorum, captured):
        pytest.importorskip("numpy")
        res = run_scenario(get_scenario(name, 9), 9, engine="fast", seed=0, quorum=quorum)
        assert len(res.epochs) == len(captured) - 1  # the baseline comes last
        for epoch, (_events, result) in zip(res.epochs, captured):
            assert epoch.concurrent_leaders == len(result.surviving_leaders)


class TestPartitionHealSplitBrain:
    def test_partition_epoch_counts_both_component_leaders(self, captured):
        res = run_scenario(
            get_scenario("partition_heal", 9), 9, engine="sync", seed=0
        )
        part = next(e for e in res.epochs if e.trigger == "partition")
        assert part.concurrent_leaders == 2  # the split brain
        heal = next(e for e in res.epochs if e.trigger == "heal")
        assert heal.concurrent_leaders == 1
        assert res.metrics.split_brain_acts == sum(
            1 for e in res.epochs if e.concurrent_leaders > 1
        )
        # At least one captured act really held two live leaders.
        assert any(
            len(result.surviving_leaders) == 2 for _, result in captured
        )


class TestSlanderedLeaderNoSplitBrain:
    def test_quorum_deposals_never_overlap(self, captured):
        res = run_scenario(
            get_scenario("slandered_leader", 9), 9, engine="sync", seed=0,
            quorum=True,
        )
        assert res.metrics.split_brain_acts == 0
        assert all(e.concurrent_leaders <= 1 for e in res.epochs)
        assert captured
