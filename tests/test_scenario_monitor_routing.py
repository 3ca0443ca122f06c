"""The scenario split-brain metric is the monitor's verdict — regression pin.

``ScenarioRunner._run_act`` routes its ``concurrent_leaders`` epoch
metric through ``unique_leader_per_epoch`` over the act's event stream,
replacing the old ad-hoc ``len(result.surviving_leaders)`` computation.
These tests wrap :func:`repro.sweep.api.run` to capture every act's raw
engine artifacts and pin that the monitor's
count equals the engine's survivor accounting on every act of
``partition_heal`` and ``slandered_leader`` — the two scenarios where
the numbers could plausibly diverge (partition masks, quorum deposals).
"""

import pytest

import repro.sweep.api as api
from repro.monitor import MonitorSuite, UniqueLeaderMonitor
from repro.scenarios import get_scenario, run_scenario
from repro.trace import CompositeRecorder, MemoryRecorder


@pytest.fixture
def captured(monkeypatch):
    """Capture (events, result) per act before the runner sanitizes them."""
    acts = []
    original = api.run

    def wrapper(spec, *, recorder=None, **kwargs):
        memory = MemoryRecorder()
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
    @pytest.mark.parametrize(
        "name,cfg",
        [
            ("partition_heal", {}),
            ("slandered_leader", {"quorum": True}),
        ],
    )
    def test_every_act_agrees(self, name, cfg, captured):
        run_scenario(get_scenario(name, 9), 9, engine="sync", seed=0, **cfg)
        assert captured  # the seam actually ran through run()
        for events, result in captured:
            assert monitor_count(events, result) == len(
                result.surviving_leaders
            ), (name, result.leader_ids)


class TestPartitionHealSplitBrain:
    def test_partition_epoch_counts_both_component_leaders(self, captured):
        res = run_scenario(
            get_scenario("partition_heal", 9), 9, engine="sync", seed=0
        )
        part = next(e for e in res.epochs if e.trigger == "partition")
        assert part.concurrent_leaders == 2  # the split brain, per monitor
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
