"""Scenario determinism: identical (scenario, seed) ⇒ identical outcomes.

The hypothesis property samples named scenarios, clique sizes, seeds and
engines, runs each configuration twice, and requires byte-identical
reports — winners, per-epoch metrics, agreement timelines, everything.
Reports are compared with ``VOLATILE_EXTRA_KEYS`` stripped from every
record (fast records carry their wall time).
This is the scenario-layer extension of the per-run determinism
guarantees in ``tests/test_fault_determinism.py``.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.scenarios import NAMED_SCENARIOS, get_scenario, run_scenario

from tests.helpers import stable_scenario_report

#: Bounds the async acts that wedge under slander (each would otherwise
#: run to the default 5,000,000-event cap before it is recorded stalled).
MAX_EVENTS = 20_000


def report_text(name, n, engine, seed):
    scenario = get_scenario(name, n)
    result = run_scenario(scenario, n, engine=engine, seed=seed, max_events=MAX_EVENTS)
    return json.dumps(stable_scenario_report(result), sort_keys=True)


@given(
    name=st.sampled_from(sorted(NAMED_SCENARIOS)),
    n=st.integers(min_value=6, max_value=16),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    engine=st.sampled_from(["sync", "async", "fast"]),
)
@settings(max_examples=12, deadline=None)
def test_identical_runs_identical_reports(name, n, seed, engine):
    if engine == "fast":
        pytest.importorskip("numpy")
    first = report_text(name, n, engine, seed)
    second = report_text(name, n, engine, seed)
    assert first == second


@given(seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=6, deadline=None)
def test_winners_and_metrics_stable_across_runs(seed):
    """Same inputs, three runs, one winner and one metric dict."""
    scenario = get_scenario("rolling_restart", 8)
    results = [
        run_scenario(scenario, 8, engine="sync", seed=seed) for _ in range(3)
    ]
    leaders = {r.metrics.final_leader_id for r in results}
    assert len(leaders) == 1
    dicts = [json.dumps(r.metrics.to_dict(), sort_keys=True) for r in results]
    assert len(set(dicts)) == 1


def test_different_seeds_may_differ_but_always_converge():
    scenario = get_scenario("election_storm", 8)
    for seed in range(5):
        result = run_scenario(scenario, 8, engine="sync", seed=seed)
        assert result.metrics.final_agreed
