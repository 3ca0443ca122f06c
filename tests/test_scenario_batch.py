"""The vectorized scenario path: many act seeds batched per timeline.

``run_scenario_batch`` drives one replica :class:`ScenarioRunner` per
seed and collects concurrent fast-engine acts with identical memberships
into single multi-lane engine executions.  A lane's result depends
only on its seed — so the batched sweep must reproduce the sequential
results exactly, including when replicas diverge and run single-lane
acts.
"""

import pytest

pytest.importorskip("numpy")

from repro.scenarios import (  # noqa: E402
    NAMED_SCENARIOS,
    ScenarioRunner,
    get_scenario,
    run_scenario_batch,
)

SEEDS = [0, 1, 2]
#: The named scenarios the fast engine supports (no partitions/kill
#: policies/adversaries).
FAST_SCENARIOS = ["rolling_restart", "staggered_joins", "election_storm"]


def assert_results_equal(sequential, batched, label):
    assert len(sequential) == len(batched), label
    for a, b in zip(sequential, batched):
        assert len(a.epochs) == len(b.epochs), label
        for ea, eb in zip(a.epochs, b.epochs):
            assert (
                ea.epoch, ea.trigger, ea.t_start, ea.duration, ea.members,
                ea.leader_ids, ea.messages,
            ) == (
                eb.epoch, eb.trigger, eb.t_start, eb.duration, eb.members,
                eb.leader_ids, eb.messages,
            ), label
        ma, mb = a.metrics, b.metrics
        assert (
            ma.elections, ma.epoch_churn, ma.total_messages,
            ma.mean_failover_latency, ma.final_leader_id, ma.final_agreed,
        ) == (
            mb.elections, mb.epoch_churn, mb.total_messages,
            mb.mean_failover_latency, mb.final_leader_id, mb.final_agreed,
        ), label


@pytest.mark.parametrize("name", FAST_SCENARIOS)
def test_batched_sweep_reproduces_sequential_results(name):
    assert name in NAMED_SCENARIOS
    sequential = [
        ScenarioRunner(get_scenario(name, 24), 24, engine="fast", seed=s).run()
        for s in SEEDS
    ]
    batched = run_scenario_batch(get_scenario(name, 24), 24, SEEDS, engine="fast")
    assert_results_equal(sequential, batched, name)


def test_divergent_replicas_fall_back_to_single_lanes():
    # A randomized inner election (las_vegas) makes crash(LEADER) hit a
    # different node per replica, so memberships diverge mid-timeline
    # and later acts cannot share a batched run — the fallback must
    # still reproduce the sequential results exactly.
    from repro.scenarios import LEADER, Scenario, crash, elect

    scenario = Scenario(
        name="leader_loss_divergence",
        description="crash whoever leads, then force two more elections",
        events=(crash(LEADER, 4.0), elect(10.0), elect(16.0)),
    )
    seeds = [0, 1, 2, 3]
    sequential = [
        ScenarioRunner(scenario, 16, engine="fast", seed=s, inner="las_vegas").run()
        for s in seeds
    ]
    members = {tuple(r.epochs[-1].members) for r in sequential}
    assert len(members) > 1, "want replicas whose memberships diverge"
    batched = run_scenario_batch(
        scenario, 16, seeds, engine="fast", inner="las_vegas"
    )
    assert_results_equal(sequential, batched, "leader_loss_divergence")


def test_non_fast_engines_run_sequentially():
    results = run_scenario_batch(
        get_scenario("election_storm", 8), 8, [0, 1], engine="sync"
    )
    assert len(results) == 2
    assert all(r.engine == "sync" for r in results)


def test_single_seed_skips_the_coordinator():
    results = run_scenario_batch(
        get_scenario("election_storm", 8), 8, [4], engine="fast"
    )
    assert len(results) == 1
    assert results[0].seed == 4


def test_batch_propagates_runner_validation_errors():
    with pytest.raises(ValueError, match="needs n >="):
        run_scenario_batch(
            get_scenario("partition_heal", 16), 1, [0, 1], engine="fast"
        )


def test_faulted_scenarios_batch_equals_sequential():
    # Partition and slander timelines now run on the fast engine; the
    # coordinator serializes their faulted acts (the fault runtime is
    # single-lane) yet the batch must still equal the sequential sweep.
    for name in ("partition_heal", "slandered_leader"):
        scenario = get_scenario(name, 16)
        seeds = [0, 1, 2]
        sequential = [
            ScenarioRunner(scenario, 16, engine="fast", seed=s).run()
            for s in seeds
        ]
        batched = run_scenario_batch(scenario, 16, seeds, engine="fast")
        assert_results_equal(sequential, batched, name)


def test_acts_above_the_exact_limit_batch_like_sequential_runs():
    # Above n = 2048 acts run in scale mode; scale lanes equal single
    # runs too, so batched acts still reproduce the sequential sweep.
    scenario = get_scenario("election_storm", 2100)
    seeds = [0, 1]
    sequential = [
        ScenarioRunner(scenario, 2100, engine="fast", seed=s).run() for s in seeds
    ]
    batched = run_scenario_batch(scenario, 2100, seeds, engine="fast")
    assert_results_equal(sequential, batched, "election_storm@2100")


def test_coordinator_errors_propagate_instead_of_hanging():
    # An unknown inner algorithm only surfaces when the coordinator
    # dispatches the first act; the error must unblock every replica
    # thread and re-raise (a regression here deadlocks the call).
    with pytest.raises(KeyError, match="no vectorized port"):
        run_scenario_batch(
            get_scenario("election_storm", 16), 16, [0, 1],
            engine="fast", inner="monarchical",
        )
