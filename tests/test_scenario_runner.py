"""Fixed-case scenario executions on every engine.

Each named scenario runs at small ``n`` with a pinned seed; the
assertions pin the *semantics* (who leads, how many epochs, agreement
intervals) rather than raw counters, so they hold on any engine.
"""

import pytest

from repro.scenarios import (
    NodeState,
    Scenario,
    ScenarioRunner,
    crash,
    get_scenario,
    join,
    partition,
    recover,
    run_scenario,
    scenario_report,
)

ENGINES = ["sync", "async"]


def run(name, n=10, engine="sync", seed=3, **cfg):
    return run_scenario(get_scenario(name, n), n, engine=engine, seed=seed, **cfg)


class TestNamedScenarios:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_partition_heal_reconverges(self, engine):
        # lag=2 leaves a pre-detection window in which nodes still try
        # to reach the other side, so the partition mask itself (not
        # just the partition-aware detector) is exercised on both
        # engines.
        res = run("partition_heal", engine=engine, lag=2.0)
        m = res.metrics
        # Split: the partition act mints one leader per component.
        part = next(e for e in res.epochs if e.trigger == "partition")
        assert len(part.leader_ids) == 2
        assert part.partition_blocked > 0  # cross-component traffic died
        # Heal: one full-clique re-election, one agreed leader.
        heal = next(e for e in res.epochs if e.trigger == "heal")
        assert len(heal.leader_ids) == 1
        assert m.final_agreed and m.final_leader_id == heal.leader_ids[0]
        # Re-convergence metrics are reported.
        assert m.mean_failover_latency is not None and m.mean_failover_latency > 0
        assert m.epoch_churn >= 4
        assert m.message_overhead > 1.0
        # The partition window shows up as a disagreement interval.
        assert any(not iv.agreed and len(iv.leaders) == 2 for iv in m.agreement_intervals)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_rolling_restart_elect_lower_epoch(self, engine):
        res = run("rolling_restart", engine=engine)
        m = res.metrics
        assert m.final_agreed
        assert m.crashes == 3 and m.recoveries == 3
        assert m.elections == 4  # initial + one failover per leader crash
        # Every recovered node rejoined with a stale persisted epoch and
        # deferred to the sitting leader instead of reclaiming power.
        rejoins = [note for note in res.notes if "persisted epoch" in note]
        assert len(rejoins) == 3
        for st in res.states:
            assert st.up
        # Failover latency composes lag + measured election time.
        for e in res.epochs:
            if e.trigger == "failover":
                assert e.failover_latency >= 1.0  # at least the detector lag

    @pytest.mark.parametrize("engine", ENGINES)
    def test_flapping_leader_burns_epochs(self, engine):
        res = run("flapping_leader", engine=engine)
        m = res.metrics
        assert m.final_agreed
        assert m.elections == 1           # all churn happens inside one act
        assert m.epoch_churn >= 4         # three kills + the survivor
        assert m.crashes == 3
        act = res.epochs[0]
        assert act.in_act_crashes == 3
        assert act.reelection_time is not None and act.reelection_time > 0
        # The killed frontrunners stay down.
        down = [st for st in res.states if not st.up]
        assert len(down) == 3
        assert m.final_leader_id not in {st.node_id for st in down}

    @pytest.mark.parametrize("engine", ENGINES)
    def test_staggered_joins_grow_the_clique(self, engine):
        res = run("staggered_joins", engine=engine)
        m = res.metrics
        assert m.final_agreed
        assert m.joins == 3
        assert len(res.states) == 13      # n=10 plus three joiners
        assert m.elections == 4           # membership_change policy re-elects
        # Members per act grow monotonically.
        sizes = [len(e.members) for e in res.epochs]
        assert sizes == [10, 11, 12, 13]
        # Joined nodes carry fresh distinct IDs.
        ids = [st.node_id for st in res.states]
        assert len(set(ids)) == len(ids)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_election_storm_keeps_agreement(self, engine):
        res = run("election_storm", engine=engine)
        m = res.metrics
        assert m.final_agreed
        assert m.elections == 5
        assert m.epoch_churn == 5
        assert m.crashes == 0
        # Re-elections on a healthy clique never break agreement: the
        # only disagreement window is the initial election.
        disagreement = [iv for iv in m.agreement_intervals if not iv.agreed]
        assert len(disagreement) == 1 and disagreement[0].start == 0.0
        assert m.agreed_fraction > 0.8


class TestFastEngineSubset:
    @pytest.mark.parametrize(
        "name", ["rolling_restart", "staggered_joins", "election_storm"]
    )
    def test_crash_subset_runs_fast(self, name):
        pytest.importorskip("numpy")
        res = run(name, engine="fast", seed=3)
        assert res.metrics.final_agreed
        assert res.epochs[0].record.extra["engine"] == "fast"

    @pytest.mark.parametrize("name", ["partition_heal", "flapping_leader"])
    def test_faulted_scenarios_run_fast(self, name):
        # Partitions, link faults and kill policies route through the
        # vectorized fault runtime instead of refusing the fast engine.
        pytest.importorskip("numpy")
        res = run(name, engine="fast", seed=3)
        assert res.metrics.final_agreed
        assert res.epochs[0].record.extra["engine"] == "fast"

    def test_partition_act_blocks_traffic_on_fast(self):
        # The partition window runs as one full-membership fast act under
        # the mask.  The bare vectorized election is not partition-
        # tolerant (per-component leaders are a property of the object
        # engines' detector-driven re-election wrapper), so the act
        # commits nobody — and the heal act restores agreement.
        pytest.importorskip("numpy")
        res = run("partition_heal", engine="fast", seed=3)
        split = [e for e in res.epochs if e.trigger == "partition"]
        assert split and split[0].partition_blocked > 0
        assert split[0].leader_ids == []
        heal = [e for e in res.epochs if e.trigger == "heal"]
        assert heal and len(heal[0].leader_ids) == 1
        assert res.metrics.final_agreed

    def test_fast_agrees_with_sync_on_final_leader(self):
        pytest.importorskip("numpy")
        fast = run("rolling_restart", engine="fast", seed=3, inner="improved_tradeoff")
        sync = run("rolling_restart", engine="sync", seed=3)
        # Both engines elect max-ID leaders act for act, so the scenario
        # endings agree even though the acts run different code paths.
        assert fast.metrics.final_leader_id == sync.metrics.final_leader_id
        assert [len(e.members) for e in fast.epochs] == [
            len(e.members) for e in sync.epochs
        ]


class TestRunnerSemantics:
    def test_async_duplicating_links_need_a_duplicate_safe_inner(self):
        from repro.faults import LinkFaults

        sc = Scenario(name="echo", link_faults=(LinkFaults(duplicate_prob=0.05),))
        for quorum in (False, True):
            wrapper = "quorum_reelect" if quorum else "reelect"
            with pytest.raises(
                ValueError, match=f"^{wrapper}'s inner election async_tradeoff"
            ):
                ScenarioRunner(sc, 8, engine="async", quorum=quorum)
        # The sync and fast engines deliver duplicates to any election.
        for engine in ("sync", "fast"):
            ScenarioRunner(sc, 8, engine=engine)

    def test_non_leader_crash_needs_no_election_under_leader_loss(self):
        sc = Scenario(name="quiet", events=(crash(0, 20.0),))
        res = run_scenario(sc, 8, engine="sync", seed=1)
        assert res.metrics.elections == 1
        assert res.metrics.crashes == 1
        assert res.metrics.final_agreed

    def test_non_leader_crash_reelects_under_membership_change(self):
        sc = Scenario(
            name="strict",
            events=(crash(0, 20.0),),
            membership_policy="membership_change",
        )
        res = run_scenario(sc, 8, engine="sync", seed=1)
        assert res.metrics.elections == 2

    def test_symbolic_leader_crash_hits_the_actual_leader(self):
        sc = Scenario(name="regicide", events=(crash("leader", 20.0),))
        res = run_scenario(sc, 8, engine="sync", seed=1)
        initial_leader = res.epochs[0].leader_ids[0]
        assert res.metrics.elections == 2
        dead = [st for st in res.states if not st.up]
        assert [st.node_id for st in dead] == [initial_leader]
        assert res.metrics.final_leader_id != initial_leader

    def test_recover_into_leaderless_is_safe(self):
        # Crash a follower, recover it later: no elections beyond the first.
        sc = Scenario(name="nap", events=(crash(2, 20.0), recover(2, 40.0)))
        res = run_scenario(sc, 6, engine="sync", seed=1)
        assert res.metrics.elections == 1
        assert all(st.up for st in res.states)
        assert res.states[2].leader == res.metrics.final_leader_id
        assert res.states[2].epoch == res.epochs[0].epochs_minted

    def test_joining_node_adopts_the_leader_without_election(self):
        sc = Scenario(name="tagalong", events=(join(20.0),))
        res = run_scenario(sc, 6, engine="sync", seed=1)
        assert res.metrics.elections == 1
        joined = res.states[-1]
        assert joined.node_id == 7
        assert joined.leader == res.metrics.final_leader_id

    def test_duplicate_join_id_rejected(self):
        sc = Scenario(name="clash", events=(join(20.0, node_id=3),))
        with pytest.raises(ValueError, match="already in use"):
            run_scenario(sc, 6, engine="sync", seed=1)

    def test_malformed_timelines_rejected_at_construction(self):
        # IDs and indexes are allocated in fire order, as run() does: the
        # first join takes ID 7 (n=6), the second reuses it.
        clash = Scenario(name="clash", events=(join(30.0, node_id=7), join(20.0)))
        with pytest.raises(ValueError, match="node ID 7 already in use"):
            ScenarioRunner(clash, 6)
        ghost = Scenario(name="ghost", events=(partition(((0, 1, 2), (3, 6)), 20.0, 80.0),))
        with pytest.raises(ValueError, match="component member 6 does not exist"):
            ScenarioRunner(ghost, 6)
        # Node 6 exists by the time the split fires once it has joined.
        joined = Scenario(
            name="joined", events=(join(10.0), partition(((0, 1, 2), (3, 6)), 20.0, 80.0))
        )
        res = ScenarioRunner(joined, 6, seed=1).run()
        assert [e.trigger for e in res.epochs] == ["initial", "partition", "heal"]

    def test_back_to_back_partitions_both_execute(self):
        # A window starting exactly at the previous window's end must
        # run: heals process before same-timestamp events (half-open
        # windows), so the second split is not swallowed.
        halves = ((0, 1, 2), (3, 4, 5))
        sc = Scenario(
            name="double_split",
            events=(
                partition(halves, 20.0, 80.0),
                partition(halves, 80.0, 140.0),
            ),
        )
        res = run_scenario(sc, 6, engine="sync", seed=1)
        triggers = [e.trigger for e in res.epochs]
        assert triggers == ["initial", "partition", "heal", "partition", "heal"]
        assert res.metrics.final_agreed

    def test_custom_partition_isolates_unlisted_nodes(self):
        # Node 5 is listed in no component: it is isolated and elects
        # itself; the two components elect their own leaders.
        sc = Scenario(
            name="quarantine",
            events=(partition(((0, 1, 2), (3, 4)), 20.0, 80.0),),
        )
        res = run_scenario(sc, 6, engine="sync", seed=1)
        part = next(e for e in res.epochs if e.trigger == "partition")
        assert sorted(part.leader_ids) == [3, 5, 6]
        assert res.metrics.final_agreed  # heal reconverges

    def test_report_is_json_safe(self):
        import json

        res = run("partition_heal", engine="sync", seed=3)
        report = scenario_report(res)
        text = json.dumps(report)
        assert "failover_latency" in text
        assert report["metrics"]["epoch_churn"] >= 4
        assert report["metrics"]["message_overhead"] > 1.0
        assert len(report["records"]) == res.metrics.elections

    def test_small_n_guard(self):
        with pytest.raises(ValueError, match="needs n >="):
            run_scenario(get_scenario("flapping_leader", 4), 4, engine="sync")

    def test_bad_engine_rejected(self):
        with pytest.raises(ValueError, match="engine"):
            ScenarioRunner(get_scenario("election_storm", 8), 8, engine="warp")

    @pytest.mark.parametrize(
        "engine,inner,error,match",
        [
            ("fast", "monarchical", KeyError, "no vectorized port"),
            ("sync", "nosuch", KeyError, "unknown algorithm"),
            ("async", "improved_tradeoff", ValueError, "runs on the sync engine"),
            ("sync", "monarchical", ValueError, "crash-oblivious"),
            ("async", "reelect", ValueError, "crash-oblivious"),
        ],
    )
    def test_bad_inner_rejected_at_construction(self, engine, inner, error, match):
        if engine == "fast":
            pytest.importorskip("numpy")
        with pytest.raises(error, match=match):
            ScenarioRunner(
                get_scenario("election_storm", 8), 8, engine=engine, inner=inner
            )

    @pytest.mark.parametrize("lag", [-1.0, float("nan")])
    def test_bad_lag_rejected_at_construction(self, lag):
        with pytest.raises(ValueError, match="detector lag must be >= 0"):
            ScenarioRunner(get_scenario("election_storm", 8), 8, lag=lag)


class TestLeaderTallies:
    """``_believed_leaders`` and ``_is_agreed`` on hand-built node states.

    A belief counts only while its owner is up, whatever the believer;
    agreement needs every up node on one live leader and no partition.
    """

    @staticmethod
    def runner(spec, partition_on=False):
        """A sync runner over states ``spec``: one ``(up, leader)`` per node."""
        r = ScenarioRunner(get_scenario("election_storm", 8), 8, engine="sync")
        r.states = [
            NodeState(index=i, node_id=10 * (i + 1), up=up, leader=leader)
            for i, (up, leader) in enumerate(spec)
        ]
        r._state_by_id = {st.node_id: st for st in r.states}
        r._partition = partition(((0, 1), (2, 3)), 1.0, 2.0) if partition_on else None
        return r

    def test_all_up_nodes_follow_one_live_leader(self):
        r = self.runner([(True, 30), (True, 30), (True, 30), (False, None)])
        assert r._believed_leaders() == (30,)
        assert r._is_agreed()

    def test_a_down_believer_does_not_count(self):
        # Node 3 is down but believes in the up node 10; the up nodes all
        # follow 20, so only 20 is believed and the clique agrees.
        r = self.runner([(True, 20), (True, 20), (True, 20), (False, 10)])
        assert r._believed_leaders() == (20,)
        assert r._is_agreed()

    def test_a_crashed_leader_is_no_leader(self):
        r = self.runner([(True, 40), (True, 40), (True, 40), (False, 40)])
        assert r._believed_leaders() == ()
        assert not r._is_agreed()

    def test_none_beliefs(self):
        r = self.runner([(True, None), (True, None), (False, None)])
        assert r._believed_leaders() == ()
        assert not r._is_agreed()
        r = self.runner([(True, None), (True, 10), (True, 10)])
        assert r._believed_leaders() == (10,)
        assert not r._is_agreed()

    def test_two_live_leaders_come_back_sorted(self):
        r = self.runner([(True, 40), (True, 10), (True, 40), (True, 10), (True, 99)])
        assert r._believed_leaders() == (10, 40)
        assert not r._is_agreed()

    def test_no_up_node_agrees_on_nothing(self):
        r = self.runner([(False, 10), (False, 10)])
        assert r._believed_leaders() == ()
        assert not r._is_agreed()

    def test_a_partition_is_never_agreed(self):
        r = self.runner([(True, 10)] * 4, partition_on=True)
        assert r._believed_leaders() == (10,)
        assert not r._is_agreed()
