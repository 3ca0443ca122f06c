"""Stats, tables, runner and validation helpers (repro.analysis)."""

import random

import pytest

from repro.analysis import (
    RunRecord,
    RunSpec,
    Table,
    agreement_ok,
    assert_unique_leader,
    election_valid,
    format_quantity,
    run,
    success_rate,
    summarize,
    sweep,
)
from repro.core import ImprovedTradeoffElection


class TestSummarize:
    def test_basic(self):
        s = summarize([1, 2, 3, 4])
        assert s.count == 4
        assert s.mean == pytest.approx(2.5)
        assert s.minimum == 1 and s.maximum == 4
        assert s.median == pytest.approx(2.5)

    def test_odd_median(self):
        assert summarize([5, 1, 3]).median == 3

    def test_std(self):
        s = summarize([2, 2, 2])
        assert s.std == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_str(self):
        assert "mean=" in str(summarize([1.0, 2.0]))


class TestSuccessRate:
    def test_rate(self):
        assert success_rate([1, 2, 3, 4], lambda x: x % 2 == 0) == 0.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            success_rate([], bool)


class TestTable:
    def test_render_alignment(self):
        t = Table(["n", "messages"], title="demo")
        t.add_row(128, 4607)
        t.add_row(1024, 123456)
        text = t.render()
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "messages" in lines[1]
        assert "4,607" in text and "123,456" in text

    def test_row_width_mismatch(self):
        t = Table(["a", "b"])
        with pytest.raises(ValueError):
            t.add_row(1)

    def test_section_rows(self):
        t = Table(["a", "b"])
        t.add_section("part one")
        t.add_row(1, 2)
        assert "-- part one" in t.render()

    def test_format_quantity(self):
        assert format_quantity(True) == "yes"
        assert format_quantity(1234567) == "1,234,567"
        assert format_quantity(3.14159) == "3.14"
        assert format_quantity(123456.78) == "123,457"
        assert format_quantity("x") == "x"

    def test_empty_columns_rejected(self):
        with pytest.raises(ValueError):
            Table([])


class TestRunner:
    def test_sync_trial_record(self):
        rec = run(
            RunSpec(
                algorithm="improved_tradeoff", n=64, engine="sync", seeds=(1,),
                params={"ell": 3},
            )
        )
        assert isinstance(rec, RunRecord)
        assert rec.n == 64
        assert rec.unique_leader
        assert rec.time == 3.0
        assert rec.params == {"ell": 3}
        assert rec.extra["rounds_executed"] == 4

    def test_async_trial_record(self):
        rec = run(
            RunSpec(
                algorithm="async_tradeoff", n=64, engine="async", seeds=(1,),
                params={"k": 2},
            )
        )
        assert rec.n == 64
        assert rec.messages > 0
        assert rec.extra["events"] > 0

    def test_sync_grid_sweep(self):
        records = sweep(
            RunSpec(
                algorithm="improved_tradeoff", n=n, engine="sync", seeds=(0, 1),
                params={"ell": 3},
            )
            for n in (16, 32)
        )
        assert len(records) == 4
        assert [r.n for r in records] == [16, 16, 32, 32]

    def test_sync_sweep_deterministic(self):
        def go():
            rng = random.Random("32:5:workload")
            return sweep(
                RunSpec(
                    algorithm="improved_tradeoff", n=32, engine="sync", seeds=(5,),
                    params={"ell": 3}, ids=rng.sample(range(1, 10 * 32), 32),
                )
            )

        a, b = go(), go()
        assert a[0].messages == b[0].messages
        assert a[0].elected_id == b[0].elected_id

    def test_sync_sweep_awake_subset(self):
        records = sweep(
            RunSpec(
                algorithm="adversarial_2round", n=64, engine="sync",
                params={"epsilon": 0.1}, awake=[0, 1],
            )
        )
        assert records[0].awake >= 2

    def test_async_run_scheduler(self):
        from repro.asyncnet import RushScheduler

        records = [
            run(
                RunSpec(
                    algorithm="async_tradeoff", n=32, engine="async",
                    params={"k": 2},
                ),
                scheduler=RushScheduler(),
            )
        ]
        assert records[0].time < 0.01


class TestValidation:
    def test_election_valid_on_real_run(self):
        from repro.sync import SyncNetwork

        result = SyncNetwork(32, lambda: ImprovedTradeoffElection(ell=3), seed=0).run()
        assert election_valid(result)
        assert_unique_leader(result)
        assert agreement_ok(result)

    def test_assert_unique_leader_raises(self):
        class Fake:
            leaders = []
            leader_ids = []
            decided_count = 0
            n = 4

        with pytest.raises(AssertionError):
            assert_unique_leader(Fake())

    def test_agreement_fails_on_bad_output(self):
        from repro.common import Decision

        class Fake:
            leaders = [0]
            unique_leader = True
            elected_id = 10
            decisions = [Decision.LEADER, Decision.NON_LEADER]
            outputs = [10, 99]

        assert not agreement_ok(Fake())
