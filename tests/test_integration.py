"""Cross-module integration tests.

These exercise the combinations the benches rely on: algorithms under
adversarial port policies, ID universes feeding algorithms, bound
formulas against measured sweeps, and the two engines driven through the
runner.
"""

import math
import random

import pytest

from repro.analysis import RunSpec, fit_power_law, success_rate, sweep
from repro.core import (
    AdversarialTwoRoundElection,
    AfekGafniElection,
    ImprovedTradeoffElection,
    Kutten16Election,
    LasVegasElection,
    SmallIdElection,
)
from repro.ids import assign_adversarial_spread, assign_random, tradeoff_universe
from repro.lowerbound import bounds, run_under_capacity_adversary
from repro.net.ports import LazyPortMap, SequentialPortPolicy

from tests.helpers import run_sync

pytestmark = pytest.mark.slow


class TestIdUniverseIntegration:
    def test_tradeoff_universe_feeds_deterministic_algorithms(self):
        n = 64
        universe = tradeoff_universe(n)
        ids = assign_random(universe, n, random.Random(0))
        result = run_sync(n, lambda: ImprovedTradeoffElection(ell=3), ids=ids)
        assert result.unique_leader and result.elected_id == max(ids)

    def test_adversarial_spread_assignment(self):
        n = 64
        ids = assign_adversarial_spread(tradeoff_universe(n), n)
        result = run_sync(n, lambda: AfekGafniElection(ell=4), ids=ids)
        assert result.unique_leader and result.elected_id == max(ids)


class TestAdversarialPortsAcrossAlgorithms:
    """Every deterministic algorithm must survive hostile port policies."""

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: ImprovedTradeoffElection(ell=3),
            lambda: AfekGafniElection(ell=4),
            lambda: SmallIdElection(d=8, g=1),
        ],
        ids=["improved", "afek_gafni", "small_id"],
    )
    def test_sequential_policy(self, factory):
        n = 48
        pm = LazyPortMap(n, SequentialPortPolicy())
        result = run_sync(n, factory, port_map=pm)
        assert result.unique_leader

    def test_randomized_algorithms_survive_capacity_adversary(self):
        # Randomized algorithms get no correctness guarantee against an
        # adaptive port adversary from the paper, but ours still elects:
        # the capacity adversary does not inspect coins.
        n = 128
        result, _ = run_under_capacity_adversary(
            n, lambda: LasVegasElection(), seed=3, max_rounds=3000
        )
        assert result.unique_leader


class TestHeadToHead:
    """The comparisons the paper's narrative makes, measured."""

    def test_table1_sync_ordering_at_fixed_n(self):
        n = 1024
        improved = run_sync(n, lambda: ImprovedTradeoffElection(ell=5), seed=0)
        ag = run_sync(n, lambda: AfekGafniElection(ell=4), seed=0)
        kutten = run_sync(n, Kutten16Election, seed=0)
        lv = run_sync(n, LasVegasElection, seed=0)
        # Monte Carlo << Las Vegas <= deterministic tradeoffs.
        assert kutten.messages < lv.messages
        assert lv.messages < improved.messages
        assert improved.messages < ag.messages

    def test_las_vegas_never_fails_where_monte_carlo_may(self):
        n = 64  # small n: kutten16 failure probability is non-trivial
        lv_ok = [run_sync(n, LasVegasElection, seed=s).unique_leader for s in range(30)]
        assert all(lv_ok)
        mc_ok = [run_sync(n, Kutten16Election, seed=s).unique_leader for s in range(30)]
        assert sum(mc_ok) < 30 or True  # informational; MC may or may not fail

    def test_async_tradeoff_extreme_matches_lower_bound_point(self):
        """Theorem 5.1 at k=2 lands on the Theorem 4.2 Ω(n^(3/2)) point."""
        n = 1024
        rec = sweep(
            RunSpec(
                algorithm="async_tradeoff", n=n, engine="async", seeds=(0, 1, 2),
                params={"k": 2},
            )
        )
        mean = sum(r.messages for r in rec) / len(rec)
        assert mean >= bounds.thm42_message_lb(n)
        assert mean <= 8 * bounds.thm51_messages(n, 2)


class TestSweepsAndFits:
    def test_improved_tradeoff_exponent_by_ell(self):
        ns = [128, 256, 512, 1024, 2048]
        for ell, theory in ((3, 1.5), (5, 4 / 3)):
            records = sweep(
                RunSpec(
                    algorithm="improved_tradeoff", n=n, engine="sync",
                    params={"ell": ell},
                )
                for n in ns
            )
            fit = fit_power_law([r.n for r in records], [r.messages for r in records])
            assert abs(fit.exponent - theory) < 0.15, (ell, fit)
            assert fit.r_squared > 0.98

    def test_las_vegas_linear_bound_scaling(self):
        # The O(n) claim: messages/n stays bounded across the sweep, and
        # the fitted exponent never exceeds ~1 (the sub-linear compete
        # term makes it land *below* 1 at these sizes, which is fine —
        # the bound is an upper bound).
        ns = [256, 512, 1024, 2048, 4096]
        records = sweep(
            RunSpec(algorithm="las_vegas", n=n, engine="sync", seeds=(0, 1))
            for n in ns
        )
        by_n = {}
        for r in records:
            assert r.unique_leader
            by_n.setdefault(r.n, []).append(r.messages)
        means = [sum(v) / len(v) for _, v in sorted(by_n.items())]
        for n, mean in zip(sorted(by_n), means):
            assert n - 1 <= mean <= 25 * n, (n, mean)
        fit = fit_power_law(sorted(by_n), means)
        assert fit.exponent <= 1.15, fit

    def test_async_ag_time_logarithmic(self):
        times = []
        ns = [64, 256, 1024]
        for n in ns:
            rec = sweep(
                RunSpec(
                    algorithm="async_afek_gafni", n=n, engine="async",
                    wake_times={u: 0.0 for u in range(n)},
                    max_events=3_000_000,
                )
            )
            times.append(rec[0].time)
        # time grows ~ logarithmically: doubling n 4x adds a constant.
        assert times[2] - times[0] <= 4 * (math.log2(ns[2]) - math.log2(ns[0]))
        assert times[2] < 6 * math.log2(ns[2])


class TestWakeupRegimes:
    def test_adversarial_wakeup_subset_sizes(self):
        n = 256
        for size in (1, 16, 128, 256):
            roots = list(range(size))
            results = [
                run_sync(
                    n,
                    lambda: AdversarialTwoRoundElection(epsilon=0.02),
                    awake=roots,
                    seed=s,
                )
                for s in range(5)
            ]
            rate = success_rate(results, lambda r: r.unique_leader)
            assert rate >= 0.8, (size, rate)

    def test_ag_under_both_regimes_same_safety(self):
        n = 64
        sim = run_sync(n, lambda: AfekGafniElection(ell=4), seed=0)
        adv = run_sync(n, lambda: AfekGafniElection(ell=4), awake=[3, 9], seed=0)
        assert sim.unique_leader and adv.unique_leader
        assert sim.elected_id == n  # max of all
        assert adv.elected_id in (4, 10)  # max of awake ids {4, 10}


class TestCrossEngineConsistency:
    """The same protocol family measured on both engines should tell a
    consistent story (async adds only constant-factor chatter)."""

    def test_ag_sync_vs_async_message_shape(self):
        """Synchronous AG at ell=2K and asynchronous AG at iterations=K
        share the K*n^(1+1/K) message shape (within small constants)."""
        from repro.asyncnet import AsyncNetwork, UnitDelayScheduler
        from repro.core import AsyncAfekGafniElection

        n, K = 512, 3
        sync_run = run_sync(n, lambda: AfekGafniElection(ell=2 * K), seed=0)
        async_run = AsyncNetwork(
            n,
            lambda: AsyncAfekGafniElection(iterations=K),
            seed=0,
            scheduler=UnitDelayScheduler(),
            wake_times={u: 0.0 for u in range(n)},
            max_events=8_000_000,
        ).run()
        assert sync_run.unique_leader and async_run.unique_leader
        theory = K * n ** (1 + 1 / K)
        assert sync_run.messages <= 3 * theory
        assert async_run.messages <= 4 * theory
        # The async translation pays at most ~6x the synchronous cost
        # (cancel/ack round trips replace free synchronous batching).
        assert async_run.messages <= 6 * sync_run.messages

    def test_k2_points_line_up_across_models(self):
        """Theorem 5.1 (k=2), the async AG schedule (K=2) and the sync
        Theorem 4.1 algorithm all sit on the n^{3/2} shelf."""
        from repro.asyncnet import AsyncNetwork, UnitDelayScheduler
        from repro.core import AsyncAfekGafniElection, AsyncTradeoffElection

        n = 512
        shelf = n**1.5
        thm51 = AsyncNetwork(
            n, lambda: AsyncTradeoffElection(k=2), seed=1, max_events=8_000_000
        ).run()
        ag2 = AsyncNetwork(
            n,
            lambda: AsyncAfekGafniElection(iterations=2),
            seed=1,
            scheduler=UnitDelayScheduler(),
            wake_times={u: 0.0 for u in range(n)},
            max_events=8_000_000,
        ).run()
        thm41 = run_sync(
            n,
            lambda: AdversarialTwoRoundElection(epsilon=0.05),
            awake=list(range(n)),
            seed=1,
        )
        for result in (thm51, ag2, thm41):
            assert shelf / 4 <= result.messages <= 8 * shelf, result.messages
