"""T1.10 — Table 1 row "Algorithm, Theorem 4.1" (2-round, adversarial wake).

Paper claim: 2 rounds, success probability ``≥ 1 - ε - 1/n``, expected
``O(n^(3/2)·log(1/ε))`` messages, matching the Theorem 4.2 lower bound.

Reproduced shape:
* success rate ≥ 1 - ε - slack across root-set sizes {1, √n, n/2, n};
* worst-root-set mean messages fit exponent ≈ 1.5 and stay under the
  bound formula;
* measured messages dominate the Theorem 4.2 Ω(n^(3/2)) floor at the
  all-roots adversary (the algorithm is tight).
"""

import random

from repro.analysis import RunSpec, Table, fit_power_law, sweep
from repro.lowerbound import bounds
from repro.mathutil import ceil_sqrt

from _harness import bench_once, emit

EPS = 0.05
NS = [256, 1024, 4096]
SEEDS = list(range(6))


def run_sweep():
    table = Table(
        ["n", "roots", "success rate", "mean msgs", "paper bound", "Thm 4.2 floor"],
        title=f"Theorem 4.1: 2-round election under adversarial wake-up (eps={EPS})",
    )
    worst_means = []
    for n in NS:
        worst = 0.0
        for label, root_count in (
            ("1", 1),
            ("sqrt(n)", ceil_sqrt(n)),
            ("n/2", n // 2),
            ("n", n),
        ):
            records = sweep(
                RunSpec(
                    algorithm="adversarial_2round",
                    n=n,
                    engine="sync",
                    seeds=(seed,),
                    params={"epsilon": EPS},
                    awake=random.Random(f"{n}:{seed}:workload").sample(
                        range(n), root_count
                    ),
                )
                for seed in SEEDS
            )
            rate = sum(r.unique_leader for r in records) / len(records)
            mean = sum(r.messages for r in records) / len(records)
            worst = max(worst, mean)
            for r in records:
                assert r.time <= 2
                assert r.leaders <= 1
            table.add_row(
                n,
                label,
                rate,
                mean,
                bounds.thm41_expected_messages(n, EPS),
                bounds.thm42_message_lb(n),
            )
        worst_means.append(worst)
        table.add_section(f"n={n}: worst-case-root-set mean messages {worst:,.0f}")
    fit = fit_power_law(NS, worst_means)
    table.add_section(f"worst-case fit: {fit}; theory exponent 1.5")
    return table, worst_means, fit


def test_bench_thm41(benchmark):
    table, worst_means, fit = bench_once(benchmark, run_sweep)
    emit("thm41_adversarial_2round", table.render())
    assert 1.3 <= fit.exponent <= 1.7, fit
    for n, mean in zip(NS, worst_means):
        assert mean <= 4 * bounds.thm41_expected_messages(n, EPS), (n, mean)
        # tightness against Theorem 4.2 (constant-free floor):
        assert mean >= bounds.thm42_message_lb(n) / 4, (n, mean)
