"""T1.6 + T1.7 — Table 1 rows "Algorithm/Lower Bound, Theorem 3.16".

Paper claims: any Las Vegas algorithm needs Ω(n) messages in expectation;
and 3 rounds / O(n) messages (whp) are achievable.

Reproduced shape:
* every run (all seeds, all n) ends with exactly one leader — Las Vegas
  means *never* wrong;
* ≥ 90% of runs finish in exactly 3 rounds;
* mean messages are Θ(n): above the Ω(n) floor, below a fixed multiple;
* the candidate-probability ablation: larger candidate constants buy
  fewer restarts for more compete messages (DESIGN.md ablation #3).
"""

from repro.analysis import RunSpec, Table, sweep
from repro.lowerbound import bounds

from _harness import bench_once, emit

NS = [512, 2048, 8192]
SEEDS = list(range(8))


def run_sweep():
    table = Table(
        ["n", "3-round rate", "mean msgs", "Omega(n) floor", "mean/n", "max rounds seen"],
        title="Theorem 3.16: Las Vegas 3-round election, O(n) messages",
    )
    stats = []
    for n in NS:
        records = sweep(
            RunSpec(algorithm="las_vegas", n=n, engine="sync", seeds=SEEDS)
        )
        assert all(r.unique_leader for r in records)
        three_round = sum(r.time == 3 for r in records) / len(records)
        mean = sum(r.messages for r in records) / len(records)
        stats.append((n, three_round, mean))
        table.add_row(
            n,
            three_round,
            mean,
            bounds.thm316_las_vegas_lb(n),
            mean / n,
            max(int(r.time) for r in records),
        )
    return table, stats


def run_ablation():
    n = 2048
    table = Table(
        ["candidate coeff", "mean msgs", "3-round rate"],
        title="Ablation: candidate probability constant (c * ln n / n)",
    )
    for coeff in (0.5, 2.0, 8.0):
        records = sweep(
            RunSpec(
                algorithm="las_vegas",
                n=n,
                engine="sync",
                seeds=range(8),
                params={"candidate_coeff": coeff},
            )
        )
        assert all(r.unique_leader for r in records)
        mean = sum(r.messages for r in records) / len(records)
        rate = sum(r.time == 3 for r in records) / len(records)
        table.add_row(coeff, mean, rate)
    return table


def test_bench_las_vegas(benchmark):
    table, stats = bench_once(benchmark, run_sweep)
    emit("thm316_las_vegas", table.render())
    for n, three_round, mean in stats:
        assert three_round >= 0.85, (n, three_round)
        assert bounds.thm316_las_vegas_lb(n) - 1 <= mean <= 25 * n, (n, mean)


def test_bench_las_vegas_ablation(benchmark):
    table = bench_once(benchmark, run_ablation)
    emit("thm316_las_vegas_ablation", table.render())
