"""T1.12 + T1.13 — Table 1 rows "Algorithm, Theorem 5.1" and the [14] row.

Paper claim (Thm 5.1): for ``k ∈ [2, O(log n/log log n)]``, whp a unique
leader within ``k + 8`` time units and ``O(n^(1+1/k))`` messages — the
first asynchronous message/time tradeoff.

Reproduced shape:
* success whp, all k, under unit-delay and random-delay adversaries;
* time ≤ k + 8 (+1 for the final announcement hop) under unit delays;
* message exponent of the dominant wake-up spray matches 1 + 1/k;
* at maximal k the algorithm approaches the [14] reference point
  (near-linear messages, ~log time) — the bench prints that row from
  the closed forms next to our nearest measured point.

Also prints the γ (wake fan-out constant) ablation: DESIGN.md ablation #2.
"""


from repro.analysis import RunSpec, Table, fit_power_law, sweep
from repro.lowerbound import bounds

from _harness import bench_once, emit

NS = [256, 1024, 4096]
KS = [2, 3, 4, 6]
SEEDS = list(range(4))


def run_sweep():
    table = Table(
        ["k", "n", "success", "mean msgs", "O(n^(1+1/k))", "max time", "k+8"],
        title="Theorem 5.1: asynchronous tradeoff (unit-delay adversary)",
    )
    fits = {}
    for k in KS:
        wake_counts = []
        for n in NS:
            records = sweep(
                RunSpec(
                    algorithm="async_tradeoff",
                    n=n,
                    engine="async",
                    seeds=SEEDS,
                    params={"k": k},
                    max_events=8_000_000,
                )
            )
            rate = sum(r.unique_leader for r in records) / len(records)
            mean = sum(r.messages for r in records) / len(records)
            worst_time = max(r.time for r in records if r.unique_leader)
            table.add_row(
                k, n, rate, mean, bounds.thm51_messages(n, k), worst_time, bounds.thm51_time(k)
            )
            wake_counts.append(mean)
        fits[k] = fit_power_law(NS, wake_counts)
        table.add_section(f"k={k}: fitted {fits[k]}; theory exponent {1 + 1 / k:.3f}")
    return table, fits


def run_reference_row():
    n = 4096
    kmax = bounds.thm51_max_k(n)
    records = sweep(
        RunSpec(
            algorithm="async_tradeoff",
            n=n,
            engine="async",
            seeds=SEEDS,
            params={"k": kmax},
            max_events=8_000_000,
        )
    )
    mean = sum(r.messages for r in records) / len(records)
    worst_time = max(r.time for r in records)
    table = Table(
        ["row", "time", "messages"],
        title=f"[14] reference row vs Theorem 5.1 at k_max={kmax} (n={n})",
    )
    table.add_row("[14] (closed form, not reimplemented)", bounds.kmp14_time(n), bounds.kmp14_messages(n))
    table.add_row(f"Thm 5.1 measured at k={kmax}", worst_time, mean)
    table.add_row(f"Thm 5.1 bound at k={kmax}", bounds.thm51_time(kmax), bounds.thm51_messages(n, kmax))
    return table, mean, worst_time, kmax, n


def run_gamma_ablation():
    n, k = 1024, 3
    table = Table(
        ["gamma", "success rate", "awake fraction", "mean msgs"],
        title=f"Ablation: wake-up fan-out constant gamma (n={n}, k={k})",
    )
    for gamma in (0.5, 1.5, 3.0, 6.0):
        records = sweep(
            RunSpec(
                algorithm="async_tradeoff",
                n=n,
                engine="async",
                seeds=range(6),
                params={"k": k, "gamma": gamma},
                max_events=8_000_000,
            )
        )
        rate = sum(r.unique_leader for r in records) / len(records)
        awake = sum(r.awake for r in records) / (len(records) * n)
        mean = sum(r.messages for r in records) / len(records)
        table.add_row(gamma, rate, awake, mean)
    return table


def test_bench_thm51_tradeoff(benchmark):
    table, fits = bench_once(benchmark, run_sweep)
    emit("thm51_async_tradeoff", table.render())
    for k, fit in fits.items():
        assert fit.exponent <= 1 + 1 / k + 0.1, (k, fit)
        if k <= 3:
            assert fit.exponent >= 1 + 1 / k - 0.25, (k, fit)


def test_bench_thm51_time_bound(benchmark):
    def run():
        bad = []
        for k in (2, 4):
            records = sweep(
                RunSpec(
                    algorithm="async_tradeoff",
                    n=1024,
                    engine="async",
                    seeds=range(5),
                    params={"k": k},
                    max_events=8_000_000,
                )
            )
            for r in records:
                if r.unique_leader and r.time > bounds.thm51_time(k) + 1:
                    bad.append((k, r.time))
        return bad

    bad = bench_once(benchmark, run)
    assert not bad, bad


def test_bench_kmp14_reference(benchmark):
    table, mean, worst_time, kmax, n = bench_once(benchmark, run_reference_row)
    emit("thm51_kmp14_reference", table.render())
    # near-linear messages at k_max: within n * polylog
    assert mean <= n * (bounds.thm514_time(n) ** 2), (mean, n)


def test_bench_thm51_gamma_ablation(benchmark):
    table = bench_once(benchmark, run_gamma_ablation)
    emit("thm51_gamma_ablation", table.render())
