#!/usr/bin/env python3
"""How each algorithm's message bill scales — fitted exponents.

Sweeps the clique size for four algorithms spanning the paper's spectrum
and prints a table of mean messages per n, next to the fitted power
laws:

* Theorem 3.10 at ℓ=3  → ~n^1.5   (fast and expensive)
* Theorem 3.10 at ℓ=9  → ~n^1.2
* Las Vegas (Thm 3.16) → ~n       (the randomized Ω(n) floor)
* Monte Carlo [16]     → ~√n·polylog (below every deterministic bound)

Run:  python examples/complexity_scaling.py
"""

import random

from repro.analysis import RunSpec, Table, fit_power_law, sweep
from repro.ids import assign_random, tradeoff_universe

NS = [128, 256, 512, 1024, 2048, 4096]


def measure(algorithm, params, seeds=(0, 1)):
    records = sweep(
        RunSpec(
            algorithm=algorithm,
            n=n,
            engine="sync",
            seeds=(seed,),
            params=params,
            ids=assign_random(
                tradeoff_universe(n), n, random.Random(f"{n}:{seed}:workload")
            ),
        )
        for n in NS
        for seed in seeds
    )
    by_n = {}
    for r in records:
        by_n.setdefault(r.n, []).append(r.messages)
    return [(n, sum(v) / len(v)) for n, v in sorted(by_n.items())]


def main() -> None:
    print("Sweeping n =", NS, "(two seeds per point)\n")
    series = {}
    fits = {}
    for name, algorithm, params in (
        ("thm3.10 ell=3", "improved_tradeoff", {"ell": 3}),
        ("thm3.10 ell=9", "improved_tradeoff", {"ell": 9}),
        ("las vegas", "las_vegas", {}),
        ("monte carlo [16]", "kutten16", {}),
    ):
        points = measure(algorithm, params)
        series[name] = points
        fits[name] = fit_power_law([p[0] for p in points], [p[1] for p in points])

    table = Table(["n", *series], title="mean messages vs n")
    for i, n in enumerate(NS):
        table.add_row(n, *(points[i][1] for points in series.values()))
    print(table.render())
    print("\nfitted power laws:")
    for name, fit in fits.items():
        print(f"  {name:<18} {fit}")
    print("\nReading: four separated columns — the paper's hierarchy")
    print("n^1.5 > n^1.2 > n > sqrt(n)·polylog.  (At laptop sizes the two")
    print("randomized fits sit below their asymptotic slopes: Las Vegas")
    print("mixes its Theta(n) announcement with a sqrt(n)·polylog compete")
    print("term, and the Monte Carlo candidate count is noisy — see")
    print("EXPERIMENTS.md for the variance discussion.)")


if __name__ == "__main__":
    main()
