"""T1.3 — Table 1 row "Algorithm, Theorem 3.10" (sync det, simultaneous).

Paper claim: for any odd ``ℓ ≥ 3`` there is a deterministic algorithm
with time ``ℓ`` and messages ``O(ℓ·n^(1 + 2/(ℓ+1)))``.

Reproduced shape:
* measured rounds == ℓ exactly;
* measured messages stay below the bound formula (constant ≤ 2);
* the fitted message exponent over an n-sweep matches ``1 + 2/(ℓ+1)``.
"""

import random

from repro.analysis import RunSpec, Table, fit_power_law, sweep
from repro.ids import assign_random, tradeoff_universe
from repro.lowerbound import bounds

from _harness import bench_once, emit

NS = [256, 512, 1024, 2048, 4096]
ELLS = [3, 5, 7, 9]


def run_sweep():
    table = Table(
        ["ell", "n", "rounds", "messages", "paper bound", "used/bound"],
        title="Theorem 3.10: ell-round deterministic election, messages vs O(ell*n^(1+2/(ell+1)))",
    )
    fits = {}
    for ell in ELLS:
        records = sweep(
            RunSpec(
                algorithm="improved_tradeoff",
                n=n,
                engine="sync",
                params={"ell": ell},
                ids=assign_random(
                    tradeoff_universe(n), n, random.Random(f"{n}:0:workload")
                ),
            )
            for n in NS
        )
        for r in records:
            assert r.unique_leader
            assert r.time == ell
            bound = bounds.thm310_messages(r.n, ell)
            assert r.messages <= 2 * bound
            table.add_row(ell, r.n, int(r.time), r.messages, bound, r.messages / bound)
        fit = fit_power_law([r.n for r in records], [r.messages for r in records])
        fits[ell] = fit
        table.add_section(
            f"ell={ell}: fitted messages ~ {fit}; theory exponent {1 + 2 / (ell + 1):.3f}"
        )
    return table, fits


def test_bench_thm310(benchmark):
    table, fits = bench_once(benchmark, run_sweep)
    emit("thm310_improved_tradeoff", table.render())
    for ell, fit in fits.items():
        theory = 1 + 2 / (ell + 1)
        assert abs(fit.exponent - theory) < 0.2, (ell, fit.exponent, theory)
        assert fit.r_squared > 0.97
