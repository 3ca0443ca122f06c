"""T1.4 — Table 1 row "Algorithm [1]" (Afek–Gafni baseline, sync det).

Paper claim (for [1]): for any ``ℓ ≥ 2``, time ``ℓ`` and messages
``O(ℓ·n^(1 + 2/ℓ))``, under adversarial wake-up.

Reproduced shape:
* fitted exponent per ℓ matches ``1 + 2/ℓ``;
* head-to-head with Theorem 3.10 at equal round budgets: the improved
  algorithm sends strictly fewer messages, with the gap growing as a
  power of n (the paper's §3.3 comparison).
"""

import random

from repro.analysis import RunSpec, Table, fit_power_law, sweep
from repro.ids import assign_random, tradeoff_universe
from repro.lowerbound import bounds

from _harness import bench_once, emit

NS = [256, 512, 1024, 2048]
ELLS = [4, 6, 8]


def grid(name, ell):
    return [
        RunSpec(
            algorithm=name,
            n=n,
            engine="sync",
            params={"ell": ell},
            ids=assign_random(
                tradeoff_universe(n), n, random.Random(f"{n}:0:workload")
            ),
        )
        for n in NS
    ]


def run_sweep():
    table = Table(
        ["ell", "n", "rounds", "messages", "paper bound", "thm310 same-odd-ell msgs"],
        title="Afek-Gafni [1] baseline vs Theorem 3.10 (same round budget)",
    )
    fits = {}
    for ell in ELLS:
        records = sweep(grid("afek_gafni", ell))
        improved = sweep(grid("improved_tradeoff", ell + 1))
        for r, imp in zip(records, improved):
            assert r.unique_leader and imp.unique_leader
            assert r.messages <= 3 * bounds.ag_messages(r.n, ell)
            table.add_row(
                ell, r.n, int(r.time), r.messages, bounds.ag_messages(r.n, ell), imp.messages
            )
        fit = fit_power_law([r.n for r in records], [r.messages for r in records])
        fits[ell] = (fit, records, improved)
        table.add_section(
            f"ell={ell}: fitted {fit}; theory exponent {1 + 2 / ell:.3f}"
        )
    return table, fits


def test_bench_afek_gafni(benchmark):
    table, fits = bench_once(benchmark, run_sweep)
    emit("afek_gafni_sync", table.render())
    for ell, (fit, records, improved) in fits.items():
        assert abs(fit.exponent - (1 + 2 / ell)) < 0.2, (ell, fit.exponent)
        # Theorem 3.10 with one extra round (odd ell+1) must beat AG at
        # every n — and the advantage must trend upward with n (integer
        # referee-count ceilings add small non-monotone wiggles, so we
        # compare the endpoints rather than demand strict monotonicity).
        ratios = [imp.messages / r.messages for r, imp in zip(records, improved)]
        assert all(ratio < 1.0 for ratio in ratios), (ell, ratios)
        assert ratios[-1] < ratios[0], (ell, ratios)
