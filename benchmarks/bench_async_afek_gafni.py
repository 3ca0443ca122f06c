"""T1.14 — Table 1 row "Algorithm, Theorem 5.14" (async AG, sim wake-up).

Paper claim: a deterministic asynchronous algorithm with ``O(log n)``
time (counted from the last spontaneous wake-up) and ``O(n log n)``
messages — answering Afek–Gafni's open problem about asynchronizing
their tradeoff without linear time.

Reproduced shape:
* unique leader on every run (deterministic safety);
* messages/(n·log2 n) bounded by a fixed constant across the sweep;
* unit-delay time grows like c·log2(n) with small c;
* correctness holds under the rushing and per-link adversaries too.
"""

import math
import random

from repro.analysis import RunSpec, Table, fit_power_law, run, sweep
from repro.asyncnet import PerLinkDelayScheduler, RushScheduler, UnitDelayScheduler
from repro.lowerbound import bounds

from _harness import bench_once, emit

NS = [256, 1024, 4096]


def simultaneous(n):
    return {u: 0.0 for u in range(n)}


def run_sweep():
    table = Table(
        ["n", "messages", "n*log2(n)", "msgs ratio", "time", "log2(n)", "time ratio"],
        title="Theorem 5.14: asynchronous Afek-Gafni under simultaneous wake-up",
    )
    rows = []
    for n in NS:
        records = sweep(
            RunSpec(
                algorithm="async_afek_gafni",
                n=n,
                engine="async",
                seeds=(0, 1),
                wake_times=simultaneous(n),
                max_events=8_000_000,
            )
        )
        for r in records:
            assert r.unique_leader
        worst = max(records, key=lambda r: r.messages)
        nlogn = bounds.thm514_messages(n)
        table.add_row(
            n,
            worst.messages,
            nlogn,
            worst.messages / nlogn,
            worst.time,
            math.log2(n),
            worst.time / math.log2(n),
        )
        rows.append((n, worst))
    fit = fit_power_law(NS, [r.messages for _, r in rows])
    table.add_section(f"message fit: {fit} (theory: n log n, exponent ~1.0-1.2)")
    return table, rows, fit


def run_adversary_grid():
    n = 512
    table = Table(
        ["delay adversary", "unique leader", "messages", "time"],
        title=f"Theorem 5.14 under hostile delay schedulers (n={n})",
    )
    outcomes = []
    for name, make in (
        ("unit", lambda rng: UnitDelayScheduler()),
        ("rush", lambda rng: RushScheduler()),
        ("per-link", lambda rng: PerLinkDelayScheduler(rng)),
    ):
        records = [
            run(
                RunSpec(
                    algorithm="async_afek_gafni",
                    n=n,
                    engine="async",
                    seeds=(seed,),
                    wake_times=simultaneous(n),
                    max_events=8_000_000,
                ),
                scheduler=make(random.Random(f"{n}:{seed}:workload")),
            )
            for seed in (0, 1, 2)
        ]
        ok = all(r.unique_leader for r in records)
        outcomes.append(ok)
        worst = max(records, key=lambda r: r.messages)
        table.add_row(name, ok, worst.messages, worst.time)
    return table, outcomes


def run_tradeoff_schedule():
    """§5.4's full tradeoff: K capture waves, O(K·n^(1+1/K)) messages."""
    n = 1024
    table = Table(
        ["K (waves)", "messages", "K*n^(1+1/K)", "time", "~4K+4"],
        title=f"Asynchronous Afek-Gafni general schedule at n={n}",
    )
    curve = []
    for K in (2, 3, 5, 8):
        records = sweep(
            RunSpec(
                algorithm="async_afek_gafni",
                n=n,
                engine="async",
                seeds=(0, 1),
                params={"iterations": K},
                wake_times=simultaneous(n),
                max_events=12_000_000,
            )
        )
        for r in records:
            assert r.unique_leader
        worst = max(records, key=lambda r: r.messages)
        theory = K * n ** (1 + 1 / K)
        table.add_row(K, worst.messages, theory, worst.time, 4 * K + 4)
        curve.append((K, worst.messages, worst.time, theory))
    return table, curve


def test_bench_thm514(benchmark):
    table, rows, fit = bench_once(benchmark, run_sweep)
    emit("thm514_async_afek_gafni", table.render())
    for n, worst in rows:
        assert worst.messages <= 16 * bounds.thm514_messages(n), (n, worst.messages)
        assert worst.time <= 5 * math.log2(n) + 3, (n, worst.time)
    assert 0.95 <= fit.exponent <= 1.3, fit


def test_bench_thm514_tradeoff_schedule(benchmark):
    table, curve = bench_once(benchmark, run_tradeoff_schedule)
    emit("thm514_tradeoff_schedule", table.render())
    msgs = [m for _K, m, _t, _th in curve]
    assert msgs == sorted(msgs, reverse=True), msgs  # fewer messages as K grows
    for K, measured, _time, theory in curve:
        assert measured <= 4 * theory, (K, measured, theory)


def test_bench_thm514_adversaries(benchmark):
    table, outcomes = bench_once(benchmark, run_adversary_grid)
    emit("thm514_delay_adversaries", table.render())
    assert all(outcomes)
