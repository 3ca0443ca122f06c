"""Scale sweep — the paper's tradeoff frontier at ``n ≥ 10^5``.

The object-model engines top out around ``n ≈ 10^3``; the vectorized
engine (:mod:`repro.fastsync`) pushes the Theorem 3.10 / Afek–Gafni /
Theorem 3.16 comparison two orders of magnitude further, where the
frontier separation the paper proves (message exponent ``1 + 2/(ℓ+1)``
vs ``1 + 2/ℓ``, and the ``O(n)`` Las Vegas floor) is visually obvious.
Swept per ``(algorithm, ℓ, n, seed)``: total messages, rounds and
per-run wall time.  Shape assertions:

* every run elects a unique leader (and the deterministic algorithms
  elect the max ID);
* measured messages stay under the paper's Theorem 3.10 / AG bound
  formulas (sanity ceiling, constant 2);
* the round/message *frontier* is monotone at the largest ``n``: a
  larger round budget ``ℓ`` buys strictly fewer messages, and Theorem
  3.10 beats Afek–Gafni at the matched budget.

Run standalone::

    python benchmarks/bench_fastsync_scale.py            # full: n up to 10^5
    python benchmarks/bench_fastsync_scale.py --smoke    # CI-sized
    python benchmarks/bench_fastsync_scale.py --smoke --json \
        bench-artifacts/BENCH_fastsync_scale.json

The ``--json`` artifact carries the seed-deterministic metrics that
``benchmarks/check_regression.py`` gates in CI against
``benchmarks/baselines/BENCH_fastsync_scale.json``.
"""

from __future__ import annotations

import argparse
import sys

from _harness import bench_once, emit, emit_json

# (registry name, params, label) — the ell sweep is the frontier axis.
CONFIGS = [
    ("improved_tradeoff", {"ell": 3}, "improved_tradeoff/ell=3"),
    ("improved_tradeoff", {"ell": 5}, "improved_tradeoff/ell=5"),
    ("improved_tradeoff", {"ell": 9}, "improved_tradeoff/ell=9"),
    ("afek_gafni", {"ell": 4}, "afek_gafni/ell=4"),
    ("las_vegas", {}, "las_vegas"),
]

FULL_NS = [10_000, 100_000]
FULL_SEEDS = [0, 1]
# Smoke covers both port-model modes: 512 resolves to exact, 4096 to scale.
SMOKE_NS = [512, 4096]
SMOKE_SEEDS = [0, 1]


def run_sweep(ns=FULL_NS, seeds=FULL_SEEDS, batch=False):
    from repro.analysis import RunSpec, Table, execute_spec, run

    table = Table(
        ["algorithm", "n", "mode", "messages", "rounds", "unique", "wall s/run"],
        title="Vectorized engine: rounds-vs-messages frontier at scale",
    )
    rows = []
    for name, params, label in CONFIGS:
        for n in ns:
            if batch:
                # One batched engine run per (algorithm, n) point: the
                # whole seed sweep shares one execution (see
                # bench_fastsync_batch.py for the timing ratio).
                records = execute_spec(
                    RunSpec(algorithm=name, n=n, engine="fast", seeds=seeds,
                            batch=len(seeds), params=params)
                )
            else:
                records = [
                    run(RunSpec(algorithm=name, n=n, engine="fast", seeds=(seed,),
                                params=params))
                    for seed in seeds
                ]
            messages = sum(r.messages for r in records) / len(records)
            rounds = sum(r.time for r in records) / len(records)
            wall = sum(r.extra["wall_time_s"] for r in records) / len(records)
            unique = all(r.unique_leader for r in records)
            rows.append(
                {
                    "label": label,
                    "name": name,
                    "params": params,
                    "n": n,
                    "mode": records[0].extra["mode"],
                    "messages": messages,
                    "rounds": rounds,
                    "wall_time_s": wall,
                    "unique": unique,
                    "elected": [r.elected_id for r in records],
                }
            )
            table.add_row(
                label,
                n,
                records[0].extra["mode"],
                round(messages),
                rounds,
                "yes" if unique else "NO",
                f"{wall:.3f}",
            )
    return table, rows


def check(rows) -> None:
    from repro.lowerbound import bounds

    for row in rows:
        assert row["unique"], ("no unique leader", row["label"], row["n"])
        if row["name"] in ("improved_tradeoff", "afek_gafni"):
            # Default 1..n IDs: the deterministic algorithms elect n.
            assert all(e == row["n"] for e in row["elected"]), row
            ell = row["params"]["ell"]
            bound = (
                bounds.thm310_messages(row["n"], ell)
                if row["name"] == "improved_tradeoff"
                else bounds.ag_messages(row["n"], ell)
            )
            assert row["messages"] <= 2 * bound, (
                "message bound exceeded", row["label"], row["n"], row["messages"], bound,
            )
    # Frontier shape at the largest swept n: more rounds, fewer messages.
    top = max(r["n"] for r in rows)
    at_top = {r["label"]: r["messages"] for r in rows if r["n"] == top}
    assert at_top["improved_tradeoff/ell=3"] > at_top["improved_tradeoff/ell=5"]
    assert at_top["improved_tradeoff/ell=5"] > at_top["improved_tradeoff/ell=9"]
    # Matched budget: Thm 3.10 with ell=3 sends less than AG needs for
    # the same two iterations (ell=4), per the 2/(ell+1) vs 2/ell gap.
    assert at_top["improved_tradeoff/ell=3"] < at_top["afek_gafni/ell=4"]


def metrics_from(rows):
    metrics = {}
    info = {"wall_time_s": {}}
    for row in rows:
        key = f"{row['label']}/n={row['n']}"
        metrics[f"{key}/messages"] = row["messages"]
        metrics[f"{key}/rounds"] = row["rounds"]
        info["wall_time_s"][key] = row["wall_time_s"]
    return metrics, info


def test_bench_fastsync_scale(benchmark):
    import pytest

    pytest.importorskip("numpy")
    table, rows = bench_once(benchmark, lambda: run_sweep(SMOKE_NS, SMOKE_SEEDS))
    emit("fastsync_scale", table.render())
    check(rows)


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="CI-sized sweep")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write a BENCH_*.json trajectory artifact")
    parser.add_argument("--batch", action="store_true",
                        help="dispatch each (algorithm, n) point's seeds as one "
                        "batched engine run (its lanes equal the unbatched runs)")
    args = parser.parse_args(argv)
    try:
        import numpy  # noqa: F401
    except ImportError:
        print("bench_fastsync_scale needs numpy (pip install numpy, "
              "or pip install -e '.[fast]')", file=sys.stderr)
        return 2
    ns = SMOKE_NS if args.smoke else FULL_NS
    seeds = SMOKE_SEEDS if args.smoke else FULL_SEEDS
    table, rows = run_sweep(ns=ns, seeds=seeds, batch=args.batch)
    print(table.render())
    check(rows)
    if args.json:
        metrics, info = metrics_from(rows)
        emit_json(args.json, "fastsync_scale", metrics, smoke=args.smoke, info=info)
    top = max(r["n"] for r in rows)
    wall = {r["label"]: r["wall_time_s"] for r in rows if r["n"] == top}
    print(f"OK: unique leader everywhere; n={top} per-run wall times: "
          + ", ".join(f"{k}={v:.2f}s" for k, v in wall.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
