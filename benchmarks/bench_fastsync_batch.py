"""Batched multi-election sweeps — many seeds per engine run.

The paper's headline curves (Thm 3.10 sync tradeoff, Thm 5.1 async
tradeoff) are sweeps over many seeds per ``(n, algorithm)`` point.  The
batch axis (``FastSyncNetwork(n, seeds=[...])``) executes a whole
seed-batch in one engine run; a single run is a batch of one lane, so
this bench times the batched lanes against one-lane (``batch = 1``)
runs of the same seeds.  Shape assertions:

* **bit-exactness**: in exact mode the batched lanes reproduce the
  one-lane runs field by field (messages, rounds, winners, per-kind
  counts), and every lane elects the max ID;
* scale-mode lanes are deterministic per ``(n, seed)`` and keep the
  Theorem 3.10 message bound.

Run standalone::

    python benchmarks/bench_fastsync_batch.py            # full: n = 10^5, batch 64
    python benchmarks/bench_fastsync_batch.py --smoke    # CI-sized
    python benchmarks/bench_fastsync_batch.py --smoke --json \
        bench-artifacts/BENCH_fastsync_batch.json

The ``--json`` artifact carries the seed-deterministic per-point metrics
that ``benchmarks/check_regression.py`` gates in CI against
``benchmarks/baselines/BENCH_fastsync_batch.json``; per-seed wall times
and their ratio ride in its ungated ``info`` block.
"""

from __future__ import annotations

import argparse
import sys
import time

from _harness import bench_once, emit, emit_json

#: (n, ell, batch) sweep points.  Smoke covers both port-model modes
#: (512 resolves to exact, 4096 to scale) with small batches.
FULL_POINTS = [(100_000, 3, 64)]
SMOKE_POINTS = [(512, 5, 8), (4096, 5, 8)]

#: Full mode times the one-lane reference on this many seeds (each is a
#: whole n = 10^5 run); smoke times the whole batch's worth.
FULL_REFERENCE_SEEDS = 2


def run_sweep(points, reference_seeds=None):
    from repro.analysis import RunSpec, Table, execute_spec

    table = Table(
        ["n", "ell", "batch", "mode", "mean messages", "rounds",
         "one-lane s/seed", "batched s/seed", "speedup"],
        title="Batched fast engine vs one-lane runs of the same seeds",
    )
    rows = []
    for n, ell, batch in points:
        seeds = list(range(batch))
        t0 = time.perf_counter()
        lanes = execute_spec(
            RunSpec(algorithm="improved_tradeoff", n=n, engine="fast",
                    seeds=seeds, batch=batch, params={"ell": ell})
        )
        batched_per_seed = (time.perf_counter() - t0) / batch
        probe = seeds if reference_seeds is None else seeds[:reference_seeds]
        t0 = time.perf_counter()
        singles = [
            execute_spec(
                RunSpec(algorithm="improved_tradeoff", n=n, engine="fast",
                        seeds=(s,), batch=1, params={"ell": ell})
            )[0]
            for s in probe
        ]
        single_per_seed = (time.perf_counter() - t0) / len(probe)
        speedup = single_per_seed / batched_per_seed
        rows.append(
            {
                "n": n,
                "ell": ell,
                "batch": batch,
                "mode": lanes[0].extra["mode"],
                "lanes": lanes,
                "singles": singles,
                "messages": sum(r.messages for r in lanes) / len(lanes),
                "rounds": sum(r.time for r in lanes) / len(lanes),
                "single_per_seed": single_per_seed,
                "batched_per_seed": batched_per_seed,
                "speedup": speedup,
            }
        )
        table.add_row(
            n, ell, batch, rows[-1]["mode"], round(rows[-1]["messages"]),
            rows[-1]["rounds"], f"{single_per_seed:.3f}",
            f"{batched_per_seed:.3f}", f"{speedup:.2f}x",
        )
    return table, rows


def check(rows) -> None:
    from repro.lowerbound import bounds

    for row in rows:
        lanes = row["lanes"]
        assert all(r.unique_leader for r in lanes), ("no unique leader", row["n"])
        # Default 1..n IDs: the deterministic algorithm elects n.
        assert all(r.elected_id == row["n"] for r in lanes), row["n"]
        bound = bounds.thm310_messages(row["n"], row["ell"])
        assert row["messages"] <= 2 * bound, (
            "message bound exceeded", row["n"], row["messages"], bound,
        )
        if row["mode"] == "exact":
            # Bit-exactness: batched lanes replay the one-lane runs.
            for single, lane in zip(row["singles"], lanes):
                assert single.messages == lane.messages, (single, lane)
                assert single.time == lane.time
                assert single.elected_id == lane.elected_id
                assert single.extra["rounds_executed"] == lane.extra["rounds_executed"]


def metrics_from(rows):
    metrics = {}
    info = {"per_seed_wall_s": {}, "speedup": {}}
    for row in rows:
        key = f"improved_tradeoff/ell={row['ell']}/n={row['n']}/batch={row['batch']}"
        metrics[f"{key}/mean_messages"] = row["messages"]
        metrics[f"{key}/rounds"] = row["rounds"]
        info["per_seed_wall_s"][key] = {
            "single": row["single_per_seed"],
            "batched": row["batched_per_seed"],
        }
        info["speedup"][key] = row["speedup"]
    return metrics, info


def test_bench_fastsync_batch(benchmark):
    import pytest

    pytest.importorskip("numpy")
    table, rows = bench_once(benchmark, lambda: run_sweep(SMOKE_POINTS))
    emit("fastsync_batch", table.render())
    check(rows)


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="CI-sized sweep")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write a BENCH_*.json trajectory artifact")
    args = parser.parse_args(argv)
    try:
        import numpy  # noqa: F401
    except ImportError:
        print("bench_fastsync_batch needs numpy (pip install numpy, "
              "or pip install -e '.[fast]')", file=sys.stderr)
        return 2
    if args.smoke:
        table, rows = run_sweep(SMOKE_POINTS)
    else:
        table, rows = run_sweep(FULL_POINTS, reference_seeds=FULL_REFERENCE_SEEDS)
    print(table.render())
    check(rows)
    if args.json:
        metrics, info = metrics_from(rows)
        emit_json(args.json, "fastsync_batch", metrics, smoke=args.smoke, info=info)
    best = max(rows, key=lambda r: r["speedup"])
    print(f"OK: bit-exact lanes; best per-seed speedup over one-lane runs {best['speedup']:.2f}x "
          f"at n={best['n']} (batch={best['batch']})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
