"""Telemetry overhead guard — aggregate counters must stay near-free.

The fast engine's telemetry hooks live inside ``tick`` and the message-
accounting primitives, so every run pays for them: a ``None`` check when
telemetry is off, a constant number of O(1)/O(batch) tallies per round
when on.  This bench pins both budgets on the ``BENCH_fastsync_batch``
workload (batched ``improved_tradeoff`` sweeps):

* **off-arm parity** (full mode): the telemetry-disabled batched run
  stays within **5%** of an interleaved reference measurement of the
  identical batch path (same batched ``execute_spec`` call — the disabled
  hooks are just ``None`` tests);
* **on-arm budget** (full mode): enabling :class:`FastTelemetry`
  aggregate counters costs at most **15%** per-seed wall time over the
  disabled arm;
* **drift gate** (every mode, seed-deterministic, CI-gated): the
  telemetry tallies must equal the engine's own result counters *bit
  exactly* — total messages, per-round totals, per-kind totals — so the
  regression gate fails on any counter skew, not just on slowdowns.

Wall-clock ratios are machine-dependent and go in the ungated ``info``
section; the gated ``metrics`` carry the drift counts (always 0) plus
the workload's message/round counts.

Run standalone::

    python benchmarks/bench_telemetry_overhead.py            # full: n = 10^5
    python benchmarks/bench_telemetry_overhead.py --smoke    # CI-sized
    python benchmarks/bench_telemetry_overhead.py --smoke --json \
        bench-artifacts/BENCH_telemetry_overhead.json
"""

from __future__ import annotations

import argparse
import sys
import time

from _harness import bench_once, emit, emit_json

#: (n, ell, batch) sweep points, mirroring bench_fastsync_batch.
FULL_POINTS = [(100_000, 3, 64)]
SMOKE_POINTS = [(512, 5, 8), (4096, 5, 8)]

#: Interleaved timing repetitions per arm (median is reported).
FULL_REPS = 3
SMOKE_REPS = 1

#: Full-mode wall-clock budgets.
MAX_OFF_RATIO = 1.05      # disabled telemetry vs interleaved reference
MAX_ON_RATIO = 1.15       # aggregate counters vs disabled telemetry


def _median(values):
    ordered = sorted(values)
    return ordered[len(ordered) // 2]


def run_sweep(points, reps):
    from repro.analysis import RunSpec, Table, execute_spec
    from repro.telemetry import FastTelemetry

    table = Table(
        ["n", "ell", "batch", "mode", "ref s/seed", "off s/seed",
         "on s/seed", "off ratio", "on ratio", "drift"],
        title="Telemetry overhead on the batched fast engine",
    )
    rows = []
    for n, ell, batch in points:
        seeds = list(range(batch))
        spec = RunSpec(algorithm="improved_tradeoff", n=n, engine="fast",
                       seeds=seeds, batch=batch, params={"ell": ell})

        def _timed(**extra):
            t0 = time.perf_counter()
            records = execute_spec(spec, **extra)
            return (time.perf_counter() - t0) / batch, records

        # Interleave the arms so drift in machine load hits all three.
        ref_times, off_times, on_times = [], [], []
        telemetries = []
        records = None
        for _ in range(reps):
            ref_times.append(_timed()[0])
            off_times.append(_timed()[0])
            telemetry = FastTelemetry()
            on_time, records = _timed(telemetry=telemetry, keep_result=True)
            on_times.append(on_time)
            telemetries.append(telemetry)

        # Counter drift vs the engine's own per-lane results (bit-exact
        # across every telemetry-enabled repetition).
        drift = 0
        for telemetry in telemetries:
            for lane, record in enumerate(records):
                result = record.extra["result"]
                totals = telemetry.sends_by_round(lane)
                drift += abs(sum(totals.values()) - record.messages)
                drift += int(totals != dict(result.sends_by_round))
                drift += int(
                    telemetry.messages_by_kind(lane)
                    != dict(result.messages_by_kind)
                )

        ref_s, off_s, on_s = map(_median, (ref_times, off_times, on_times))
        rows.append(
            {
                "n": n,
                "ell": ell,
                "batch": batch,
                "mode": records[0].extra["mode"],
                "records": records,
                "messages": sum(r.messages for r in records) / len(records),
                "rounds": sum(r.time for r in records) / len(records),
                "ref_per_seed": ref_s,
                "off_per_seed": off_s,
                "on_per_seed": on_s,
                "off_ratio": off_s / ref_s,
                "on_ratio": on_s / off_s,
                "drift": drift,
            }
        )
        table.add_row(
            n, ell, batch, rows[-1]["mode"], f"{ref_s:.3f}", f"{off_s:.3f}",
            f"{on_s:.3f}", f"{rows[-1]['off_ratio']:.3f}",
            f"{rows[-1]['on_ratio']:.3f}", drift,
        )
    return table, rows


def check(rows, *, require_budget: bool) -> None:
    for row in rows:
        assert row["drift"] == 0, (
            "telemetry counters drifted from the engine results", row,
        )
        assert all(r.unique_leader for r in row["records"]), row["n"]
    # Wall-clock budgets are asserted in full mode only — smoke points
    # are too small for stable timing and CI machines too noisy.
    if require_budget:
        for row in rows:
            assert row["off_ratio"] <= MAX_OFF_RATIO, (
                f"disabled telemetry must stay within {MAX_OFF_RATIO:.0%} of "
                f"the batch baseline at n={row['n']}; measured "
                f"{row['off_ratio']:.3f}x"
            )
            assert row["on_ratio"] <= MAX_ON_RATIO, (
                f"aggregate counters must cost <= {MAX_ON_RATIO - 1:.0%} at "
                f"n={row['n']}; measured {row['on_ratio']:.3f}x"
            )


def metrics_from(rows):
    metrics = {}
    info = {"per_seed_wall_s": {}, "ratios": {}}
    for row in rows:
        key = f"improved_tradeoff/ell={row['ell']}/n={row['n']}/batch={row['batch']}"
        metrics[f"{key}/mean_messages"] = row["messages"]
        metrics[f"{key}/rounds"] = row["rounds"]
        metrics[f"{key}/counter_drift"] = row["drift"]
        info["per_seed_wall_s"][key] = {
            "reference": row["ref_per_seed"],
            "telemetry_off": row["off_per_seed"],
            "telemetry_on": row["on_per_seed"],
        }
        info["ratios"][key] = {
            "off_vs_reference": row["off_ratio"],
            "on_vs_off": row["on_ratio"],
        }
    return metrics, info


def test_bench_telemetry_overhead(benchmark):
    import pytest

    pytest.importorskip("numpy")
    table, rows = bench_once(
        benchmark, lambda: run_sweep(SMOKE_POINTS, SMOKE_REPS)
    )
    emit("telemetry_overhead", table.render())
    check(rows, require_budget=False)


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="CI-sized sweep")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write a BENCH_*.json trajectory artifact")
    args = parser.parse_args(argv)
    try:
        import numpy  # noqa: F401
    except ImportError:
        print("bench_telemetry_overhead needs numpy (pip install numpy, "
              "or pip install -e '.[fast]')", file=sys.stderr)
        return 2
    if args.smoke:
        table, rows = run_sweep(SMOKE_POINTS, SMOKE_REPS)
    else:
        table, rows = run_sweep(FULL_POINTS, FULL_REPS)
    print(table.render())
    check(rows, require_budget=not args.smoke)
    if args.json:
        metrics, info = metrics_from(rows)
        emit_json(args.json, "telemetry_overhead", metrics, smoke=args.smoke,
                  info=info)
    worst = max(rows, key=lambda r: r["on_ratio"])
    print(f"OK: zero counter drift; worst telemetry-on cost "
          f"{worst['on_ratio']:.3f}x at n={worst['n']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
