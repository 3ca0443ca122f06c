"""Byzantine adversary sweeps — quorum resilience, split-brain, overhead.

Three sweeps over the adversary subsystem (``src/repro/adversary/``):

* **Quorum resilience**: ``quorum_reelect`` under ``f`` slander victims
  plus one real crash, on both object engines, for every admissible
  ``f`` (victims + crash stay below the majority line).  Every cell
  must end with a unique surviving leader — the acceptance bar "survives
  f < n/2 combined crash + slander adversaries".
* **Split-brain ablation**: the ``partition_heal`` scenario with and
  without ``QuorumPolicy`` gating.  With quorum the minority component
  elects nobody (split-brain metric exactly 0); without it the
  partition act mints one leader per component (metric >= 1).  This is
  the ROADMAP "majority-quorum variants suppress minority-component
  elections" item, measured.
* **Honest vs Byzantine overhead**: the S3 curve — the same election
  with and without a slander+forge adversary.  Byzantine runs must cost
  more (the extra epoch + quorum acks) but stay within a small constant
  factor: tolerating the adversary is a tax, not a blowup.

Run standalone (CI smoke): ``python benchmarks/bench_adversary.py --smoke``;
``--json PATH`` writes the BENCH_*.json trajectory artifact gated by
``check_regression.py`` against ``benchmarks/baselines/``.
"""

from __future__ import annotations

import argparse
import sys

from repro.adversary import AdversaryPlan, SlanderWindow, TamperRule
from repro.analysis import RunSpec, Table, run
from repro.faults import CrashFault, DetectorSpec, FaultPlan
from repro.scenarios import ScenarioRunner, get_scenario

from _harness import bench_once, emit, emit_json

NS = [8, 16]
SEEDS = [0, 1, 2]
SMOKE_NS = [8, 12]
SMOKE_SEEDS = [0, 1]
ENGINES = ["sync", "async"]

#: Initial clique size of the split-brain ablation (odd: a 4/5 split has
#: a real majority side, so the quorum run still elects during the
#: partition window).
SPLIT_N = 9

#: Byzantine overhead must stay within this factor of the honest run.
MAX_OVERHEAD = 3.0


def _factory(engine, quorum=True):
    from repro.core import get_algorithm

    return get_algorithm("quorum_reelect" if quorum else "reelect").make(
        engine=engine
    )


def _trial(engine, n, plan, seed, quorum=True):
    kwargs = {}
    if engine == "async":
        kwargs["wake_times"] = {u: 0.0 for u in range(n)}
        kwargs["max_events"] = 20_000_000
    return run(
        RunSpec(algorithm=_factory(engine, quorum), n=n, engine=engine,
                seeds=(seed,), faults=plan, **kwargs)
    )


def admissible_fs(n):
    """Slander-victim counts that keep (victims + 1 crash) below majority."""
    return [f for f in (1, n // 2 - 2) if f >= 1 and n - f - 1 >= n // 2 + 1]


def run_resilience(ns, seeds):
    """quorum_reelect vs f slander victims + 1 crash, both engines."""
    table = Table(
        ["engine", "n", "f", "converged", "mean msgs"],
        title="Quorum resilience: f slander victims + 1 crash (f + 1 < n/2)",
    )
    rows = []
    for engine in ENGINES:
        for n in ns:
            for f in admissible_fs(n):
                plan = FaultPlan(
                    crashes=(CrashFault(node=1, at=4.0),),
                    detector=DetectorSpec(kind="perfect", lag=1.0),
                    adversary=AdversaryPlan(
                        byzantine=(0,),
                        slanders=(
                            SlanderWindow(
                                accuser=0, victims=tuple(range(n - f, n)), start=2.0
                            ),
                        ),
                    ),
                )
                results = [_trial(engine, n, plan, seed) for seed in seeds]
                converged = sum(r.extra["unique_surviving_leader"] for r in results)
                msgs = sum(r.messages for r in results) / len(results)
                rows.append((engine, n, f, converged, len(seeds), msgs))
                table.add_row(
                    engine, n, f, f"{converged}/{len(seeds)}", f"{msgs:.0f}"
                )
    return table, rows


def run_split_brain(seeds):
    """partition_heal with vs without quorum gating (the ablation)."""
    table = Table(
        ["gating", "split-brain acts", "partition leaders", "final agreed"],
        title=f"Split-brain ablation: partition_heal (n={SPLIT_N}, sync engine)",
    )
    rows = []
    for quorum in (True, False):
        split = 0
        partition_leaders = []
        agreed = 0
        for seed in seeds:
            result = ScenarioRunner(
                get_scenario("partition_heal", SPLIT_N), SPLIT_N,
                engine="sync", seed=seed, quorum=quorum,
            ).run()
            split += result.metrics.split_brain_acts
            agreed += result.metrics.final_agreed
            for epoch in result.epochs:
                if epoch.trigger == "partition":
                    partition_leaders.append(len(epoch.leader_ids))
        rows.append((quorum, split, tuple(partition_leaders), agreed, len(seeds)))
        table.add_row(
            "quorum" if quorum else "plain", split,
            "+".join(str(c) for c in partition_leaders),
            f"{agreed}/{len(seeds)}",
        )
    return table, rows


def run_overhead(ns, seeds):
    """Honest vs Byzantine message cost of quorum_reelect (S3 curve)."""
    table = Table(
        ["n", "honest msgs", "byzantine msgs", "overhead", "tampered"],
        title="Honest vs Byzantine overhead (sync quorum_reelect, slander+forge)",
    )
    rows = []
    for n in ns:
        detector = DetectorSpec(kind="perfect", lag=1.0)
        honest_plan = FaultPlan(detector=detector)
        byz_plan = FaultPlan(
            detector=detector,
            adversary=AdversaryPlan(
                byzantine=(0,),
                tampers=(TamperRule(mode="forge", kinds=("compete",)),),
                slanders=(SlanderWindow(accuser=0, victims=(n - 1,), start=2.0),),
            ),
        )
        h_msgs, b_msgs, tampered = [], [], 0
        converged = True
        for seed in seeds:
            honest = _trial("sync", n, honest_plan, seed)
            byz = _trial("sync", n, byz_plan, seed)
            converged &= honest.extra["unique_surviving_leader"]
            converged &= byz.extra["unique_surviving_leader"]
            h_msgs.append(honest.messages)
            b_msgs.append(byz.messages)
            tampered += byz.extra["fault_metrics"].tampered_messages
        hm = sum(h_msgs) / len(h_msgs)
        bm = sum(b_msgs) / len(b_msgs)
        rows.append((n, hm, bm, bm / max(hm, 1.0), tampered, converged))
        table.add_row(n, f"{hm:.0f}", f"{bm:.0f}", f"{bm / max(hm, 1.0):.2f}x", tampered)
    return table, rows


def check(resilience_rows, split_rows, overhead_rows):
    # Every resilience cell converged on every seed, both engines.
    for engine, n, f, converged, total, _msgs in resilience_rows:
        assert converged == total, (engine, n, f, converged, total)
    # Quorum gating: split brain exactly 0, partition acts elect once;
    # plain wrapper: the partition act really splits (2 leaders).
    for quorum, split, partition_leaders, agreed, total in split_rows:
        if quorum:
            assert split == 0, split
            assert all(c == 1 for c in partition_leaders), partition_leaders
        else:
            assert split >= 1, split
            assert all(c == 2 for c in partition_leaders), partition_leaders
        assert agreed == total, (quorum, agreed, total)
    # Byzantine overhead exists but is bounded.
    for n, hm, bm, overhead, tampered, converged in overhead_rows:
        assert converged, n
        assert tampered > 0, n
        assert bm > hm, (n, hm, bm)
        assert overhead <= MAX_OVERHEAD, (n, overhead)


def metrics_from(resilience_rows, split_rows, overhead_rows):
    """Seed-deterministic metrics (+ directions) for the regression gate."""
    metrics = {}
    directions = {}
    for engine, n, f, converged, total, msgs in resilience_rows:
        key = f"resilience/{engine}/n={n}/f={f}"
        metrics[f"{key}/messages"] = msgs
        metrics[f"{key}/converged"] = converged / total
        directions[f"{key}/converged"] = "higher"
    for quorum, split, _partition_leaders, agreed, total in split_rows:
        key = f"split_brain/{'quorum' if quorum else 'plain'}"
        metrics[f"{key}/acts"] = split
        metrics[f"{key}/agreed"] = agreed / total
        directions[f"{key}/agreed"] = "higher"
    for n, hm, bm, overhead, _tampered, _converged in overhead_rows:
        metrics[f"overhead/n={n}/honest_messages"] = hm
        metrics[f"overhead/n={n}/byzantine_messages"] = bm
        metrics[f"overhead/n={n}/ratio"] = round(overhead, 4)
    return metrics, directions


def run_all(ns, seeds):
    r_table, r_rows = run_resilience(ns, seeds)
    s_table, s_rows = run_split_brain(seeds)
    o_table, o_rows = run_overhead(ns, seeds)
    text = "\n\n".join([r_table.render(), s_table.render(), o_table.render()])
    return text, r_rows, s_rows, o_rows


def test_bench_adversary(benchmark):
    text, r_rows, s_rows, o_rows = bench_once(benchmark, lambda: run_all(NS, SEEDS))
    emit("adversary", text)
    check(r_rows, s_rows, o_rows)


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="CI-sized sweep")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write a BENCH_*.json trajectory artifact")
    args = parser.parse_args(argv)
    ns = SMOKE_NS if args.smoke else NS
    seeds = SMOKE_SEEDS if args.smoke else SEEDS
    text, r_rows, s_rows, o_rows = run_all(ns, seeds)
    print(text)
    check(r_rows, s_rows, o_rows)
    if args.json:
        metrics, directions = metrics_from(r_rows, s_rows, o_rows)
        emit_json(args.json, "adversary", metrics,
                  smoke=args.smoke, directions=directions)
    print("OK: quorum_reelect survived every f < n/2 crash+slander cell, "
          "split-brain 0 under quorum gating, Byzantine overhead bounded")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
