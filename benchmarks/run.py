"""Run declared benches: ``python benchmarks/run.py NAME [NAME ...] [--smoke]``.

Every bench in ``benches.BENCHES`` takes one path: run at its full size
(or, with ``--smoke``, the CI size of a gated bench), print and persist
each table under ``benchmarks/results/``, assert the shape checks, and
with ``--json PATH`` write the ``BENCH_<name>.json`` artifact whose
``metrics`` ``check_regression.py`` gates against ``baselines/``.
``all`` names every bench (with ``--smoke``, every gated one).
``--workers`` sets the pool of the benches that time one
(``sweep_parallel``, ``causal_overhead``); ``--batch`` runs
``fastsync_scale``'s seeds as one multi-lane engine run per point.

    PYTHONPATH=src python benchmarks/run.py thm310_improved_tradeoff
    PYTHONPATH=src python benchmarks/run.py adversary --smoke \
        --json bench-artifacts/BENCH_adversary.json
"""

from __future__ import annotations

import argparse
import inspect
import json
import pathlib
import sys

from benches import BENCHES

RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"


def emit(name: str, text: str) -> None:
    """Print a results table and persist it under ``RESULTS_DIR``."""
    print(f"\n=== {name} ===\n{text}\n")
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


def run_bench(name, *, smoke=False, json_path=None, **overrides) -> None:
    """Run one bench, check its shape claims and emit its artifacts."""
    bench = BENCHES[name]
    parts = bench.run(**{**(bench.smoke if smoke else {}), **overrides})
    for part, (table, _rows) in parts.items():
        if table is not None:
            emit(part, str(table))
    rows = {part: value for part, (_table, value) in parts.items()}
    bench.check(rows, not smoke)
    if json_path:
        metrics, directions, info = bench.metrics(rows)
        payload = {"bench": name, "smoke": smoke, "metrics": metrics,
                   "directions": directions, "info": info}
        target = pathlib.Path(json_path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {target}")
    print(f"OK: {name}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="+", metavar="NAME",
                        help=f"'all' or bench names: {', '.join(BENCHES)}")
    parser.add_argument("--smoke", action="store_true", help="CI-sized run of a gated bench")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write the BENCH_*.json trajectory artifact (one gated bench)")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes of sweep_parallel or causal_overhead")
    parser.add_argument("--batch", action="store_true",
                        help="fastsync_scale: one batched engine run per point")
    args = parser.parse_args(argv)
    names = args.names
    if names == ["all"]:
        names = [name for name, bench in BENCHES.items() if bench.smoke or not args.smoke]
    overrides = {}
    if args.workers is not None:
        overrides["workers"] = args.workers
    if args.batch:
        overrides["batch"] = True
    for name in names:
        bench = BENCHES.get(name)
        if bench is None:
            parser.error(f"unknown bench {name!r}")
        if args.smoke and bench.smoke is None:
            parser.error(f"{name} has no smoke size")
        if args.json and (len(names) != 1 or bench.metrics is None):
            parser.error("--json takes one bench with gated metrics")
        unknown = set(overrides) - set(inspect.signature(bench.run).parameters)
        if unknown:
            parser.error(f"{name} takes no --{' --'.join(sorted(unknown))}")
    for name in names:
        run_bench(name, smoke=args.smoke, json_path=args.json, **overrides)
    return 0


if __name__ == "__main__":
    sys.exit(main())
