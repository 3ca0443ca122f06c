"""Benchmark-regression gate for CI.

Compares freshly produced ``BENCH_*.json`` artifacts (written by the
smoke benches via ``run.py --json``) against the checked-in
baselines in ``benchmarks/baselines/`` and fails when any metric is
worse than the baseline by more than ``--threshold`` (relative, default
25%).

Only the ``metrics`` section participates — those values are
seed-deterministic (message/round counts, rates), so any drift is a
code-behavior change, not machine noise.  Wall times live in ``info``
and are reported but never gated.  Metrics default to lower-is-better;
a baseline's ``directions`` map flags higher-is-better entries
(e.g. survivor rates).  *Improvements* beyond the threshold pass but
are reported, as a nudge to refresh the baseline.

Usage (what the CI ``bench-regression`` job runs)::

    python benchmarks/run.py fastsync_scale --smoke \
        --json bench-artifacts/BENCH_fastsync_scale.json
    python benchmarks/run.py failover_churn --smoke \
        --json bench-artifacts/BENCH_failover_churn.json
    python benchmarks/check_regression.py --artifact-dir bench-artifacts
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Dict, List, Tuple

DEFAULT_THRESHOLD = 0.25
BASELINE_DIR = pathlib.Path(__file__).resolve().parent / "baselines"


def compare_metrics(
    baseline: Dict, artifact: Dict, threshold: float
) -> Tuple[List[str], List[str]]:
    """Compare one artifact against its baseline.

    Returns ``(failures, notes)``: failures are regressions or missing
    metrics; notes are non-fatal observations (new metrics, large
    improvements worth a baseline refresh).
    """
    failures: List[str] = []
    notes: List[str] = []
    directions = baseline.get("directions", {})
    base_metrics = baseline.get("metrics", {})
    new_metrics = artifact.get("metrics", {})
    for key, base in sorted(base_metrics.items()):
        if key not in new_metrics:
            failures.append(f"metric disappeared: {key}")
            continue
        current = new_metrics[key]
        higher_is_better = directions.get(key) == "higher"
        if base == 0:
            # No relative scale: any move in the bad direction fails.
            regressed = current < 0 if higher_is_better else current > 0
            improved = False
            change_text = f"{base} -> {current}"
        else:
            change = (current - base) / abs(base)
            regressed = (
                change < -threshold if higher_is_better else change > threshold
            )
            improved = (
                change > threshold if higher_is_better else change < -threshold
            )
            change_text = f"{base:g} -> {current:g} ({change:+.1%})"
        if regressed:
            failures.append(f"regression: {key}: {change_text}")
        elif improved:
            notes.append(f"improvement (consider refreshing baseline): {key}: {change_text}")
    for key in sorted(set(new_metrics) - set(base_metrics)):
        notes.append(f"new metric (not in baseline): {key}")
    return failures, notes


def check_directory(
    baseline_dir: pathlib.Path, artifact_dir: pathlib.Path, threshold: float
) -> Tuple[List[str], List[str]]:
    """Compare every baseline against the matching artifact file."""
    failures: List[str] = []
    notes: List[str] = []
    baselines = sorted(baseline_dir.glob("BENCH_*.json"))
    if not baselines:
        failures.append(f"no BENCH_*.json baselines under {baseline_dir}")
    for baseline_path in baselines:
        artifact_path = artifact_dir / baseline_path.name
        if not artifact_path.exists():
            failures.append(f"artifact missing: {artifact_path}")
            continue
        baseline = json.loads(baseline_path.read_text())
        artifact = json.loads(artifact_path.read_text())
        bench_failures, bench_notes = compare_metrics(baseline, artifact, threshold)
        failures.extend(f"[{baseline_path.name}] {f}" for f in bench_failures)
        notes.extend(f"[{baseline_path.name}] {n}" for n in bench_notes)
    for artifact_path in sorted(artifact_dir.glob("BENCH_*.json")):
        if not (baseline_dir / artifact_path.name).exists():
            notes.append(
                f"[{artifact_path.name}] no baseline — check one in under "
                f"{baseline_dir} to start gating it"
            )
    return failures, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--artifact-dir", required=True, type=pathlib.Path,
        help="directory holding the freshly produced BENCH_*.json files",
    )
    parser.add_argument(
        "--baseline-dir", default=BASELINE_DIR, type=pathlib.Path,
        help="checked-in baselines (default: benchmarks/baselines/)",
    )
    parser.add_argument(
        "--threshold", type=float, default=DEFAULT_THRESHOLD,
        help="relative regression tolerance (default 0.25 = 25%%)",
    )
    args = parser.parse_args(argv)
    failures, notes = check_directory(
        args.baseline_dir, args.artifact_dir, args.threshold
    )
    for note in notes:
        print(f"note: {note}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if failures:
        print(f"{len(failures)} benchmark regression(s)", file=sys.stderr)
        return 1
    print(f"benchmark regression gate passed (threshold {args.threshold:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
