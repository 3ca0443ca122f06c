"""The bench driver (``benchmarks/run.py``) and the benches it runs.

One gated bench runs end to end; every declared bench is checked for a
declaration the driver can run at both sizes without running it.
"""

import importlib.util
import inspect
import json
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
BASELINES = ROOT / "benchmarks" / "baselines"


def _load(name, filename):
    spec = importlib.util.spec_from_file_location(name, ROOT / "benchmarks" / filename)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


sys.path.insert(0, str(ROOT / "benchmarks"))
try:
    BENCHES = _load("_declared_benches", "benches.py").BENCHES
finally:
    sys.path.remove(str(ROOT / "benchmarks"))


def test_adversary_smoke_emits_its_baseline_metrics(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    driver = _load("bench_driver", "run.py")
    monkeypatch.setattr(driver, "RESULTS_DIR", tmp_path / "results")
    artifact = tmp_path / "BENCH_adversary.json"
    assert driver.main(["adversary", "--smoke", "--json", str(artifact)]) == 0
    got = json.loads(artifact.read_text())
    baseline = json.loads((BASELINES / "BENCH_adversary.json").read_text())
    assert (got["bench"], got["smoke"]) == ("adversary", True)
    assert sorted(got["metrics"]) == sorted(baseline["metrics"])
    assert (tmp_path / "results" / "adversary.txt").exists()


def test_every_baseline_names_a_gated_bench():
    gated = {name for name, bench in BENCHES.items() if bench.smoke is not None}
    assert {p.stem[len("BENCH_"):] for p in BASELINES.glob("BENCH_*.json")} == gated


@pytest.mark.parametrize("name", sorted(BENCHES))
def test_declaration_runs_at_both_sizes(name):
    bench = BENCHES[name]
    params = inspect.signature(bench.run).parameters.values()
    # The full size is the run's keyword defaults: nothing may be left to pass.
    assert all(p.default is not p.empty for p in params), name
    # The smoke size (CI-gated benches only) must bind to the run, and a
    # gated bench has the metrics its baseline is checked against.
    assert (bench.smoke is None) == (bench.metrics is None), name
    if bench.smoke is not None:
        inspect.signature(bench.run).bind(**bench.smoke)
        assert (BASELINES / f"BENCH_{name}.json").exists(), name
    assert list(inspect.signature(bench.check).parameters) == ["rows", "full"], name
