"""Every bench module and example imports against the current public API.

Only ``tests/test_bench_driver.py`` runs a bench, and nothing else in
the suite imports the example scripts, so a renamed or removed public
name they use would otherwise only surface when someone runs them.
Each module is imported (its top level executed) without running it.
"""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCHES = sorted((ROOT / "benchmarks").glob("*.py"))
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def test_the_globs_find_the_modules():
    assert {p.name for p in BENCHES} == {"benches.py", "check_regression.py", "run.py"}
    assert len(EXAMPLES) >= 9


@pytest.mark.parametrize(
    "path", BENCHES + EXAMPLES, ids=lambda p: f"{p.parent.name}/{p.name}"
)
def test_module_imports(path, monkeypatch):
    # The driver imports the declared benches as a top-level ``benches``.
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    spec = importlib.util.spec_from_file_location(
        f"_imported_{path.parent.name}_{path.stem}", path
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
