"""Every bench and example imports against the current public API.

Nothing else in the suite imports the pytest-benchmark ``bench_*.py``
modules or the example scripts, so a renamed or removed public name
they use would otherwise only surface when someone runs them.  Each
module is imported (its top level executed) without running it.
"""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCHES = sorted((ROOT / "benchmarks").glob("bench_*.py"))
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def test_the_globs_find_the_modules():
    assert len(BENCHES) >= 24
    assert len(EXAMPLES) >= 9


@pytest.mark.parametrize(
    "path", BENCHES + EXAMPLES, ids=lambda p: f"{p.parent.name}/{p.name}"
)
def test_module_imports(path, monkeypatch):
    # Benches import their shared plumbing as a top-level ``_harness``.
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    spec = importlib.util.spec_from_file_location(
        f"_imported_{path.parent.name}_{path.stem}", path
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
