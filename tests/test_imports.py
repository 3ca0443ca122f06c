"""Packages re-export lazily: an import loads only what its caller runs.

Every package ``__init__`` under ``src/repro`` resolves its public names
on first lookup (PEP 562 ``__getattr__``), and the algorithm registry
imports each entry's classes on first use.  Each check runs in a fresh
interpreter, so nothing an earlier test imported can hide an eager
import.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGES = sorted(
    ".".join(path.parent.relative_to(SRC).parts) for path in SRC.rglob("__init__.py")
)


def fresh(source):
    """Run ``source`` in a fresh interpreter; the JSON it prints last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", source], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def loaded_by(statement):
    """The modules a fresh interpreter holds after ``statement``."""
    return set(
        fresh(f"import json, sys\n{statement}\nprint(json.dumps(sorted(sys.modules)))")
    )


def under(modules, *prefixes):
    return sorted(m for m in modules if any(m == p or m.startswith(p + ".") for p in prefixes))


def test_the_package_list_is_complete():
    assert "repro" in PACKAGES and "repro.sweep" in PACKAGES and len(PACKAGES) >= 16


def test_import_repro_loads_no_engine_and_no_numpy():
    modules = loaded_by("import repro")
    assert "numpy" not in modules
    assert under(modules, "repro.sync", "repro.asyncnet", "repro.core") == []


def test_runspec_loads_no_engine_election_or_report_layer():
    modules = loaded_by("from repro.sweep import RunSpec")
    assert "numpy" not in modules
    assert under(
        modules,
        "repro.sync.engine",
        "repro.asyncnet.engine",
        "repro.fastsync",
        "repro.core",
        "repro.faults.reelect",
        "repro.adversary",
        "repro.telemetry.causal",
        "repro.obs.html",
        "repro.lowerbound.adversary",
    ) == []


@pytest.mark.parametrize("package", ["repro.telemetry", "repro.obs", "repro.monitor"])
def test_observability_layers_import_without_numpy(package):
    assert "numpy" not in loaded_by(f"from {package} import *")


def test_registry_lookup_imports_that_algorithm_alone():
    modules = loaded_by(
        "from repro.core import get_algorithm\n"
        "get_algorithm('improved_tradeoff').make(ell=3)()"
    )
    assert "repro.core.improved_tradeoff" in modules
    assert under(
        modules,
        "repro.core.afek_gafni",
        "repro.core.async_tradeoff",
        "repro.faults.reelect",
        "repro.faults.detectors",
        "repro.faults.monarchical",
        "repro.adversary",
    ) == []


def test_an_inline_run_cells_loads_no_pool_machinery():
    modules = loaded_by(
        "from repro.sweep import RunSpec\n"
        "from repro.sweep.scheduler import SweepCell, run_cells\n"
        "from repro.sweep.worker import run_spec_cell\n"
        "spec = RunSpec(algorithm='afek_gafni', n=8, engine='sync', seeds=(0, 1))\n"
        "run_cells([SweepCell(index=0, cost=8.0, payload=spec)], run_spec_cell)"
    )
    assert "repro.sync.engine" in modules  # the cell ran
    assert under(modules, "concurrent.futures") == []


# Each pooled ``repro scenarios sweep`` cell notes the modules it imported.
_SCENARIO_CELLS = """
import json, os, shutil, sys, tempfile
import repro.sweep.worker as worker

original = worker.scenario_cell
notes = tempfile.mkdtemp()

def noted_cell(payload):
    before = set(sys.modules)
    value = original(payload)
    with open(os.path.join(notes, f"{os.getpid()}-{payload[2]}"), "w") as out:
        json.dump(sorted(set(sys.modules) - before), out)
    return value

# The CLI reads the cell function off the module; fork-started workers inherit it.
worker.scenario_cell = noted_cell
from repro.__main__ import main

code = main(["scenarios", "sweep", "election_storm", "--ns", "16", "--seeds", "0", "1", "2", "3",
             "--engine", "fast", "--workers", "2"])
cells = {name: json.load(open(os.path.join(notes, name))) for name in os.listdir(notes)}
shutil.rmtree(notes)
print(json.dumps({"code": code, "parent": os.getpid(), "cells": cells}))
"""


def test_pooled_scenario_sweep_cells_import_no_repro_module():
    got = fresh(_SCENARIO_CELLS)
    assert got["code"] == 0 and len(got["cells"]) == 4
    for name, new in got["cells"].items():
        assert not name.startswith(f"{got['parent']}-"), "the cell ran in the parent"
        assert under(new, "repro") == [], name


@pytest.mark.parametrize("package", PACKAGES)
def test_every_public_name_resolves(package):
    got = fresh(
        "import json\n"
        f"import {package} as package\n"
        "names = list(package.__all__)\n"
        "star = {}\n"
        f"exec('from {package} import *', star)\n"
        "print(json.dumps({\n"
        "    'unresolved': [n for n in names if star.get(n) is not getattr(package, n)],\n"
        "    'uncached': [n for n in names if n not in vars(package)],\n"
        "}))"
    )
    assert got == {"unresolved": [], "uncached": []}


@pytest.mark.parametrize("package", ["repro", "repro.monitor", "repro.lowerbound"])
def test_an_unknown_name_is_an_attribute_error(package):
    got = fresh(
        "import json\n"
        f"import {package} as package\n"
        "try:\n"
        "    package.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(json.dumps(str(exc)))\n"
    )
    assert got == f"module {package!r} has no attribute 'no_such_name'"
