"""The sharded sweep scheduler: bit-identity, stealing, degradation."""

import os
import pathlib
import pickle
import subprocess
import sys

import pytest

from repro.analysis import RunSpec, canonical_record, execute_spec, run, sweep
from repro.core import ImprovedTradeoffElection
from repro.faults import CrashFault, DetectorSpec, FaultPlan
from repro.sweep import SweepCell, run_cells
from repro.sweep.worker import run_spec_cell
from repro.telemetry.metrics import MetricsRegistry

pytest.importorskip("numpy")


def mixed_grid():
    """Sync, async, fast (plain + batched) and a faulted cell."""
    return [
        RunSpec(algorithm="improved_tradeoff", n=64, engine="sync", seeds=(0, 1, 2)),
        RunSpec(
            algorithm="async_tradeoff",
            n=32,
            engine="async",
            seeds=(0, 1),
            params={"k": 2},
        ),
        RunSpec(algorithm="improved_tradeoff", n=512, engine="fast", seeds=(0, 1, 2, 3)),
        RunSpec(
            algorithm="improved_tradeoff",
            n=256,
            engine="fast",
            seeds=(0, 1, 2, 3),
            batch=2,
        ),
        RunSpec(
            algorithm="monarchical",
            n=16,
            engine="sync",
            seeds=(5,),
            faults=FaultPlan(
                crashes=(CrashFault(node=0, at=2.0),),
                detector=DetectorSpec(kind="perfect", lag=1.0),
            ),
        ),
    ]


def canon(records):
    return [canonical_record(r) for r in records]


class TestBitIdentity:
    def test_sharded_sweep_matches_sequential_and_legacy(self):
        grid = mixed_grid()
        sequential = sweep(grid, workers=1)
        sharded = sweep(grid, workers=4)
        assert canon(sharded) == canon(sequential)
        # ... and both match the in-process executor spec-by-spec.
        direct = [record for spec in grid for record in execute_spec(spec)]
        assert canon(sequential) == canon(direct)

    def test_sharded_sweep_matches_the_legacy_entrypoints(self):
        grid = [
            RunSpec(algorithm="improved_tradeoff", n=64, engine="sync", seeds=(0, 1)),
            RunSpec(algorithm="improved_tradeoff", n=256, engine="fast", seeds=(0, 1)),
        ]
        sharded = sweep(grid, workers=4)
        legacy = [
            run(
                RunSpec(
                    algorithm=ImprovedTradeoffElection, n=64, engine="sync",
                    seeds=(s,),
                )
            )
            for s in (0, 1)
        ] + [
            run(RunSpec(algorithm="improved_tradeoff", n=256, engine="fast", seeds=(s,)))
            for s in (0, 1)
        ]
        assert canon(sharded) == canon(legacy)

    def test_merged_metrics_are_identical_across_worker_counts(self):
        grid = mixed_grid()
        counters = {}
        for workers in (1, 2, 4):
            registry = MetricsRegistry()
            sweep(grid, workers=workers, registry=registry)
            payload = registry.as_dict()
            counters[workers] = payload["counters"]
        assert counters[1] == counters[2] == counters[4]
        assert counters[1]["sweep.records"] == 14
        assert counters[1]["sweep.records[fast]"] == 8

    def test_seed_block_boundaries_never_leak_into_results(self):
        # Many seeds across few workers forces multi-seed blocks; every
        # record must still match its single-seed run.
        spec = RunSpec(
            algorithm="improved_tradeoff", n=64, engine="sync", seeds=tuple(range(12))
        )
        sharded = sweep([spec], workers=2)
        singles = [
            record
            for s in range(12)
            for record in execute_spec(
                RunSpec(algorithm="improved_tradeoff", n=64, engine="sync", seeds=(s,))
            )
        ]
        assert canon(sharded) == canon(singles)


class TestSchedulerGauges:
    def test_scheduler_reports_workers_cells_steals_and_utilization(self):
        registry = MetricsRegistry()
        sweep(mixed_grid(), workers=2, registry=registry)
        gauges = registry.as_dict()["gauges"]
        assert gauges["sweep.workers"] == 2
        assert gauges["sweep.cells"] >= len(mixed_grid())
        assert gauges["sweep.steals"] >= 0
        assert gauges["sweep.elapsed_s"] > 0
        utilization = [v for k, v in gauges.items() if k.startswith("sweep.worker_utilization[")]
        assert utilization and all(0.0 <= u <= 1.0 for u in utilization)

    def test_inline_runs_count_their_cells(self):
        registry = MetricsRegistry()
        sweep(mixed_grid(), workers=1, registry=registry)
        gauges = registry.as_dict()["gauges"]
        assert gauges["sweep.inline_cells"] == gauges["sweep.cells"]
        assert gauges["sweep.steals"] == 0


class TestGracefulDegradation:
    def test_non_picklable_cells_run_in_the_parent(self):
        grid = [
            RunSpec(algorithm=lambda: ImprovedTradeoffElection(), n=32, engine="sync"),
            RunSpec(algorithm="improved_tradeoff", n=64, engine="sync", seeds=(0, 1)),
        ]
        with pytest.raises(Exception):
            pickle.dumps(grid[0])
        registry = MetricsRegistry()
        records = sweep(grid, workers=2, registry=registry)
        assert canon(records) == canon(
            [record for spec in grid for record in execute_spec(spec)]
        )
        assert registry.as_dict()["gauges"]["sweep.inline_cells"] >= 1

    def test_unconstructible_pool_degrades_to_in_process(self):
        def broken_factory(workers):
            raise OSError("no processes for you")

        grid = mixed_grid()
        records = sweep(grid, workers=4, executor_factory=broken_factory)
        assert canon(records) == canon(sweep(grid, workers=1))

    def test_pool_that_dies_mid_sweep_falls_back_inline(self):
        from concurrent.futures.process import BrokenProcessPool

        class DyingExecutor:
            """Accepts submissions, then breaks on result collection."""

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                from concurrent.futures import Future

                future = Future()
                future.set_exception(BrokenProcessPool("worker died"))
                return future

        grid = mixed_grid()
        records = sweep(grid, workers=4, executor_factory=lambda w: DyingExecutor())
        assert canon(records) == canon(sweep(grid, workers=1))

    def test_broken_pools_leave_no_wiring_directory(self, tmp_path, monkeypatch):
        import tempfile

        from concurrent.futures.process import BrokenProcessPool

        from repro.fastsync import engine

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        # A second algorithm over the n=512 seeds: keys two cells need.
        grid = mixed_grid() + [
            RunSpec(algorithm="las_vegas", n=512, engine="fast", seeds=(0, 1, 2, 3))
        ]
        seen = []

        class DyingExecutor:
            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                from concurrent.futures import Future

                future = Future()
                future.set_exception(BrokenProcessPool("worker died"))
                return future

        def dying(workers):
            seen.append(dict(engine._SHARED_WIRINGS))
            return DyingExecutor()

        def unconstructible(workers):
            seen.append(dict(engine._SHARED_WIRINGS))
            raise OSError("no processes for you")

        for factory in (dying, unconstructible):
            sweep(grid, workers=4, executor_factory=factory)
            assert engine._SHARED_WIRINGS == {}
            assert os.listdir(tmp_path) == []
        # Both sweeps shared exactly the n=512 keys, each in a directory
        # of its own under the temporary root.
        assert [sorted(paths) for paths in seen] == [[(512, s) for s in range(4)]] * 2
        directories = {os.path.dirname(p) for paths in seen for p in paths.values()}
        assert len(directories) == 2
        assert all(os.path.dirname(d) == str(tmp_path) for d in directories)

    def test_a_grid_without_repeated_keys_publishes_nothing(self, tmp_path, monkeypatch):
        import tempfile

        from repro.fastsync import engine

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        published = []
        monkeypatch.setattr(engine, "_publish_ports", lambda path, ports: published.append(path))
        made = []

        def unconstructible(workers):
            made.append(os.listdir(tmp_path))
            raise OSError("no processes for you")

        # One many-seed exact spec: every shard needs its own seeds.
        grid = RunSpec(
            algorithm="improved_tradeoff", n=64, engine="fast", mode="exact",
            seeds=range(12), params={"ell": 3},
        )
        records = sweep(grid, workers=4, executor_factory=unconstructible)
        assert len(records) == 12
        assert made == [[]] and published == [] and os.listdir(tmp_path) == []
        assert engine._SHARED_WIRINGS == {}

    def test_worker_that_dies_mid_sweep_is_survived(self, tmp_path):
        # A real pool worker exits without a word while holding a cell;
        # the sweep re-runs what is missing in the parent.
        grid = [
            RunSpec(algorithm="improved_tradeoff", n=n, engine="sync", seeds=(0, 1))
            for n in (16, 32, 48, 64)
        ]
        marker = str(tmp_path / "died")
        cells = [
            SweepCell(index=i, cost=spec.n, payload=(spec, marker, os.getpid()))
            for i, spec in enumerate(grid)
        ]
        values = run_cells(cells, _dies_once_in_a_worker, workers=2)
        assert os.path.exists(marker)
        expected = [record for spec in grid for record in execute_spec(spec)]
        assert canon([record for records in values for record in records]) == canon(expected)

    def test_genuine_cell_exceptions_propagate(self):
        grid = [RunSpec(algorithm="async_tradeoff", n=16, engine="sync")]
        with pytest.raises(ValueError, match="engine"):
            sweep(grid, workers=1)


def _dies_once_in_a_worker(payload):
    """``run_spec_cell``, except that the first pool worker to get here exits."""
    spec, marker, parent_pid = payload
    if os.getpid() != parent_pid:
        try:
            os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
        except FileExistsError:
            pass
        else:
            os._exit(3)
    return run_spec_cell(spec)


# Run as a script in a fresh interpreter: the pool imports the cell
# function from it, and it reports whether numpy got imported into the
# worker that ran the cell.
_NUMPY_PROBE = """
import os, sys
from repro.sweep import RunSpec, SweepCell, run_cells
from repro.sweep.worker import run_spec_cell

def probe(spec):
    run_spec_cell(spec)
    return ("numpy" in sys.modules, os.getpid()), {}

if __name__ == "__main__":
    cells = [
        SweepCell(index=i, cost=1.0, payload=RunSpec(algorithm=name, n=32, engine=engine))
        for i, (name, engine) in enumerate(
            [("afek_gafni", "sync"), ("las_vegas", "sync"), ("async_tradeoff", "async")]
        )
    ]
    for loaded, pid in run_cells(cells, probe, workers=2):
        print(loaded, pid != os.getpid())
    print("numpy" in sys.modules)
"""


class TestRunCells:
    def test_object_cells_never_import_numpy_in_the_workers(self, tmp_path):
        script = tmp_path / "probe.py"
        script.write_text(_NUMPY_PROBE)
        env = dict(os.environ)
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        lines = done.stdout.split()
        # Each cell ran in a pool worker without numpy; nor did the parent load it.
        assert lines == ["False", "True"] * 3 + ["False"]

    def test_values_return_in_index_order_despite_cost_ordering(self):
        cells = [
            SweepCell(index=i, cost=cost, payload=spec)
            for i, (cost, spec) in enumerate(
                (n, RunSpec(algorithm="improved_tradeoff", n=n, engine="sync"))
                for n in (8, 64, 16)
            )
        ]
        values = run_cells(cells, run_spec_cell, workers=1)
        assert [records[0].n for records in values] == [8, 64, 16]

    def test_single_cell_never_builds_a_pool(self):
        def exploding_factory(workers):  # pragma: no cover - must not run
            raise AssertionError("pool built for a single cell")

        cells = [
            SweepCell(
                index=0,
                cost=1.0,
                payload=RunSpec(algorithm="improved_tradeoff", n=16, engine="sync"),
            )
        ]
        values = run_cells(
            cells, run_spec_cell, workers=4, executor_factory=exploding_factory
        )
        assert values[0][0].unique_leader


def _run_probe(tmp_path, source):
    """Run ``source`` as a script in a fresh interpreter; its stdout words."""
    script = tmp_path / "probe.py"
    script.write_text(source)
    env = dict(os.environ)
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env["PROBE_DIR"] = str(tmp_path)
    done = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


# The pool factory sees what the parent holds when the pool is built.
_FAST_PARENT_PROBE = """
import sys
from repro.sweep import RunSpec, sweep

seen = []

def factory(workers):
    seen.append("repro.fastsync.engine" in sys.modules)
    raise OSError("no pool here: the cells run inline")

grid = [
    RunSpec(algorithm="afek_gafni", n=16, engine="sync"),
    RunSpec(algorithm="afek_gafni", n=64, engine="fast"),
]
print("repro.fastsync.engine" in sys.modules)
sweep(grid, workers=2, executor_factory=factory)
print(*seen)
"""

# Every pool worker notes whether numpy is loaded after each cell it runs.
_OBJECT_SWEEP_PROBE = """
import os, sys
from concurrent.futures import ProcessPoolExecutor
from repro.sweep import RunSpec, sweep

def noted(fn, *args):
    out = fn(*args)
    with open(os.path.join(os.environ["PROBE_DIR"], f"worker-{os.getpid()}"), "w") as fh:
        fh.write(str("numpy" in sys.modules))
    return out

class Noting(ProcessPoolExecutor):
    def submit(self, fn, *args, **kwargs):
        return super().submit(noted, fn, *args, **kwargs)

if __name__ == "__main__":
    grid = [
        RunSpec(algorithm="afek_gafni", n=32, engine="sync", seeds=(0, 1)),
        RunSpec(algorithm="async_tradeoff", n=32, engine="async", seeds=(0, 1)),
    ]
    sweep(grid, workers=2, executor_factory=lambda workers: Noting(max_workers=workers))
    notes = [
        open(os.path.join(os.environ["PROBE_DIR"], name)).read()
        for name in os.listdir(os.environ["PROBE_DIR"]) if name.startswith("worker-")
    ]
    print(len(notes) > 0, *sorted(set(notes)))
    print("numpy" in sys.modules)
"""


# A pooled exact-mode grid in a fresh interpreter (nothing cached when
# the pool forks) against the inline sweep; the temporary root must be
# empty afterwards.
_SHARED_WIRINGS_PROBE = """
import os, tempfile
from repro.analysis import RunSpec, canonical_record, sweep

if __name__ == "__main__":
    tempfile.tempdir = os.environ["PROBE_DIR"]
    grid = [
        RunSpec(algorithm=name, n=n, engine="fast", mode="exact", seeds=(0, 1),
                params=params)
        for n in (64, 128)
        for name, params in (("improved_tradeoff", {"ell": 3}), ("las_vegas", {}),
                             ("small_id", {"d": 4}))
    ]
    pooled = [canonical_record(r) for r in sweep(grid, workers=2)]
    left = [name for name in os.listdir(os.environ["PROBE_DIR"]) if name != "probe.py"]
    inline = [canonical_record(r) for r in sweep(grid, workers=1)]
    print(len(pooled), pooled == inline, left == [])
"""


class TestSharedWirings:
    def test_pooled_exact_grid_matches_inline_and_cleans_up(self, tmp_path):
        assert _run_probe(tmp_path, _SHARED_WIRINGS_PROBE) == ["12", "True", "True"]


class TestParentSideResolution:
    def test_fast_cells_load_the_fast_engine_before_the_pool(self, tmp_path):
        assert _run_probe(tmp_path, _FAST_PARENT_PROBE) == ["False", "True"]

    def test_unknown_engine_class_fails_before_the_pool(self):
        def exploding_factory(workers):  # pragma: no cover - must not run
            raise AssertionError("pool built for an unresolvable grid")

        grid = [
            RunSpec(algorithm="afek_gafni", n=16, engine="sync"),
            RunSpec(algorithm="monarchical", n=16, engine="fast"),
        ]
        with pytest.raises(KeyError, match="no vectorized port of 'monarchical'"):
            sweep(grid, workers=2, executor_factory=exploding_factory)

    def test_object_only_sweep_loads_numpy_nowhere(self, tmp_path):
        # Some worker ran a cell, no worker loaded numpy, nor did the parent.
        assert _run_probe(tmp_path, _OBJECT_SWEEP_PROBE) == ["True", "False", "False"]
