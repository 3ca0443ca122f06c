"""The cyclic collector is paused around every run, and runs leave no cycles.

``execute_spec`` runs each seed with :func:`repro.common.paused_gc`, so
whatever a run leaves in reference cycles stays until the next
collection.  Every registry election is therefore checked to free its
whole run by reference counting.
"""

import gc

import pytest

from repro.analysis import RunSpec, execute_spec, run, sweep
from repro.common import SimulationLimitExceeded, paused_gc
from repro.core.registry import ALGORITHMS
from repro.sync.algorithm import SyncAlgorithm

#: ``gc.isenabled()`` as each ``GcProbe`` saw it in its first round.
SEEN = []


class GcProbe(SyncAlgorithm):
    def __init__(self, halt=True):
        self.halt = halt

    def on_round(self, ctx, inbox):
        if ctx.round == 1 and ctx.node == 0:
            SEEN.append(gc.isenabled())
        if not self.halt:
            return
        if ctx.node == 0:
            ctx.decide_leader()
        else:
            ctx.decide_follower()
        ctx.halt()


@pytest.fixture(autouse=True)
def collector_on():
    SEEN.clear()
    gc.enable()
    yield
    gc.enable()


class TestPauseContract:
    def test_paused_during_run_and_restored_after(self):
        run(RunSpec(algorithm=GcProbe, n=4, engine="sync"))
        assert SEEN == [False]
        assert gc.isenabled()

    def test_paused_during_sweep_and_restored_after(self):
        sweep([RunSpec(algorithm=GcProbe, n=4, engine="sync", seeds=(0, 1))])
        assert SEEN == [False, False]
        assert gc.isenabled()

    def test_restored_after_a_run_that_raises(self):
        spec = RunSpec(
            algorithm=lambda: GcProbe(halt=False), n=4, engine="sync", max_rounds=3
        )
        with pytest.raises(SimulationLimitExceeded):
            run(spec)
        assert SEEN == [False]
        assert gc.isenabled()

    def test_a_caller_that_disabled_the_collector_keeps_it_disabled(self):
        gc.disable()
        run(RunSpec(algorithm=GcProbe, n=4, engine="sync"))
        assert not gc.isenabled()
        with paused_gc():
            pass
        assert not gc.isenabled()


def _registry_runs():
    for name, spec in ALGORITHMS.items():
        params = {"d": 4} if name == "small_id" else {}
        for engine in spec.engines + (("fast",) if spec.has_fast else ()):
            yield pytest.param(name, engine, params, id=f"{name}-{engine}")


@pytest.mark.parametrize("name,engine,params", list(_registry_runs()))
def test_a_registry_run_leaves_no_cyclic_garbage(name, engine, params):
    spec = RunSpec(algorithm=name, n=16, engine=engine, seeds=(0,), params=params)
    execute_spec(spec)  # warm: first-use imports may leave their own cycles
    gc.collect()
    gc.disable()
    execute_spec(spec)
    assert gc.collect() == 0
