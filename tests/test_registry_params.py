"""Registry factories accept their documented parameters end to end."""

import dataclasses

import pytest

from repro.adversary import AsyncQuorumReElectionElection, QuorumReElectionElection
from repro.analysis import RunSpec, run
from repro.asyncnet.algorithm import AsyncAlgorithm
from repro.asyncnet.engine import AsyncNetwork
from repro.core import ALGORITHMS, get_algorithm
from repro.faults import (
    AsyncMonarchicalElection,
    AsyncReElectionElection,
    MonarchicalElection,
    ReElectionElection,
)
from repro.sweep.api import _object_factory
from repro.sync.algorithm import SyncAlgorithm
from repro.sync.engine import SyncNetwork

#: The dual-engine entries and the class each object engine runs.
TWINS = {
    "monarchical": {"sync": MonarchicalElection, "async": AsyncMonarchicalElection},
    "reelect": {"sync": ReElectionElection, "async": AsyncReElectionElection},
    "quorum_reelect": {
        "sync": QuorumReElectionElection,
        "async": AsyncQuorumReElectionElection,
    },
}
BASE = {"sync": SyncAlgorithm, "async": AsyncAlgorithm}
#: Constructor arguments without a default.
REQUIRED = {"small_id": {"d": 4}}


class TestParameterizedFactories:
    def test_improved_tradeoff_ell(self):
        spec = get_algorithm("improved_tradeoff")
        result = SyncNetwork(64, spec.make(ell=7), seed=0).run()
        assert result.unique_leader
        assert result.last_send_round == 7

    def test_afek_gafni_ell(self):
        spec = get_algorithm("afek_gafni")
        result = SyncNetwork(64, spec.make(ell=6), seed=0).run()
        assert result.unique_leader
        assert result.last_send_round == 7  # 2K+1

    def test_small_id_d_and_g(self):
        spec = get_algorithm("small_id")
        ids = list(range(1, 65))
        result = SyncNetwork(64, spec.make(d=16, g=1), ids=ids, seed=0).run()
        assert result.unique_leader and result.elected_id == 1

    def test_kutten16_coefficients(self):
        spec = get_algorithm("kutten16")
        result = SyncNetwork(
            256, spec.make(candidate_coeff=8.0, referee_coeff=3.0), seed=0
        ).run()
        assert len(result.leaders) <= 1

    def test_las_vegas_injection_hook(self):
        spec = get_algorithm("las_vegas")
        result = SyncNetwork(
            32,
            spec.make(candidate_prob_fn=lambda n, p: 0.0 if p == 0 else 1.0),
            seed=0,
        ).run()
        assert result.unique_leader
        assert result.last_send_round == 6  # one forced restart

    def test_adversarial_2round_epsilon(self):
        spec = get_algorithm("adversarial_2round")
        result = SyncNetwork(
            256, spec.make(epsilon=0.01), seed=1, awake=[0]
        ).run()
        assert len(result.leaders) <= 1

    def test_async_tradeoff_full_params(self):
        spec = get_algorithm("async_tradeoff")
        result = AsyncNetwork(
            128,
            spec.make(k=3, gamma=4.0, candidate_coeff=6.0, referee_coeff=3.0),
            seed=2,
            max_events=5_000_000,
        ).run()
        assert len(result.leaders) <= 1

    def test_async_afek_gafni_iterations(self):
        spec = get_algorithm("async_afek_gafni")
        result = AsyncNetwork(
            64,
            spec.make(iterations=3),
            seed=3,
            wake_times={u: 0.0 for u in range(64)},
            max_events=5_000_000,
        ).run()
        assert result.unique_leader

    def test_bad_parameters_surface_at_construction(self):
        spec = get_algorithm("improved_tradeoff")
        factory = spec.make(ell=4)  # even: invalid
        with pytest.raises(ValueError):
            factory()

    def test_cli_param_plumbs_through(self, capsys):
        from repro.__main__ import main

        assert (
            main(
                [
                    "run",
                    "async_afek_gafni",
                    "--n",
                    "32",
                    "--param",
                    "iterations=2",
                ]
            )
            == 0
        )
        assert "yes" in capsys.readouterr().out


class TestEngineTwins:
    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_make_builds_each_listed_engine_and_refuses_the_rest(self, name):
        spec = get_algorithm(name)
        expected = TWINS.get(name, {spec.engine: spec.factory})
        params = REQUIRED.get(name, {})
        assert spec.engines == tuple(expected)
        assert type(spec.make(**params)()) is expected[spec.engine]
        for engine in ("sync", "async"):
            if engine in expected:
                algorithm = spec.make(engine=engine, **params)()
                assert type(algorithm) is expected[engine]
                assert isinstance(algorithm, BASE[engine])
            else:
                with pytest.raises(ValueError) as exc:
                    spec.make(engine=engine)
                message = str(exc.value)
                assert "\n" not in message
                assert name in message and engine in message

    @pytest.mark.parametrize("engine", ["sync", "async"])
    def test_quorum_specs_resolve_through_the_registry(self, engine, monkeypatch):
        class Sync:
            def __init__(self, **params):
                self.params = params

        class Async(Sync):
            pass

        entry = get_algorithm("quorum_reelect")
        monkeypatch.setitem(
            ALGORITHMS,
            "quorum_reelect",
            dataclasses.replace(entry, factory=Sync, async_factory=Async),
        )
        inner = {"sync": "afek_gafni", "async": "async_tradeoff"}[engine]
        spec = RunSpec(
            algorithm=inner, n=8, engine=engine, quorum=True,
            params={"threshold": 0.75},
        )
        built = _object_factory(spec, engine)()
        assert type(built) is {"sync": Sync, "async": Async}[engine]
        assert built.params == {"inner": inner, "threshold": 0.75}

    def test_inner_on_the_wrong_engine_fails_at_construction(self):
        spec = RunSpec(
            algorithm="reelect", n=8, engine="async", params={"inner": "afek_gafni"}
        )
        with pytest.raises(ValueError, match="afek_gafni runs on the sync engine"):
            run(spec)
        with pytest.raises(ValueError, match="async_tradeoff"):
            ReElectionElection(inner="async_tradeoff")

    def test_async_inner_twin_is_picked_by_name(self):
        wrapper = AsyncReElectionElection(inner="monarchical")
        assert type(wrapper.factory()) is AsyncMonarchicalElection
