"""RunSpec: validation, normalization, pickling, and the legacy shims."""

import dataclasses
import pickle

import pytest

from repro.adversary import AdversaryPlan, TamperRule
from repro.analysis import RunSpec, canonical_record, run, sweep
from repro.core import ImprovedTradeoffElection
from repro.faults import CrashFault, DetectorSpec, FaultPlan, LinkFaults


class TestValidation:
    def test_rejects_empty_clique(self):
        with pytest.raises(ValueError, match="n >= 1"):
            RunSpec(algorithm="improved_tradeoff", n=0)

    def test_rejects_unknown_engine(self):
        with pytest.raises(ValueError, match="unknown engine"):
            RunSpec(algorithm="improved_tradeoff", n=8, engine="gpu")

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="port-model mode"):
            RunSpec(algorithm="improved_tradeoff", n=8, mode="approximate")

    def test_rejects_empty_seed_axis(self):
        with pytest.raises(ValueError, match="at least one seed"):
            RunSpec(algorithm="improved_tradeoff", n=8, seeds=())

    def test_rejects_nonpositive_batch(self):
        with pytest.raises(ValueError, match="batch >= 1"):
            RunSpec(algorithm="improved_tradeoff", n=8, batch=0)

    def test_rejects_untyped_fault_plan(self):
        with pytest.raises(ValueError, match="FaultPlan"):
            RunSpec(algorithm="monarchical", n=8, faults={"crashes": []})

    def test_rejects_untyped_adversary_plan(self):
        with pytest.raises(ValueError, match="AdversaryPlan"):
            RunSpec(algorithm="quorum_reelect", n=9, adversary="forge")

    def test_rejects_doubly_attached_adversary(self):
        adversary = AdversaryPlan(byzantine=(0,), tampers=(TamperRule(mode="forge"),))
        with pytest.raises(ValueError, match="one place"):
            RunSpec(
                algorithm="quorum_reelect",
                n=9,
                faults=FaultPlan(adversary=adversary),
                adversary=adversary,
            )

    @pytest.mark.parametrize(
        "kwargs,who",
        [
            (dict(algorithm="async_tradeoff"), "async_tradeoff"),
            (dict(algorithm="async_afek_gafni", engine="async"), "async_afek_gafni"),
            (dict(algorithm="reelect", engine="async"),
             "reelect's inner election async_tradeoff"),
            (dict(algorithm="reelect", engine="async",
                  params={"inner": "async_afek_gafni"}),
             "reelect's inner election async_afek_gafni"),
            (dict(algorithm="async_tradeoff", quorum=True),
             "quorum_reelect's inner election async_tradeoff"),
        ],
        ids=["direct-auto", "direct", "wrapper-default", "wrapper-named", "quorum"],
    )
    def test_async_duplicates_need_a_duplicate_safe_election(self, kwargs, who):
        plan = FaultPlan(links=(LinkFaults(drop_prob=0.1), LinkFaults(duplicate_prob=0.2)))
        with pytest.raises(ValueError, match=f"^{who} assumes exactly-once"):
            RunSpec(n=16, faults=plan, **kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(algorithm="reelect", engine="sync"),
            dict(algorithm="improved_tradeoff", engine="fast"),
            dict(algorithm="monarchical", engine="async"),
            dict(algorithm="reelect", engine="async",
                 params={"inner": lambda: None}),
        ],
        ids=["sync-wrapper", "fast", "async-monarchical", "async-factory-inner"],
    )
    def test_duplicates_stay_allowed_elsewhere(self, kwargs):
        plan = FaultPlan(links=(LinkFaults(duplicate_prob=0.2),))
        RunSpec(n=16, faults=plan, **kwargs)
        # Drops alone never trip the check.
        RunSpec(algorithm="async_tradeoff", n=16,
                faults=FaultPlan(links=(LinkFaults(drop_prob=0.2),)))

    def test_object_election_wraps_quorum_specs(self):
        plain = RunSpec(algorithm="afek_gafni", n=8, params={"x": 1})
        assert plain.object_election() == ("afek_gafni", {"x": 1})
        wrapped = RunSpec(algorithm="afek_gafni", n=8, quorum=True, params={"threshold": 5})
        assert wrapped.object_election() == (
            "quorum_reelect", {"inner": "afek_gafni", "threshold": 5}
        )
        itself = RunSpec(algorithm="quorum_reelect", n=8, quorum=True)
        assert itself.object_election() == ("quorum_reelect", {})

    def test_trace_wants_exactly_one_seed(self):
        with pytest.raises(ValueError, match="exactly one seed"):
            RunSpec(algorithm="improved_tradeoff", n=8, seeds=(0, 1), trace="t.jsonl")

    def test_trace_with_batch_wants_one_engine_run(self):
        # One batched engine run traces every lane; a second chunk would
        # overwrite the file.
        spec = RunSpec(
            algorithm="improved_tradeoff", n=8, engine="fast",
            seeds=(0, 1), batch=2, trace="t.jsonl",
        )
        assert spec.trace == "t.jsonl"
        with pytest.raises(ValueError, match="at most batch seeds"):
            RunSpec(
                algorithm="improved_tradeoff", n=8, engine="fast",
                seeds=(0, 1, 2), batch=2, trace="t.jsonl",
            )

    def test_run_wants_a_single_seed_spec(self):
        with pytest.raises(ValueError, match="exactly one seed"):
            run(RunSpec(algorithm="improved_tradeoff", n=8, seeds=(0, 1)))

    def test_sweep_rejects_non_spec_items(self):
        with pytest.raises(ValueError, match="RunSpec items"):
            sweep([{"algorithm": "improved_tradeoff", "n": 8}])


class TestNormalization:
    def test_sequences_become_int_tuples(self):
        spec = RunSpec(
            algorithm="improved_tradeoff",
            n=8,
            seeds=[0, 1],
            ids=[5, 4, 3, 2, 1, 0, 7, 6],
            awake=[0, 1],
            wake_times={"3": "0.5"},
        )
        assert spec.seeds == (0, 1)
        assert spec.ids == (5, 4, 3, 2, 1, 0, 7, 6)
        assert spec.awake == (0, 1)
        assert spec.wake_times == {3: 0.5}

    def test_algorithm_name_distinguishes_names_from_factories(self):
        assert RunSpec(algorithm="small_id", n=8).algorithm_name == "small_id"
        spec = RunSpec(algorithm=ImprovedTradeoffElection, n=8)
        assert spec.algorithm_name is None

    def test_specs_are_frozen_but_replaceable(self):
        spec = RunSpec(algorithm="improved_tradeoff", n=8)
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.n = 16
        assert dataclasses.replace(spec, n=16).n == 16


class TestEngineResolution:
    def test_auto_uses_the_registry_engine(self):
        assert RunSpec(algorithm="improved_tradeoff", n=8).resolved_engine() == "sync"
        assert RunSpec(algorithm="async_tradeoff", n=8).resolved_engine() == "async"

    def test_auto_upgrades_large_fault_free_runs_to_fast(self):
        assert RunSpec(algorithm="improved_tradeoff", n=4096).resolved_engine() == "fast"

    def test_fault_plans_pin_the_object_engine(self):
        spec = RunSpec(
            algorithm="monarchical",
            n=4096,
            faults=FaultPlan(crashes=(CrashFault(node=0, at=2.0),)),
        )
        assert spec.resolved_engine() == "sync"

    def test_factories_default_to_sync(self):
        assert RunSpec(algorithm=ImprovedTradeoffElection, n=8).resolved_engine() == "sync"

    def test_explicit_engine_wins(self):
        spec = RunSpec(algorithm="improved_tradeoff", n=4096, engine="sync")
        assert spec.resolved_engine() == "sync"

    def test_effective_faults_attaches_the_adversary(self):
        adversary = AdversaryPlan(byzantine=(0,), tampers=(TamperRule(mode="forge"),))
        spec = RunSpec(
            algorithm="quorum_reelect",
            n=9,
            faults=FaultPlan(detector=DetectorSpec(lag=2.0)),
            adversary=adversary,
        )
        plan = spec.effective_faults()
        assert plan.adversary is adversary
        assert plan.detector.lag == 2.0


class TestPickleRoundTrips:
    def test_runspec_round_trips(self):
        spec = RunSpec(
            algorithm="monarchical",
            n=16,
            seeds=(0, 1, 2),
            params={"heartbeat_every": 1.0},
            faults=FaultPlan(
                crashes=(CrashFault(node=3, at=2.0),),
                detector=DetectorSpec(kind="perfect", lag=1.0),
            ),
        )
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec

    def test_adversary_specs_round_trip(self):
        spec = RunSpec(
            algorithm="quorum_reelect",
            n=9,
            adversary=AdversaryPlan(
                byzantine=(0,), tampers=(TamperRule(mode="forge"),)
            ),
        )
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.effective_faults().adversary.byzantine == (0,)

    def test_run_records_round_trip(self):
        record = run(RunSpec(algorithm="improved_tradeoff", n=64, seeds=(3,)))
        clone = pickle.loads(pickle.dumps(record))
        assert canonical_record(clone) == canonical_record(record)

    def test_factory_valued_specs_do_not_pickle(self):
        spec = RunSpec(algorithm=lambda: ImprovedTradeoffElection(), n=8)
        with pytest.raises(Exception):
            pickle.dumps(spec)


class TestCanonicalRecord:
    def test_strips_volatile_extras_only(self):
        record = run(
            RunSpec(algorithm="improved_tradeoff", n=64, engine="fast", profile=True),
            keep_result=True,
        )
        assert "wall_time_s" in record.extra and "profile" in record.extra
        canon = canonical_record(record)
        for key in ("wall_time_s", "profile", "result", "trace"):
            assert key not in canon["extra"]
        assert canon["messages"] == record.messages
        assert canon["extra"].get("mode") == record.extra["mode"]

