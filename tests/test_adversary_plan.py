"""The adversary plan model and the Byzantine tamper runtime."""

import pytest

from repro.adversary import (
    AdversaryPlan,
    SlanderWindow,
    TamperRule,
    payload_kinds,
)
from repro.faults import (
    CrashFault,
    DetectorSpec,
    FaultPlan,
    FaultRuntime,
    make_detector,
)


def runtime_for(plan, n=6, seed=0):
    fault_plan = FaultPlan(adversary=plan)
    return FaultRuntime(fault_plan, n, list(range(1, n + 1)), seed)


class TestPlanValidation:
    def test_tamper_rule_modes(self):
        for mode in ("corrupt", "forge", "replay", "equivocate"):
            TamperRule(mode=mode)
        with pytest.raises(ValueError, match="unknown tamper mode"):
            TamperRule(mode="gaslight")

    def test_tamper_rule_params(self):
        with pytest.raises(ValueError, match="prob"):
            TamperRule(mode="corrupt", prob=0.0)
        with pytest.raises(ValueError, match="magnitude"):
            TamperRule(mode="corrupt", magnitude=0)
        with pytest.raises(ValueError, match="forge_id"):
            TamperRule(mode="corrupt", forge_id=99)
        with pytest.raises(ValueError, match="max_tampers"):
            TamperRule(mode="forge", max_tampers=0)

    def test_slander_window(self):
        with pytest.raises(ValueError, match="victim"):
            SlanderWindow(accuser=0, victims=())
        with pytest.raises(ValueError, match="slander itself"):
            SlanderWindow(accuser=0, victims=(0,))
        with pytest.raises(ValueError, match="distinct"):
            SlanderWindow(accuser=0, victims=(1, 1))
        with pytest.raises(ValueError, match="after its start"):
            SlanderWindow(accuser=0, victims=(1,), start=5.0, end=5.0)

    def test_plan_must_do_something(self):
        with pytest.raises(ValueError, match="must tamper or slander"):
            AdversaryPlan(byzantine=(0,))

    def test_wildcard_tampers_need_byzantine(self):
        with pytest.raises(ValueError, match="byzantine set"):
            AdversaryPlan(tampers=(TamperRule(mode="corrupt"),))

    def test_f_half_rejected(self):
        plan = AdversaryPlan(
            byzantine=(0, 1), tampers=(TamperRule(mode="corrupt"),)
        )
        with pytest.raises(ValueError, match="f >= n/2"):
            plan.validate_for(4)
        plan.validate_for(5)  # f = 2 < 2.5: fine

    def test_out_of_range_members(self):
        plan = AdversaryPlan(
            byzantine=(0,),
            slanders=(SlanderWindow(accuser=0, victims=(9,)),),
            tampers=(TamperRule(mode="corrupt"),),
        )
        with pytest.raises(ValueError, match="victim 9 out of range"):
            plan.validate_for(6)

    def test_fault_plan_rejects_non_plans(self):
        with pytest.raises(ValueError, match="AdversaryPlan"):
            FaultPlan(adversary="be evil")

    def test_adversarial_nodes_union(self):
        plan = AdversaryPlan(
            byzantine=(1,),
            tampers=(TamperRule(mode="corrupt", src=2),),
            slanders=(SlanderWindow(accuser=3, victims=(4,)),),
        )
        assert plan.adversarial_nodes == {1, 2, 3}
        assert plan.is_adversarial_sender(1)
        assert plan.is_adversarial_sender(2)
        assert not plan.is_adversarial_sender(3)  # accusers lie, not tamper


class TestPayloadKinds:
    def test_flat(self):
        assert payload_kinds(("compete", 7)) == ("compete",)
        assert payload_kinds("ping") == ("ping",)
        assert payload_kinds(42) == ("int",)

    def test_wrapped(self):
        wrapped = ("ree", 1, 0, ("compete", 7))
        assert payload_kinds(wrapped) == ("ree", "compete")

    def test_deeply_wrapped_keeps_ends(self):
        deep = ("outer", ("mid", ("inner", 3)))
        assert payload_kinds(deep) == ("outer", "inner")


class TestTamperRuntime:
    def test_corrupt_shifts_ints(self):
        plan = AdversaryPlan(
            byzantine=(0,), tampers=(TamperRule(mode="corrupt", magnitude=10),)
        )
        rt = runtime_for(plan)
        out = rt.delivered_payloads(0, 1, "compete", ("compete", 7), 0.0)
        assert out == [("compete", 17)]
        assert rt.metrics.tampered_messages == 1
        assert rt.metrics.tampered_by_mode == {"corrupt": 1}

    def test_corrupt_rewrites_innermost_only(self):
        """Authenticated envelopes: wrapper tags survive, payload ints move."""
        plan = AdversaryPlan(
            byzantine=(0,),
            tampers=(TamperRule(mode="corrupt", magnitude=1, kinds=("compete",)),),
        )
        rt = runtime_for(plan)
        wrapped = ("ree", 3, 1, ("compete", 7))
        out = rt.delivered_payloads(0, 1, "ree", wrapped, 0.0)
        assert out == [("ree", 3, 1, ("compete", 8))]

    def test_forge_swaps_sender_id(self):
        plan = AdversaryPlan(
            byzantine=(0,), tampers=(TamperRule(mode="forge"),)
        )
        rt = runtime_for(plan, n=6)  # ids 1..6; default forge id = 7
        out = rt.delivered_payloads(0, 2, "compete", ("compete", 1), 0.0)
        assert out == [("compete", 7)]
        # Fields not equal to the sender's id are left alone.
        out = rt.delivered_payloads(0, 2, "compete", ("compete", 5), 0.0)
        assert out == [("compete", 5)]

    def test_equivocate_differs_per_receiver(self):
        plan = AdversaryPlan(
            byzantine=(0,), tampers=(TamperRule(mode="equivocate", magnitude=1),)
        )
        rt = runtime_for(plan)
        to_1 = rt.delivered_payloads(0, 1, "rank", ("rank", 100), 0.0)
        to_2 = rt.delivered_payloads(0, 2, "rank", ("rank", 100), 0.0)
        assert to_1 != to_2
        assert to_1 == [("rank", 102)]
        assert to_2 == [("rank", 103)]

    def test_replay_redelivers_stale_link_traffic(self):
        plan = AdversaryPlan(
            byzantine=(0,), tampers=(TamperRule(mode="replay"),)
        )
        rt = runtime_for(plan)
        first = rt.delivered_payloads(0, 1, "a", ("a", 1), 0.0)
        assert first == [("a", 1)]  # nothing to replay yet
        second = rt.delivered_payloads(0, 1, "b", ("b", 2), 1.0)
        assert second == [("b", 2), ("a", 1)]  # stale copy rides along
        assert rt.metrics.tampered_by_mode == {"replay": 1}

    def test_honest_senders_untouched(self):
        plan = AdversaryPlan(
            byzantine=(0,), tampers=(TamperRule(mode="corrupt"),)
        )
        rt = runtime_for(plan)
        out = rt.delivered_payloads(3, 1, "compete", ("compete", 4), 0.0)
        assert out == [("compete", 4)]
        assert rt.metrics.tampered_messages == 0

    def test_kind_filter(self):
        plan = AdversaryPlan(
            byzantine=(0,),
            tampers=(TamperRule(mode="corrupt", kinds=("compete",)),),
        )
        rt = runtime_for(plan)
        assert rt.delivered_payloads(0, 1, "response", ("response",), 0.0) == [
            ("response",)
        ]
        assert rt.metrics.tampered_messages == 0

    def test_max_tampers_budget(self):
        plan = AdversaryPlan(
            byzantine=(0,),
            tampers=(TamperRule(mode="corrupt", max_tampers=2),),
        )
        rt = runtime_for(plan)
        for _ in range(2):
            rt.delivered_payloads(0, 1, "x", ("x", 1), 0.0)
        out = rt.delivered_payloads(0, 1, "x", ("x", 1), 0.0)
        assert out == [("x", 1)]  # budget spent
        assert rt.metrics.tampered_messages == 2

    def test_probabilistic_tampering_is_seed_deterministic(self):
        plan = AdversaryPlan(
            byzantine=(0,), tampers=(TamperRule(mode="corrupt", prob=0.5),)
        )

        def outcomes(seed):
            rt = runtime_for(plan, seed=seed)
            return [
                rt.delivered_payloads(0, 1, "x", ("x", 1), 0.0)[0]
                for _ in range(32)
            ]

        assert outcomes(1) == outcomes(1)
        assert outcomes(1) != outcomes(2)
        assert ("x", 2) in outcomes(1)  # some messages tampered
        assert ("x", 1) in outcomes(1)  # some left honest

    def test_dropped_messages_are_not_tampered(self):
        """Link-fault drops happen first; a dropped send delivers nothing."""
        from repro.faults import LinkFaults

        plan = FaultPlan(
            links=(LinkFaults(drop_prob=1.0),),
            adversary=AdversaryPlan(
                byzantine=(0,), tampers=(TamperRule(mode="corrupt"),)
            ),
        )
        rt = FaultRuntime(plan, 4, [1, 2, 3, 4], 0)
        assert rt.delivered_payloads(0, 1, "x", ("x", 1), 0.0) == []
        assert rt.metrics.tampered_messages == 0


class TestTamperTracing:
    def test_recorder_sees_rewrites_and_replays(self):
        """The trace layer must show what receivers actually got: every
        Byzantine rewrite (and replayed stale copy) emits a ``tamper``
        event alongside the honest ``send`` record."""
        from repro.adversary import QuorumReElectionElection
        from repro.analysis import RunSpec, run
        from repro.trace import MemoryRecorder

        plan = FaultPlan(
            adversary=AdversaryPlan(
                byzantine=(0,),
                tampers=(TamperRule(mode="forge", kinds=("compete",)),),
            ),
        )
        memory = MemoryRecorder()
        record = run(
            RunSpec(algorithm=QuorumReElectionElection, n=6, engine="sync", faults=plan),
            recorder=memory,
        )
        tampers = [e for e in memory.events if e.kind == "tamper"]
        fm = record.extra["fault_metrics"]
        assert fm.tampered_messages > 0
        assert len(tampers) == fm.tampered_messages
        for event in tampers:
            assert event.node == 0  # only the Byzantine node rewrites
            _dst, original, delivered = event.detail
            assert original != delivered

    def test_honest_runs_emit_no_tamper_events(self):
        from repro.analysis import RunSpec, run
        from repro.faults import DetectorSpec, ReElectionElection
        from repro.trace import MemoryRecorder

        plan = FaultPlan(detector=DetectorSpec(kind="perfect", lag=1.0))
        memory = MemoryRecorder()
        run(
            RunSpec(algorithm=ReElectionElection, n=6, engine="sync", faults=plan),
            recorder=memory,
        )
        assert not [e for e in memory.events if e.kind == "tamper"]


class TestSlanderDetectors:
    def detector(self, plan, node, n=6, runtime=None):
        return make_detector(
            DetectorSpec(kind="perfect", lag=1.0), node, list(range(1, n + 1)),
            runtime, slanders=plan.slanders,
        )

    def plan(self, start=2.0, end=10.0):
        return AdversaryPlan(
            byzantine=(0,),
            slanders=(SlanderWindow(accuser=0, victims=(4,), start=start, end=end),),
        )

    def test_victims_suspected_during_window(self):
        det = self.detector(self.plan(), node=1)
        assert det.suspects(2.0) == frozenset()       # lag not yet elapsed
        assert det.suspects(3.0) == frozenset({5})    # victim id 5
        assert det.suspects(11.0) == frozenset()      # rumor forgiven

    def test_victim_trusts_itself(self):
        det = self.detector(self.plan(), node=4)
        assert det.suspects(5.0) == frozenset()

    def test_slander_dies_with_its_accuser(self):
        plan = FaultPlan(
            crashes=(CrashFault(node=0, at=1.0),), adversary=self.plan(start=2.0)
        )
        rt = FaultRuntime(plan, 6, list(range(1, 7)), 0)
        rt.note_crash(0, 1.0)
        det = make_detector(
            DetectorSpec(kind="perfect", lag=1.0), 1, list(range(1, 7)), rt,
            slanders=plan.slanders,
        )
        # The accuser is dead (and suspected); its rumor never spreads.
        assert det.suspects(5.0) == frozenset({1})

    def test_last_transition_tracks_slander_edges(self):
        det = self.detector(self.plan(start=2.0, end=10.0), node=1)
        assert det.last_transition(5.0) == 3.0    # start + lag
        assert det.last_transition(12.0) == 11.0  # end + lag

    def test_engine_detector_reads_plan_slanders(self):
        fault_plan = FaultPlan(adversary=self.plan())
        from repro.faults.detectors import engine_detector

        det = engine_detector(fault_plan, 1, list(range(1, 7)), None)
        assert det.suspects(3.0) == frozenset({5})
