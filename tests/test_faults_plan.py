"""FaultPlan model: validation and runtime crash bookkeeping."""

import pytest

from repro.faults import (
    CrashFault,
    DetectorSpec,
    FaultPlan,
    FaultRuntime,
    LeaderKillPolicy,
    LinkFaults,
    PartitionMask,
)

NAN = float("nan")
INF = float("inf")


class TestPlanValidation:
    def test_crash_fault_bounds(self):
        with pytest.raises(ValueError):
            CrashFault(node=-1, at=1)
        with pytest.raises(ValueError):
            CrashFault(node=0, at=-0.5)

    def test_duplicate_crash_rejected(self):
        with pytest.raises(ValueError, match="twice"):
            FaultPlan(crashes=(CrashFault(0, 1), CrashFault(0, 2)))

    def test_protected_node_cannot_be_scheduled(self):
        with pytest.raises(ValueError, match="protected"):
            FaultPlan(crashes=(CrashFault(0, 1),), protect=(0,))

    def test_link_rule_must_do_something(self):
        with pytest.raises(ValueError):
            LinkFaults()

    def test_link_probabilities_in_range(self):
        with pytest.raises(ValueError):
            LinkFaults(drop_prob=1.5)

    def test_policy_delay_positive(self):
        with pytest.raises(ValueError):
            LeaderKillPolicy(delay=0)

    def test_max_drops_validation(self):
        with pytest.raises(ValueError, match="max_drops"):
            LinkFaults(drop_prob=1.0, max_drops=0)
        with pytest.raises(ValueError, match="drop_prob"):
            LinkFaults(duplicate_prob=1.0, max_drops=2)

    def test_detector_spec_validation(self):
        with pytest.raises(ValueError):
            DetectorSpec(kind="psychic")
        with pytest.raises(ValueError):
            DetectorSpec(kind="perfect", false_prob=0.5)
        with pytest.raises(ValueError):
            DetectorSpec(kind="eventually_perfect", false_prob=0.5)  # no horizon

    @pytest.mark.parametrize(
        "build",
        [
            pytest.param(lambda: CrashFault(node=0, at=NAN), id="crash-at-nan"),
            pytest.param(lambda: CrashFault(node=0, at=INF), id="crash-at-inf"),
            pytest.param(
                lambda: PartitionMask(components=((0,),), start=NAN),
                id="partition-start-nan",
            ),
            pytest.param(
                lambda: PartitionMask(components=((0,),), start=1, end=NAN),
                id="partition-end-nan",
            ),
            pytest.param(lambda: LeaderKillPolicy(delay=NAN), id="kill-delay-nan"),
            pytest.param(lambda: DetectorSpec(lag=NAN), id="detector-lag-nan"),
        ],
    )
    def test_nan_and_infinite_times_rejected(self, build):
        with pytest.raises(ValueError, match="nan|inf") as info:
            build()
        assert "\n" not in str(info.value)

    def test_validate_for_checks_indices(self):
        plan = FaultPlan(crashes=(CrashFault(9, 1),))
        with pytest.raises(ValueError, match="out of range"):
            plan.validate_for(4)

    def test_cannot_crash_everyone(self):
        plan = FaultPlan(crashes=tuple(CrashFault(u, 1) for u in range(4)))
        with pytest.raises(ValueError, match="every node"):
            plan.validate_for(4)


class TestRuntime:
    def make(self, plan, n=8):
        return FaultRuntime(plan, n, list(range(1, n + 1)), seed=0)

    def test_due_crashes_pop_in_order(self):
        plan = FaultPlan(crashes=(CrashFault(2, 3), CrashFault(1, 1)))
        rt = self.make(plan)
        assert rt.due_crashes(1) == [1]
        assert rt.due_crashes(2) == []
        assert rt.due_crashes(5) == [2]

    def test_last_survivor_is_protected(self):
        rt = self.make(FaultPlan(), n=2)
        assert rt.approve_crash(0)
        rt.note_crash(0, 1)
        assert not rt.approve_crash(1)
        assert rt.metrics.suppressed_crashes == 1

    def test_protect_list_respected(self):
        rt = self.make(FaultPlan(protect=(3,)))
        assert not rt.approve_crash(3)

    def test_policy_kill_fires_once_per_target(self):
        plan = FaultPlan(policies=(LeaderKillPolicy(kinds=("leader",), delay=2),))
        rt = self.make(plan)
        assert rt.observe_send(5, 4, "leader") == [(7, 4)]
        assert rt.observe_send(6, 4, "leader") == []  # already marked
        assert rt.observe_send(6, 5, "leader") == []  # max_kills exhausted
        assert rt.metrics.policy_kills == [(7, 4, "leader")]

    def test_policy_ignores_other_kinds(self):
        plan = FaultPlan(policies=(LeaderKillPolicy(kinds=("leader",), delay=1),))
        rt = self.make(plan)
        assert rt.observe_send(1, 0, "compete") == []

    def test_link_outcomes_deterministic_per_seed(self):
        plan = FaultPlan(links=(LinkFaults(drop_prob=0.5),))
        outcomes = []
        for _ in range(2):
            rt = self.make(plan)
            outcomes.append([rt.deliveries(0, 1, "x") for _ in range(64)])
        assert outcomes[0] == outcomes[1]
        assert 0 in outcomes[0] and 1 in outcomes[0]

    def test_link_rule_scoping(self):
        plan = FaultPlan(links=(LinkFaults(drop_prob=1.0, src=0, kinds=("a",)),))
        rt = self.make(plan)
        assert rt.deliveries(0, 1, "a") == 0
        assert rt.deliveries(1, 0, "a") == 1  # wrong src
        assert rt.deliveries(0, 1, "b") == 1  # wrong kind
        assert rt.metrics.dropped_messages == 1

    def test_max_drops_budget_exhausts(self):
        plan = FaultPlan(links=(LinkFaults(drop_prob=1.0, max_drops=2, kinds=("a",)),))
        rt = self.make(plan)
        assert rt.deliveries(0, 1, "a") == 0
        assert rt.deliveries(2, 1, "a") == 0
        # Budget spent: the rule still claims the message but delivers it.
        assert rt.deliveries(0, 1, "a") == 1
        assert rt.metrics.dropped_messages == 2

    def test_max_drops_can_still_duplicate_after_budget(self):
        plan = FaultPlan(
            links=(LinkFaults(drop_prob=1.0, duplicate_prob=1.0, max_drops=1),)
        )
        rt = self.make(plan)
        assert rt.deliveries(0, 1, "x") == 0
        assert rt.deliveries(0, 1, "x") == 2

    def test_duplication_counted(self):
        plan = FaultPlan(links=(LinkFaults(duplicate_prob=1.0),))
        rt = self.make(plan)
        assert rt.deliveries(0, 1, "x") == 2
        assert rt.metrics.duplicated_messages == 1
