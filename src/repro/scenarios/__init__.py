"""Declarative event timelines for churn workloads (the scenario layer).

This subsystem turns the repo from "one election per run" into a
workload simulator: a :class:`Scenario` declares *what happens to the
network over time* — ``crash(node, t)``, ``recover(node, t)`` (persisted
epoch state, elect-lower-epoch rejoin), ``join(t)``,
``partition(components, t_start, t_end)`` with automatic heal, and
``elect(t)`` for repeated elections — and a :class:`ScenarioRunner`
executes the timeline on the synchronous, asynchronous, or fast engine,
reusing the fault subsystem (detector specs, link faults,
kill-the-frontrunner policies, partition masks) for every election act.

Results come back as per-epoch convergence metrics: failover latency,
leadership-agreement intervals, epoch churn, and message/round overhead
against a fault-free baseline.  A library of named scenarios
(``partition_heal``, ``rolling_restart``, ``flapping_leader``,
``staggered_joins``, ``election_storm``) backs the ``python -m repro
scenarios`` CLI and ``benchmarks/run.py scenario_churn``.
"""

from repro._exports import lazy_exports


def _events():
    from repro.scenarios.events import (  # noqa: F401
        LAST_CRASHED,
        LEADER,
        CrashEvent,
        ElectEvent,
        JoinEvent,
        PartitionEvent,
        RecoverEvent,
        Scenario,
        SlanderEvent,
        crash,
        elect,
        join,
        partition,
        recover,
        slander,
    )

    return locals()


def _dsl():
    from repro.scenarios.dsl import (  # noqa: F401
        ScenarioSchemaError,
        scenario_from_json,
        scenario_to_json,
    )

    return locals()


def _library():
    from repro.scenarios.library import NAMED_SCENARIOS, get_scenario  # noqa: F401

    return locals()


def _metrics():
    from repro.scenarios.metrics import (  # noqa: F401
        AgreementInterval,
        EpochRecord,
        ScenarioMetrics,
        scenario_report,
    )

    return locals()


def _runner():
    from repro.scenarios.runner import (  # noqa: F401
        NodeState,
        ScenarioResult,
        ScenarioRunner,
        run_scenario,
    )

    return locals()


__all__ = [
    "LEADER",
    "LAST_CRASHED",
    "CrashEvent",
    "RecoverEvent",
    "JoinEvent",
    "PartitionEvent",
    "ElectEvent",
    "SlanderEvent",
    "Scenario",
    "crash",
    "recover",
    "join",
    "partition",
    "elect",
    "slander",
    "ScenarioSchemaError",
    "scenario_from_json",
    "scenario_to_json",
    "NAMED_SCENARIOS",
    "get_scenario",
    "EpochRecord",
    "AgreementInterval",
    "ScenarioMetrics",
    "scenario_report",
    "NodeState",
    "ScenarioResult",
    "ScenarioRunner",
    "run_scenario",
]

__getattr__ = lazy_exports(globals(), _events, _dsl, _library, _metrics, _runner)
