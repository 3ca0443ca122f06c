"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``list``
    Show every registered algorithm with its paper reference and
    complexity formulas.

``run NAME``
    Run one election and print the outcome and complexity counters.
    Algorithm parameters are passed as ``--param key=value``.

``bounds N``
    Print the full Table 1 bound formulas evaluated at ``N``.

``faults NAME``
    Run one election under a fault plan (crash schedules, kill-the-
    frontrunner churn, message drop/duplication, failure detectors) and
    report failover metrics: detection latency, re-election time, and
    message cost after the first crash.  ``monarchical``, ``reelect``
    and ``quorum_reelect`` additionally accept ``--engine async``.

``scenarios {list,run,sweep}``
    The workload layer: declarative event timelines (partitions with
    automatic heal, crash-recovery with persisted epoch state, joins,
    repeated elections, Byzantine slander) executed by the scenario
    runner with per-epoch convergence metrics — failover latency,
    leadership-agreement intervals, epoch churn, split-brain acts, and
    message overhead vs a fault-free baseline.  ``run`` accepts a named
    scenario or a path to a JSON timeline file; ``--quorum`` gates every
    act's commits on a majority quorum; ``run NAME --json -`` prints
    the full JSON report.

``adversary {run,sweep}``
    Byzantine elections: run ``quorum_reelect`` (or plain ``reelect``
    with ``--no-quorum``) under message tampering, detector slander and
    crash schedules; ``sweep`` traces the honest-vs-Byzantine overhead
    curve of EXPERIMENTS.md S3.

``trace {record,inspect,stats,diff,causal}``
    The telemetry subsystem's CLI: record single runs to schema-versioned
    JSONL (object engines stream per-message events, the fast engine
    writes per-round aggregates), filter and pretty-print a trace
    (``--timeline`` renders an ASCII per-node grid, ``--lane`` selects
    one lane of a batched fast trace), summarize one, or diff two
    traces — the diff names the first round whose send totals differ
    (say, where two seeds of one election part).  The object and fast
    engines wire their ports independently, so a freestanding
    cross-engine pair always differs; replay one wiring on both
    (``repro.telemetry.trace_fast_lane``) to compare engines.
    ``causal`` runs the happens-before analysis: Lamport
    clocks, the causal DAG and the critical path to the decide event,
    with per-kind message attribution.  ``run``, ``scenarios run`` and
    ``adversary run`` also accept ``--trace PATH`` to record while they
    execute.

``monitor check``
    The runtime-verification CLI: sweep a spec grid (``--algorithms``,
    ``--ns``, ``--seeds``, ``--param``) with record-level invariant
    checks and theory-bound conformance against each algorithm's
    envelope; exits non-zero on any violation or out-of-envelope
    record.  ``--progress`` draws a live one-line progress bar,
    ``--ledger`` appends the campaign to the persistent run ledger,
    ``--records PATH`` keeps the raw rows as JSONL.

``history`` / ``compare REF``
    The run-ledger CLI: ``history`` lists past monitored sweeps
    (newest last); ``history prune --keep N`` bounds the ledger to its
    newest N entries; ``compare`` diffs two entries — by index,
    negative index, label, or git-SHA / spec-hash prefix of 4+
    characters — and exits 1 when per-algorithm message means regress
    beyond ``--slack`` or new violation kinds appear.

``top``
    The observability-plane dashboard: run a monitored spec grid with
    the live multi-line TTY display (overall ETA, one row per worker
    slot, post-hoc violation/conformance counts) while workers spool
    per-cell telemetry snapshots; prints the deterministic collected
    sweep report afterwards.  Degrades to the one-line progress display
    off a TTY.

``report --html``
    ``report`` regenerates the paper's Table 1; with ``--html OUT.html``
    it instead writes a self-contained static campaign report (run
    ledger, messages-vs-rounds tradeoff scatter against the theorem
    envelopes, BENCH_*.json baselines, top-k critical paths).

Examples
--------

::

    python -m repro list
    python -m repro run improved_tradeoff --n 1024 --param ell=5
    python -m repro run async_tradeoff --n 512 --param k=3 --seeds 0 1 2
    python -m repro run adversarial_2round --n 1024 --roots 1 --param epsilon=0.05
    python -m repro bounds 4096
    python -m repro faults monarchical --n 64 --crash 63@2 --lag 2
    python -m repro faults reelect --n 128 --kill-leader --param inner=afek_gafni
    python -m repro faults reelect --n 64 --engine async --kill-leader --roots 1
    python -m repro faults monarchical --n 256 --drop 0.02 --seeds 0 1 2
    python -m repro faults reelect --n 64 --kill-leader --drop 1.0 --drop-kinds ree_coord --max-drops 3
    python -m repro run improved_tradeoff --n 100000 --engine fast --param ell=5
    python -m repro run improved_tradeoff --n 100000 --engine fast --seeds 0 1 2 3 --batch 4
    python -m repro run adversarial_2round --n 100000 --engine fast --roots 1
    python -m repro scenarios list
    python -m repro scenarios run partition_heal --n 64 --seed 1 --json -
    python -m repro scenarios run partition_heal --n 9 --quorum
    python -m repro scenarios run rolling_restart --n 32 --engine fast
    python -m repro scenarios run my_timeline.json --n 16
    python -m repro scenarios sweep election_storm --ns 32 64 --seeds 0 1 2
    python -m repro scenarios sweep election_storm --ns 32 64 --engine fast --workers 2
    python -m repro adversary run --n 9 --slander 0:8@5-60 --crash 3@10
    python -m repro adversary run --n 9 --byzantine 0 --tamper forge:compete --no-quorum
    python -m repro adversary sweep --ns 8 16 32 --mode both --json -
    python -m repro run improved_tradeoff --n 256 --trace run.jsonl
    python -m repro scenarios run flapping_leader --n 8 --trace scenario.jsonl
    python -m repro trace record improved_tradeoff --n 256 --engine fast -o fast.jsonl
    python -m repro trace record improved_tradeoff --n 256 --engine fast --seed 1 -o fast1.jsonl
    python -m repro trace inspect run.jsonl --kind decide --timeline
    python -m repro trace inspect batched.jsonl --lane 1 --timeline
    python -m repro trace stats fast.jsonl
    python -m repro trace diff fast.jsonl fast1.jsonl
    python -m repro trace diff fast.jsonl fast1.jsonl --json -
    python -m repro trace causal run.jsonl
    python -m repro trace causal run.jsonl --json -
    python -m repro monitor check --ns 32 64 --seeds 0 1 2 --progress
    python -m repro monitor check --algorithms las_vegas --ns 256 --ledger .repro/ledger.jsonl --label nightly
    python -m repro top --ns 32 64 --seeds 0 1 --workers 4
    python -m repro report --html report.html --traces run.jsonl
    python -m repro history --limit 5
    python -m repro history prune --keep 50
    python -m repro compare -2 --to -1
    python -m repro compare nightly --slack 0.05
"""


from __future__ import annotations

import argparse
import dataclasses
import random
import sys
from collections import Counter
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.analysis import RunSpec, Table, execute_spec
from repro.common import SimulationLimitExceeded
from repro.core import ALGORITHMS, get_algorithm
from repro.ids import assign_random, small_universe, tradeoff_universe
from repro.lowerbound import bounds


class UsageError(Exception):
    """Malformed CLI input: :func:`main` prints ``error: <message>``, exits 2."""


def _param(text: str) -> Tuple[str, Any]:
    """``--param KEY=VALUE`` as ``(key, value)``; numeric values are cast."""
    key, sep, value = text.partition("=")
    if not sep or not key:
        raise argparse.ArgumentTypeError(
            f"parameter {text!r} is not KEY=VALUE (e.g. ell=5)"
        )
    for cast in (int, float):
        try:
            return key, cast(value)
        except ValueError:
            continue
    return key, value


def _ledger_label(text: str) -> str:
    """An argparse type: a ledger label that cannot read as an entry index."""
    from repro.monitor.ledger import check_label

    try:
        return check_label(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _at_least(minimum: int):
    """An argparse type: an integer no smaller than ``minimum``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    return parse


def cmd_list(_args: argparse.Namespace) -> int:
    table = Table(
        ["name", "engine", "fast", "wake-up", "paper", "messages", "time"],
        title="Registered algorithms",
    )
    for spec in ALGORITHMS.values():
        table.add_row(
            spec.name,
            "+".join(spec.engines),
            "yes" if spec.has_fast else "-",
            "+".join(spec.wakeup),
            spec.paper_ref,
            spec.messages_formula,
            spec.time_formula,
        )
    print(table.render())
    return 0


def _ids_for(name: str, n: int, params: Dict[str, Any], rng: random.Random) -> Optional[List[int]]:
    if name == "small_id":
        g = int(params.get("g", 1))
        return assign_random(small_universe(n, g), n, rng)
    spec = get_algorithm(name)
    if spec.deterministic:
        return assign_random(tradeoff_universe(n), n, rng)
    return None  # randomized algorithms: default 1..n is fine


def _check_size(n: int, roots: Optional[int], min_n: int, flag: str = "--n") -> None:
    """Reject a clique size (or ``--roots`` count) the workload cannot take."""
    if n < min_n:
        raise UsageError(f"{flag} must be >= {min_n}, got {n}")
    if roots is not None and not 1 <= roots <= n:
        raise UsageError(f"--roots must be in [1, n={n}], got {roots}")


def _check_algorithm(name: str, engine: str, params: Dict[str, Any]) -> Any:
    """One instance of ``name`` for ``engine``, built from ``params``.

    The one place the CLI checks an algorithm: an engine it has no class
    or vectorized port for, or parameters its constructor rejects, are a
    :class:`UsageError` before any run starts.
    """
    spec = get_algorithm(name)
    try:
        if engine == "fast":
            return spec.make_fast(**params)()
        return spec.make(engine=engine, **params)()
    except KeyError as exc:
        raise UsageError(exc.args[0]) from None
    except (TypeError, ValueError, ImportError) as exc:
        raise UsageError(str(exc)) from None


def _seed_results(specs: Iterable[RunSpec]) -> Iterator[Tuple[int, Any]]:
    """``(seed, record)`` for every seed of every spec, in order.

    A seed that hits the engine's step limit yields its
    :class:`SimulationLimitExceeded` in place of a record, so one stalled
    seed never aborts the rest (a batched chunk of lanes stalls whole).
    """
    for spec in specs:
        size = spec.batch or 1
        for start in range(0, len(spec.seeds), size):
            chunk = spec.seeds[start : start + size]
            try:
                records = execute_spec(dataclasses.replace(spec, seeds=chunk))
            except SimulationLimitExceeded as exc:
                records = [exc] * len(chunk)
            yield from zip(chunk, records)


def _stalled_row(table: Table, seed: int, exc: SimulationLimitExceeded) -> None:
    """The row of a seed that never terminated: STALLED and the reason."""
    table.add_row(seed, "STALLED", *["-"] * (len(table.columns) - 3), str(exc))


def _wake_fields(engine: str, roots: Optional[Iterable[int]]) -> Dict[str, Any]:
    """The RunSpec wake-up field ``engine`` reads for these initial roots."""
    if engine == "async":
        return {} if roots is None else {"wake_times": {u: 0.0 for u in roots}}
    return {"awake" if engine == "sync" else "roots": roots}


def _run_workload(args, spec, params, engine: str, seed: int):
    """IDs and RunSpec wake-up fields of one ``repro run`` seed.

    One RNG per seed draws the IDs first and then the ``--roots`` set,
    whatever the engine, so sync, async and fast runs of a seed share
    both.
    """
    rng = random.Random(f"cli:{args.n}:{seed}")
    ids = _ids_for(args.name, args.n, params, rng)
    roots = None
    if args.roots is not None:
        roots = rng.sample(range(args.n), args.roots)
    if engine == "async":
        if spec.wakeup == ("simultaneous",):
            roots = range(args.n)
    elif roots is None and spec.wakeup == ("adversarial",):
        roots = [0]
    return ids, _wake_fields(engine, roots)


def cmd_run(args: argparse.Namespace) -> int:
    spec = get_algorithm(args.name)
    engine = spec.engine if args.engine == "auto" else args.engine
    params = dict(args.param)
    algorithm = _check_algorithm(args.name, engine, params)
    if engine == "fast" and args.roots is not None and not algorithm.supports_roots:
        raise UsageError(
            f"the fast port of {spec.name} supports simultaneous "
            "wake-up only (adversarial_2round accepts --roots)"
        )
    if args.batch is not None:
        if engine != "fast":
            raise UsageError("--batch needs --engine fast")
        if args.batch < 1:
            raise UsageError(f"--batch must be >= 1, got {args.batch}")
    if args.trace is not None:
        if args.batch is not None:
            # One batched engine run traces all its lanes (lane-annotated
            # JSONL); more than one chunk would overwrite the file.
            if len(args.seeds) > args.batch:
                raise UsageError(
                    "--trace with --batch records one batched engine "
                    "run; pass at most --batch seeds"
                )
        elif len(args.seeds) != 1:
            raise UsageError("--trace records one run; pass exactly one seed")
    # Deterministic algorithms draw IDs from the tradeoff universe,
    # which needs n >= 2.
    _check_size(args.n, args.roots, 2 if spec.deterministic else 1)
    fault_plan = _partition_plan(args)
    columns = ["seed", "unique leader", "elected id", "messages", "time", "decided"]
    if engine == "fast":
        columns.append("wall s")
    table = Table(
        columns,
        title=f"{spec.name} (n={args.n}, {spec.paper_ref}, engine={engine}) params={params}",
    )
    # Batched lanes share one configuration: the first seed of each
    # chunk fixes the ID assignment (and wake-up set) for its lanes.
    size = args.batch or 1
    specs = []
    for start in range(0, len(args.seeds), size):
        chunk = args.seeds[start : start + size]
        ids, wake = _run_workload(args, spec, params, engine, chunk[0])
        specs.append(RunSpec(
            algorithm=args.name, n=args.n, engine=engine, seeds=tuple(chunk),
            batch=len(chunk) if args.batch else None, params=params, ids=ids,
            faults=fault_plan, max_events=20_000_000 if engine == "async" else None,
            trace=args.trace, **wake,
        ))
    results = list(_seed_results(specs))
    first = results[0][1]
    if args.trace is not None and not isinstance(first, SimulationLimitExceeded):
        kind = "aggregate events" if engine == "fast" else "events"
        print(f"trace: wrote {first.extra['trace']['events']} {kind} to {args.trace}")
    failures = stalled = 0
    for seed, record in results:
        if isinstance(record, SimulationLimitExceeded):
            stalled += 1
            _stalled_row(table, seed, record)
            continue
        failures += not record.unique_leader
        row = [
            record.seed,
            record.unique_leader,
            record.elected_id,
            record.messages,
            record.time,
            record.decided,
        ]
        if engine == "fast":
            row.append(f"{record.extra['wall_time_s']:.3f}")
        table.add_row(*row)
    print(table.render())
    if failures:
        print(f"note: {failures}/{len(args.seeds)} runs failed "
              "(expected occasionally for Monte Carlo algorithms)")
    if stalled:
        print(f"note: {stalled}/{len(args.seeds)} runs stalled at the engine's step limit")
    return 1 if stalled else 0


def cmd_bounds(args: argparse.Namespace) -> int:
    n = args.n
    table = Table(["Table 1 row", "bound at n"], title=f"Paper bounds evaluated at n={n}")
    table.add_row("Thm 3.8 LB, k=2 rounds", bounds.thm38_message_lb(n, 2))
    table.add_row("Thm 3.8 LB, k=5 rounds", bounds.thm38_message_lb(n, 5))
    table.add_row("Thm 3.10 UB, ell=3", bounds.thm310_messages(n, 3))
    table.add_row("Thm 3.10 UB, ell=9", bounds.thm310_messages(n, 9))
    table.add_row("Thm 3.11 LB (n log n)", bounds.thm311_message_lb(n))
    table.add_row("Thm 3.15 UB (d=2, g=1)", bounds.thm315_messages(n, 2, 1))
    table.add_row("AG [1] UB, ell=4", bounds.ag_messages(n, 4))
    table.add_row("AG [1] LB, k=2", bounds.ag_k_round_lb(n, 2))
    table.add_row("[16] MC UB", bounds.kutten16_messages(n))
    table.add_row("[16] LB (sqrt n)", bounds.kutten16_lb(n))
    table.add_row("Thm 3.16 Las Vegas LB", bounds.thm316_las_vegas_lb(n))
    table.add_row("Thm 4.1 UB (eps=0.05)", bounds.thm41_expected_messages(n, 0.05))
    table.add_row("Thm 4.2 LB", bounds.thm42_message_lb(n))
    table.add_row("Thm 5.1 UB, k=2", bounds.thm51_messages(n, 2))
    table.add_row(f"Thm 5.1 UB, k_max={bounds.thm51_max_k(n)}",
                  bounds.thm51_messages(n, bounds.thm51_max_k(n)))
    table.add_row("Thm 5.14 UB (n log n)", bounds.thm514_messages(n))
    table.add_row("[14] reference (n)", bounds.kmp14_messages(n))
    print(table.render())
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    if args.html:
        from repro.obs import write_campaign_report

        path = write_campaign_report(
            args.html,
            ledger_path=args.ledger,
            bench_dirs=tuple(args.bench_dir or ("benchmarks/baselines",)),
            traces=tuple(args.traces or ()),
            top_k=args.top_k,
        )
        print(f"wrote {path}")
        return 0
    from repro.analysis.report import table1_report

    print(table1_report(n=args.n, seeds=args.seeds).render())
    return 0


def _parse_crash(text: str):
    from repro.faults import CrashFault

    try:
        node, at = text.split("@", 1)
        node, at = int(node), float(at)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"crash spec {text!r} is not NODE@WHEN (e.g. 63@2)"
        ) from None
    try:
        return CrashFault(node=node, at=at)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"crash spec {text!r}: {exc}") from None


def _parse_partition(text: str):
    """``CUT@START-END`` (or ``CUT@START``): split {0..CUT-1} from the rest."""
    try:
        cut_text, window = text.split("@", 1)
        cut = int(cut_text)
        if "-" in window:
            start_text, end_text = window.split("-", 1)
            start, end = float(start_text), float(end_text)
        else:
            start, end = float(window), None
        return cut, start, end
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"partition spec {text!r} is not CUT@START-END (e.g. 32@2-6)"
        ) from None


def _partition_plan(args: argparse.Namespace):
    """The ``--partition`` flag as a one-mask :class:`FaultPlan` (or None)."""
    if args.partition is None:
        return None
    from repro.faults import FaultPlan, PartitionMask

    cut, start, end = args.partition
    if not 0 < cut < args.n:
        raise UsageError(f"--partition cut must be in (0, n), got {cut} with n={args.n}")
    try:
        mask = PartitionMask(
            components=(tuple(range(cut)), tuple(range(cut, args.n))),
            start=start,
            end=end,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return FaultPlan(partitions=(mask,))


def _build_fault_plan(args: argparse.Namespace):
    from repro.faults import DetectorSpec, FaultPlan, LeaderKillPolicy, LinkFaults

    links = ()
    if args.drop or args.duplicate:
        links = (
            LinkFaults(
                drop_prob=args.drop,
                duplicate_prob=args.duplicate,
                kinds=tuple(args.drop_kinds) if args.drop_kinds else None,
                max_drops=args.max_drops,
            ),
        )
    elif args.drop_kinds or args.max_drops is not None:
        raise ValueError("--drop-kinds/--max-drops need --drop or --duplicate")
    policies = ()
    if args.kill_leader:
        policies = (
            LeaderKillPolicy(delay=args.kill_delay, max_kills=args.max_kills),
        )
    detector = DetectorSpec(
        kind=args.detector,
        lag=args.lag,
        noise_horizon=args.noise_horizon,
        false_prob=args.false_prob,
    )
    return FaultPlan(
        crashes=tuple(args.crash), links=links, policies=policies, detector=detector
    )


def _faulted_spec(
    engine: str, n: int, algorithm: str, params: Dict[str, Any], plan, seeds,
    roots=None, trace: Optional[str] = None,
) -> RunSpec:
    """Faulted CLI runs; async runs wake every node unless ``roots``.

    A plan the spec refuses (duplicates for an exactly-once async
    election) is a :class:`UsageError`.
    """
    if roots is None and engine == "async":
        roots = range(n)
    try:
        return RunSpec(
            algorithm=algorithm, n=n, engine=engine, seeds=tuple(seeds),
            params=params, faults=plan,
            max_events=20_000_000 if engine == "async" else None,
            trace=trace, **_wake_fields(engine, roots),
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def cmd_faults(args: argparse.Namespace) -> int:
    engine = args.engine or get_algorithm(args.name).engine
    params = dict(args.param)
    _check_size(args.n, args.roots, 1)
    try:
        plan = _build_fault_plan(args)
        plan.validate_for(args.n)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    _check_algorithm(args.name, engine, params)
    table = Table(
        ["seed", "survivor leader", "elected id", "crashes", "detect lat",
         "re-elect time", "messages", "after crash", "time"],
        title=(
            f"faults: {args.name} on {engine} engine "
            f"(n={args.n}) params={params} plan={plan_summary(plan)}"
        ),
    )
    specs = []
    for seed in args.seeds:
        rng = random.Random(f"cli-faults:{args.n}:{seed}")
        roots = None
        if args.roots is not None:
            roots = rng.sample(range(args.n), args.roots)
        specs.append(_faulted_spec(engine, args.n, args.name, params, plan, (seed,), roots))
    failures = 0
    for seed, record in _seed_results(specs):
        if isinstance(record, SimulationLimitExceeded):
            # Crash-oblivious algorithms may stall forever under faults
            # (e.g. waiting on a reply the network dropped).
            failures += 1
            _stalled_row(table, seed, record)
            continue
        failover = record.extra["failover"]
        latencies = failover["detection_latencies"]
        reelection = failover["reelection_time"]
        failures += not record.extra["unique_surviving_leader"]
        table.add_row(
            seed,
            record.extra["unique_surviving_leader"],
            record.extra["surviving_leader_id"],
            len(record.extra["crashed"]),
            f"{sum(latencies) / len(latencies):.2f}" if latencies else "-",
            "-" if reelection is None else f"{reelection:.2f}",
            record.messages,
            failover["messages_after_first_crash"],
            f"{record.time:.2f}",
        )
    print(table.render())
    if failures:
        print(
            f"note: {failures}/{len(args.seeds)} runs ended without a unique "
            "surviving leader"
        )
    return 1 if failures else 0


def _write_json(path: str, payload: Any) -> None:
    from repro.analysis.export import dump_json

    dump_json(path, payload)


def cmd_scenarios_list(_args: argparse.Namespace) -> int:
    from repro.scenarios import NAMED_SCENARIOS, get_scenario

    table = Table(
        ["name", "timeline", "description"], title="Named scenarios (n=64 preview)"
    )
    for name in sorted(NAMED_SCENARIOS):
        scenario = get_scenario(name, 64)
        table.add_row(name, scenario.summary(), scenario.description)
    print(table.render())
    return 0


def _scenario_source(text: str) -> str:
    """Argparse validator: a named scenario or a JSON timeline file."""
    import os

    from repro.scenarios import NAMED_SCENARIOS

    if text in NAMED_SCENARIOS or text.endswith(".json") or os.path.exists(text):
        return text
    known = ", ".join(sorted(NAMED_SCENARIOS))
    raise argparse.ArgumentTypeError(
        f"unknown scenario {text!r}; known scenarios: {known} "
        "(or pass a path to a .json timeline)"
    )


def _load_scenario(name: str, n: int):
    """Resolve a CLI scenario argument: library name or JSON file."""
    from repro.scenarios import NAMED_SCENARIOS, get_scenario, scenario_from_json

    if name in NAMED_SCENARIOS:
        return get_scenario(name, n)
    return scenario_from_json(name)


def cmd_scenarios_run(args: argparse.Namespace) -> int:
    from repro.scenarios import ScenarioRunner, ScenarioSchemaError, scenario_report

    trace_recorder = None
    if args.trace is not None:
        from repro.telemetry import JsonlRecorder, RunContext

        trace_recorder = JsonlRecorder(
            args.trace,
            context=RunContext(
                scenario=args.name, n=args.n, seed=args.seed, engine=args.engine,
            ),
        )
    try:
        scenario = _load_scenario(args.name, args.n)
        runner = ScenarioRunner(
            scenario,
            args.n,
            engine=args.engine,
            seed=args.seed,
            inner=args.inner,
            lag=args.lag,
            quorum=args.quorum,
            recorder=trace_recorder,
        )
    except (ScenarioSchemaError, KeyError, ValueError) as exc:
        if trace_recorder is not None:
            trace_recorder.close()
        raise UsageError(str(exc)) from None
    result = runner.run()
    if trace_recorder is not None:
        trace_recorder.close()
        print(f"trace: wrote {trace_recorder.events_written} events to {args.trace}")
    metrics = result.metrics
    table = Table(
        ["epoch", "trigger", "t_event", "t_start", "duration", "leader(s)",
         "messages", "failover"],
        title=(
            f"scenario {scenario.name} on {args.engine} engine "
            f"(n={args.n}, seed={args.seed}, inner={runner.inner})"
        ),
    )
    for e in result.epochs:
        table.add_row(
            e.epoch,
            e.trigger,
            e.t_event,
            e.t_start,
            e.duration,
            "+".join(str(i) for i in e.leader_ids) or "-",
            e.messages,
            f"{e.failover_latency:.1f}" if e.trigger != "initial" else "-",
        )
    print(table.render())
    mean_failover = metrics.mean_failover_latency
    print(
        f"elections={metrics.elections} epoch_churn={metrics.epoch_churn} "
        f"mean_failover_latency="
        f"{'-' if mean_failover is None else f'{mean_failover:.2f}'} "
        f"agreed_fraction={metrics.agreed_fraction:.2f} "
        f"message_overhead={metrics.message_overhead:.2f}x "
        f"split_brain_acts={metrics.split_brain_acts}"
    )
    print(
        f"final leader: {metrics.final_leader_id} "
        f"({'agreed by all up nodes' if metrics.final_agreed else 'NO AGREEMENT'})"
    )
    for note in result.notes:
        print(f"note: {note}")
    if args.json:
        _write_json(args.json, scenario_report(result))
    return 0 if metrics.final_agreed else 1


def cmd_scenarios_sweep(args: argparse.Namespace) -> int:
    from repro.scenarios import ScenarioRunner, ScenarioSchemaError, scenario_to_json
    from repro.sweep.scheduler import SweepCell, run_cells
    from repro.sweep.worker import scenario_cell

    table = Table(
        ["n", "seed", "elections", "epoch churn", "mean failover",
         "agreed frac", "messages", "overhead", "final agreed"],
        title=f"scenario sweep: {args.name} on {args.engine} engine",
    )
    metrics_out: Dict[str, Any] = {}
    failures = 0
    progress = None
    if args.progress:
        from repro.monitor import SweepProgress

        progress = SweepProgress(live=True)
    # One (n, seed) cell per run: the scenario crosses into the cell as
    # its JSON timeline and replays with the same per-seed RNG streams,
    # so the table is identical for every --workers.
    cells = []
    keys = []
    try:
        for n in args.ns:
            scenario = _load_scenario(args.name, n)
            # Construction validates n, engine, inner and lag up front.
            ScenarioRunner(
                scenario, n, engine=args.engine, inner=args.inner,
                lag=args.lag, quorum=args.quorum,
            )
            scenario_json = scenario_to_json(scenario)
            for seed in args.seeds:
                payload = (
                    scenario_json, n, seed, args.engine,
                    args.inner, args.lag, args.quorum,
                )
                cells.append(SweepCell(index=len(cells), cost=n, payload=payload))
                keys.append((n, seed))
    except (ScenarioSchemaError, KeyError, ValueError) as exc:
        raise UsageError(str(exc)) from None
    values = run_cells(cells, scenario_cell, workers=args.workers, progress=progress)
    for (n, seed), m in zip(keys, values):
        failures += not m["final_agreed"]
        mean_failover = m["mean_failover_latency"]
        table.add_row(
            n, seed, m["elections"], m["epoch_churn"],
            "-" if mean_failover is None else f"{mean_failover:.2f}",
            f"{m['agreed_fraction']:.2f}", m["total_messages"],
            f"{m['message_overhead']:.2f}", m["final_agreed"],
        )
        key = f"n={n}/seed={seed}"
        metrics_out[f"{key}/messages"] = m["total_messages"]
        metrics_out[f"{key}/epoch_churn"] = m["epoch_churn"]
        if mean_failover is not None:
            metrics_out[f"{key}/mean_failover_latency"] = mean_failover
    print(table.render())
    if args.json:
        _write_json(
            args.json,
            {"scenario": args.name, "engine": args.engine, "metrics": metrics_out},
        )
    if failures:
        print(f"note: {failures} run(s) ended without an agreed leader")
    return 1 if failures else 0


def _parse_slander(text: str):
    """``ACCUSER:VICTIM@START[-END]`` -> SlanderWindow (e.g. ``0:8@5-60``)."""
    from repro.adversary import SlanderWindow

    try:
        nodes, window = text.split("@", 1)
        accuser, victim = nodes.split(":", 1)
        if "-" in window:
            start, end = window.split("-", 1)
            end_val = float(end) if end else None
        else:
            start, end_val = window, None
        accuser_i, victim_i, start_f = int(accuser), int(victim), float(start)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"slander spec {text!r} is not ACCUSER:VICTIM@START[-END] (e.g. 0:8@5-60)"
        ) from None
    try:
        # Semantic errors (self-slander, end before start) keep their own
        # messages instead of being misreported as format errors.
        return SlanderWindow(
            accuser=accuser_i, victims=(victim_i,), start=start_f, end=end_val
        )
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_tamper(text: str):
    """``MODE[:KIND,KIND...]`` -> TamperRule (e.g. ``forge:compete``)."""
    from repro.adversary import TamperRule

    mode, _, kinds = text.partition(":")
    try:
        return TamperRule(
            mode=mode, kinds=tuple(kinds.split(",")) if kinds else None
        )
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _build_adversary_plan(args: argparse.Namespace):
    from repro.adversary import AdversaryPlan

    if not args.byzantine and not args.slander and not args.tamper:
        return None
    return AdversaryPlan(
        byzantine=tuple(args.byzantine),
        tampers=tuple(args.tamper),
        slanders=tuple(args.slander),
    )


def _adversary_algorithm(args: argparse.Namespace) -> Tuple[str, Dict[str, Any]]:
    """The re-election wrapper ``adversary`` runs, checked: name, params."""
    params: Dict[str, Any] = {"inner": args.inner} if args.inner else {}
    name = "reelect"
    if not args.no_quorum:
        name, params["threshold"] = "quorum_reelect", args.threshold
    _check_algorithm(name, args.engine, params)
    return name, params


def cmd_adversary_run(args: argparse.Namespace) -> int:
    from repro.faults import DetectorSpec, FaultPlan

    if args.trace is not None and len(args.seeds) != 1:
        raise UsageError("--trace records one run; pass exactly one seed")
    try:
        plan = FaultPlan(
            crashes=tuple(args.crash),
            detector=DetectorSpec(kind="perfect", lag=args.lag),
            adversary=_build_adversary_plan(args),
        )
        plan.validate_for(args.n)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    algo, params = _adversary_algorithm(args)
    table = Table(
        ["seed", "survivor leader", "elected id", "crashes", "tampered",
         "messages", "time"],
        title=(
            f"adversary: {algo} on {args.engine} engine (n={args.n}) "
            f"byzantine={sorted(set(args.byzantine))} "
            f"slanders={len(args.slander)} tampers={len(args.tamper)} "
            f"crashes={len(args.crash)}"
        ),
    )
    spec = _faulted_spec(
        args.engine, args.n, algo, params, plan, args.seeds, trace=args.trace
    )
    results = list(_seed_results([spec]))
    first = results[0][1]
    if args.trace is not None and not isinstance(first, SimulationLimitExceeded):
        print(f"trace: wrote {first.extra['trace']['events']} events to {args.trace}")
    failures = 0
    for seed, record in results:
        if isinstance(record, SimulationLimitExceeded):
            failures += 1
            _stalled_row(table, seed, record)
            continue
        fm = record.extra["fault_metrics"]
        failures += not record.extra["unique_surviving_leader"]
        table.add_row(
            seed,
            record.extra["unique_surviving_leader"],
            record.extra["surviving_leader_id"],
            len(record.extra["crashed"]),
            fm.tampered_messages,
            record.messages,
            f"{record.time:.2f}",
        )
    print(table.render())
    if failures:
        print(
            f"note: {failures}/{len(args.seeds)} runs ended without a unique "
            "surviving leader"
        )
    return 1 if failures else 0


def cmd_adversary_sweep(args: argparse.Namespace) -> int:
    """Honest vs Byzantine overhead curve (EXPERIMENTS.md S3)."""
    from repro.adversary import AdversaryPlan, SlanderWindow, TamperRule
    from repro.faults import CrashFault, DetectorSpec, FaultPlan

    table = Table(
        ["n", "f", "honest msgs", "byz msgs", "overhead", "honest time",
         "byz time", "converged"],
        title=f"adversary sweep: honest vs Byzantine quorum_reelect "
        f"({args.engine} engine, mode={args.mode})",
    )
    algo, params = _adversary_algorithm(args)
    metrics_out: Dict[str, Any] = {}
    failures = 0
    for n in args.ns:
        f = max(1, min(args.f, (n - 1) // 2 - 1)) if args.f else max(1, n // 4)
        f = min(f, (n - 1) // 2)
        if args.mode in ("slander", "both") and f < 1:
            print(f"note: n={n} is too small for a slander sweep point; skipped",
                  file=sys.stderr)
            continue
        tampers = ()
        slanders = ()
        if args.mode in ("forge", "both"):
            tampers = (TamperRule(mode="forge", kinds=("compete",)),)
        if args.mode in ("slander", "both"):
            # Byzantine node 0 slanders the f top-ID nodes from t=2 on.
            slanders = (
                SlanderWindow(
                    accuser=0, victims=tuple(range(n - f, n)), start=2.0
                ),
            )
        detector = DetectorSpec(kind="perfect", lag=args.lag)
        crashes = (CrashFault(node=1, at=4.0),) if args.crash_one else ()
        try:
            adversary = AdversaryPlan(byzantine=(0,), tampers=tampers, slanders=slanders)
            honest_plan = FaultPlan(crashes=crashes, detector=detector)
            byz_plan = FaultPlan(crashes=crashes, detector=detector, adversary=adversary)
            byz_plan.validate_for(n)
        except ValueError as exc:
            raise UsageError(f"n={n}: {exc}") from None
        honest, byz = (
            [record for _seed, record in _seed_results(
                [_faulted_spec(args.engine, n, algo, params, plan, args.seeds)]
            )]
            for plan in (honest_plan, byz_plan)
        )
        # The plain wrapper (--no-quorum) legitimately stalls under
        # slander; a stalled seed fails the sweep point instead of
        # killing the whole sweep.
        pairs = [
            (h, b)
            for h, b in zip(honest, byz)
            if not isinstance(h, SimulationLimitExceeded)
            and not isinstance(b, SimulationLimitExceeded)
        ]
        converged = len(pairs) == len(honest) and all(
            h.extra["unique_surviving_leader"] and b.extra["unique_surviving_leader"]
            for h, b in pairs
        )
        failures += not converged
        if not pairs:
            table.add_row(n, f, "-", "-", "STALLED", "-", "-", converged)
            continue
        hm = sum(h.messages for h, _ in pairs) / len(pairs)
        bm = sum(b.messages for _, b in pairs) / len(pairs)
        overhead = bm / max(hm, 1.0)
        table.add_row(
            n, f, f"{hm:.0f}", f"{bm:.0f}", f"{overhead:.2f}x",
            f"{sum(h.time for h, _ in pairs) / len(pairs):.1f}",
            f"{sum(b.time for _, b in pairs) / len(pairs):.1f}", converged,
        )
        metrics_out[f"n={n}/honest_messages"] = hm
        metrics_out[f"n={n}/byzantine_messages"] = bm
        metrics_out[f"n={n}/overhead"] = round(overhead, 4)
    print(table.render())
    if args.json:
        _write_json(
            args.json,
            {"engine": args.engine, "mode": args.mode, "metrics": metrics_out},
        )
    if failures:
        print(f"note: {failures} sweep point(s) failed to converge")
    return 1 if failures else 0


def cmd_trace_record(args: argparse.Namespace) -> int:
    """`repro trace record NAME -o PATH` == `repro run NAME --trace PATH`."""
    args.seeds, args.trace, args.batch = [args.seed], args.out, None
    return cmd_run(args)


def _load_trace(path: str):
    from repro.telemetry import TraceSchemaError, load_trace

    try:
        return load_trace(path)
    except (OSError, TraceSchemaError) as exc:
        raise UsageError(str(exc)) from None


def _trace_banner(path: str, trace) -> str:
    context = ", ".join(f"{k}={v!r}" for k, v in sorted(trace.context.items()))
    return f"{path}: schema {trace.schema}" + (f" [{context}]" if context else "")


def cmd_trace_inspect(args: argparse.Namespace) -> int:
    from repro.telemetry import filter_lane, render_timeline, trace_lanes

    trace = _load_trace(args.path)
    print(_trace_banner(args.path, trace))
    full_trace = trace
    if args.lane is not None:
        lanes = trace_lanes(trace)
        if args.lane not in (lanes or [0]):
            raise UsageError(f"lane {args.lane} not in this trace (lanes: {lanes})")
        trace = filter_lane(trace, args.lane)
        if lanes:
            print(f"lane {args.lane} of lanes {lanes}")
    selected = list(zip(trace.events, trace.annotations))
    if args.kind:
        selected = [(e, a) for e, a in selected if e.kind in args.kind]
    if args.node is not None:
        selected = [(e, a) for e, a in selected if e.node == args.node]
    shown = selected if args.limit == 0 else selected[: args.limit]
    for e, a in shown:
        ann = ""
        if a:
            ann = "  [" + " ".join(f"{k}={v}" for k, v in sorted(a.items())) + "]"
        print(f"t={e.when:<8g} node={e.node:<5} {e.kind:<8} {e.detail!r}{ann}")
    if len(shown) < len(selected):
        print(f"... {len(selected) - len(shown)} more matching events (raise --limit)")
    print(f"{len(selected)} of {len(trace.events)} events matched")
    if args.timeline:
        print()
        print(render_timeline(full_trace, lane=args.lane))
    return 0


def cmd_trace_stats(args: argparse.Namespace) -> int:
    from dataclasses import asdict

    from repro.telemetry import trace_stats

    trace = _load_trace(args.path)
    s = trace_stats(trace)
    print(_trace_banner(args.path, trace))
    print(
        f"events: {s.events}  nodes: {s.nodes}  rounds: {s.rounds}  "
        f"messages: {s.messages}"
    )
    if s.first_when is not None:
        print(f"span: t={s.first_when:g} .. t={s.last_when:g}")
    print(
        "events by kind: "
        + (", ".join(f"{k}={v}" for k, v in s.by_kind.items()) or "-")
    )
    print(
        "payload kinds:  "
        + (", ".join(f"{k}={v}" for k, v in s.payload_kinds.items()) or "-")
    )
    print(f"decides: {s.decides}  crashes: {s.crashes}  tampered: {s.tampered}")
    if args.json:
        _write_json(args.json, {"context": trace.context, "stats": asdict(s)})
    return 0


def cmd_trace_diff(args: argparse.Namespace) -> int:
    from dataclasses import asdict

    from repro.telemetry import diff_traces

    diff = diff_traces(_load_trace(args.a), _load_trace(args.b))
    print(diff.summary())
    for line in diff.context_diffs:
        print(f"  {line}")
    for line in diff.notes:
        print(f"  {line}")
    if args.json:
        _write_json(
            args.json,
            {
                "a": args.a,
                "b": args.b,
                "summary": diff.summary(),
                "diff": asdict(diff),
            },
        )
    return 0 if diff.identical else 1


def cmd_trace_causal(args: argparse.Namespace) -> int:
    from repro.telemetry import build_graph, critical_path, explain

    trace = _load_trace(args.path)
    graph = build_graph(trace)
    path = critical_path(trace, graph)
    print(explain(trace, graph=graph))
    if args.json:
        _write_json(
            args.json,
            {
                "context": trace.context,
                "events": len(trace.events),
                "message_edges": len(graph.message_edges),
                "max_clock": max(graph.clocks, default=0),
                "critical_path": {
                    "hops": [hop.label() for hop in path.hops],
                    "via": [hop.via for hop in path.hops],
                    "span": path.span,
                    "round_length": path.round_length,
                    "decide_round": path.decide_round,
                    "message_hops": path.message_hops,
                    "messages_by_kind": dict(path.messages_by_kind),
                    "messages_by_act": dict(path.messages_by_act),
                    "clock": path.clock,
                },
            },
        )
    return 0


#: Fault-free ``monitor check`` defaults: every sync algorithm with a
#: registered theory envelope (small_id needs its ID-density parameter).
_MONITOR_DEFAULT_ALGORITHMS = [
    "improved_tradeoff",
    "afek_gafni",
    "small_id",
    "kutten16",
    "las_vegas",
    "adversarial_2round",
]
_MONITOR_DEFAULT_PARAMS: Dict[str, Dict[str, Any]] = {"small_id": {"d": 4}}


def _monitored_sweep(args: argparse.Namespace, cli: str):
    """The spec grid and :class:`SweepMonitor` of ``monitor check`` / ``top``."""
    from repro.monitor import SweepMonitor

    specs = []
    for name in args.algorithms:
        algo = get_algorithm(name)
        params = {**_MONITOR_DEFAULT_PARAMS.get(name, {}), **dict(args.param)}
        _check_algorithm(name, algo.engine, params)
        for n in args.ns:
            _check_size(n, None, 2 if algo.deterministic else 1, flag="--ns")
            rng = random.Random(f"{name}:{n}:monitor")
            specs.append(RunSpec(
                algorithm=name, n=n, engine=algo.engine, seeds=tuple(args.seeds),
                params=params, ids=_ids_for(name, n, params, rng),
            ))
    monitor = SweepMonitor(
        slack=args.slack, ledger=args.ledger, label=args.label,
        context={"cli": cli, "ns": list(args.ns)},
    )
    return specs, monitor


def cmd_monitor_check(args: argparse.Namespace) -> int:
    from repro.analysis import sweep
    from repro.monitor import SweepProgress

    specs, monitor = _monitored_sweep(args, "monitor check")
    progress = SweepProgress(live=True) if args.progress else None
    records = sweep(
        specs, workers=args.workers, monitor=monitor, progress=progress
    )
    table = Table(
        ["algorithm", "paper", "runs", "conforming", "violations"],
        title=f"monitored sweep (ns={list(args.ns)}, seeds={list(args.seeds)})",
    )
    runs = Counter(record.extra.get("algorithm", "?") for record in records)
    failures = Counter(failure.algorithm for failure in monitor.conformance.failures)
    violations = Counter(v.context.get("algorithm", "?") for v in monitor.violations)
    for name in args.algorithms:
        envelope = get_algorithm(name).envelope
        table.add_row(
            name,
            envelope.paper_ref if envelope else "-",
            runs[name],
            runs[name] - failures[name],
            violations[name],
        )
    print(table.render())
    print(monitor.summary())
    if monitor.ledger_path:
        print(f"ledger: appended to {monitor.ledger_path}")
    if args.records:
        from repro.analysis.export import records_to_jsonl

        with open(args.records, "w") as fh:
            fh.write(records_to_jsonl(records))
        print(f"wrote {args.records}")
    if args.json:
        _write_json(args.json, monitor.as_dict())
    return 0 if monitor.ok else 1


def cmd_history(args: argparse.Namespace) -> int:
    from repro.monitor import DEFAULT_LEDGER_PATH, read_ledger

    args.ledger = args.ledger or DEFAULT_LEDGER_PATH
    entries = read_ledger(args.ledger)
    if entries.torn:
        print(
            f"warning: skipped {entries.torn} torn line(s) in {args.ledger}",
            file=sys.stderr,
        )
    if not entries:
        print(f"ledger {args.ledger} is empty")
        return 0
    shown = entries if args.limit == 0 else entries[-args.limit :]
    offset = len(entries) - len(shown)
    table = Table(
        ["#", "when", "git", "label", "runs", "viol", "conform", "wall"],
        title=f"run ledger: {args.ledger} ({len(entries)} entries)",
    )
    import datetime

    for i, entry in enumerate(shown):
        ts = entry.get("ts")
        when = (
            datetime.datetime.fromtimestamp(ts).strftime("%Y-%m-%d %H:%M")
            if isinstance(ts, (int, float))
            else "-"
        )
        sha = entry.get("git_sha") or "-"
        conformance = entry.get("conformance") or {}
        rate = conformance.get("rate")
        wall = entry.get("wall_time_s")
        table.add_row(
            offset + i,
            when,
            sha[:8] if isinstance(sha, str) else "-",
            entry.get("label") or "-",
            entry.get("runs", "-"),
            len(entry.get("violations") or ()),
            f"{rate:.1%}" if isinstance(rate, (int, float)) else "-",
            f"{wall:.1f}s" if isinstance(wall, (int, float)) else "-",
        )
    print(table.render())
    if args.json:
        _write_json(args.json, {"ledger": args.ledger, "entries": shown})
    return 0


def cmd_history_prune(args: argparse.Namespace) -> int:
    from repro.monitor import DEFAULT_LEDGER_PATH, prune_ledger

    path = args.ledger or DEFAULT_LEDGER_PATH
    try:
        result = prune_ledger(path, keep=args.keep)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    print(
        f"pruned {path}: kept {result['kept']}, dropped {result['dropped']}"
    )
    return 0


def cmd_top(args: argparse.Namespace) -> int:
    from repro.analysis import sweep
    from repro.obs import SweepTop, collect, new_spool_dir

    specs, monitor = _monitored_sweep(args, "top")
    spool = args.spool or new_spool_dir()
    top = SweepTop(monitor=monitor)
    sweep(specs, workers=args.workers, monitor=monitor, progress=top, spool_dir=spool)
    top.finalize(monitor)
    report = collect(spool)
    print(report.summary())
    print(monitor.summary())
    print(f"spool: {spool}")
    if monitor.ledger_path:
        print(f"ledger: appended to {monitor.ledger_path}")
    return 0 if monitor.ok else 1


def cmd_compare(args: argparse.Namespace) -> int:
    from repro.monitor import (
        DEFAULT_LEDGER_PATH,
        compare_entries,
        read_ledger,
        resolve_ref,
    )

    entries = read_ledger(args.ledger or DEFAULT_LEDGER_PATH)
    try:
        base = resolve_ref(entries, args.ref)
        new = resolve_ref(entries, args.to)
    except LookupError as exc:
        raise UsageError(str(exc)) from None
    diff = compare_entries(base, new, slack=args.slack)
    print(diff.summary())
    if args.json:
        _write_json(args.json, diff.to_dict())
    return 1 if diff.regressed else 0


def plan_summary(plan) -> str:
    parts = []
    if plan.crashes:
        parts.append(f"{len(plan.crashes)} crash(es)")
    if plan.policies:
        parts.append("kill-leader")
    if plan.links:
        parts.append("lossy links")
    parts.append(plan.detector.kind)
    return "+".join(parts)


#: The flags several subcommands share, declared once; each subcommand
#: adds its own through :func:`_add_flags`.
_FLAGS: Dict[str, Dict[str, Any]] = {
    "n": {"type": int, "help": "clique size"},
    "ns": {"type": int, "nargs": "+", "help": "clique sizes"},
    "seeds": {"type": int, "nargs": "+", "help": "seeds to run"},
    "param": {
        "type": _param, "action": "append", "default": [], "metavar": "KEY=VALUE",
        "help": "algorithm parameter (repeatable), e.g. --param ell=5",
    },
    "roots": {
        "type": int, "default": None,
        "help": "number of initially awake nodes (default: all)",
    },
    "crash": {
        "type": _parse_crash, "action": "append", "default": [],
        "metavar": "NODE@WHEN",
        "help": "crash node NODE at round/time WHEN (repeatable)",
    },
    "partition": {
        "type": _parse_partition, "default": None, "metavar": "CUT@START-END",
        "help": "split nodes {0..CUT-1} from {CUT..n-1} for rounds "
        "[START, END) with automatic heal (omit -END for a permanent split)",
    },
    "lag": {"type": float, "default": 1.0, "help": "detector detection lag"},
    "inner": {"default": None, "help": "inner election algorithm"},
    "trace": {
        "default": None, "metavar": "PATH",
        "help": "record the run to a JSONL trace (single seed)",
    },
    "json": {
        "default": None, "metavar": "PATH",
        "help": "write the results as JSON ('-' prints to stdout)",
    },
    "workers": {
        "type": _at_least(1), "default": 1, "metavar": "N",
        "help": "shard the sweep over N worker processes (bit-identical to "
        "the sequential sweep)",
    },
    "progress": {
        "action": "store_true",
        "help": "render a live progress line while the sweep runs",
    },
    "ledger": {
        "default": None, "metavar": "PATH",
        "help": "append the sweep to this run ledger (see 'repro history')",
    },
    "label": {
        "type": _ledger_label, "default": None,
        "help": "free-form label for the ledger entry (not all digits: "
        "those refer to entries by index)",
    },
    "slack": {
        "type": float, "default": None,
        "help": "override every envelope's slack constant (default: the "
        "per-envelope calibrated constants)",
    },
}


def _add_flags(parser: argparse.ArgumentParser, **flags: Any) -> None:
    """Add shared flags to ``parser``, one keyword per flag.

    ``True`` adds the table entry as it is, a dict overrides some of its
    keywords, and any other value is the flag's default.
    """
    for name, choice in flags.items():
        kwargs = dict(_FLAGS[name])
        if isinstance(choice, dict):
            kwargs.update(choice)
        elif choice is not True:
            kwargs["default"] = choice
        parser.add_argument("--" + name, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Improved Tradeoffs for Leader Election — reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered algorithms").set_defaults(func=cmd_list)

    run_p = sub.add_parser("run", help="run one algorithm")
    run_p.add_argument("name", choices=sorted(ALGORITHMS))
    _add_flags(
        run_p, n=1024, seeds=[0], param=True,
        roots={"help": "adversarial wake-up: number of initially awake nodes "
               "(on the fast engine only adversarial_2round accepts this)"},
        trace={"help": "record the run to a JSONL trace (single seed; object "
               "engines stream per-message events, the fast engine writes "
               "per-round aggregate counters)"},
        partition=True,
    )
    run_p.add_argument(
        "--engine", choices=["auto", "sync", "async", "fast"], default="auto",
        help="engine override; 'fast' selects the vectorized numpy engine "
        "(every sync algorithm has a port; adversarial_2round also takes "
        "--roots, the rest assume simultaneous wake-up)",
    )
    run_p.add_argument(
        "--batch", type=int, default=None, metavar="LANES",
        help="fast engine only: execute the seeds in batched engine runs of "
        "LANES lanes each (one FastSyncNetwork execution per chunk; lanes "
        "of a chunk share the first seed's ID assignment and roots)",
    )
    run_p.set_defaults(func=cmd_run)

    bounds_p = sub.add_parser("bounds", help="evaluate the Table 1 formulas")
    bounds_p.add_argument("n", type=_at_least(1))
    bounds_p.set_defaults(func=cmd_bounds)

    faults_p = sub.add_parser(
        "faults", help="run one election under a crash/link fault plan"
    )
    faults_p.add_argument("name", choices=sorted(ALGORITHMS))
    _add_flags(
        faults_p, n=64, seeds=[0],
        param={"help": "algorithm parameter (repeatable), e.g. --param inner=afek_gafni"},
        crash=True, lag=True, roots=True,
    )
    faults_p.add_argument(
        "--engine", choices=["sync", "async"], default=None,
        help="engine for monarchical/reelect (default: sync)",
    )
    faults_p.add_argument(
        "--kill-leader", action="store_true",
        help="adversarial churn: crash whoever announces leadership first",
    )
    faults_p.add_argument("--kill-delay", type=float, default=1.0)
    faults_p.add_argument("--max-kills", type=int, default=1)
    faults_p.add_argument("--drop", type=float, default=0.0, help="per-message drop probability")
    faults_p.add_argument(
        "--duplicate", type=float, default=0.0, help="per-message duplication probability"
    )
    faults_p.add_argument(
        "--drop-kinds", nargs="+", default=None, metavar="KIND",
        help="restrict drop/duplicate to these payload kinds "
        "(e.g. ree_coord to stress the commit path only)",
    )
    faults_p.add_argument(
        "--max-drops", type=int, default=None,
        help="bound the total drops (deterministic drop schedules with --drop 1.0)",
    )
    faults_p.add_argument(
        "--detector", choices=["perfect", "eventually_perfect"], default="perfect"
    )
    faults_p.add_argument("--noise-horizon", type=float, default=0.0)
    faults_p.add_argument("--false-prob", type=float, default=0.0)
    faults_p.set_defaults(func=cmd_faults)

    report_p = sub.add_parser(
        "report",
        help="regenerate the paper's Table 1, or (--html) write a static "
        "campaign report",
    )
    _add_flags(
        report_p, n={"type": _at_least(2), "default": 512}, seeds=[0, 1, 2],
        ledger={"help": "ledger feeding the HTML report (default: .repro/ledger.jsonl)"},
    )
    report_p.add_argument(
        "--html", default=None, metavar="OUT.html",
        help="write a self-contained HTML campaign report (ledger history, "
        "tradeoff-vs-envelope scatter, bench baselines, critical paths) "
        "instead of Table 1",
    )
    report_p.add_argument(
        "--bench-dir", action="append", default=None, metavar="DIR",
        help="directory of BENCH_*.json artifacts (repeatable; default: "
        "benchmarks/baselines)",
    )
    report_p.add_argument(
        "--traces", nargs="+", default=None, metavar="PATH",
        help="JSONL traces to rank by critical path in the HTML report",
    )
    report_p.add_argument(
        "--top-k", type=int, default=5,
        help="critical paths to include (default 5)",
    )
    report_p.set_defaults(func=cmd_report)

    from repro.scenarios import NAMED_SCENARIOS

    scen_p = sub.add_parser(
        "scenarios", help="declarative churn timelines (partitions, restarts, joins)"
    )
    scen_sub = scen_p.add_subparsers(dest="scenario_command", required=True)
    scen_sub.add_parser("list", help="list the named scenarios").set_defaults(
        func=cmd_scenarios_list
    )

    def _scenario_run_args(p) -> None:
        p.add_argument(
            "name", type=_scenario_source,
            help=f"named scenario ({', '.join(sorted(NAMED_SCENARIOS))}) "
            "or a path to a JSON timeline file",
        )
        p.add_argument(
            "--engine", choices=["sync", "async", "fast"], default="sync",
            help="engine for every election act (fast: crash/join/elect subset)",
        )
        _add_flags(
            p, lag=True,
            inner={"help": "inner election algorithm (default: afek_gafni sync, "
                   "async_tradeoff async, improved_tradeoff fast)"},
        )
        p.add_argument(
            "--quorum", action="store_true",
            help="majority-quorum commit gating: minority components never "
            "elect (quorum_reelect wrappers for every act)",
        )

    run_scen_p = scen_sub.add_parser(
        "run", help="run one scenario and print per-epoch convergence metrics"
    )
    _scenario_run_args(run_scen_p)
    _add_flags(
        run_scen_p, n={"default": 64, "help": "initial clique size"},
        json={"help": "write the full JSON report ('-' prints to stdout)"},
        trace={"help": "record every act's per-message events to a JSONL trace, "
               "annotated with act/epoch coordinates (sync/async engines only)"},
    )
    run_scen_p.add_argument("--seed", type=int, default=0)
    run_scen_p.set_defaults(func=cmd_scenarios_run)

    sweep_scen_p = scen_sub.add_parser(
        "sweep", help="sweep one scenario over clique sizes and seeds"
    )
    _scenario_run_args(sweep_scen_p)
    _add_flags(
        sweep_scen_p, ns=[32, 64], seeds=[0, 1, 2], workers=True, progress=True,
        json={"help": "write the sweep metrics as JSON ('-' prints to stdout)"},
    )
    sweep_scen_p.set_defaults(func=cmd_scenarios_sweep)

    adv_p = sub.add_parser(
        "adversary",
        help="Byzantine runs: message tampering, detector slander, quorum safety",
    )
    adv_sub = adv_p.add_subparsers(dest="adversary_command", required=True)

    def _adversary_common(p) -> None:
        p.add_argument(
            "--engine", choices=["sync", "async"], default="sync",
            help="object engine for the quorum_reelect wrapper",
        )
        _add_flags(
            p, lag=True,
            inner={"help": "inner election algorithm (default: afek_gafni sync, "
                   "async_tradeoff async)"},
        )
        p.add_argument(
            "--threshold", type=float, default=0.5,
            help="quorum fraction over the full membership (default: majority)",
        )
        p.add_argument(
            "--no-quorum", action="store_true",
            help="run the plain reelect wrapper instead (shows the split-brain "
            "and stall failure modes the quorum layer closes)",
        )

    run_adv_p = adv_sub.add_parser(
        "run", help="one election under a Byzantine adversary plan"
    )
    _adversary_common(run_adv_p)
    _add_flags(
        run_adv_p, n=9, seeds=[0], crash=True,
        trace={"help": "record the run (incl. tamper events) to a JSONL trace "
               "(single seed)"},
    )
    run_adv_p.add_argument(
        "--byzantine", type=int, nargs="+", default=[], metavar="NODE",
        help="adversarial node indices (senders subject to tamper rules)",
    )
    run_adv_p.add_argument(
        "--slander", action="append", default=[], type=_parse_slander,
        metavar="A:V@S[-E]",
        help="slander window: accuser A falsely suspects victim V during "
        "[S, E) (repeatable), e.g. 0:8@5-60",
    )
    run_adv_p.add_argument(
        "--tamper", action="append", default=[], type=_parse_tamper,
        metavar="MODE[:KINDS]",
        help="tamper rule for the byzantine senders: corrupt, forge, replay "
        "or equivocate, optionally limited to payload kinds, e.g. forge:compete",
    )
    run_adv_p.set_defaults(func=cmd_adversary_run)

    sweep_adv_p = adv_sub.add_parser(
        "sweep", help="honest vs Byzantine overhead curve (EXPERIMENTS.md S3)"
    )
    _adversary_common(sweep_adv_p)
    _add_flags(
        sweep_adv_p, ns=[8, 16, 32], seeds=[0, 1, 2],
        json={"help": "write the overhead metrics as JSON ('-' prints to stdout)"},
    )
    sweep_adv_p.add_argument(
        "--mode", choices=["slander", "forge", "both"], default="both",
        help="which Byzantine behaviors the hostile runs carry",
    )
    sweep_adv_p.add_argument(
        "--f", type=int, default=0,
        help="slander victims per run (0 = n/4, capped below n/2)",
    )
    sweep_adv_p.add_argument(
        "--crash-one", action="store_true",
        help="additionally crash one node early in both arms of the sweep",
    )
    sweep_adv_p.set_defaults(func=cmd_adversary_sweep)

    trace_p = sub.add_parser(
        "trace", help="record, inspect, summarize and diff JSONL run traces"
    )
    trace_sub = trace_p.add_subparsers(dest="trace_command", required=True)

    rec_p = trace_sub.add_parser(
        "record", help="run one algorithm and write its trace (= run --trace)"
    )
    rec_p.add_argument("name", choices=sorted(ALGORITHMS))
    _add_flags(
        rec_p, n=64, param=True, roots=True,
        partition={"help": "record under a partition window: split {0..CUT-1} "
                   "from {CUT..n-1} for rounds [START, END), healing at END"},
    )
    rec_p.add_argument("--seed", type=int, default=0)
    rec_p.add_argument(
        "--engine", choices=["auto", "sync", "async", "fast"], default="auto",
        help="engine override (fast traces carry per-round aggregate counters)",
    )
    rec_p.add_argument(
        "-o", "--out", required=True, metavar="PATH", help="trace output path"
    )
    rec_p.set_defaults(func=cmd_trace_record)

    ins_p = trace_sub.add_parser(
        "inspect", help="pretty-print the events of one trace"
    )
    ins_p.add_argument("path", help="trace file written by --trace / trace record")
    ins_p.add_argument(
        "--kind", action="append", default=None, metavar="KIND",
        help="only these event kinds (repeatable), e.g. --kind decide",
    )
    ins_p.add_argument("--node", type=int, default=None, help="only this node")
    ins_p.add_argument(
        "--limit", type=int, default=40, help="max events to print (0 = all)"
    )
    ins_p.add_argument(
        "--timeline", action="store_true",
        help="append an ASCII per-node timeline (rows=nodes, columns=rounds)",
    )
    ins_p.add_argument(
        "--lane", type=int, default=None,
        help="batched fast traces: only this batch lane (see 'run --batch')",
    )
    ins_p.set_defaults(func=cmd_trace_inspect)

    stats_p = trace_sub.add_parser("stats", help="summary statistics of one trace")
    stats_p.add_argument("path", help="trace file")
    _add_flags(stats_p, json=True)
    stats_p.set_defaults(func=cmd_trace_stats)

    diff_p = trace_sub.add_parser(
        "diff", help="localize the first round where two traces part ways"
    )
    diff_p.add_argument("a", help="baseline trace")
    diff_p.add_argument("b", help="candidate trace")
    _add_flags(diff_p, json=True)
    diff_p.set_defaults(func=cmd_trace_diff)

    causal_p = trace_sub.add_parser(
        "causal",
        help="happens-before analysis: Lamport clocks and the critical "
        "path to the decide event",
    )
    causal_p.add_argument("path", help="trace file")
    _add_flags(causal_p, json=True)
    causal_p.set_defaults(func=cmd_trace_causal)

    def _monitored_sweep_args(p) -> None:
        p.add_argument(
            "--algorithms", nargs="+", default=list(_MONITOR_DEFAULT_ALGORITHMS),
            choices=sorted(ALGORITHMS), metavar="NAME",
            help="algorithms to sweep (default: every sync algorithm with a "
            "registered theory envelope)",
        )
        _add_flags(
            p, ns=[32, 64], seeds=[0, 1, 2], slack=True, workers=True,
            ledger=True, label=True,
            param={"help": "algorithm parameter applied to every algorithm "
                   "(repeatable)"},
        )

    mon_p = sub.add_parser(
        "monitor",
        help="online invariant monitors and theory-bound conformance",
    )
    mon_sub = mon_p.add_subparsers(dest="monitor_command", required=True)
    check_p = mon_sub.add_parser(
        "check",
        help="monitored fault-free sweep: invariants + envelope conformance",
    )
    _monitored_sweep_args(check_p)
    _add_flags(
        check_p, progress=True,
        json={"help": "write the monitor report as JSON ('-' prints to stdout)"},
    )
    check_p.add_argument(
        "--records", default=None, metavar="PATH",
        help="also write the raw records as JSONL",
    )
    check_p.set_defaults(func=cmd_monitor_check)

    top_p = sub.add_parser(
        "top",
        help="live per-worker dashboard over a monitored sweep with "
        "telemetry spooling",
    )
    _monitored_sweep_args(top_p)
    top_p.add_argument(
        "--spool", default=None, metavar="DIR",
        help="telemetry spool directory (default: a fresh "
        ".repro/obs/<sweep-id>/)",
    )
    top_p.set_defaults(func=cmd_top)

    ledger_file = {"help": "ledger file (default: .repro/ledger.jsonl)"}
    hist_p = sub.add_parser(
        "history",
        help="list or prune the persistent run ledger (.repro/ledger.jsonl)",
    )
    _add_flags(
        hist_p, ledger=ledger_file,
        json={"help": "write the shown entries as JSON ('-' prints to stdout)"},
    )
    hist_p.add_argument(
        "--limit", type=int, default=10, help="entries to show (0 = all)"
    )
    hist_p.set_defaults(func=cmd_history)
    hist_sub = hist_p.add_subparsers(dest="history_command", required=False)
    prune_p = hist_sub.add_parser(
        "prune", help="keep only the newest N entries of the ledger"
    )
    prune_p.add_argument(
        "--keep", type=int, required=True, metavar="N",
        help="entries to keep (0 empties the ledger)",
    )
    _add_flags(prune_p, ledger=ledger_file)
    prune_p.set_defaults(func=cmd_history_prune)

    cmp_p = sub.add_parser(
        "compare",
        help="diff message/round distributions between two ledger entries",
    )
    cmp_p.add_argument(
        "ref", help="base entry: ledger index (0 oldest, -2 previous), label "
        "or git-SHA/spec-hash prefix of 4+ characters",
    )
    cmp_p.add_argument(
        "--to", default="-1", metavar="REF",
        help="entry to compare against the base (default: latest)",
    )
    _add_flags(
        cmp_p, ledger=ledger_file,
        slack={"default": 0.10,
               "help": "relative mean-message growth tolerated before the exit "
               "status flags a regression (default 10%%)"},
        json={"help": "write the comparison as JSON ('-' prints to stdout)"},
    )
    cmp_p.set_defaults(func=cmd_compare)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
