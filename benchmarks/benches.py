"""The benchmark suite, declared in one place and run by ``run.py``.

``BENCHES`` maps each bench name to its run, its shape checks and, for
the CI-gated benches, its smoke size and regression metrics.  A bench
regenerates a row-group of the paper's Table 1 (T1.x), one of the two
tradeoff-frontier figures (F1, F2) or a system bench (CH1, S1-S8);
EXPERIMENTS.md maps the IDs to bench names.

A run takes its full size from its keyword defaults (``smoke`` overrides
them) and returns ``{results name: (table, rows)}``.  The driver prints
each table and persists it as ``benchmarks/results/<name>.txt``, hands
the rows to the bench's check — fitted exponents, orderings, bound
domination, and wall-clock budgets in full mode only — and, with
``--json``, to its metrics: the seed-deterministic values
``check_regression.py`` gates against ``baselines/``.  Wall times ride
in the ungated ``info``.

Benches over registry algorithms declare ``RunSpec`` grids and run each
through one :func:`repro.sweep.sweep`; the lower-bound experiments and
the system benches call their experiment functions.
"""

import math
import os
import random
import tempfile
import time
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Optional

from repro.adversary import AdversaryPlan, SlanderWindow, TamperRule
from repro.analysis import Table, canonical_record, execute_spec, fit_polylog, fit_power_law, run
from repro.asyncnet import PerLinkDelayScheduler, RushScheduler, UnitDelayScheduler
from repro.core import ImprovedTradeoffElection
from repro.faults import (
    AsyncMonarchicalElection,
    AsyncReElectionElection,
    CrashFault,
    DetectorSpec,
    FaultPlan,
    LeaderKillPolicy,
    MonarchicalElection,
    ReElectionElection,
)
from repro.ids import assign_random, small_universe, tradeoff_universe
from repro.lowerbound import (
    bounds,
    run_under_capacity_adversary,
    single_send_factory,
    wakeup_success_rate,
)
from repro.lowerbound.flood_experiment import flood_sweep
from repro.mathutil import ceil_sqrt
from repro.net.ports import CanonicalPortMap
from repro.scenarios import ScenarioRunner, get_scenario
from repro.sweep import RunSpec, sweep
from repro.sync.engine import SyncNetwork
from repro.telemetry.metrics import MetricsRegistry

#: Byzantine over honest messages (every mode).
MAX_OVERHEAD = 3.0
#: Per-seed speedup of the vectorized fault runtime over the object engine (every mode).
MIN_FAST_SPEEDUP = 3.0
#: Full-mode wall-clock budgets: the spooled sweep over the unspooled one;
#: telemetry or monitoring off over an interleaved reference, and on over off.
MAX_SPOOL_RATIO = 1.15
MAX_OFF_RATIO = 1.05
MAX_ON_RATIO = 1.15
#: Full-mode sharded speedup at 4 workers, asserted on hosts with MIN_CORES cores.
MIN_SHARDED_SPEEDUP = 2.5
MIN_CORES = 4


@dataclass(frozen=True)
class Bench:
    """One declared bench; see the module docstring for the protocol."""

    run: Callable[..., Dict[str, Any]]
    check: Callable[[Dict[str, Any], bool], None]
    smoke: Optional[Dict[str, Any]] = None
    metrics: Optional[Callable[[Dict[str, Any]], tuple]] = None


def _grid(specs):
    """Run a spec grid in one sweep; the records of each spec in turn."""
    specs = list(specs)
    records = iter(sweep(specs))
    return [[next(records) for _ in spec.seeds] for spec in specs]


def _mean(values):
    values = list(values)
    return sum(values) / len(values)


def _median(values):
    return sorted(values)[len(values) // 2]


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    value = fn(*args, **kwargs)
    return value, time.perf_counter() - t0


def _tradeoff_ids(n):
    return assign_random(tradeoff_universe(n), n, random.Random(f"{n}:0:workload"))


def _simultaneous(n):
    return {u: 0.0 for u in range(n)}


def _async_spec(n, k, seeds, **params):
    return RunSpec(algorithm="async_tradeoff", n=n, engine="async", seeds=tuple(seeds),
                   params={"k": k, **params}, max_events=8_000_000)


# --------------------------------------------------------------------- #
# Table 1, synchronous: T1.1-T1.9 and figure F1


def thm38_lowerbound(n=4096, ks=(2, 3, 4, 5, 7)):
    """T1.1 + T1.5: the Theorem 3.8 floor three ways — next to Afek-Gafni's
    LB and the Thm 3.10 UB, under both deterministic algorithms, and as
    the Lemma 3.9 adversary's component growth."""
    formulas = Table(
        ["k (rounds)", "Thm 3.8 LB", "AG [1] LB", "Thm 3.10 UB (ell=k)", "LB/UB gap"],
        title=f"Theorem 3.8 vs Afek-Gafni lower bounds and the Thm 3.10 upper bound, n={n}",
    )
    for k in ks:
        lb = bounds.thm38_message_lb(n, k)
        ub = bounds.thm310_messages(n, k) if k % 2 == 1 else float("nan")
        formulas.add_row(k, lb, bounds.ag_k_round_lb(n, k), ub, ub / lb)
    specs = [
        RunSpec(algorithm=name, n=m, engine="sync", params={"ell": ell}, ids=_tradeoff_ids(m))
        for name, ells in (("improved_tradeoff", (3, 5, 7)), ("afek_gafni", (4, 6)))
        for ell in ells
        for m in (1024, 4096)
    ]
    dominance = Table(
        ["algorithm", "ell", "n", "measured msgs", "Thm 3.8 LB at its round count"],
        title="No deterministic algorithm beats the Theorem 3.8 floor",
    )
    rows = []
    for spec, (rec,) in zip(specs, _grid(specs)):
        label = "thm310" if spec.algorithm == "improved_tradeoff" else spec.algorithm
        rows.append((label, spec.params["ell"], rec.n, rec.messages,
                     bounds.thm38_message_lb(rec.n, int(rec.time))))
        dominance.add_row(*rows[-1])
    growth = Table(
        ["n", "ell", "round", "largest component", "growth factor"],
        title="Lemma 3.9 adversary: component growth under capacity-first routing",
    )
    traces = []
    for m, ell in ((256, 5), (1024, 5)):
        result, trace = run_under_capacity_adversary(
            m, lambda: ImprovedTradeoffElection(ell=ell), seed=0
        )
        prev = 1
        for r in trace.rounds:
            largest = trace.largest_by_round.get(r, prev)
            growth.add_row(m, ell, r, largest, largest / prev)
            prev = largest
        traces.append((result, trace))
        growth.add_section(
            f"n={m}: majority component at round {trace.rounds_to_majority()} "
            f"of {result.last_send_round} send rounds"
        )
    return {
        "thm38_lowerbound_formulas": (formulas, n),
        "thm38_dominance": (dominance, rows),
        "thm38_adversary_growth": (growth, traces),
    }


def check_thm38_lowerbound(rows, full):
    n = rows["thm38_lowerbound_formulas"]
    # Section 1.2: polynomially stronger for constant k...
    assert bounds.thm38_message_lb(n, 2) > bounds.ag_k_round_lb(n, 2)
    # ...but AG wins a Theta(log n) factor at k = Theta(log n).
    k_log = int(math.log2(n))
    assert bounds.ag_k_round_lb(n, k_log) > bounds.thm38_message_lb(n, k_log)
    for algo, ell, m, measured, lb in rows["thm38_dominance"]:
        assert measured >= lb, (algo, ell, m, measured, lb)
    for result, trace in rows["thm38_adversary_growth"]:
        assert result.unique_leader  # the adversary cannot break correctness
        # Corollary 3.7: termination needs a majority component, which
        # the adversary delays to the final broadcast round.
        majority_round = trace.rounds_to_majority()
        assert majority_round is not None
        assert majority_round >= result.last_send_round - 1


def thm38_flood_curve(n=512, fs=(4, 8, 16, 32, 64)):
    """T1.1, empirical: uniform flooding at f messages/node/round against
    the capacity adversary reaches a majority component no sooner than
    the Theorem 3.8 floor, far above it (concentrate, don't spread)."""
    outcomes = flood_sweep(n, list(fs))
    table = Table(
        ["f (msgs/node/round)", "measured rounds to majority", "Thm 3.8 floor", "total messages"],
        title=f"Empirical Theorem 3.8 curve at n={n} (uniform flooding vs capacity adversary)",
    )
    for out in outcomes:
        table.add_row(out.f, out.rounds_to_majority, out.theorem_floor, out.messages)
    return {"thm38_flood_curve": (table, outcomes)}


def check_thm38_flood_curve(rows, full):
    rounds = []
    for out in rows["thm38_flood_curve"]:
        assert out.rounds_to_majority is not None
        # soundness of the floor:
        assert out.rounds_to_majority >= out.theorem_floor, (out.f, out.rounds_to_majority)
        rounds.append(out.rounds_to_majority)
    # tradeoff direction: more budget, fewer rounds (strictly here).
    assert rounds == sorted(rounds, reverse=True), rounds
    assert rounds[-1] < rounds[0] / 3


def thm311_nlogn_lb():
    """T1.2: the Lemma 3.12 multicast -> single-send reduction, executed
    (lossless in messages, time dilated n-fold), and Theorem 3.11's
    n log n floor under a fast deterministic algorithm."""
    factory = lambda: ImprovedTradeoffElection(ell=3)  # noqa: E731
    demo = Table(
        ["n", "direct msgs", "single-send msgs", "direct rounds", "single-send rounds", "dilation"],
        title="Lemma 3.12 transformation, executed (multicast -> single-send)",
    )
    pairs = []
    for n in (16, 32, 64):
        direct = SyncNetwork(n, factory, seed=0, port_map=CanonicalPortMap(n)).run()
        wrapped = SyncNetwork(n, single_send_factory(factory), seed=0,
                              port_map=CanonicalPortMap(n), max_rounds=64 * n).run()
        pairs.append((n, direct, wrapped))
        demo.add_row(n, direct.messages, wrapped.messages, direct.rounds_executed,
                     wrapped.rounds_executed, wrapped.rounds_executed / direct.rounds_executed)
    floor = Table(
        ["n", "Omega(n log n)", "thm310 ell=3 msgs", "port opens", "universe log2-size (T=ell)"],
        title="Theorem 3.11: the n log n floor vs fast deterministic algorithms",
    )
    runs = []
    for n in (256, 1024, 4096):
        result = SyncNetwork(n, factory, seed=0).run()
        floor.add_row(n, bounds.thm311_message_lb(n), result.messages,
                      result.metrics.port_opens, bounds.thm311_universe_log2_size(n, 3))
        runs.append((n, result))
    return {"thm311_single_send": (demo, pairs), "thm311_nlogn_floor": (floor, runs)}


def check_thm311_nlogn_lb(rows, full):
    for n, direct, wrapped in rows["thm311_single_send"]:
        assert wrapped.leaders == direct.leaders
        assert wrapped.messages == direct.messages  # lossless in messages
        assert (direct.rounds_executed - 1) * n < wrapped.rounds_executed
        assert wrapped.rounds_executed <= direct.rounds_executed * n + n
    for n, result in rows["thm311_nlogn_floor"]:
        # Any O(1)-round deterministic algorithm must clear the floor
        # (here by a polynomial margin, since ell=3 costs ~n^1.5).
        floor = bounds.thm311_message_lb(n)
        assert result.messages >= floor / 4, (n, result.messages, floor)


def thm310_improved_tradeoff(ns=(256, 512, 1024, 2048, 4096), ells=(3, 5, 7, 9)):
    """T1.3: ell rounds exactly, messages under O(ell n^(1+2/(ell+1))),
    and the fitted exponent matching 1 + 2/(ell+1)."""
    table = Table(
        ["ell", "n", "rounds", "messages", "paper bound", "used/bound"],
        title="Theorem 3.10: ell-round deterministic election, messages vs O(ell*n^(1+2/(ell+1)))",
    )
    blocks = _grid(
        RunSpec(algorithm="improved_tradeoff", n=n, engine="sync", params={"ell": ell},
                ids=_tradeoff_ids(n))
        for ell in ells
        for n in ns
    )
    fits = {}
    for i, ell in enumerate(ells):
        records = [rec for (rec,) in blocks[i * len(ns) : (i + 1) * len(ns)]]
        for r in records:
            bound = bounds.thm310_messages(r.n, ell)
            table.add_row(ell, r.n, int(r.time), r.messages, bound, r.messages / bound)
        fits[ell] = (fit_power_law([r.n for r in records], [r.messages for r in records]), records)
        table.add_section(
            f"ell={ell}: fitted messages ~ {fits[ell][0]}; theory exponent {1 + 2 / (ell + 1):.3f}"
        )
    return {"thm310_improved_tradeoff": (table, fits)}


def check_thm310_improved_tradeoff(rows, full):
    for ell, (fit, records) in rows["thm310_improved_tradeoff"].items():
        for r in records:
            assert r.unique_leader
            assert r.time == ell
            assert r.messages <= 2 * bounds.thm310_messages(r.n, ell)
        theory = 1 + 2 / (ell + 1)
        assert abs(fit.exponent - theory) < 0.2, (ell, fit.exponent, theory)
        assert fit.r_squared > 0.97


def afek_gafni_sync(ns=(256, 512, 1024, 2048), ells=(4, 6, 8)):
    """T1.4: Afek-Gafni's exponent 1 + 2/ell, and Theorem 3.10 with one
    more round beating it at every n by a gap that grows with n."""
    table = Table(
        ["ell", "n", "rounds", "messages", "paper bound", "thm310 same-odd-ell msgs"],
        title="Afek-Gafni [1] baseline vs Theorem 3.10 (same round budget)",
    )
    blocks = _grid(
        RunSpec(algorithm=name, n=n, engine="sync", params={"ell": budget}, ids=_tradeoff_ids(n))
        for ell in ells
        for name, budget in (("afek_gafni", ell), ("improved_tradeoff", ell + 1))
        for n in ns
    )
    runs = [rec for (rec,) in blocks]
    fits = {}
    for i, ell in enumerate(ells):
        records = runs[2 * i * len(ns) : (2 * i + 1) * len(ns)]
        improved = runs[(2 * i + 1) * len(ns) : (2 * i + 2) * len(ns)]
        for r, imp in zip(records, improved):
            table.add_row(ell, r.n, int(r.time), r.messages, bounds.ag_messages(r.n, ell),
                          imp.messages)
        fit = fit_power_law([r.n for r in records], [r.messages for r in records])
        fits[ell] = (fit, records, improved)
        table.add_section(f"ell={ell}: fitted {fit}; theory exponent {1 + 2 / ell:.3f}")
    return {"afek_gafni_sync": (table, fits)}


def check_afek_gafni_sync(rows, full):
    for ell, (fit, records, improved) in rows["afek_gafni_sync"].items():
        for r, imp in zip(records, improved):
            assert r.unique_leader and imp.unique_leader
            assert r.messages <= 3 * bounds.ag_messages(r.n, ell)
        assert abs(fit.exponent - (1 + 2 / ell)) < 0.2, (ell, fit.exponent)
        # Theorem 3.10 with one extra round (odd ell+1) must beat AG at
        # every n — and the advantage must trend upward with n (integer
        # referee-count ceilings add small non-monotone wiggles, so we
        # compare the endpoints rather than demand strict monotonicity).
        ratios = [imp.messages / r.messages for r, imp in zip(records, improved)]
        assert all(ratio < 1.0 for ratio in ratios), (ell, ratios)
        assert ratios[-1] < ratios[0], (ell, ratios)


def small_id(ns=(256, 1024, 4096), ds=(2, 8, 32), g=1):
    """T1.9: Algorithm 1 on a linear ID universe — <= n d g messages in
    <= ceil(n/d) rounds, below n log n at d = 2; and its time-heavy end
    on top-block IDs of {1..2n}."""
    table = Table(
        ["n", "d", "rounds", "round bound", "messages", "msg bound", "n*log2(n)"],
        title="Theorem 3.15: Algorithm 1 on the linear ID universe {1..n}",
    )
    cells = [(n, d) for n in ns for d in ds]
    blocks = iter(_grid(
        RunSpec(algorithm="small_id", n=n, engine="sync", seeds=(seed,), params={"d": d, "g": g},
                ids=assign_random(small_universe(n, g), n, random.Random(f"{n}:{seed}:workload")))
        for n, d in cells
        for seed in (0, 1, 2)
    ))
    rows = []
    for n, d in cells:
        records = [rec for (rec,) in (next(blocks) for _ in range(3))]
        rows.extend((n, d, g, r) for r in records)
        worst = max(records, key=lambda r: r.messages)
        table.add_row(n, d, int(worst.time), bounds.thm315_rounds(n, d), worst.messages,
                      bounds.thm315_messages(n, d, g), bounds.thm311_message_lb(n))
    worst_case = Table(
        ["n", "d", "rounds", "round bound", "messages", "msg bound"],
        title="Theorem 3.15 worst case: top-block IDs in {1..2n} (time-heavy end)",
    )
    # Every early window is empty, so the election pays its full
    # ceil(n/d)-round time bound (the other end of the tradeoff).
    top = [(n, d, 2) for n in (1024, 4096) for d in (8, 64)]
    blocks = _grid(
        RunSpec(algorithm="small_id", n=n, engine="sync", params={"d": d, "g": tg},
                ids=range(n * tg - n + 1, n * tg + 1), max_rounds=8 * n)
        for n, d, tg in top
    )
    worst_rows = []
    for (n, d, tg), (rec,) in zip(top, blocks):
        worst_rows.append((n, d, tg, rec))
        worst_case.add_row(n, d, int(rec.time), bounds.thm315_rounds(n, d), rec.messages,
                           bounds.thm315_messages(n, d, tg))
    return {
        "thm315_small_id": (table, rows),
        "thm315_small_id_worst_case": (worst_case, worst_rows),
    }


def check_small_id(rows, full):
    for n, d, g, r in rows["thm315_small_id"]:
        assert r.unique_leader
        assert r.messages <= bounds.thm315_messages(n, d, g)
        assert r.time <= bounds.thm315_rounds(n, d)
        if d == 2:
            # The escape from Theorem 3.11: o(n log n) messages.
            assert r.messages < bounds.thm311_message_lb(n), (n, r.messages)
    for n, d, g, r in rows["thm315_small_id_worst_case"]:
        assert r.unique_leader and r.elected_id == n * g - n + 1  # the smallest ID
        assert r.time <= bounds.thm315_rounds(n, d)
        # The workload really does exercise the time dimension: the
        # election ends in the window of the minimum ID, deep into the
        # schedule.
        assert r.time >= (n + 1) // (d * g), (n, d, r.time)
        assert r.messages <= bounds.thm315_messages(n, d, g)


def las_vegas(ns=(512, 2048, 8192), seeds=range(8)):
    """T1.6 + T1.7: never wrong, >= 85% of runs in exactly 3 rounds,
    Theta(n) messages; and the candidate-probability ablation."""
    table = Table(
        ["n", "3-round rate", "mean msgs", "Omega(n) floor", "mean/n", "max rounds seen"],
        title="Theorem 3.16: Las Vegas 3-round election, O(n) messages",
    )
    blocks = _grid(RunSpec(algorithm="las_vegas", n=n, engine="sync", seeds=seeds) for n in ns)
    stats = []
    for n, records in zip(ns, blocks):
        three_round = _mean(r.time == 3 for r in records)
        mean = _mean(r.messages for r in records)
        stats.append((n, three_round, mean, records))
        table.add_row(n, three_round, mean, bounds.thm316_las_vegas_lb(n), mean / n,
                      max(int(r.time) for r in records))
    ablation = Table(
        ["candidate coeff", "mean msgs", "3-round rate"],
        title="Ablation: candidate probability constant (c * ln n / n)",
    )
    coeffs = (0.5, 2.0, 8.0)
    blocks = _grid(
        RunSpec(algorithm="las_vegas", n=2048, engine="sync", seeds=range(8),
                params={"candidate_coeff": coeff})
        for coeff in coeffs
    )
    for coeff, records in zip(coeffs, blocks):
        ablation.add_row(coeff, _mean(r.messages for r in records),
                         _mean(r.time == 3 for r in records))
    return {"thm316_las_vegas": (table, stats), "thm316_las_vegas_ablation": (ablation, blocks)}


def check_las_vegas(rows, full):
    for n, three_round, mean, records in rows["thm316_las_vegas"]:
        assert all(r.unique_leader for r in records)
        assert three_round >= 0.85, (n, three_round)
        assert bounds.thm316_las_vegas_lb(n) - 1 <= mean <= 25 * n, (n, mean)
    for records in rows["thm316_las_vegas_ablation"]:
        assert all(r.unique_leader for r in records)


def kutten16(ns=(1024, 4096, 16384, 65536), seeds=range(5)):
    """T1.8: the 2-round Monte Carlo baseline — O(sqrt(n) log^1.5 n)
    messages, so its cost relative to the Las Vegas floor n vanishes."""
    table = Table(
        ["n", "success rate", "mean msgs", "paper curve", "LV floor Omega(n)", "msgs/n"],
        title="Kutten et al. [16]: 2-round Monte Carlo election",
    )
    blocks = _grid(RunSpec(algorithm="kutten16", n=n, engine="sync", seeds=seeds) for n in ns)
    means = []
    for n, records in zip(ns, blocks):
        mean = _mean(r.messages for r in records)
        means.append(mean)
        table.add_row(n, _mean(r.unique_leader for r in records), mean,
                      bounds.kutten16_messages(n), bounds.thm316_las_vegas_lb(n), mean / n)
    fit = fit_polylog(list(ns), means, log_power=1.5)
    table.add_section(f"fit (log^1.5 factored out): {fit}; theory exponent 0.5")
    return {"kutten16_monte_carlo": (table, (ns, blocks, means, fit))}


def check_kutten16(rows, full):
    ns, blocks, means, fit = rows["kutten16_monte_carlo"]
    for r in (r for records in blocks for r in records):
        assert r.time <= 2
        assert r.leaders <= 1
    assert abs(fit.exponent - 0.5) < 0.2, fit
    # The Monte Carlo vs Las Vegas polynomial gap: relative cost shrinks.
    ratios = [m / n for m, n in zip(means, ns)]
    assert ratios[-1] < ratios[0] / 2, ratios


def figure_sync_frontier(n=2048, ells=(3, 5, 7, 9, 11, 13)):
    """F1: measured Thm 3.10 and AG points between the Thm 3.8 LB and
    the AG bound; the improvement factor decays with ell.  Doubles as
    DESIGN.md ablation #1 (the referee-count schedule)."""
    ids = assign_random(tradeoff_universe(n), n, random.Random(99))
    table = Table(
        ["rounds ell", "Thm 3.8 LB", "Thm 3.10 measured", "Thm 3.10 bound", "AG measured",
         "AG bound"],
        title=f"Figure F1: messages-vs-rounds frontier at n={n}",
    )
    blocks = iter(_grid(
        RunSpec(algorithm=name, n=n, engine="sync", params={"ell": budget}, ids=ids)
        for ell in ells
        for name, budget in (("improved_tradeoff", ell), ("afek_gafni", ell - 1))
    ))
    points = []
    for ell in ells:
        (improved,), (ag,) = next(blocks), next(blocks)
        lb = bounds.thm38_message_lb(n, ell)
        table.add_row(ell, lb, improved.messages, bounds.thm310_messages(n, ell), ag.messages,
                      bounds.ag_messages(n, ell - 1))
        points.append((ell, lb, improved, ag))
    return {"figure_sync_frontier": (table, points)}


def check_figure_sync_frontier(rows, full):
    advantages = []
    for ell, lb, improved, ag in rows["figure_sync_frontier"]:
        assert improved.unique_leader and ag.unique_leader
        # frontier ordering: LB/const <= improved < AG (who wins).
        assert improved.messages >= lb / (4 * ell), (ell, improved.messages, lb)
        assert improved.messages < ag.messages, (ell, improved.messages, ag.messages)
        advantages.append(ag.messages / improved.messages)
    # crossover structure: the improvement factor decays with ell.
    assert advantages[0] > advantages[-1], advantages
    # The measured curve falls steeply over the small-ell range (where
    # the exponent differences are polynomial) and flattens out near the
    # curve's minimum (the bound ell*n^(1+2/(ell+1)) is U-shaped with a
    # minimum near ell ~ 2 ln n; integer referee-count ceilings add
    # +-10% wiggles there).
    msgs = [improved.messages for _ell, _lb, improved, _ag in rows["figure_sync_frontier"]]
    assert msgs[1] < msgs[0] and msgs[2] < msgs[1] and msgs[3] < msgs[2], msgs
    for m0, m1 in zip(msgs, msgs[1:]):
        assert m1 < 1.1 * m0, msgs  # never meaningfully increases


# --------------------------------------------------------------------- #
# Table 1, adversarial wake-up and asynchronous: T1.10-T1.14 and F2


def thm41_adversarial2round(ns=(256, 1024, 4096), seeds=range(6), eps=0.05):
    """T1.10: success >= 1 - eps - slack for root sets {1, sqrt(n), n/2,
    n}; worst-root-set messages fit n^1.5, under the bound and over the
    Theorem 4.2 floor (the algorithm is tight)."""
    table = Table(
        ["n", "roots", "success rate", "mean msgs", "paper bound", "Thm 4.2 floor"],
        title=f"Theorem 4.1: 2-round election under adversarial wake-up (eps={eps})",
    )
    cells = [(n, label, count) for n in ns
             for label, count in (("1", 1), ("sqrt(n)", ceil_sqrt(n)), ("n/2", n // 2), ("n", n))]
    blocks = iter(_grid(
        RunSpec(algorithm="adversarial_2round", n=n, engine="sync", seeds=(seed,),
                params={"epsilon": eps},
                awake=random.Random(f"{n}:{seed}:workload").sample(range(n), count))
        for n, _label, count in cells
        for seed in seeds
    ))
    runs, worst = [], {}
    for n, label, _count in cells:
        records = [rec for (rec,) in (next(blocks) for _ in seeds)]
        runs.extend(records)
        mean = _mean(r.messages for r in records)
        worst[n] = max(worst.get(n, 0.0), mean)
        table.add_row(n, label, _mean(r.unique_leader for r in records), mean,
                      bounds.thm41_expected_messages(n, eps), bounds.thm42_message_lb(n))
        if label == "n":
            table.add_section(f"n={n}: worst-case-root-set mean messages {worst[n]:,.0f}")
    fit = fit_power_law(list(ns), list(worst.values()))
    table.add_section(f"worst-case fit: {fit}; theory exponent 1.5")
    return {"thm41_adversarial_2round": (table, (runs, worst, fit, eps))}


def check_thm41_adversarial2round(rows, full):
    runs, worst, fit, eps = rows["thm41_adversarial_2round"]
    for r in runs:
        assert r.time <= 2
        assert r.leaders <= 1
    assert 1.3 <= fit.exponent <= 1.7, fit
    for n, mean in worst.items():
        assert mean <= 4 * bounds.thm41_expected_messages(n, eps), (n, mean)
        # tightness against Theorem 4.2 (constant-free floor):
        assert mean >= bounds.thm42_message_lb(n) / 4, (n, mean)


def thm42_wakeup_lb(n=1024, alphas=(0.25, 0.4, 0.5, 0.6, 0.75), trials=5):
    """T1.11: over the spray family (root fan-out n^alpha, child ~n^beta),
    budgets with alpha + beta < 1 fail against one root, and calibrated
    ones pay >= n^(3/2) against sqrt(n) roots for every alpha."""
    boost = 2 * math.log(n)
    table = Table(
        ["alpha", "beta", "1-root success", "1-root msgs", "sqrt(n)-roots msgs", "n^1.5"],
        title=f"Theorem 4.2 falsification sweep (n={n}, child boost 2 ln n)",
    )
    calibrated = []
    for alpha in alphas:
        beta = 1 - alpha
        rate1, msgs1 = wakeup_success_rate(n, alpha, beta, boost=boost, root_count=1, trials=trials)
        _, msgs_sqrt = wakeup_success_rate(n, alpha, beta, boost=boost,
                                           root_count=int(n**0.5), trials=trials)
        calibrated.append((alpha, rate1, msgs_sqrt))
        table.add_row(alpha, beta, rate1, msgs1, msgs_sqrt, n**1.5)
    under = []
    for alpha, beta in ((0.5, 0.3), (0.3, 0.5)):
        rate, msgs = wakeup_success_rate(n, alpha, beta, boost=boost, root_count=1, trials=trials)
        under.append((alpha, beta, rate))
        table.add_row(alpha, beta, rate, msgs, float("nan"), n**1.5)
    table.add_section("last two rows: alpha + beta < 1 (sub-n^(3/2) budgets) fail")
    return {"thm42_wakeup_lb": (table, (n, calibrated, under))}


def check_thm42_wakeup_lb(rows, full):
    n, calibrated, under = rows["thm42_wakeup_lb"]
    floor = bounds.thm42_message_lb(n)
    for alpha, rate1, msgs_sqrt in calibrated:
        assert rate1 >= 0.8, (alpha, rate1)  # calibrated budgets succeed
        assert msgs_sqrt >= floor, (alpha, msgs_sqrt)  # ...and pay n^1.5
    for alpha, beta, rate in under:
        assert rate <= 0.2, (alpha, beta, rate)  # cheap budgets fail


def thm51_async_tradeoff(ns=(256, 1024, 4096), ks=(2, 3, 4, 6), seeds=range(4)):
    """T1.12 + T1.13: whp a unique leader within k + 8 time units and
    O(n^(1+1/k)) messages; the [14] reference row at k_max; and the
    wake fan-out ablation (DESIGN.md ablation #2)."""
    table = Table(
        ["k", "n", "success", "mean msgs", "O(n^(1+1/k))", "max time", "k+8"],
        title="Theorem 5.1: asynchronous tradeoff (unit-delay adversary)",
    )
    blocks = iter(_grid(_async_spec(n, k, seeds) for k in ks for n in ns))
    fits = {}
    for k in ks:
        means = []
        for n in ns:
            records = next(blocks)
            means.append(_mean(r.messages for r in records))
            table.add_row(k, n, _mean(r.unique_leader for r in records), means[-1],
                          bounds.thm51_messages(n, k),
                          max(r.time for r in records if r.unique_leader), bounds.thm51_time(k))
        fits[k] = fit_power_law(list(ns), means)
        table.add_section(f"k={k}: fitted {fits[k]}; theory exponent {1 + 1 / k:.3f}")
    # The time bound at n = 1024 (+1 for the final announcement hop).
    late = [
        (k, r.time)
        for k, records in zip((2, 4), _grid(_async_spec(1024, k, range(5)) for k in (2, 4)))
        for r in records
        if r.unique_leader and r.time > bounds.thm51_time(k) + 1
    ]
    n = ns[-1]
    kmax = bounds.thm51_max_k(n)
    (records,) = _grid([_async_spec(n, kmax, seeds)])
    mean = _mean(r.messages for r in records)
    reference = Table(
        ["row", "time", "messages"],
        title=f"[14] reference row vs Theorem 5.1 at k_max={kmax} (n={n})",
    )
    reference.add_row("[14] (closed form, not reimplemented)", bounds.kmp14_time(n),
                      bounds.kmp14_messages(n))
    reference.add_row(f"Thm 5.1 measured at k={kmax}", max(r.time for r in records), mean)
    reference.add_row(f"Thm 5.1 bound at k={kmax}", bounds.thm51_time(kmax),
                      bounds.thm51_messages(n, kmax))
    gammas = (0.5, 1.5, 3.0, 6.0)
    ablation = Table(
        ["gamma", "success rate", "awake fraction", "mean msgs"],
        title="Ablation: wake-up fan-out constant gamma (n=1024, k=3)",
    )
    blocks = _grid(_async_spec(1024, 3, range(6), gamma=gamma) for gamma in gammas)
    for gamma, records in zip(gammas, blocks):
        ablation.add_row(gamma, _mean(r.unique_leader for r in records),
                         sum(r.awake for r in records) / (len(records) * 1024),
                         _mean(r.messages for r in records))
    return {
        "thm51_async_tradeoff": (table, fits),
        "thm51_time_bound": (None, late),
        "thm51_kmp14_reference": (reference, (n, mean)),
        "thm51_gamma_ablation": (ablation, None),
    }


def check_thm51_async_tradeoff(rows, full):
    for k, fit in rows["thm51_async_tradeoff"].items():
        assert fit.exponent <= 1 + 1 / k + 0.1, (k, fit)
        if k <= 3:
            assert fit.exponent >= 1 + 1 / k - 0.25, (k, fit)
    assert not rows["thm51_time_bound"], rows["thm51_time_bound"]
    # near-linear messages at k_max: within n * polylog
    n, mean = rows["thm51_kmp14_reference"]
    assert mean <= n * (bounds.thm514_time(n) ** 2), (mean, n)


def async_afek_gafni(ns=(256, 1024, 4096)):
    """T1.14: deterministic async Afek-Gafni — a unique leader always,
    O(n log n) messages in O(log n) time under simultaneous wake-up, the
    K-wave general schedule, and hostile delay schedulers."""
    table = Table(
        ["n", "messages", "n*log2(n)", "msgs ratio", "time", "log2(n)", "time ratio"],
        title="Theorem 5.14: asynchronous Afek-Gafni under simultaneous wake-up",
    )

    def spec(n, seeds=(0, 1), max_events=8_000_000, **params):
        return RunSpec(algorithm="async_afek_gafni", n=n, engine="async", seeds=seeds,
                       params=params, wake_times=_simultaneous(n), max_events=max_events)

    runs = _grid(spec(n) for n in ns)
    worst = []
    for n, records in zip(ns, runs):
        w = max(records, key=lambda r: r.messages)
        worst.append((n, w))
        nlogn = bounds.thm514_messages(n)
        table.add_row(n, w.messages, nlogn, w.messages / nlogn, w.time, math.log2(n),
                      w.time / math.log2(n))
    fit = fit_power_law(list(ns), [w.messages for _n, w in worst])
    table.add_section(f"message fit: {fit} (theory: n log n, exponent ~1.0-1.2)")
    waves = (2, 3, 5, 8)
    schedule = Table(
        ["K (waves)", "messages", "K*n^(1+1/K)", "time", "~4K+4"],
        title="Asynchronous Afek-Gafni general schedule at n=1024",
    )
    curve = []
    schedules = _grid(spec(1024, max_events=12_000_000, iterations=K) for K in waves)
    for K, records in zip(waves, schedules):
        w = max(records, key=lambda r: r.messages)
        theory = K * 1024 ** (1 + 1 / K)
        schedule.add_row(K, w.messages, theory, w.time, 4 * K + 4)
        curve.append((K, w.messages, theory, records))
    hostile = Table(
        ["delay adversary", "unique leader", "messages", "time"],
        title="Theorem 5.14 under hostile delay schedulers (n=512)",
    )
    outcomes = []
    for name, make in (
        ("unit", lambda rng: UnitDelayScheduler()),
        ("rush", lambda rng: RushScheduler()),
        ("per-link", lambda rng: PerLinkDelayScheduler(rng)),
    ):
        # A scheduler is a live runtime object, not a spec field: run()
        # executes each seed with its own.
        records = [
            run(spec(512, seeds=(seed,)), scheduler=make(random.Random(f"512:{seed}:workload")))
            for seed in (0, 1, 2)
        ]
        outcomes.append(all(r.unique_leader for r in records))
        w = max(records, key=lambda r: r.messages)
        hostile.add_row(name, outcomes[-1], w.messages, w.time)
    return {
        "thm514_async_afek_gafni": (table, (runs, worst, fit)),
        "thm514_tradeoff_schedule": (schedule, curve),
        "thm514_delay_adversaries": (hostile, outcomes),
    }


def check_async_afek_gafni(rows, full):
    runs, worst, fit = rows["thm514_async_afek_gafni"]
    assert all(r.unique_leader for records in runs for r in records)
    for n, w in worst:
        assert w.messages <= 16 * bounds.thm514_messages(n), (n, w.messages)
        assert w.time <= 5 * math.log2(n) + 3, (n, w.time)
    assert 0.95 <= fit.exponent <= 1.3, fit
    curve = rows["thm514_tradeoff_schedule"]
    assert all(r.unique_leader for *_, records in curve for r in records)
    msgs = [m for _K, m, _th, _records in curve]
    assert msgs == sorted(msgs, reverse=True), msgs  # fewer messages as K grows
    for K, measured, theory, _records in curve:
        assert measured <= 4 * theory, (K, measured, theory)
    assert all(rows["thm514_delay_adversaries"])


def figure_async_frontier(n=2048, ks=(2, 3, 4, 5, 6, 8), seeds=(0, 1, 2)):
    """F2: Theorem 5.1 as a curve over k at fixed n — monotone (more
    time, fewer messages) between the Theorem 4.2 point at k = 2 and
    n polylog n at the largest k."""
    table = Table(
        ["k", "k+8 budget", "measured time (max)", "mean msgs", "O(n^(1+1/k))",
         "Thm 4.2 floor (k=2 only)"],
        title=f"Figure F2: async messages-vs-time frontier at n={n}",
    )
    curve = []
    for k, records in zip(ks, _grid(_async_spec(n, k, seeds) for k in ks)):
        ok = [r for r in records if r.unique_leader]
        assert ok, f"no successful run at k={k}"
        mean_msgs = _mean(r.messages for r in ok)
        max_time = max(r.time for r in ok)
        floor = bounds.thm42_message_lb(n) if k == 2 else float("nan")
        table.add_row(k, bounds.thm51_time(k), max_time, mean_msgs, bounds.thm51_messages(n, k),
                      floor)
        curve.append((k, max_time, mean_msgs, records))
    return {"figure_async_frontier": (table, (n, curve))}


def check_figure_async_frontier(rows, full):
    n, curve = rows["figure_async_frontier"]
    assert all(r.leaders <= 1 for *_, records in curve for r in records)
    msgs = [m for _k, _t, m, _records in curve]
    # monotone frontier: larger k never costs more messages.
    assert all(a >= b for a, b in zip(msgs, msgs[1:])), msgs
    # anchor 1: k=2 sits at/above the Omega(n^{3/2}) point.
    assert msgs[0] >= bounds.thm42_message_lb(n) / 2
    # anchor 2: largest k is within n * polylog.
    assert msgs[-1] <= n * math.log2(n) ** 2
    # time budgets respected (+1 announcement hop).
    for k, max_time, _m, _records in curve:
        assert max_time <= bounds.thm51_time(k) + 1, (k, max_time)


# --------------------------------------------------------------------- #
# Faults, scenarios and the Byzantine layer: CH1, S2, S3, S8


def _fault_spec(algorithm, engine, n, seeds, plan):
    extra = dict(wake_times=_simultaneous(n), max_events=20_000_000) if engine == "async" else {}
    return RunSpec(algorithm=algorithm, n=n, engine=engine, seeds=tuple(seeds), faults=plan,
                   **extra)


LAG = 1.0


def failover_churn(ns=(64, 128, 256), seeds=range(5)):
    """CH1: kill the frontrunner at its victory announcement.  Every run
    ends with one surviving leader, detection latency is the detector
    lag (within a poll on async), and re-election stays proportionate."""
    detector = DetectorSpec(kind="perfect", lag=LAG)
    sync_plan = FaultPlan(policies=(LeaderKillPolicy(delay=1.0, max_kills=1),), detector=detector)
    async_plan = FaultPlan(policies=(LeaderKillPolicy(delay=0.5, max_kills=1),), detector=detector)
    configs = [
        ("monarchical/sync", "sync", lambda: MonarchicalElection(stable_rounds=4), sync_plan),
        ("reelect(afek_gafni)/sync", "sync",
         lambda: ReElectionElection(inner="afek_gafni", commit_rounds=4), sync_plan),
        ("monarchical/async", "async",
         lambda: AsyncMonarchicalElection(poll_interval=0.5, stable_polls=6), async_plan),
        ("reelect(async_tradeoff)/async", "async",
         lambda: AsyncReElectionElection(inner="async_tradeoff", commit_delay=4.0,
                                         poll_interval=0.5),
         async_plan),
    ]
    table = Table(
        ["config", "n", "survivor rate", "mean detect lat", "mean re-elect", "mean msgs",
         "mean after-crash"],
        title="Churn: kill the frontrunner at its victory announcement",
    )
    cells = [(config, n) for config in configs for n in ns]
    rows = []
    blocks = _grid(
        _fault_spec(factory, engine, n, seeds, plan) for (_l, engine, factory, plan), n in cells
    )
    for ((label, engine, _f, _p), n), records in zip(cells, blocks):
        failovers = [r.extra["failover"] for r in records]
        latencies = [lat for f in failovers for lat in f["detection_latencies"]]
        reelects = [f["reelection_time"] for f in failovers if f["reelection_time"] is not None]
        rows.append((
            label, engine, n,
            _mean(r.extra["unique_surviving_leader"] for r in records),
            _mean(latencies) if latencies else float("nan"),
            _mean(reelects) if reelects else float("nan"),
            _mean(r.messages for r in records),
            _mean(f["messages_after_first_crash"] for f in failovers),
        ))
        table.add_row(label, *rows[-1][2:])
    return {"failover_churn": (table, rows)}


def check_failover_churn(rows, full):
    for label, engine, n, survivors, mean_lat, mean_reelect, _msgs, after in rows["failover_churn"]:
        # Failover correctness: a unique surviving leader, always.
        assert survivors == 1.0, (label, n, survivors)
        # The frontrunner was really killed and really replaced.
        assert mean_reelect == mean_reelect and mean_reelect > 0, (label, n)
        # Detection latency: the oracle lag, plus polling slack on async.
        if engine == "sync":
            assert mean_lat == LAG, (label, n, mean_lat)
        else:
            assert LAG <= mean_lat <= LAG + 1.0, (label, n, mean_lat)
        assert after >= 0, (label, n)


def failover_churn_metrics(rows):
    metrics, directions = {}, {}
    for label, _engine, n, survivors, _lat, _reelect, mean_msgs, after in rows["failover_churn"]:
        key = f"{label}/n={n}"
        metrics[f"{key}/messages"] = mean_msgs
        metrics[f"{key}/after_crash_messages"] = after
        metrics[f"{key}/survivor_rate"] = survivors
        directions[f"{key}/survivor_rate"] = "higher"
    return metrics, directions, {}


SCENARIOS = ["partition_heal", "rolling_restart", "flapping_leader", "staggered_joins",
             "election_storm"]


def scenario_churn(ns=(32, 64), seeds=(0, 1, 2)):
    """S2: every named scenario on both object engines re-converges to
    one agreed leader, disruptions really churn epochs, recovery costs
    stay proportionate; and ablation #4 — failover latency composes
    additively with the detector lag."""
    table = Table(
        ["scenario", "engine", "n", "agreed runs", "epoch churn", "mean failover",
         "agreed frac", "mean msgs", "overhead"],
        title="Scenario churn: every named scenario on both engines",
    )
    rows = []
    for name in SCENARIOS:
        for engine in ("sync", "async"):
            for n in ns:
                ms = [
                    ScenarioRunner(get_scenario(name, n), n, engine=engine, seed=seed).run().metrics
                    for seed in seeds
                ]
                failovers = [lat for m in ms for lat in m.failover_latencies]
                rows.append((
                    name, engine, n,
                    _mean(m.final_agreed for m in ms),
                    _mean(m.epoch_churn for m in ms),
                    _mean(failovers) if failovers else float("nan"),
                    _mean(m.agreed_fraction for m in ms),
                    _mean(m.total_messages for m in ms),
                    _mean(m.message_overhead for m in ms),
                    _mean(m.elections for m in ms),
                ))
                agreed, churn, failover, frac, msgs, overhead = rows[-1][3:9]
                table.add_row(name, engine, n, agreed, churn, f"{failover:.2f}", f"{frac:.2f}",
                              f"{msgs:.0f}", f"{overhead:.2f}")
    ablation = Table(
        ["lag", "n", "mean failover", "epoch churn"],
        title="Ablation #4: perfect-detector lag vs failover latency "
        "(rolling_restart, sync engine)",
    )
    lag_rows = []
    n = ns[-1]
    for lag in (1.0, 2.0, 4.0):
        ms = [ScenarioRunner(get_scenario("rolling_restart", n), n, engine="sync", seed=seed,
                             lag=lag).run().metrics for seed in seeds]
        lag_rows.append((lag, n, _mean(lat for m in ms for lat in m.failover_latencies),
                         _mean(m.epoch_churn for m in ms)))
        ablation.add_row(lag, n, f"{lag_rows[-1][2]:.2f}", lag_rows[-1][3])
    return {"scenario_churn": (table.render() + "\n\n" + ablation.render(), (rows, lag_rows))}


def check_scenario_churn(rows, full):
    sweep_rows, lag_rows = rows["scenario_churn"]
    for name, engine, n, agreed, churn, failover, frac, _msgs, overhead, elections in sweep_rows:
        # Re-convergence: one agreed leader at the end of every run.
        assert agreed == 1.0, (name, engine, n, agreed)
        # Disruption scenarios really churn epochs.
        if name == "partition_heal":
            assert churn >= 4, (name, engine, n, churn)  # initial + 2 + heal
            assert failover == failover and failover > 0
        if name == "flapping_leader":
            assert churn >= 4, (name, engine, n, churn)  # 3 kills + survivor
        if name == "election_storm":
            # Elections without disruption keep agreement almost always.
            assert frac > 0.5, (name, engine, n, frac)
        # Proportionate recovery: total traffic stays within a constant
        # factor of one fault-free election per minted epoch (in-act
        # kill churn included), so the recovery path re-elects rather
        # than thrashing.
        assert elections >= 1
        assert overhead <= 2.5 * churn, (name, engine, n, overhead, churn)
    # Ablation #4: failover latency is monotone in the lag, with a slope
    # of about one per lag unit.
    for (lo_lag, _n, lo, _c), (hi_lag, _n2, hi, _c2) in zip(lag_rows, lag_rows[1:]):
        assert hi > lo, (lo_lag, lo, hi_lag, hi)
        delta = (hi - lo) / (hi_lag - lo_lag)
        assert 0.5 <= delta <= 2.0, (lo_lag, hi_lag, delta)


def scenario_churn_metrics(rows):
    sweep_rows, lag_rows = rows["scenario_churn"]
    metrics, directions = {}, {}
    for name, engine, n, agreed, churn, failover, frac, msgs, _overhead, _elections in sweep_rows:
        key = f"{name}/{engine}/n={n}"
        metrics[f"{key}/messages"] = msgs
        metrics[f"{key}/epoch_churn"] = churn
        metrics[f"{key}/agreed_runs"] = agreed
        directions[f"{key}/agreed_runs"] = "higher"
        metrics[f"{key}/agreed_fraction"] = round(frac, 4)
        directions[f"{key}/agreed_fraction"] = "higher"
        if failover == failover:  # not NaN
            metrics[f"{key}/mean_failover_latency"] = failover
    for lag, n, latency, _churn in lag_rows:
        metrics[f"ablation/lag={lag:g}/n={n}/mean_failover_latency"] = latency
    return metrics, directions, {}


def adversary(ns=(8, 16), seeds=(0, 1, 2)):
    """S3: quorum_reelect survives f slander victims plus one crash for
    every admissible f on both engines; quorum gating keeps split brain
    at 0; the Byzantine overhead is a bounded tax, not a blowup."""
    detector = DetectorSpec(kind="perfect", lag=1.0)
    total = len(seeds)
    resilience = Table(
        ["engine", "n", "f", "converged", "mean msgs"],
        title="Quorum resilience: f slander victims + 1 crash (f + 1 < n/2)",
    )
    # Slander-victim counts that keep (victims + 1 crash) below majority.
    cells = [(engine, n, f) for engine in ("sync", "async") for n in ns
             for f in (1, n // 2 - 2) if f >= 1 and n - f - 1 >= n // 2 + 1]
    specs = [
        _fault_spec("quorum_reelect", engine, n, seeds, FaultPlan(
            crashes=(CrashFault(node=1, at=4.0),), detector=detector,
            adversary=AdversaryPlan(byzantine=(0,), slanders=(
                SlanderWindow(accuser=0, victims=tuple(range(n - f, n)), start=2.0),)),
        ))
        for engine, n, f in cells
    ]
    r_rows = []
    for (engine, n, f), records in zip(cells, _grid(specs)):
        converged = sum(r.extra["unique_surviving_leader"] for r in records)
        r_rows.append((engine, n, f, converged, total, _mean(r.messages for r in records)))
        resilience.add_row(engine, n, f, f"{converged}/{total}", f"{r_rows[-1][5]:.0f}")
    split_n = 9  # odd: a 4/5 split has a real majority side
    split_brain = Table(
        ["gating", "split-brain acts", "partition leaders", "final agreed"],
        title=f"Split-brain ablation: partition_heal (n={split_n}, sync engine)",
    )
    s_rows = []
    for quorum in (True, False):
        results = [ScenarioRunner(get_scenario("partition_heal", split_n), split_n, engine="sync",
                                  seed=seed, quorum=quorum).run() for seed in seeds]
        split = sum(r.metrics.split_brain_acts for r in results)
        agreed = sum(r.metrics.final_agreed for r in results)
        leaders = tuple(
            len(e.leader_ids) for r in results for e in r.epochs if e.trigger == "partition"
        )
        s_rows.append((quorum, split, leaders, agreed, total))
        split_brain.add_row("quorum" if quorum else "plain", split,
                            "+".join(str(c) for c in leaders), f"{agreed}/{total}")
    overhead = Table(
        ["n", "honest msgs", "byzantine msgs", "overhead", "tampered"],
        title="Honest vs Byzantine overhead (sync quorum_reelect, slander+forge)",
    )
    o_rows = []
    for n in ns:
        byzantine = FaultPlan(detector=detector, adversary=AdversaryPlan(
            byzantine=(0,), tampers=(TamperRule(mode="forge", kinds=("compete",)),),
            slanders=(SlanderWindow(accuser=0, victims=(n - 1,), start=2.0),),
        ))
        honest, byz = _grid(_fault_spec("quorum_reelect", "sync", n, seeds, plan)
                            for plan in (FaultPlan(detector=detector), byzantine))
        hm, bm = _mean(r.messages for r in honest), _mean(r.messages for r in byz)
        tampered = sum(r.extra["fault_metrics"].tampered_messages for r in byz)
        converged = all(r.extra["unique_surviving_leader"] for r in honest + byz)
        o_rows.append((n, hm, bm, bm / max(hm, 1.0), tampered, converged))
        overhead.add_row(n, f"{hm:.0f}", f"{bm:.0f}", f"{bm / max(hm, 1.0):.2f}x", tampered)
    text = "\n\n".join([resilience.render(), split_brain.render(), overhead.render()])
    return {"adversary": (text, (r_rows, s_rows, o_rows))}


def check_adversary(rows, full):
    resilience, split_brain, overhead = rows["adversary"]
    # Every resilience cell converged on every seed, both engines.
    for engine, n, f, converged, total, _msgs in resilience:
        assert converged == total, (engine, n, f, converged, total)
    # Quorum gating: split brain exactly 0, partition acts elect once;
    # plain wrapper: the partition act really splits (2 leaders).
    for quorum, split, partition_leaders, agreed, total in split_brain:
        if quorum:
            assert split == 0, split
            assert all(c == 1 for c in partition_leaders), partition_leaders
        else:
            assert split >= 1, split
            assert all(c == 2 for c in partition_leaders), partition_leaders
        assert agreed == total, (quorum, agreed, total)
    # Byzantine overhead exists but is bounded.
    for n, hm, bm, ratio, tampered, converged in overhead:
        assert converged, n
        assert tampered > 0, n
        assert bm > hm, (n, hm, bm)
        assert ratio <= MAX_OVERHEAD, (n, ratio)


def adversary_metrics(rows):
    resilience, split_brain, overhead = rows["adversary"]
    metrics, directions = {}, {}
    for engine, n, f, converged, total, msgs in resilience:
        key = f"resilience/{engine}/n={n}/f={f}"
        metrics[f"{key}/messages"] = msgs
        metrics[f"{key}/converged"] = converged / total
        directions[f"{key}/converged"] = "higher"
    for quorum, split, _leaders, agreed, total in split_brain:
        key = f"split_brain/{'quorum' if quorum else 'plain'}"
        metrics[f"{key}/acts"] = split
        metrics[f"{key}/agreed"] = agreed / total
        directions[f"{key}/agreed"] = "higher"
    for n, hm, bm, ratio, _tampered, _converged in overhead:
        metrics[f"overhead/n={n}/honest_messages"] = hm
        metrics[f"overhead/n={n}/byzantine_messages"] = bm
        metrics[f"overhead/n={n}/ratio"] = round(ratio, 4)
    return metrics, directions, {}


SCALE_N = 10_000


def _scenario_invariants(result):
    """What a fast and a sync run of one scenario must agree on: the final
    leader and agreement, each act's trigger, members and member IDs, and
    the crash, recovery and join counts."""
    m = result.metrics
    return (m.final_leader_id, m.final_agreed, [e.trigger for e in result.epochs],
            [e.members for e in result.epochs], [e.member_ids for e in result.epochs],
            m.crashes, m.recoveries, m.joins)


def _timed_scenario(name, n, engine, seed):
    return _timed(ScenarioRunner(get_scenario(name, n), n, engine=engine, seed=seed).run)


def scenario_fast(head_n=1024, seeds=(0, 1), anchor_n=1024):
    """S8 on the vectorized fault runtime: fast and sync runs of the
    same (scenario, n, seed) agree on every DRIFT_FIELDS invariant, and
    the fast run is >= 3x faster, at the head-to-head size and (against
    a monotone-in-n sync anchor) at n = 10^4, where a direct sync run
    would exceed 600 s.  ``flapping_leader`` is left out: its in-act
    kills legitimately diverge (DESIGN.md, "Vectorized fault runtime")."""
    head = Table(
        ["scenario", "n", "seed", "sync s", "fast s", "speedup", "drift"],
        title="Faulted scenarios: vectorized fault runtime vs the object engine",
    )
    head_rows = []
    for name in ("partition_heal", "rolling_restart", "slandered_leader"):
        for seed in seeds:
            sync_res, sync_t = _timed_scenario(name, head_n, "sync", seed)
            fast_res, fast_t = _timed_scenario(name, head_n, "fast", seed)
            drift = sum(a != b for a, b in zip(_scenario_invariants(sync_res),
                                               _scenario_invariants(fast_res)))
            head_rows.append(dict(
                key=f"{name}/n={head_n}/seed={seed}", speedup=sync_t / fast_t, drift=drift,
                agreed=fast_res.metrics.final_agreed, messages=fast_res.metrics.total_messages,
                epochs=len(fast_res.epochs),
            ))
            head.add_row(name, head_n, seed, f"{sync_t:.2f}", f"{fast_t:.3f}",
                         f"{sync_t / fast_t:.0f}x", drift)
    scale = Table(
        ["leg", "n", "seed", "wall s", "agreed", "blocked"],
        title=f"Fleet size: partition_heal at n={SCALE_N} (fast engine)",
    )
    _, anchor_t = _timed_scenario("partition_heal", anchor_n, "sync", seeds[0])
    scale.add_row("sync anchor", anchor_n, seeds[0], f"{anchor_t:.2f}", "-", "-")
    scale_rows = []
    for seed in seeds:
        res, fast_t = _timed_scenario("partition_heal", SCALE_N, "fast", seed)
        blocked = next(e for e in res.epochs if e.trigger == "partition").partition_blocked
        scale_rows.append(dict(
            seed=seed, fast_t=fast_t, anchor_t=anchor_t, blocked=blocked,
            agreed=res.metrics.final_agreed, messages=res.metrics.total_messages,
        ))
        scale.add_row("fast", SCALE_N, seed, f"{fast_t:.2f}", res.metrics.final_agreed, blocked)
    return {"scenario_fast": (head.render() + "\n\n" + scale.render(), (head_rows, scale_rows))}


def check_scenario_fast(rows, full):
    head_rows, scale_rows = rows["scenario_fast"]
    for row in head_rows:
        # Zero cross-engine drift, run by run.
        assert row["drift"] == 0, row
        assert row["agreed"], row
        # The vectorized run beats the object engine by >= 3x per seed.
        assert row["speedup"] >= MIN_FAST_SPEEDUP, row
    for row in scale_rows:
        assert row["agreed"], row
        assert row["blocked"] > 0, row  # the partition really cut traffic
        # n=10^4 speedup bound: the object engine's wall time is monotone
        # in n, so its (smaller) anchor run lower-bounds sync at n=10^4.
        assert row["anchor_t"] >= MIN_FAST_SPEEDUP * row["fast_t"], row


def scenario_fast_metrics(rows):
    head_rows, scale_rows = rows["scenario_fast"]
    metrics, directions, info = {}, {}, {}
    for row in head_rows:
        key = row["key"]
        metrics[f"{key}/drift"] = row["drift"]  # 0: any rise fails
        metrics[f"{key}/messages"] = row["messages"]
        metrics[f"{key}/epochs"] = row["epochs"]
        metrics[f"{key}/agreed"] = float(row["agreed"])
        directions[f"{key}/agreed"] = "higher"
        info[f"{key}/speedup"] = round(row["speedup"], 1)
    for row in scale_rows:
        key = f"partition_heal/n={SCALE_N}/seed={row['seed']}"
        metrics[f"{key}/messages"] = row["messages"]
        metrics[f"{key}/partition_blocked"] = row["blocked"]
        directions[f"{key}/partition_blocked"] = "higher"
        metrics[f"{key}/agreed"] = 1.0
        directions[f"{key}/agreed"] = "higher"
        info[f"{key}/wall_s"] = round(row["fast_t"], 3)
        info[f"{key}/sync_anchor_s"] = round(row["anchor_t"], 3)
    return metrics, directions, info


# --------------------------------------------------------------------- #
# The vectorized engine at scale and the observability guards: S1, S1b, S4-S7


def fastsync_scale(ns=(10_000, 100_000), seeds=(0, 1), batch=False):
    """S1: the rounds/messages frontier at n >= 10^4 on the vectorized
    engine — a unique leader (the max ID for the deterministic ones),
    messages under twice the bound formula, and at the largest n more
    rounds buying strictly fewer messages, Thm 3.10 beating AG.
    ``batch`` runs each point's seeds as one multi-lane engine run."""
    configs = [("improved_tradeoff", {"ell": 3}), ("improved_tradeoff", {"ell": 5}),
               ("improved_tradeoff", {"ell": 9}), ("afek_gafni", {"ell": 4}), ("las_vegas", {})]
    cells = [(name, params, n) for name, params in configs for n in ns]
    table = Table(
        ["algorithm", "n", "mode", "messages", "rounds", "unique", "wall s/run"],
        title="Vectorized engine: rounds-vs-messages frontier at scale",
    )
    blocks = _grid(
        RunSpec(algorithm=name, n=n, engine="fast", seeds=seeds, params=params,
                batch=len(seeds) if batch else None)
        for name, params, n in cells
    )
    rows = []
    for (name, params, n), records in zip(cells, blocks):
        row = dict(
            label="/".join([name] + [f"{k}={v}" for k, v in params.items()]), name=name,
            params=params, n=n, mode=records[0].extra["mode"],
            messages=_mean(r.messages for r in records), rounds=_mean(r.time for r in records),
            wall_time_s=_mean(r.extra["wall_time_s"] for r in records),
            unique=all(r.unique_leader for r in records), elected=[r.elected_id for r in records],
        )
        rows.append(row)
        table.add_row(row["label"], n, row["mode"], round(row["messages"]), row["rounds"],
                      "yes" if row["unique"] else "NO", f"{row['wall_time_s']:.3f}")
    return {"fastsync_scale": (table, rows)}


def check_fastsync_scale(rows, full):
    rows = rows["fastsync_scale"]
    for row in rows:
        assert row["unique"], ("no unique leader", row["label"], row["n"])
        if row["name"] in ("improved_tradeoff", "afek_gafni"):
            # Default 1..n IDs: the deterministic algorithms elect n.
            assert all(e == row["n"] for e in row["elected"]), row
            ell = row["params"]["ell"]
            bound = (bounds.thm310_messages(row["n"], ell) if row["name"] == "improved_tradeoff"
                     else bounds.ag_messages(row["n"], ell))
            assert row["messages"] <= 2 * bound, (
                "message bound exceeded", row["label"], row["n"], row["messages"], bound,
            )
    # Frontier shape at the largest swept n: more rounds, fewer messages.
    top = max(r["n"] for r in rows)
    at_top = {r["label"]: r["messages"] for r in rows if r["n"] == top}
    assert at_top["improved_tradeoff/ell=3"] > at_top["improved_tradeoff/ell=5"]
    assert at_top["improved_tradeoff/ell=5"] > at_top["improved_tradeoff/ell=9"]
    # Matched budget: Thm 3.10 with ell=3 sends less than AG needs for
    # the same two iterations (ell=4), per the 2/(ell+1) vs 2/ell gap.
    assert at_top["improved_tradeoff/ell=3"] < at_top["afek_gafni/ell=4"]


def fastsync_scale_metrics(rows):
    metrics, info = {}, {"wall_time_s": {}}
    for row in rows["fastsync_scale"]:
        key = f"{row['label']}/n={row['n']}"
        metrics[f"{key}/messages"] = row["messages"]
        metrics[f"{key}/rounds"] = row["rounds"]
        info["wall_time_s"][key] = row["wall_time_s"]
    return metrics, {}, info


def _batch_spec(n, ell, seeds, batch):
    return RunSpec(algorithm="improved_tradeoff", n=n, engine="fast", seeds=seeds, batch=batch,
                   params={"ell": ell})


def fastsync_batch(points=((100_000, 3, 64),), reference_seeds=2):
    """S1b: a batch of seeds per engine run against one-lane runs of the
    same seeds.  Exact-mode lanes replay the one-lane runs field by
    field; every lane elects the max ID under the Theorem 3.10 bound.
    Full mode times the one-lane reference on ``reference_seeds`` seeds."""
    table = Table(
        ["n", "ell", "batch", "mode", "mean messages", "rounds", "one-lane s/seed",
         "batched s/seed", "speedup"],
        title="Batched fast engine vs one-lane runs of the same seeds",
    )
    rows = []
    for n, ell, batch in points:
        seeds = list(range(batch))
        lanes, batched_s = _timed(execute_spec, _batch_spec(n, ell, seeds, batch))
        probe = seeds[:reference_seeds]
        singles, single_s = _timed(
            lambda: [execute_spec(_batch_spec(n, ell, (s,), 1))[0] for s in probe]
        )
        single, batched = single_s / len(probe), batched_s / batch
        rows.append(dict(
            n=n, ell=ell, batch=batch, mode=lanes[0].extra["mode"], lanes=lanes, singles=singles,
            messages=_mean(r.messages for r in lanes), rounds=_mean(r.time for r in lanes),
            single_per_seed=single, batched_per_seed=batched, speedup=single / batched,
        ))
        table.add_row(n, ell, batch, rows[-1]["mode"], round(rows[-1]["messages"]),
                      rows[-1]["rounds"], f"{single:.3f}", f"{batched:.3f}",
                      f"{single / batched:.2f}x")
    return {"fastsync_batch": (table, rows)}


def check_fastsync_batch(rows, full):
    for row in rows["fastsync_batch"]:
        lanes = row["lanes"]
        assert all(r.unique_leader for r in lanes), ("no unique leader", row["n"])
        # Default 1..n IDs: the deterministic algorithm elects n.
        assert all(r.elected_id == row["n"] for r in lanes), row["n"]
        bound = bounds.thm310_messages(row["n"], row["ell"])
        assert row["messages"] <= 2 * bound, (
            "message bound exceeded", row["n"], row["messages"], bound,
        )
        if row["mode"] == "exact":
            # Bit-exactness: batched lanes replay the one-lane runs.
            for single, lane in zip(row["singles"], lanes):
                assert single.messages == lane.messages, (single, lane)
                assert single.time == lane.time
                assert single.elected_id == lane.elected_id
                assert single.extra["rounds_executed"] == lane.extra["rounds_executed"]


def fastsync_batch_metrics(rows):
    metrics, info = {}, {"per_seed_wall_s": {}, "speedup": {}}
    for row in rows["fastsync_batch"]:
        key = f"improved_tradeoff/ell={row['ell']}/n={row['n']}/batch={row['batch']}"
        metrics[f"{key}/mean_messages"] = row["messages"]
        metrics[f"{key}/rounds"] = row["rounds"]
        info["per_seed_wall_s"][key] = {"single": row["single_per_seed"],
                                        "batched": row["batched_per_seed"]}
        info["speedup"][key] = row["speedup"]
    return metrics, {}, info


def _check_budgets(rows, unit):
    """The off/on wall-clock budgets shared by the telemetry and monitor guards."""
    for row in rows:
        assert row["off_ratio"] <= MAX_OFF_RATIO, (
            f"{unit} off must stay within {MAX_OFF_RATIO:.0%} of the reference at "
            f"n={row['n']}; measured {row['off_ratio']:.3f}x"
        )
        assert row["on_ratio"] <= MAX_ON_RATIO, (
            f"{unit} on must cost <= {MAX_ON_RATIO - 1:.0%} at n={row['n']}; "
            f"measured {row['on_ratio']:.3f}x"
        )


def telemetry_overhead(points=((100_000, 3, 64),), reps=3):
    """S4: the fast engine's telemetry hooks on the S1b workload.  Off:
    within 5% of an interleaved reference of the same batched call; on:
    at most 15% over off (full mode only); and the tallies equal the
    engine's own per-lane counters bit-exactly (every mode, CI-gated)."""
    from repro.telemetry import FastTelemetry

    table = Table(
        ["n", "ell", "batch", "mode", "ref s/seed", "off s/seed", "on s/seed", "off ratio",
         "on ratio", "drift"],
        title="Telemetry overhead on the batched fast engine",
    )
    rows = []
    for n, ell, batch in points:
        spec = _batch_spec(n, ell, list(range(batch)), batch)
        execute_spec(spec)  # warmup: allocator and import costs land outside timing
        # Interleave the arms so drift in machine load hits all three.
        times = {"ref": [], "off": [], "on": []}
        telemetries = []
        for _ in range(reps):
            times["ref"].append(_timed(execute_spec, spec)[1] / batch)
            times["off"].append(_timed(execute_spec, spec)[1] / batch)
            telemetries.append(FastTelemetry())
            records, on_s = _timed(execute_spec, spec, telemetry=telemetries[-1], keep_result=True)
            times["on"].append(on_s / batch)
        # Counter drift vs the engine's own per-lane results (bit-exact
        # across every telemetry-enabled repetition).
        drift = 0
        for telemetry in telemetries:
            for lane, record in enumerate(records):
                result = record.extra["result"]
                totals = telemetry.sends_by_round(lane)
                drift += abs(sum(totals.values()) - record.messages)
                drift += int(totals != dict(result.sends_by_round))
                drift += int(telemetry.messages_by_kind(lane) != dict(result.messages_by_kind))
        ref, off, on = (_median(times[arm]) for arm in ("ref", "off", "on"))
        rows.append(dict(
            n=n, ell=ell, batch=batch, records=records, drift=drift, ref=ref, off=off, on=on,
            messages=_mean(r.messages for r in records), rounds=_mean(r.time for r in records),
            off_ratio=off / ref, on_ratio=on / off,
        ))
        table.add_row(n, ell, batch, records[0].extra["mode"], f"{ref:.3f}", f"{off:.3f}",
                      f"{on:.3f}", f"{off / ref:.3f}", f"{on / off:.3f}", drift)
    return {"telemetry_overhead": (table, rows)}


def check_telemetry_overhead(rows, full):
    for row in rows["telemetry_overhead"]:
        assert row["drift"] == 0, ("telemetry counters drifted from the engine results", row)
        assert all(r.unique_leader for r in row["records"]), row["n"]
    # Smoke points are too small for stable timing, CI machines too noisy.
    if full:
        _check_budgets(rows["telemetry_overhead"], "telemetry")


def telemetry_overhead_metrics(rows):
    metrics, info = {}, {"per_seed_wall_s": {}, "ratios": {}}
    for row in rows["telemetry_overhead"]:
        key = f"improved_tradeoff/ell={row['ell']}/n={row['n']}/batch={row['batch']}"
        metrics[f"{key}/mean_messages"] = row["messages"]
        metrics[f"{key}/rounds"] = row["rounds"]
        metrics[f"{key}/counter_drift"] = row["drift"]
        info["per_seed_wall_s"][key] = {
            "reference": row["ref"], "telemetry_off": row["off"], "telemetry_on": row["on"],
        }
        info["ratios"][key] = {"off_vs_reference": row["off_ratio"], "on_vs_off": row["on_ratio"]}
    return metrics, {}, info


def monitor_overhead(points=((2048, 8),), reps=3):
    """S6: a SweepMonitor plus a silent progress listener on the sweep
    path.  Off: within 5% of an interleaved reference; on: at most 15%
    over off (full mode only); zero violations, full envelope
    conformance and unchanged records (every mode, CI-gated)."""
    from repro.monitor import SweepMonitor, SweepProgress

    table = Table(
        ["n", "seeds", "ref s/run", "off s/run", "on s/run", "off ratio", "on ratio", "viol",
         "conform"],
        title="Monitor overhead on the RunSpec sweep path",
    )
    rows = []
    for n, seed_count in points:
        specs = [RunSpec(algorithm=name, n=n, seeds=tuple(range(seed_count)))
                 for name in ("las_vegas", "improved_tradeoff")]
        runs = len(specs) * seed_count
        sweep(specs)  # warmup: allocator and import costs land outside timing
        # Interleave the arms so drift in machine load hits all three.
        times = {"ref": [], "off": [], "on": []}
        records = {}
        for _ in range(reps):
            for arm, extra in (
                ("ref", {}),
                ("off", dict(monitor=None, progress=None)),
                ("on", dict(monitor=SweepMonitor(context={"bench": "monitor_overhead"}),
                            progress=SweepProgress(live=False))),
            ):
                records[arm], elapsed = _timed(sweep, specs, **extra)
                times[arm].append(elapsed / runs)
        monitor = extra["monitor"]
        # The monitored arm must change nothing about the records.
        drift = sum(
            int(len(records[arm]) != len(records["ref"]))
            + sum(int(a.messages != b.messages or a.time != b.time)
                  for a, b in zip(records[arm], records["ref"]))
            for arm in ("off", "on")
        )
        # Minimum over interleaved reps: the least-noise estimate of each
        # arm's true cost (scheduler hiccups and GC pauses only ever add).
        ref, off, on = (min(times[arm]) for arm in ("ref", "off", "on"))
        rows.append(dict(
            n=n, seeds=seed_count, runs=runs, records=records["on"], monitor=monitor, drift=drift,
            messages=sum(r.messages for r in records["on"]) / runs,
            rounds=sum(r.time for r in records["on"]) / runs,
            ref=ref, off=off, on=on, off_ratio=off / ref, on_ratio=on / off,
        ))
        table.add_row(n, seed_count, f"{ref:.4f}", f"{off:.4f}", f"{on:.4f}", f"{off / ref:.3f}",
                      f"{on / off:.3f}", len(monitor.violations),
                      f"{monitor.conformance.conforming}/{monitor.conformance.total}")
    return {"monitor_overhead": (table, rows)}


def check_monitor_overhead(rows, full):
    for row in rows["monitor_overhead"]:
        monitor = row["monitor"]
        assert row["drift"] == 0, ("monitoring changed the sweep's records", row["n"])
        assert monitor.violations == [], (
            "fault-free workload tripped an invariant", [str(v) for v in monitor.violations],
        )
        assert monitor.conformance.ok, (
            "fault-free workload left its theory envelope",
            [str(f) for f in monitor.conformance.failures],
        )
        assert monitor.conformance.total == row["runs"]
        assert all(r.unique_leader for r in row["records"]), row["n"]
    # Smoke points are too small for stable timing, CI machines too noisy.
    if full:
        _check_budgets(rows["monitor_overhead"], "monitoring")


def monitor_overhead_metrics(rows):
    metrics, info = {}, {"per_run_wall_s": {}, "ratios": {}}
    for row in rows["monitor_overhead"]:
        monitor = row["monitor"]
        key = f"sweep/n={row['n']}/seeds={row['seeds']}"
        metrics[f"{key}/mean_messages"] = row["messages"]
        metrics[f"{key}/mean_rounds"] = row["rounds"]
        metrics[f"{key}/violations"] = len(monitor.violations)
        metrics[f"{key}/conforming"] = monitor.conformance.conforming
        metrics[f"{key}/record_drift"] = row["drift"]
        info["per_run_wall_s"][key] = {
            "reference": row["ref"], "monitor_off": row["off"], "monitor_on": row["on"],
        }
        info["ratios"][key] = {"off_vs_reference": row["off_ratio"], "on_vs_off": row["on_ratio"]}
    return metrics, {}, info


def sweep_parallel(workers=4, smoke=False):
    """S5: sweep(grid, workers=N) on a ragged mixed-engine grid returns
    the workers=1 records and metric counters bit-identically (every
    mode); in full mode on a host with >= 4 cores it is >= 2.5x faster."""
    if smoke:
        grid = [
            RunSpec(algorithm="improved_tradeoff", n=4096, engine="fast", seeds=(0, 1, 2, 3),
                    params={"ell": 5}),
            RunSpec(algorithm="las_vegas", n=2048, engine="fast", seeds=(0, 1)),
            RunSpec(algorithm="improved_tradeoff", n=128, engine="sync", seeds=(0, 1),
                    params={"ell": 3}),
            RunSpec(algorithm="async_tradeoff", n=64, engine="async", seeds=(0,), params={"k": 2}),
        ]
    else:
        grid = [
            RunSpec(algorithm="improved_tradeoff", n=100_000, engine="fast",
                    seeds=tuple(range(12)), params={"ell": 3}),
            RunSpec(algorithm="las_vegas", n=60_000, engine="fast", seeds=tuple(range(12))),
            RunSpec(algorithm="improved_tradeoff", n=1024, engine="sync", seeds=tuple(range(8)),
                    params={"ell": 5}),
            RunSpec(algorithm="async_tradeoff", n=256, engine="async", seeds=tuple(range(4)),
                    params={"k": 2}),
        ]
    # Warmup on one small seed per spec, through both arms: the engine
    # imports and the first pool start land outside timing.
    warm = [replace(spec, n=min(spec.n, 64), seeds=spec.seeds[:1]) for spec in grid]
    for w in (1, workers):
        sweep(warm, workers=w)
    arms = {}
    for w in (1, workers):
        registry = MetricsRegistry()
        records, elapsed = _timed(sweep, grid, workers=w, registry=registry)
        arms[w] = (records, registry.as_dict(), elapsed)
    sequential, seq_registry, sequential_s = arms[1]
    sharded, registry, sharded_s = arms[workers]
    speedup = sequential_s / sharded_s if sharded_s > 0 else float("inf")
    steals = registry["gauges"].get("sweep.steals", 0)
    table = Table(
        ["spec", "engine", "records", "messages", "1-worker s", f"{workers}-worker s", "speedup",
         "steals"],
        title=f"Sharded sweep, {workers} workers over {len(grid)} specs",
    )
    totals = []
    blocks = iter(sequential)
    for spec in grid:
        messages = sum(next(blocks).messages for _ in spec.seeds)
        totals.append((f"{spec.algorithm}/{spec.resolved_engine()}/n={spec.n}", len(spec.seeds),
                       messages))
        table.add_row(f"{spec.algorithm}/n={spec.n}", spec.resolved_engine(), len(spec.seeds),
                      messages, f"{sequential_s:.2f}", f"{sharded_s:.2f}", f"{speedup:.2f}x",
                      steals)
    result = dict(
        totals=totals, workers=workers, speedup=speedup, steals=steals,
        sequential_s=sequential_s, sharded_s=sharded_s,
        sequential=[canonical_record(r) for r in sequential],
        sharded=[canonical_record(r) for r in sharded],
        sequential_counters=seq_registry["counters"], sharded_counters=registry["counters"],
    )
    return {"sweep_parallel": (table, result)}


def check_sweep_parallel(rows, full):
    result = rows["sweep_parallel"]
    assert result["sharded"] == result["sequential"], (
        "sharded sweep records differ from the sequential run"
    )
    assert result["sharded_counters"] == result["sequential_counters"], (
        "merged metric counters differ between worker counts",
        result["sharded_counters"], result["sequential_counters"],
    )
    # The floor needs the full grid (smoke cells are too brief to
    # amortize pool startup) and the cores (1-core boxes cannot shard).
    cores = os.cpu_count() or 1
    if full and cores < MIN_CORES:
        print(f"note: speedup floor not asserted ({cores} cores < {MIN_CORES})")
    elif full:
        assert result["speedup"] >= MIN_SHARDED_SPEEDUP, (
            f"sweep(workers={result['workers']}) must be >= {MIN_SHARDED_SPEEDUP}x faster than "
            f"workers=1 on the full grid; measured {result['speedup']:.2f}x "
            f"({result['sequential_s']:.2f}s vs {result['sharded_s']:.2f}s)"
        )


def sweep_parallel_metrics(rows):
    result = rows["sweep_parallel"]
    metrics = {}
    for key, records, messages in result["totals"]:
        metrics[f"{key}/total_messages"] = messages
        metrics[f"{key}/records"] = records
    info = {
        "wall_s": {"workers=1": result["sequential_s"],
                   f"workers={result['workers']}": result["sharded_s"]},
        "speedup": result["speedup"],
        "steals": result["steals"],
        "cpu_count": os.cpu_count(),
    }
    return metrics, {}, info


def causal_overhead(workers=2, smoke=False, reps=3):
    """S7: per-worker spooling on a mixed object-engine grid.  The
    spooled sweep stays within 15% of the unspooled one (full mode
    only); the report the collector rebuilds from the shards alone
    matches the live registry bit-exactly, and the reference trace's
    happens-before graph keeps its shape (every mode, CI-gated)."""
    from repro.obs import collect
    from repro.telemetry import build_graph, critical_path, load_trace

    n, m = (64, 32) if smoke else (256, 128)
    grid = [
        RunSpec(algorithm="improved_tradeoff", n=n, seeds=(0, 1) if smoke else tuple(range(6)),
             params={"ell": 3}),
        RunSpec(algorithm="afek_gafni", n=n, seeds=(0, 1) if smoke else tuple(range(4))),
        RunSpec(algorithm="las_vegas", n=m, seeds=(0,) if smoke else tuple(range(4))),
    ]
    off_times, on_times, reports = [], [], []
    with tempfile.TemporaryDirectory(prefix="bench-causal-") as tmp:
        # Interleave the arms so drift in machine load hits both.
        for rep in range(reps):
            registry = MetricsRegistry()
            off_times.append(_timed(sweep, grid, workers=workers, registry=registry)[1])
            spool = os.path.join(tmp, f"spool-{rep}")
            on_times.append(_timed(sweep, grid, workers=workers, spool_dir=spool)[1])
            report = collect(spool)
            reports.append(report.canonical_bytes())
        trace_path = os.path.join(tmp, "trace.jsonl")
        execute_spec(RunSpec(algorithm="improved_tradeoff", n=n, seeds=(0,), params={"ell": 3},
                          trace=trace_path))
        trace = load_trace(trace_path)
    # Collector fidelity: the spool shards alone reproduce the live
    # parent's counters, and the canonical report is rep-stable.
    live = registry.as_dict()["counters"]
    canonical = report.canonical()["counters"]
    drift = sum(abs(canonical.get(key, 0) - live.get(key, 0))
                for key in ("sweep.records", "sweep.messages"))
    drift += sum(blob != reports[0] for blob in reports[1:])
    off_s, on_s = _median(off_times), _median(on_times)
    ratio = on_s / off_s if off_s > 0 else float("inf")
    table = Table(
        ["arm", "wall s", "ratio", "cells", "records", "messages", "drift"],
        title=f"Spooling overhead, {workers} workers over {len(grid)} specs",
    )
    table.add_row("unspooled", f"{off_s:.3f}", "1.00x", report.cells,
                  live.get("sweep.records", 0), live.get("sweep.messages", 0), "-")
    table.add_row("spooled", f"{on_s:.3f}", f"{ratio:.2f}x", report.cells, report.records,
                  report.messages, drift)
    def causal_graph():
        graph = build_graph(trace)
        return graph, critical_path(trace, graph)

    (graph, path), build_s = _timed(causal_graph)
    result = dict(
        off_s=off_s, on_s=on_s, ratio=ratio, drift=drift, records=report.records,
        messages=report.messages, workers=workers, path=path, build_s=build_s,
        causal={"events": len(trace.events), "message_edges": len(graph.message_edges),
                "max_clock": max(graph.clocks), "round_length": path.round_length}, n=n,
    )
    return {"causal_overhead": (table, result)}


def check_causal_overhead(rows, full):
    result = rows["causal_overhead"]
    path = result["path"]
    assert path.round_length == path.decide_round, (
        "exact-mode critical path must span exactly the decide rounds",
        path.round_length, path.decide_round,
    )
    assert path.round_length >= 1
    assert result["drift"] == 0, (
        "spool-collected counters drifted from the live registry", result["drift"],
    )
    # Smoke cells are too brief for the ratio to mean anything on shared CI boxes.
    if full:
        assert result["ratio"] <= MAX_SPOOL_RATIO, (
            f"spooled sweep must stay within {MAX_SPOOL_RATIO:.2f}x of the unspooled arm; "
            f"measured {result['ratio']:.2f}x ({result['on_s']:.2f}s vs {result['off_s']:.2f}s)"
        )


def causal_overhead_metrics(rows):
    result = rows["causal_overhead"]
    metrics = {
        "sweep/records": result["records"],
        "sweep/messages": result["messages"],
        "spool/drift": result["drift"],
    }
    for key, value in result["causal"].items():
        metrics[f"causal/n={result['n']}/{key}"] = value
    info = {
        "wall_s": {"unspooled": result["off_s"], "spooled": result["on_s"]},
        "spool_ratio": result["ratio"],
        "graph_build_s": result["build_s"],
        "workers": result["workers"],
        "cpu_count": os.cpu_count(),
    }
    return metrics, {}, info


BENCHES: Dict[str, Bench] = {
    "thm38_lowerbound": Bench(thm38_lowerbound, check_thm38_lowerbound),
    "thm38_flood_curve": Bench(thm38_flood_curve, check_thm38_flood_curve),
    "thm311_nlogn_lb": Bench(thm311_nlogn_lb, check_thm311_nlogn_lb),
    "thm310_improved_tradeoff": Bench(thm310_improved_tradeoff, check_thm310_improved_tradeoff),
    "afek_gafni_sync": Bench(afek_gafni_sync, check_afek_gafni_sync),
    "small_id": Bench(small_id, check_small_id),
    "las_vegas": Bench(las_vegas, check_las_vegas),
    "kutten16": Bench(kutten16, check_kutten16),
    "figure_sync_frontier": Bench(figure_sync_frontier, check_figure_sync_frontier),
    "thm41_adversarial2round": Bench(thm41_adversarial2round, check_thm41_adversarial2round),
    "thm42_wakeup_lb": Bench(thm42_wakeup_lb, check_thm42_wakeup_lb),
    "thm51_async_tradeoff": Bench(thm51_async_tradeoff, check_thm51_async_tradeoff),
    "async_afek_gafni": Bench(async_afek_gafni, check_async_afek_gafni),
    "figure_async_frontier": Bench(figure_async_frontier, check_figure_async_frontier),
    "failover_churn": Bench(failover_churn, check_failover_churn,
                            dict(ns=(32, 64), seeds=(0, 1)), failover_churn_metrics),
    "scenario_churn": Bench(scenario_churn, check_scenario_churn,
                            dict(ns=(16, 32), seeds=(0, 1)), scenario_churn_metrics),
    "adversary": Bench(adversary, check_adversary, dict(ns=(8, 12), seeds=(0, 1)),
                       adversary_metrics),
    "scenario_fast": Bench(scenario_fast, check_scenario_fast,
                           dict(head_n=256, seeds=(0,), anchor_n=512), scenario_fast_metrics),
    "fastsync_scale": Bench(fastsync_scale, check_fastsync_scale,
                            dict(ns=(512, 4096), seeds=(0, 1)), fastsync_scale_metrics),
    "fastsync_batch": Bench(fastsync_batch, check_fastsync_batch,
                            dict(points=((512, 5, 8), (4096, 5, 8)), reference_seeds=None),
                            fastsync_batch_metrics),
    "telemetry_overhead": Bench(telemetry_overhead, check_telemetry_overhead,
                                dict(points=((512, 5, 8), (4096, 5, 8)), reps=1),
                                telemetry_overhead_metrics),
    "monitor_overhead": Bench(monitor_overhead, check_monitor_overhead,
                              dict(points=((64, 2), (256, 2)), reps=1), monitor_overhead_metrics),
    "sweep_parallel": Bench(sweep_parallel, check_sweep_parallel, dict(workers=2, smoke=True),
                            sweep_parallel_metrics),
    "causal_overhead": Bench(causal_overhead, check_causal_overhead, dict(smoke=True, reps=1),
                             causal_overhead_metrics),
}
