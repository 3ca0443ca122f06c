"""One-command regeneration of the paper's Table 1 with measured columns.

``python -m repro report [--n N] [--seeds S]`` runs a compact version of
every experiment in the benchmark harness (smaller grids, fewer seeds)
and prints a single table shaped like the paper's Table 1: one row per
result, with the paper's formula evaluated at N next to the measured
numbers.  The full-size version with fitted exponents lives in
``benchmarks/``; this is the fast, self-contained summary.

The table is declared as one list of rows (section titles, bound-only
rows and measured rows naming a registry algorithm), and every measured
cell runs in one :func:`~repro.sweep.sweep`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.analysis.tables import Table
from repro.core import get_algorithm
from repro.ids import assign_random, small_universe, tradeoff_universe
from repro.lowerbound import bounds
from repro.mathutil import ceil_sqrt
from repro.sweep.api import sweep
from repro.sweep.spec import RunSpec

__all__ = ["table1_report"]


def _shared_fields(seed: int) -> Dict[str, Any]:
    """No per-seed fields: every seed runs the spec's defaults."""
    return {}


@dataclass(frozen=True)
class _Measured:
    """A measured row: one registry algorithm run once per seed.

    ``per_seed`` gives a seed's extra :class:`RunSpec` fields (IDs,
    wake-up).  Monte Carlo rows (``rate``) report the success rate, the
    rest whether every seed elected a unique leader; async rows report
    the slowest seed's time, sync rows the mean.
    """

    label: str
    paper_time: Any
    paper_messages: Any
    algorithm: str
    params: Dict[str, Any] = field(default_factory=dict)
    per_seed: Callable[[int], Dict[str, Any]] = _shared_fields
    rate: bool = False


def _table1_rows(n: int) -> List[Any]:
    """Table 1 top to bottom: section titles, bound-only rows (label,
    paper time, paper messages) and measured rows."""

    def tradeoff_ids(seed: int) -> Dict[str, Any]:
        rng = random.Random(f"report:{n}:{seed}")
        return {"ids": assign_random(tradeoff_universe(n), n, rng)}

    def small_ids(seed: int) -> Dict[str, Any]:
        rng = random.Random(f"rs:{n}:{seed}")
        return {"ids": assign_random(small_universe(n, 1), n, rng)}

    def two_roots(seed: int) -> Dict[str, Any]:
        return {**tradeoff_ids(seed), "awake": (0, 1)}

    def sqrt_roots(seed: int) -> Dict[str, Any]:
        rng = random.Random(f"roots:{n}:{seed}")
        return {"awake": rng.sample(range(n), ceil_sqrt(n))}

    def all_awake(seed: int) -> Dict[str, Any]:
        return {"wake_times": {u: 0.0 for u in range(n)}}

    return [
        "synchronous / deterministic / simultaneous wake-up",
        ("LB Thm 3.8 (k=3 rounds)", "<= 3", f">= {bounds.thm38_message_lb(n, 3):,.0f}"),
        *(
            _Measured(f"Alg Thm 3.10 (ell={ell})", ell, bounds.thm310_messages(n, ell),
                      "improved_tradeoff", {"ell": ell}, tradeoff_ids)
            for ell in (3, 5)
        ),
        ("LB Thm 3.11 (time-bounded)", "any T(n)",
         f">= ~{bounds.thm311_message_lb(n):,.0f}"),
        _Measured("Alg Thm 3.15 (d=2, g=1)", bounds.thm315_rounds(n, 2),
                  bounds.thm315_messages(n, 2, 1), "small_id", {"d": 2, "g": 1},
                  small_ids),
        "synchronous / deterministic / adversarial wake-up",
        _Measured("Alg [1] AG (ell=4)", "4 (+1 announce)", bounds.ag_messages(n, 4),
                  "afek_gafni", {"ell": 4}, two_roots),
        ("LB [1] (c=2)", "<= 0.5*log2 n", f">= {bounds.ag_tradeoff_lb(n, 2):,.0f}"),
        "synchronous / randomized / simultaneous wake-up",
        _Measured("Alg Thm 3.16 (Las Vegas)", "3 (whp)",
                  f"O(n) = {bounds.thm316_las_vegas_messages(n):,.0f}", "las_vegas"),
        ("LB Thm 3.16 (Las Vegas)", "-", f">= {bounds.thm316_las_vegas_lb(n):,.0f}"),
        _Measured("Alg [16] (Monte Carlo)", 2, bounds.kutten16_messages(n), "kutten16",
                  rate=True),
        "synchronous / randomized / adversarial wake-up",
        _Measured("Alg Thm 4.1 (eps=0.05)", 2, bounds.thm41_expected_messages(n, 0.05),
                  "adversarial_2round", {"epsilon": 0.05}, sqrt_roots, rate=True),
        ("LB Thm 4.2 (2 rounds)", "<= 2", f">= {bounds.thm42_message_lb(n):,.0f}"),
        "asynchronous / randomized",
        *(
            _Measured(f"Alg Thm 5.1 (k={k})", bounds.thm51_time(k),
                      bounds.thm51_messages(n, k), "async_tradeoff", {"k": k}, rate=True)
            for k in (2, 4)
        ),
        ("Alg [14] (reference, not reimplemented)",
         f"O(log^2 n) = {bounds.kmp14_time(n):,.0f}",
         f"O(n) = {bounds.kmp14_messages(n):,.0f}"),
        _Measured("Alg Thm 5.14 (async AG)", f"O(log n) = {bounds.thm514_time(n):,.0f}",
                  f"O(n log n) = {bounds.thm514_messages(n):,.0f}", "async_afek_gafni",
                  per_seed=all_awake),
    ]


def table1_report(n: int = 512, seeds: Optional[Sequence[int]] = None) -> Table:
    """Build the measured Table 1 at clique size ``n``."""
    if seeds is None:
        seeds = (0, 1, 2)
    table = Table(
        ["Table 1 row", "paper time", "paper messages", "measured time", "measured messages", "success"],
        title=f"Table 1, regenerated at n={n} (means over {len(seeds)} seeds)",
    )
    rows = _table1_rows(n)
    specs = []
    for row in rows:
        if isinstance(row, _Measured):
            # The registry engine, named explicitly: "auto" would move
            # n > 2048 rows onto the fast engine.
            engine = get_algorithm(row.algorithm).engine
            specs += [
                RunSpec(
                    algorithm=row.algorithm, n=n, engine=engine, seeds=(seed,),
                    params=row.params, **row.per_seed(seed),
                    max_events=12_000_000 if engine == "async" else None,
                )
                for seed in seeds
            ]
    records = iter(sweep(specs))
    for row in rows:
        if isinstance(row, str):
            table.add_section(row)
        elif isinstance(row, tuple):
            table.add_row(*row, "-", "-", "-")
        else:
            runs = [next(records) for _ in seeds]
            times = [r.time for r in runs]
            asynchronous = get_algorithm(row.algorithm).engine == "async"
            table.add_row(
                row.label,
                row.paper_time,
                row.paper_messages,
                max(times) if asynchronous else sum(times) / len(times),
                sum(r.messages for r in runs) / len(runs),
                sum(r.unique_leader for r in runs) / len(runs)
                if row.rate
                else all(r.unique_leader for r in runs),
            )
    return table
