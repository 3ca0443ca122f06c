"""T1.9 — Algorithm 1 / Theorem 3.15 (small ID universes escape Ω(n log n)).

Paper claim: with IDs from ``{1..n·g(n)}``, Algorithm 1 elects in
``⌈n/d⌉`` rounds with ``≤ n·d·g(n)`` messages; for constant ``g`` and
``d = o(log n)`` this is ``o(n log n)`` messages in sublinear time —
showing the Theorem 3.11 universe requirement is necessary.

Reproduced shape:

* messages ≤ n·d·g and rounds ≤ ⌈n/d⌉ on every run;
* the d-knob trades time against messages monotonically;
* at ``d = 2, g = 1`` the measured messages sit *below* the Ω(n log n)
  curve that binds large-universe algorithms.
"""

import random

from repro.analysis import RunSpec, Table, sweep
from repro.core import SmallIdElection
from repro.ids import assign_random, small_universe
from repro.lowerbound import bounds

from _harness import bench_once, emit

G = 1
NS = [256, 1024, 4096]
DS = [2, 8, 32]


def run_sweep():
    table = Table(
        ["n", "d", "rounds", "round bound", "messages", "msg bound", "n*log2(n)"],
        title="Theorem 3.15: Algorithm 1 on the linear ID universe {1..n}",
    )
    rows = []
    for n in NS:
        for d in DS:
            records = sweep(
                RunSpec(
                    algorithm="small_id",
                    n=n,
                    engine="sync",
                    seeds=(seed,),
                    params={"d": d, "g": G},
                    ids=assign_random(
                        small_universe(n, G), n, random.Random(f"{n}:{seed}:workload")
                    ),
                )
                for seed in (0, 1, 2)
            )
            for r in records:
                assert r.unique_leader
                rows.append((n, d, r))
            worst = max(records, key=lambda r: r.messages)
            table.add_row(
                n,
                d,
                int(worst.time),
                bounds.thm315_rounds(n, d),
                worst.messages,
                bounds.thm315_messages(n, d, G),
                bounds.thm311_message_lb(n),
            )
    return table, rows


def run_worst_case_time():
    """Adversarial workload: IDs packed into the top of a {1..2n}
    universe, so every early window is empty and the algorithm pays its
    full ⌈n/d⌉-round time bound (the other end of the tradeoff)."""
    g = 2
    table = Table(
        ["n", "d", "rounds", "round bound", "messages", "msg bound"],
        title="Theorem 3.15 worst case: top-block IDs in {1..2n} (time-heavy end)",
    )
    rows = []
    for n in (1024, 4096):
        for d in (8, 64):
            ids = list(range(n * g - n + 1, n * g + 1))  # the top n IDs
            from repro.sync.engine import SyncNetwork

            result = SyncNetwork(
                n, lambda: SmallIdElection(d=d, g=g), ids=ids, seed=0, max_rounds=8 * n
            ).run()
            assert result.unique_leader and result.elected_id == min(ids)
            rows.append((n, d, g, result))
            table.add_row(
                n,
                d,
                result.last_send_round,
                bounds.thm315_rounds(n, d),
                result.messages,
                bounds.thm315_messages(n, d, g),
            )
    return table, rows


def test_bench_small_id(benchmark):
    table, rows = bench_once(benchmark, run_sweep)
    emit("thm315_small_id", table.render())
    for n, d, r in rows:
        assert r.messages <= bounds.thm315_messages(n, d, G)
        assert r.time <= bounds.thm315_rounds(n, d)
        if d == 2:
            # The escape from Theorem 3.11: o(n log n) messages.
            assert r.messages < bounds.thm311_message_lb(n), (n, r.messages)


def test_bench_small_id_worst_case_time(benchmark):
    table, rows = bench_once(benchmark, run_worst_case_time)
    emit("thm315_small_id_worst_case", table.render())
    for n, d, g, result in rows:
        assert result.last_send_round <= bounds.thm315_rounds(n, d)
        # The workload really does exercise the time dimension: the
        # election ends in the window of the minimum ID, deep into the
        # schedule.
        assert result.last_send_round >= (n + 1) // (d * g), (n, d, result.last_send_round)
        assert result.messages <= bounds.thm315_messages(n, d, g)
