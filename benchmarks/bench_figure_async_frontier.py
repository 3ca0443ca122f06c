"""F2 — the asynchronous tradeoff frontier (messages vs time).

Theorem 5.1's tradeoff rendered as a curve over k at fixed n: measured
(time, messages) pairs for k = 2..8, with the two anchor points the paper
highlights:

* k = 2 → 10 time units and ~n^(3/2) messages, matching the Theorem 4.2
  lower-bound point;
* k = Θ(log n/log log n) → ~O(log n) time and n·polylog messages,
  approaching the [14] singular-optimality reference row.

The frontier must be monotone: more time, fewer messages.
"""

from repro.analysis import RunSpec, Table, sweep
from repro.lowerbound import bounds

from _harness import bench_once, emit

N = 2048
KS = [2, 3, 4, 5, 6, 8]
SEEDS = [0, 1, 2]


def run_frontier():
    table = Table(
        ["k", "k+8 budget", "measured time (max)", "mean msgs", "O(n^(1+1/k))", "Thm 4.2 floor (k=2 only)"],
        title=f"Figure F2: async messages-vs-time frontier at n={N}",
    )
    curve = []
    for k in KS:
        records = sweep(
            RunSpec(
                algorithm="async_tradeoff",
                n=N,
                engine="async",
                seeds=SEEDS,
                params={"k": k},
                max_events=8_000_000,
            )
        )
        assert all(r.leaders <= 1 for r in records)
        ok = [r for r in records if r.unique_leader]
        assert ok, f"no successful run at k={k}"
        mean_msgs = sum(r.messages for r in ok) / len(ok)
        max_time = max(r.time for r in ok)
        floor = bounds.thm42_message_lb(N) if k == 2 else float("nan")
        table.add_row(k, bounds.thm51_time(k), max_time, mean_msgs, bounds.thm51_messages(N, k), floor)
        curve.append((k, max_time, mean_msgs))
    return table, curve


def test_bench_async_frontier(benchmark):
    table, curve = bench_once(benchmark, run_frontier)
    emit("figure_async_frontier", table.render())
    msgs = [m for _, _, m in curve]
    # monotone frontier: larger k never costs more messages.
    assert all(a >= b for a, b in zip(msgs, msgs[1:])), msgs
    # anchor 1: k=2 sits at/above the Omega(n^{3/2}) point.
    assert msgs[0] >= bounds.thm42_message_lb(N) / 2
    # anchor 2: largest k is within n * polylog.
    import math

    assert msgs[-1] <= N * math.log2(N) ** 2
    # time budgets respected (+1 announcement hop).
    for k, max_time, _ in curve:
        assert max_time <= bounds.thm51_time(k) + 1, (k, max_time)
