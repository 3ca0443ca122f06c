#!/usr/bin/env python3
"""Scenario: coordinator failover in an asynchronous datacenter cell.

The motivating workload from the paper's introduction: a cell of worker
machines (a clique at the network layer — everyone can reach everyone)
loses its coordinator and must elect a replacement.  Constraints of the
scenario:

* machines notice the failure at slightly different times (adversarial
  wake-up: the monitoring system pages a few machines first);
* the network is asynchronous with heterogeneous link delays (some
  racks are persistently slower);
* we can spend either *time* (slow failover) or *messages* (network
  load) — the Theorem 5.1 knob k.

This script simulates the failover with three settings of k under a
heterogeneous delay adversary and reports the time-to-new-leader and the
message load per machine, then does a side-by-side with the
asynchronous Afek–Gafni algorithm (Theorem 5.14) for the case where the
monitoring system manages a synchronized restart (simultaneous wake-up).

Act three injects the failure the scenario is named after: the freshly
elected coordinator is *killed the moment it announces victory* (a
``LeaderKillPolicy`` from the faults subsystem), its crash is noticed by
a perfect failure detector, and the surviving machines re-elect — the
epoch-based re-election wrapper restarts the Theorem 5.1 algorithm on
the survivor sub-clique.  The run reports measured detection latency,
re-election time, and the message cost of the recovery epoch.

Run:  python examples/datacenter_failover.py
"""

import random

from repro.analysis import RunSpec, run
from repro.asyncnet import AsyncNetwork, PerLinkDelayScheduler
from repro.core import AsyncAfekGafniElection, AsyncTradeoffElection
from repro.faults import (
    AsyncReElectionElection,
    DetectorSpec,
    FaultPlan,
    LeaderKillPolicy,
)
from repro.lowerbound import bounds

CELL_SIZE = 512


def failover_with_tradeoff(k: int, seed: int) -> None:
    rng = random.Random(seed)
    # Monitoring pages 3 machines within the first half time unit.
    first_pages = {rng.randrange(CELL_SIZE): 0.0 for _ in range(3)}
    net = AsyncNetwork(
        CELL_SIZE,
        lambda: AsyncTradeoffElection(k=k),
        seed=seed,
        scheduler=PerLinkDelayScheduler(random.Random(seed + 1)),
        wake_times=first_pages,
        max_events=8_000_000,
    )
    result = net.run()
    per_machine = result.messages / CELL_SIZE
    print(f"  k={k}:")
    print(f"    new coordinator : machine id {result.elected_id}"
          f" ({'unique' if result.unique_leader else 'FAILED'})")
    print(f"    failover time   : {result.time:.2f} time units (budget {bounds.thm51_time(k)})")
    print(f"    network load    : {result.messages:,} messages"
          f" ({per_machine:.1f} per machine)")


def failover_synchronized_restart(seed: int) -> None:
    net = AsyncNetwork(
        CELL_SIZE,
        AsyncAfekGafniElection,
        seed=seed,
        scheduler=PerLinkDelayScheduler(random.Random(seed + 1)),
        wake_times={u: 0.0 for u in range(CELL_SIZE)},
        max_events=8_000_000,
    )
    result = net.run()
    print("  async Afek-Gafni (deterministic, simultaneous wake-up):")
    print(f"    new coordinator : machine id {result.elected_id}")
    print(f"    failover time   : {result.time:.2f} time units (O(log n) = "
          f"{bounds.thm514_time(CELL_SIZE):.1f})")
    print(f"    network load    : {result.messages:,} messages "
          f"(O(n log n) = {bounds.thm514_messages(CELL_SIZE):,.0f})")


def failover_under_churn(seed: int) -> None:
    """Kill the new coordinator mid-election; survivors re-elect."""
    plan = FaultPlan(
        policies=(LeaderKillPolicy(kinds=("ree_coord",), delay=0.5, max_kills=1),),
        detector=DetectorSpec(kind="perfect", lag=1.0),
    )
    rng = random.Random(seed)
    first_pages = {rng.randrange(CELL_SIZE): 0.0 for _ in range(3)}
    record = run(
        RunSpec(
            algorithm=lambda: AsyncReElectionElection(
                inner="async_tradeoff", commit_delay=4.0, poll_interval=0.5,
                inner_params={"k": 3},
            ),
            n=CELL_SIZE,
            engine="async",
            seeds=(seed,),
            wake_times=first_pages,
            max_events=20_000_000,
            faults=plan,
        )
    )
    crashed = record.extra["crashed"]
    survived = record.extra["unique_surviving_leader"]
    failover = record.extra["failover"]
    latencies = failover["detection_latencies"]
    assert survived, "churn must still yield one survivor"
    print("  epoch 0 winner crashed at its victory announcement"
          f" (machine index {crashed[0]})")
    print(f"    crash detected in   : {sum(latencies) / len(latencies):.2f} time units"
          " (perfect detector, lag 1)")
    print(f"    new coordinator     : machine id {record.extra['surviving_leader_id']}"
          f" ({'unique survivor' if survived else 'FAILED'})")
    print(f"    re-election time    : {failover['reelection_time']:.2f} time units"
          " after the crash")
    print(f"    recovery traffic    : {failover['messages_after_first_crash']:,} of"
          f" {record.messages:,} total messages")


def main() -> None:
    print(f"Coordinator failover in a {CELL_SIZE}-machine cell")
    print("(heterogeneous per-link delays; monitoring pages 3 machines)\n")
    print("Randomized tradeoff (Theorem 5.1) — pick your point on the curve:")
    for k in (2, 3, 6):
        failover_with_tradeoff(k, seed=11)
    print()
    print("If the cell supports a synchronized restart:")
    failover_synchronized_restart(seed=13)
    print()
    print("If the replacement coordinator itself crashes (churn):")
    failover_under_churn(seed=17)
    print()
    print("Reading: k=2 converges fastest but floods the network (~n^1.5")
    print("messages); k=6 cuts the load by an order of magnitude for a few")
    print("extra time units — the tradeoff of Theorem 5.1.  Under churn,")
    print("the re-election wrapper pays one extra election per crash, after")
    print("one detection lag — see benchmarks/run.py failover_churn.")


if __name__ == "__main__":
    main()
