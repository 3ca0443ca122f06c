"""The named scenario library.

Five ready-made timelines cover the ROADMAP churn axes — partitions
with measured re-convergence, crash-recovery with persisted epoch
state, dynamic membership, adversarial frontrunner churn, and repeated
elections on the same clique.  Each builder takes the initial clique
size ``n`` (event timings are size-independent: the registered inner
algorithms elect in O(ell) rounds regardless of ``n``, so the windows
below leave generous slack) and returns an immutable
:class:`~repro.scenarios.Scenario`.

Run them via ``python -m repro scenarios run NAME`` or
:func:`repro.scenarios.run_scenario`; sweep them in
``benchmarks/run.py scenario_churn``.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List

from repro.faults.plan import LeaderKillPolicy
from repro.scenarios.events import (
    LAST_CRASHED,
    LEADER,
    Scenario,
    crash,
    elect,
    join,
    partition,
    recover,
    slander,
)

__all__ = [
    "NAMED_SCENARIOS",
    "get_scenario",
    "partition_heal",
    "rolling_restart",
    "flapping_leader",
    "staggered_joins",
    "election_storm",
    "slandered_leader",
    "forged_frontrunner",
    "poisson_churn",
]


def partition_heal(n: int) -> Scenario:
    """Split the clique into two halves, heal, measure re-convergence.

    During the window each half elects its own leader (one engine run
    under a ``PartitionMask``); the heal triggers a fresh full-clique
    election, after which exactly one agreed leader must remain.
    """
    half = n // 2
    return Scenario(
        name="partition_heal",
        description="two-way split with automatic heal and re-convergence",
        events=(
            partition(
                (tuple(range(half)), tuple(range(half, n))), start=20.0, end=80.0
            ),
        ),
    )


def rolling_restart(n: int, restarts: int = 3) -> Scenario:
    """Crash the current leader, let it recover, repeat.

    Exercises crash-*recovery* with persisted epoch state: each crashed
    leader returns with a stale epoch and must rejoin as a follower
    (elect-lower-epoch) instead of reclaiming leadership by fiat.
    """
    restarts = max(1, min(restarts, n - 1))
    events: List = []
    t = 20.0
    for _ in range(restarts):
        events.append(crash(LEADER, t))
        events.append(recover(LAST_CRASHED, t + 30.0))
        t += 60.0
    return Scenario(
        name="rolling_restart",
        description="serially crash and recover each sitting leader",
        events=tuple(events),
    )


def flapping_leader(n: int, kills: int = 3) -> Scenario:
    """Kill every new leader the moment it announces victory.

    Pure in-run churn: one election act whose
    :class:`~repro.faults.LeaderKillPolicy` crashes the frontrunner at
    each announcement until ``kills`` are spent, so the act's re-election
    wrapper burns through ``kills + 1`` epochs before a survivor commits.
    """
    return Scenario(
        name="flapping_leader",
        description="adversarial kill-the-frontrunner churn inside one act",
        events=(),
        kill_policy=LeaderKillPolicy(delay=1.0, max_kills=kills),
        min_n=kills + 2,
    )


def staggered_joins(n: int, joins: int = 3) -> Scenario:
    """Grow the clique one node at a time under membership re-election.

    Uses ``membership_policy="membership_change"``: every join forces a
    fresh election over the grown clique, measuring the cost of dynamic
    membership beyond crashes.
    """
    events = tuple(join(20.0 + 30.0 * i) for i in range(max(1, joins)))
    return Scenario(
        name="staggered_joins",
        description="dynamic membership: joins force re-election",
        events=events,
        membership_policy="membership_change",
    )


def election_storm(n: int, repeats: int = 4) -> Scenario:
    """Repeated elections on the same clique (multi-election workload).

    No faults at all: ``elect`` events re-run the election every window,
    measuring steady-state election cost and verifying that repeated
    epochs never break leadership agreement between commits.
    """
    events = tuple(elect(20.0 + 30.0 * i) for i in range(max(1, repeats)))
    return Scenario(
        name="election_storm",
        description="repeated fresh elections on an unchanged clique",
        events=events,
    )


def slandered_leader(n: int, slanders: int = 2) -> Scenario:
    """Byzantine node 0 serially slanders each sitting leader as dead.

    Nobody actually crashes: the detectors lie, the honest majority
    re-elects, and the slandered ex-leader — alive and initially
    convinced of its reign — is the split-brain seed.  Run with
    ``--quorum`` the victim rejoins as a follower via coord catch-up
    (split-brain metric 0); without it the victim never learns the new
    reign and the act records a stall.
    """
    slanders = max(1, slanders)
    events = tuple(
        slander(0, LEADER, 20.0 + 40.0 * i, duration=1000.0)
        for i in range(slanders)
    )
    return Scenario(
        name="slandered_leader",
        description="Byzantine detector slander deposes live leaders by rumor",
        events=events,
        min_n=4,
    )


def forged_frontrunner(n: int) -> Scenario:
    """Byzantine node 0 forges the frontrunner ID, reigns, then dies.

    Every ``compete`` message node 0 sends claims an ID larger than the
    whole universe, so the honest referees crown the forger in the
    initial act (its *announcement* still carries the real ID — the
    coord envelope is authenticated).  The forger is then crashed and
    the honest survivors re-elect cleanly, measuring what one Byzantine
    reign costs end to end.
    """
    from repro.adversary.plan import AdversaryPlan, TamperRule

    return Scenario(
        name="forged_frontrunner",
        description="Byzantine node forges a winning ID, reigns, then crashes",
        events=(crash(0, 30.0),),
        adversary=AdversaryPlan(
            byzantine=(0,),
            tampers=(TamperRule(mode="forge", kinds=("compete",)),),
        ),
        min_n=4,
    )


def poisson_churn(
    n: int,
    rate: float = 0.04,
    horizon: float = 240.0,
    seed: int = 0,
    recovery_delay: float = 25.0,
) -> Scenario:
    """Randomized churn: leader crashes arrive as a Poisson process.

    Crash arrivals are drawn with exponential inter-arrival gaps of mean
    ``1/rate`` until ``horizon``; each crash targets the sitting leader
    and is followed ``recovery_delay`` later by the recovery of the most
    recently downed node, so the clique churns without shrinking away.
    The timeline is a pure function of ``(rate, horizon, seed)`` — the
    generator's randomness is its own, never the engines' (ROADMAP:
    "randomized churn generators, Poisson crash arrival").
    """
    if rate <= 0:
        raise ValueError("poisson_churn needs a positive arrival rate")
    if horizon <= 0:
        raise ValueError("poisson_churn needs a positive horizon")
    rng = random.Random(f"poisson:{rate}:{horizon}:{seed}")
    events: List = []
    t = 20.0
    while True:
        t += rng.expovariate(rate)
        if t >= horizon:
            break
        at = round(t, 3)
        events.append(crash(LEADER, at))
        events.append(recover(LAST_CRASHED, at + recovery_delay))
    return Scenario(
        name="poisson_churn",
        description=f"Poisson leader churn (rate={rate:g}, horizon={horizon:g})",
        events=tuple(events),
    )


NAMED_SCENARIOS: Dict[str, Callable[[int], Scenario]] = {
    "partition_heal": partition_heal,
    "rolling_restart": rolling_restart,
    "flapping_leader": flapping_leader,
    "staggered_joins": staggered_joins,
    "election_storm": election_storm,
    "slandered_leader": slandered_leader,
    "forged_frontrunner": forged_frontrunner,
    "poisson_churn": poisson_churn,
}


def get_scenario(name: str, n: int, **kwargs) -> Scenario:
    """Build a named scenario for clique size ``n``.

    Raises ``KeyError`` with the known names on a typo, mirroring the
    algorithm registries.
    """
    try:
        builder = NAMED_SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(NAMED_SCENARIOS))
        raise KeyError(f"unknown scenario {name!r}; known scenarios: {known}") from None
    return builder(n, **kwargs)
