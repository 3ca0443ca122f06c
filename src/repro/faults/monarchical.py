"""Monarchical eventual leader election over a failure-detector oracle.

The classic textbook algorithm (Algo 2.6 / 2.8 of the reliable-broadcast
literature): every node trusts the *maximum unsuspected ID*.  With a
perfect detector this is crash-fault-tolerant leader election; with ◇P
it is eventual leader election (Ω-style): after the detector stabilizes,
all alive nodes trust the same alive node.

Simulation-shaped termination
-----------------------------

The textbook algorithm never terminates (trust may change forever).  To
fit the engines' run-to-quiescence model, a node commits its trust as an
irrevocable engine decision once the trust value has been *stable* for
``stable_rounds`` consecutive rounds (sync) or ``stable_polls`` detector
polls (async), then halts.  With a perfect detector and a finite crash
schedule this always terminates; with ◇P the stability window must
exceed the detector's ``noise_horizon`` or two nodes may commit
different leaders during the noisy prefix (eventual election is exactly
that weak — pick ``stable_rounds`` accordingly, see
:func:`safe_stable_rounds`).

Because detector output already carries IDs, followers can decide
*explicitly* (naming the leader) without any communication.  The leader
still broadcasts one ``("coord", id)`` announcement per reign — that is
the traffic failover metrics count, it wakes sleeping peers on the
asynchronous engine, and it mirrors what a datacenter coordinator would
actually do.
"""

from __future__ import annotations

import math
from typing import Any, Optional

from repro.asyncnet.algorithm import AsyncAlgorithm
from repro.faults.reelect import check_count, check_delay
from repro.sync.algorithm import Inbox, SyncAlgorithm

__all__ = [
    "MonarchicalElection",
    "AsyncMonarchicalElection",
    "safe_stable_rounds",
]

COORD = "coord"


def safe_stable_rounds(noise_horizon: float, lag: float) -> int:
    """A stability window that outlasts a ◇P detector's noisy prefix."""
    return int(math.ceil(noise_horizon + lag)) + 2


class _TrustStep:
    """The monarchical step both engines share.

    Each step reads the trusted ID; a trust change resets the stability
    count, a newly trusted node announces its reign once, and ``window``
    consecutive steps (rounds or polls) with unchanged trust commit it.
    """

    trust: Optional[int] = None
    stable = 0
    announced = False
    done = False

    def _step(self, ctx, now: float, window: int) -> None:
        trust = ctx.detector.trusted(now)
        if trust != self.trust:
            self.trust = trust
            self.stable = 1
            self.announced = False
        else:
            self.stable += 1
        if trust == ctx.my_id and not self.announced and ctx.n > 1:
            ctx.broadcast((COORD, ctx.my_id))
            self.announced = True
        if self.stable >= window:
            if trust == ctx.my_id:
                ctx.decide_leader()
            else:
                ctx.decide_follower(trust)
            ctx.halt()
            self.done = True


class MonarchicalElection(_TrustStep, SyncAlgorithm):
    """Synchronous monarchical (eventual) leader election."""

    def __init__(self, stable_rounds: int = 4) -> None:
        self.stable_rounds = check_count("stable_rounds", stable_rounds)

    def on_round(self, ctx, inbox: Inbox) -> None:
        self._step(ctx, ctx.round, self.stable_rounds)


class AsyncMonarchicalElection(_TrustStep, AsyncAlgorithm):
    """Asynchronous monarchical election, paced by polling timers.

    Each node polls its detector every ``poll_interval`` time units and
    commits after ``stable_polls`` consecutive polls with an unchanged
    trust value.  Detection latency on this engine is therefore real:
    crash + detector lag + however long until the next poll.
    """

    POLL = "monarch-poll"

    def __init__(self, poll_interval: float = 0.5, stable_polls: int = 6) -> None:
        self.poll_interval = check_delay("poll_interval", poll_interval)
        self.stable_polls = check_count("stable_polls", stable_polls)

    def on_wake(self, ctx) -> None:
        if ctx.n == 1:
            ctx.decide_leader()
            ctx.halt()
            return
        self._poll(ctx)

    def on_message(self, ctx, port: int, payload: Any) -> None:
        # ``coord`` announcements carry no decision authority (the
        # detector does); their role is waking sleeping peers and
        # generating accountable failover traffic.
        return

    def on_timer(self, ctx, tag: Any) -> None:
        if tag == self.POLL:
            self._poll(ctx)

    def _poll(self, ctx) -> None:
        self._step(ctx, ctx.now, self.stable_polls)
        if not self.done:
            ctx.set_timer(self.poll_interval, self.POLL)
