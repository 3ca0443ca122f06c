"""Majority-quorum commit gating and the Byzantine-tolerant election.

Three layers, from pure math to protocol:

* :class:`QuorumPolicy` — the arithmetic: over a fixed full membership
  of ``n`` nodes, a quorum is any vote set strictly larger than
  ``threshold`` of it (majority by default: ``floor(n/2) + 1`` votes).
  Two quorums always intersect, which is the entire safety argument.
* :class:`VoteLedger` — the bookkeeping: per-epoch vote grants with the
  *vote-once* rule enforced (a voter's first grant in an epoch is the
  only one that counts; later grants — equivocated acks, replayed acks,
  retransmit duplicates — collapse onto it).  Given vote-once and
  quorum intersection, **no two candidates can both reach quorum in the
  same epoch, under any partition or slander schedule** — the property
  ``tests/test_quorum_property.py`` drives with hypothesis.
* :class:`QuorumReElectionElection` / :class:`AsyncQuorumReElectionElection`
  — the protocol: the epoch re-election wrapper of
  :mod:`repro.faults.reelect` with three Byzantine-closing changes.

  1. **Abstention.**  A node whose survivor sub-clique is smaller than
     the quorum never runs the inner election: it decides NON_LEADER
     (naming nobody) and halts.  A partitioned minority component
     therefore elects *nothing* — the split-brain hole of the plain
     wrapper (one leader per component) closes to "majority side
     elects, minority side waits for the heal".
  2. **Ack-gated commit with live quorums.**  The frontrunner's coord
     broadcast goes to *every* port (suspected peers included —
     suspicion may be slander) and followers answer with a ``qr_ack``
     vote.  The leader commits only while it holds a *fresh* quorum:
     acks expire every commit round (sync) / commit window (async), and
     a follower only acks coords of its **current** epoch — so a voter
     that moves to a higher epoch automatically revokes its support,
     the Paxos promise enforced temporally.  A leader whose epoch is
     overtaken mid-commit therefore stalls for want of live votes and
     is swept up by the new reign's coord instead of committing a stale
     one.  Within an epoch, votes bind once (the ledger's vote-once
     rule), so two same-epoch leaders are arithmetically impossible;
     across epochs, expiry makes the newer quorum invalidate the older.
  3. **Coord catch-up.**  A slandered node's own detector shows nothing
     wrong, so it would otherwise ignore the new epoch and keep (or
     contest) leadership — the split-brain seed.  Coords carry their
     epoch in the authenticated envelope; a node receiving a coord from
     a *higher* epoch adopts that epoch and its leader as a follower.
     Combined with the all-port broadcast, the slander victim rejoins
     the majority's reign instead of fighting it.

  The guarantees are stated for ``f < n/2`` combined crash + slander
  adversaries under a perfect detector and authenticated envelopes (see
  ``docs/MODEL.md``).  The price is liveness at the margin: with half
  or more of the membership unreachable — crashed *or* merely slandered
  past the quorum line — nobody elects, by design (CP, not AP).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Optional, Set

from repro.faults.reelect import AsyncReElectionElection, ReElectionElection

__all__ = [
    "QACK",
    "QuorumPolicy",
    "VoteLedger",
    "QuorumReElectionElection",
    "AsyncQuorumReElectionElection",
]

#: Wrapper-level vote message: ``(QACK, epoch, voter_id)``.
QACK = "qr_ack"


@dataclass(frozen=True)
class QuorumPolicy:
    """Quorum arithmetic over a fixed full membership of ``n`` nodes.

    ``quorum_size`` is the smallest vote count strictly exceeding
    ``threshold * n`` — for the default majority threshold,
    ``floor(n/2) + 1``.  Any two vote sets of that size over the same
    membership intersect, which is what makes a committed quorum proof
    against every rival: the intersection voter already spent its vote.
    """

    n: int
    threshold: float = 0.5

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("a quorum needs a membership of n >= 1")
        if not 0.5 <= self.threshold < 1.0:
            raise ValueError(
                "threshold must be in [0.5, 1); below a majority two quorums "
                "need not intersect and the safety argument collapses"
            )

    @property
    def quorum_size(self) -> int:
        return math.floor(self.n * self.threshold) + 1

    def satisfied(self, votes: int) -> bool:
        """Whether ``votes`` distinct voters form a quorum."""
        return votes >= self.quorum_size


class VoteLedger:
    """Per-epoch vote bookkeeping with the vote-once rule enforced.

    ``grant(epoch, voter, candidate)`` records a vote; a voter's first
    grant in an epoch is binding and every later grant (duplicate ack,
    equivocated ack, replayed ack) collapses onto it.  ``decides``
    answers whether a candidate currently holds a quorum, and
    ``commit`` marks the epoch's winner — at most one, which
    :meth:`commits_in` lets the property test assert directly.
    """

    def __init__(self, policy: QuorumPolicy) -> None:
        self.policy = policy
        self._grants: Dict[int, Dict[int, Any]] = {}
        self._commits: Dict[int, Set[Any]] = {}

    def grant(self, epoch: int, voter: int, candidate: Any) -> bool:
        """Record a vote; returns whether it is bound to ``candidate``."""
        votes = self._grants.setdefault(epoch, {})
        if voter not in votes:
            votes[voter] = candidate
        return votes[voter] == candidate

    def tally(self, epoch: int, candidate: Any) -> int:
        """Distinct voters bound to ``candidate`` in ``epoch``."""
        votes = self._grants.get(epoch, {})
        return sum(1 for c in votes.values() if c == candidate)

    def decides(self, epoch: int, candidate: Any) -> bool:
        """Whether ``candidate`` currently holds a quorum in ``epoch``."""
        return self.policy.satisfied(self.tally(epoch, candidate))

    def commit(self, epoch: int, candidate: Any) -> bool:
        """Commit ``candidate`` if it holds a quorum; record the outcome."""
        if not self.decides(epoch, candidate):
            return False
        self._commits.setdefault(epoch, set()).add(candidate)
        return True

    def commits_in(self, epoch: int) -> Set[Any]:
        """Every candidate ever committed in ``epoch`` (safety: <= 1)."""
        return set(self._commits.get(epoch, set()))


class _QuorumCommitMixin:
    """The quorum policy, written once for both engine wrappers.

    Mixed in *before* a re-election driver, so the hook overrides here
    win the MRO and ``super()`` still reaches the shared core; the
    driver's ``_adopt`` supplies the engine-specific commit start.
    ``threshold`` is the quorum fraction over the full membership.
    """

    def __init__(self, *args: Any, threshold: float = 0.5, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        if not 0.5 <= threshold < 1.0:
            # Same rule QuorumPolicy enforces, surfaced at construction
            # time so front-ends report a usage error, not a mid-run one.
            raise ValueError(
                "threshold must be in [0.5, 1); below a majority two quorums "
                "need not intersect and the safety argument collapses"
            )
        self.threshold = threshold
        self.ledger: Optional[VoteLedger] = None
        self._fresh_acks: set = set()

    def _ledger_for(self, ctx) -> VoteLedger:
        if self.ledger is None:
            self.ledger = VoteLedger(QuorumPolicy(n=ctx.n, threshold=self.threshold))
        return self.ledger

    def _coord_ports(self, ctx):
        # Every port, not just the survivor sub-clique: a suspected peer
        # may be a slander victim that must learn the new reign.
        return range(ctx.n - 1)

    def _enter_epoch(self, ctx, epoch: int) -> None:
        self._fresh_acks = set()
        super()._enter_epoch(ctx, epoch)

    def _admit_epoch(self, ctx) -> bool:
        policy = self._ledger_for(ctx).policy
        return policy.satisfied(self.proxy.n)

    def _commit_ready(self, ctx) -> bool:
        if self.tentative != ctx.my_id:
            return True
        ledger = self._ledger_for(ctx)
        ledger.grant(self.epoch, ctx.node, ctx.my_id)  # my own vote
        # Live-quorum rule: only acks that arrived since the previous
        # check count, and they are spent here — every commit round
        # (sync) / commit window (async) must be re-affirmed by a fresh
        # majority; the retransmit path keeps the ack stream flowing in
        # the healthy case.  Voters that moved to a higher epoch stop
        # acking this one, so an overtaken leader freezes instead of
        # committing a stale reign, until the new reign's coord catches
        # it up.
        fresh = len(self._fresh_acks) + 1
        self._fresh_acks = set()
        if not ledger.policy.satisfied(fresh):
            return False
        ledger.commit(self.epoch, ctx.my_id)
        return True

    def _handle_coord(self, ctx, port: int, payload) -> None:
        _tag, epoch, leader_id = payload
        if epoch > self.epoch:
            self._check_epoch(ctx)
            if self.done:
                return
        if epoch > self.epoch:
            # Coord catch-up: my detector can't see the suspicion driving
            # the group's epoch (I may be its victim) — the authenticated
            # epoch tag is the proof.  Abandon my own stale candidacy and
            # adopt the reign as a follower.
            self._enter_epoch(ctx, epoch)
            self._stop_inner()
            self._adopt(ctx, leader_id)
            ctx.send(port, (QACK, epoch, ctx.my_id))
            return
        if epoch == self.epoch:
            if self.tentative is None:
                self._adopt(ctx, leader_id)
            if self.tentative == leader_id and leader_id != ctx.my_id:
                # Ack every copy: retransmits re-solicit votes lost to
                # drops — and only current-epoch coords are ever acked,
                # which is what makes older quorums go stale.
                ctx.send(port, (QACK, epoch, ctx.my_id))

    def _handle_extra(self, ctx, port: int, payload) -> None:
        if payload[0] != QACK:
            return
        _tag, epoch, _voter_id = payload
        if epoch == self.epoch and self.tentative == ctx.my_id:
            # Votes are ledgered by the peer behind *port* (the
            # authenticated link; oracle power, like live_ports), so an
            # equivocating voter still spends exactly one vote.
            real_peer = ctx._net.port_map.peer(ctx.node, port)
            self._ledger_for(ctx).grant(epoch, real_peer, ctx.my_id)
            self._fresh_acks.add(real_peer)


class QuorumReElectionElection(_QuorumCommitMixin, ReElectionElection):
    """Synchronous quorum-safe re-election (see module docstring).

    Registered as ``quorum_reelect``.  Accepts everything the plain
    ``reelect`` wrapper does, plus ``threshold`` (quorum fraction over
    the full membership, default majority).
    """


class AsyncQuorumReElectionElection(_QuorumCommitMixin, AsyncReElectionElection):
    """Asynchronous quorum-safe re-election (twin of the sync wrapper)."""
