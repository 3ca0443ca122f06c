"""Epoch-based re-election: run any registered election, survive crashes.

The wrapper turns a crash-oblivious clique election (anything in
:data:`repro.core.ALGORITHMS`) into a crash-tolerant one, following the
fast-path / recovery-path split used by real coordination services: the
paper's message-optimal algorithm runs untouched while nothing fails,
and a detector-triggered *epoch restart* re-runs it from scratch among
the survivors whenever the membership shrinks.

Mechanics
---------

* **Epochs.**  A node's epoch is the size of its detector's suspicion
  set.  With a :class:`~repro.faults.detectors.PerfectDetector` every
  alive node observes each crash at exactly the same round/at the same
  oracle time, so epoch numbers are globally consistent without any
  agreement protocol.  (The wrapper is specified for perfect detectors;
  under ◇P epochs can diverge during the noisy prefix.)
* **Sub-clique virtualization.**  At each epoch start the wrapper asks
  the detector which of its ports lead to unsuspected peers
  (:meth:`~repro.faults.detectors.FailureDetector.live_ports` — oracle
  power, see ``docs/MODEL.md``) and presents the inner algorithm with a
  *virtual clique* of the ``n' = n - crashed`` survivors: virtual ports
  ``0 .. n'-2``, ``ctx.n == n'``, and rounds renumbered from the epoch
  start.  The inner algorithm therefore runs on a perfectly healthy
  clique and keeps its correctness guarantees verbatim; the wrapper
  never needs to know how it works inside.
* **Tagging.**  Inner messages travel as ``("ree", epoch, attempt,
  payload)``; anything tagged with a stale epoch or attempt is dropped
  on receipt (a crashed leader's last words cannot pollute the next
  epoch, and a timed-out attempt's stragglers cannot pollute the
  retry).
* **Commit.**  When the inner algorithm elects, the winner broadcasts
  ``("ree_coord", epoch, id)`` to the survivors and every node commits —
  turns its tentative leader into an irrevocable engine decision — only
  after ``commit_rounds`` further rounds (``commit_delay`` time units on
  the asynchronous engine) without a new suspicion.  A crash detected
  inside the commit window aborts the commit everywhere and starts the
  next epoch, which is what makes "kill the frontrunner the moment it
  declares victory" survivable.
* **Lossy links.**  The coord broadcast is *retransmitted* every
  commit-window round (every poll tick on the asynchronous engine) and
  once more at commit — a bounded ``commit_rounds + 1`` copies per link
  — so a dropped ``ree_coord`` message, or any loss burst shorter than
  the commit window, cannot leave a follower wedged without a leader.
  Followers ignore duplicate coords, so retransmission costs messages
  but never correctness (regression: ``tests/test_fault_reelect.py``,
  lossy-commit cases).
* **Epoch-restart timeout (attempts).**  Loss on *inner* algorithm
  messages used to wedge an epoch forever: the inner election stalls
  waiting for a reply the network dropped, no coord is ever announced,
  and the run only ends at the engine's round limit.  Each epoch is now
  divided into bounded *attempts* of ``restart_rounds`` rounds
  (``restart_delay`` time units on the asynchronous engine): a node
  that reaches the attempt boundary without a tentative leader discards
  the stalled inner instance and re-runs the inner election from
  scratch, tagging messages with the new attempt number.  On the
  synchronous engine the attempt number is *computed* from the globally
  consistent epoch start (``(round - epoch_start) // restart_rounds``),
  so all undecided nodes switch attempts in lockstep; on the
  asynchronous engine restart timers fire per node and stragglers catch
  up when they see a higher attempt tag.  Nodes holding a tentative
  leader never restart — the commit retransmit path already covers
  them.  ``restart_rounds=0`` disables the timeout (the pre-fix
  behavior); ``None`` picks an adaptive default generous enough that it
  only fires on genuine stalls.

Any crash — leader or not — advances the epoch: membership changed, so
the election re-runs among the new survivor set.  That keeps the epoch
counter equal to the suspicion-set size at every node, which is the
whole synchronization argument.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.asyncnet.algorithm import AsyncAlgorithm
from repro.common import Decision
from repro.sync.algorithm import Inbox, SyncAlgorithm

__all__ = ["ReElectionElection", "AsyncReElectionElection"]

TAG = "ree"
COORD = "ree_coord"


def _resolve_factory(
    inner: Union[str, Callable[[], Any]],
    inner_params: Optional[Dict[str, Any]],
    engine: str,
) -> Callable[[], Any]:
    """Accept a registry name or a zero-argument factory.

    A name resolves to its ``engine`` class, so an inner election that
    cannot run on the wrapper's engine fails here, at construction.
    """
    if callable(inner):
        if inner_params:
            raise ValueError("inner_params only apply to registry names")
        return inner
    from repro.core import get_algorithm  # deferred: registry imports us

    spec = get_algorithm(inner)
    return spec.make(engine=engine, **(inner_params or {}))


# --------------------------------------------------------------------- #
# synchronous wrapper


class _SyncSubClique:
    """Virtual survivor-clique context handed to the inner algorithm."""

    def __init__(self, owner: "ReElectionElection", ctx, live_ports: List[int]):
        self._owner = owner
        self._ctx = ctx
        self._v2r = live_ports  # virtual port -> real port
        self.n = len(live_ports) + 1
        self.my_id = ctx.my_id
        self.node = ctx.node
        self.rng = ctx.rng
        self.round = 0  # virtual (epoch-relative); owner refreshes it
        self.wake_round = 0
        self._decision: Optional[Decision] = None

    # topology ---------------------------------------------------------- #

    @property
    def port_count(self) -> int:
        return self.n - 1

    def all_ports(self) -> range:
        return range(self.n - 1)

    def sample_ports(self, m: int) -> List[int]:
        if m > self.port_count:
            raise ValueError(f"cannot sample {m} of {self.port_count} ports")
        return self.rng.sample(range(self.port_count), m)

    # communication ------------------------------------------------------ #

    def send(self, port: int, payload: Any) -> None:
        self._ctx.send(
            self._v2r[port], (TAG, self._owner.epoch, self._owner.attempt, payload)
        )

    def send_many(self, ports, payload: Any) -> None:
        for port in ports:
            self.send(port, payload)

    def broadcast(self, payload: Any) -> None:
        self.send_many(range(self.port_count), payload)

    # decisions ---------------------------------------------------------- #

    @property
    def decision(self) -> Optional[Decision]:
        return self._decision

    def decide_leader(self) -> None:
        self._decision = Decision.LEADER
        self._owner._inner_elected(self._ctx)

    def decide_follower(self, leader_id: Optional[int] = None) -> None:
        self._decision = Decision.NON_LEADER
        self._owner._inner_followed(leader_id)

    def halt(self) -> None:
        self._owner.inner_halted = True


class ReElectionElection(SyncAlgorithm):
    """Synchronous re-election wrapper (see module docstring)."""

    def __init__(
        self,
        inner: Union[str, Callable[[], Any]] = "afek_gafni",
        commit_rounds: int = 4,
        restart_rounds: Optional[int] = None,
        inner_params: Optional[Dict[str, Any]] = None,
        **extra_inner_params: Any,
    ) -> None:
        if commit_rounds < 1:
            raise ValueError("need commit_rounds >= 1")
        if restart_rounds is not None and restart_rounds < 0:
            raise ValueError("restart_rounds must be >= 0 (0 disables the timeout)")
        params = dict(inner_params or {})
        params.update(extra_inner_params)
        self.factory = _resolve_factory(inner, params if params else None, "sync")
        self.commit_rounds = commit_rounds
        self.restart_rounds = restart_rounds
        self.epoch = -1
        self.attempt = 0
        self.inner: Optional[SyncAlgorithm] = None
        self.proxy: Optional[_SyncSubClique] = None
        self.inner_halted = False
        self.epoch_start = 1
        self.attempt_start = 1
        self.tentative: Optional[int] = None
        self.commit_left: Optional[int] = None
        self.pending_coord_round: Optional[int] = None
        self.leader_hint: Optional[int] = None
        self.abstained = False
        self.epochs_run = 0
        self.attempts_run = 0

    # ------------------------------------------------------------------ #
    # wrapper <- inner callbacks

    def _inner_elected(self, ctx) -> None:
        # Announce over the survivor ports; activate my own tentative
        # one round later, in lockstep with the followers receiving it.
        assert self.proxy is not None
        ctx.send_many(self._coord_ports(), (COORD, self.epoch, ctx.my_id))
        self.pending_coord_round = ctx.round + 1

    def _inner_followed(self, leader_id: Optional[int]) -> None:
        if leader_id is not None:
            self.leader_hint = leader_id

    # ------------------------------------------------------------------ #
    # subclass hooks (the quorum wrapper overrides these; see
    # repro.adversary.quorum for the Byzantine-tolerant variant)

    def _coord_ports(self):
        """Real ports the coord broadcast travels over (base: survivors)."""
        return self.proxy._v2r

    def _admit_epoch(self, ctx) -> bool:
        """Whether this node may elect in the freshly started epoch.

        Called after the survivor sub-clique is built but before the
        inner algorithm wakes; returning ``False`` makes the node
        abstain — it decides NON_LEADER (naming nobody) and halts.  The
        base wrapper always runs the election; the quorum wrapper gates
        on majority membership.
        """
        return True

    def _commit_ready(self, ctx) -> bool:
        """Whether the commit countdown may advance this round (base: yes)."""
        return True

    def _handle_coord(self, ctx, port: int, payload) -> None:
        """React to a coord announcement (base: adopt same-epoch leaders)."""
        _tag, epoch, leader_id = payload
        if epoch == self.epoch and self.tentative is None:
            self.tentative = leader_id
            self.commit_left = self.commit_rounds

    def _handle_extra(self, ctx, port: int, payload) -> None:
        """React to wrapper-level kinds beyond TAG/COORD (base: none)."""

    def _abstain(self, ctx) -> None:
        """Opt out of the current run: no leader can be elected here."""
        self.abstained = True
        self.inner = None
        self.inner_halted = True
        self.tentative = None
        self.commit_left = None
        self.pending_coord_round = None
        if ctx.decision is None:
            ctx.decide_follower(None)
        ctx.halt()

    # ------------------------------------------------------------------ #
    # epoch machinery

    def _restart_window(self, ctx) -> int:
        """Rounds per attempt; 0 disables the epoch-restart timeout.

        The adaptive default is far beyond any healthy inner election
        (the registered algorithms finish in O(ell) rounds), so it only
        fires on genuine loss-induced stalls.
        """
        if self.restart_rounds is not None:
            return self.restart_rounds
        return max(64, 2 * ctx.n)

    def _wake_inner(self, ctx) -> None:
        """(Re)instantiate the inner algorithm for the current attempt."""
        self.inner = self.factory()
        self.inner_halted = False
        self.proxy._decision = None
        self.proxy.round = ctx.round - self.attempt_start + 1
        self.proxy.wake_round = self.proxy.round
        self.attempts_run += 1
        self.inner.on_wake(self.proxy)

    def _restart(self, ctx, suspects: frozenset) -> None:
        self.epoch = len(suspects)
        self.epochs_run += 1
        self.epoch_start = max(1, int(ctx.detector.last_transition(ctx.round)))
        self.attempt = 0
        self.attempt_start = self.epoch_start
        self.inner_halted = False
        self.tentative = None
        self.commit_left = None
        self.pending_coord_round = None
        self.leader_hint = None
        live = ctx.detector.live_ports(ctx.round)
        self.proxy = _SyncSubClique(self, ctx, live)
        self._r2v = {real: v for v, real in enumerate(live)}
        if not self._admit_epoch(ctx):
            self._abstain(ctx)
            return
        if self.proxy.n == 1:
            # Sole survivor: nothing to elect.
            self.inner = None
            self.inner_halted = True
            self.tentative = ctx.my_id
            self.commit_left = self.commit_rounds
            return
        self._wake_inner(ctx)

    def _maybe_restart_attempt(self, ctx) -> None:
        """Bounded epoch-restart: retry a stalled inner election.

        The due attempt number is a pure function of the (globally
        consistent) epoch start and the round number, so every node that
        is still leaderless switches attempts in the same round and the
        retry runs on a consistently tagged sub-clique.  Nodes already
        holding (or announcing) a tentative leader stay on their attempt
        — the commit retransmit path delivers the coord to restarted
        peers, which then commit as followers.
        """
        window = self._restart_window(ctx)
        if window <= 0 or self.inner is None:
            return
        if self.tentative is not None or self.pending_coord_round is not None:
            return
        due = (ctx.round - self.epoch_start) // window
        if due > self.attempt:
            self.attempt = due
            self.attempt_start = self.epoch_start + due * window
            self._wake_inner(ctx)

    def on_wake(self, ctx) -> None:
        self._restart(ctx, ctx.detector.suspects(ctx.round))

    def on_round(self, ctx, inbox: Inbox) -> None:
        suspects = ctx.detector.suspects(ctx.round)
        if len(suspects) > self.epoch:
            self._restart(ctx, suspects)
        if self.abstained:
            return
        # Activate my own leadership announcement (symmetric with the
        # round in which followers receive the coord broadcast).
        if (
            self.pending_coord_round is not None
            and ctx.round >= self.pending_coord_round
        ):
            self.tentative = ctx.my_id
            self.commit_left = self.commit_rounds
            self.pending_coord_round = None
        # Bounded epoch-restart timeout: stale-attempt traffic delivered
        # this round is dropped by the routing filter below.
        self._maybe_restart_attempt(ctx)
        # Route the inbox: current-epoch/attempt inner traffic is
        # translated onto the virtual sub-clique, stale tags are dropped.
        inner_inbox: List[Tuple[int, Any]] = []
        for port, payload in inbox:
            kind = payload[0]
            if kind == TAG:
                _tag, epoch, attempt, inner_payload = payload
                if (
                    epoch == self.epoch
                    and attempt == self.attempt
                    and not self.inner_halted
                ):
                    virtual = self._r2v.get(port)
                    if virtual is not None:
                        inner_inbox.append((virtual, inner_payload))
            elif kind == COORD:
                self._handle_coord(ctx, port, payload)
            else:
                self._handle_extra(ctx, port, payload)
        if self.inner is not None and not self.inner_halted:
            self.proxy.round = ctx.round - self.attempt_start + 1
            self.inner.on_round(self.proxy, inner_inbox)
        # Commit countdown: crash-free rounds since the announcement.
        # The countdown only advances while _commit_ready holds (always,
        # for the base wrapper; quorum-satisfied, for the quorum one) —
        # a stalled countdown keeps retransmitting so missing acks or
        # lost coords can still arrive.
        if self.commit_left is not None:
            if self._commit_ready(ctx):
                self.commit_left -= 1
                if self.commit_left <= 0:
                    if self.tentative == ctx.my_id:
                        # Final retransmit at commit: a follower that lost
                        # every window copy still learns the leader.
                        ctx.send_many(self._coord_ports(), (COORD, self.epoch, ctx.my_id))
                        ctx.decide_leader()
                    else:
                        ctx.decide_follower(self.tentative)
                    ctx.halt()
                    return
            if self.commit_left > 0 and self.tentative == ctx.my_id:
                # Bounded retransmit (commit_rounds - 1 copies): the links
                # are not assumed reliable, so the coord broadcast is
                # repeated every commit-window round.  Any single lost
                # ree_coord message — or any burst shorter than the
                # window — can no longer wedge the epoch with a follower
                # that never learns its leader (ROADMAP: message-loss-
                # tolerant re-election).  Followers treat duplicates as
                # no-ops, so retransmits only cost messages.
                ctx.send_many(self._coord_ports(), (COORD, self.epoch, ctx.my_id))


# --------------------------------------------------------------------- #
# asynchronous wrapper


class _AsyncSubClique:
    """Virtual survivor-clique context for asynchronous inner algorithms."""

    def __init__(self, owner: "AsyncReElectionElection", ctx, live_ports: List[int]):
        self._owner = owner
        self._ctx = ctx
        self._v2r = live_ports
        self.n = len(live_ports) + 1
        self.my_id = ctx.my_id
        self.node = ctx.node
        self.rng = ctx.rng
        self.wake_time = ctx.now
        self._decision: Optional[Decision] = None

    @property
    def now(self) -> float:
        return self._ctx.now

    @property
    def port_count(self) -> int:
        return self.n - 1

    def sample_ports(self, m: int) -> List[int]:
        if m > self.port_count:
            raise ValueError(f"cannot sample {m} of {self.port_count} ports")
        return self.rng.sample(range(self.port_count), m)

    def send(self, port: int, payload: Any) -> None:
        self._ctx.send(
            self._v2r[port], (TAG, self._owner.epoch, self._owner.attempt, payload)
        )

    def send_many(self, ports, payload: Any) -> None:
        for port in ports:
            self.send(port, payload)

    def broadcast(self, payload: Any) -> None:
        self.send_many(range(self.port_count), payload)

    @property
    def decision(self) -> Optional[Decision]:
        return self._decision

    def decide_leader(self) -> None:
        self._decision = Decision.LEADER
        self._owner._inner_elected(self._ctx)

    def decide_follower(self, leader_id: Optional[int] = None) -> None:
        self._decision = Decision.NON_LEADER
        self._owner._inner_followed(leader_id)

    def halt(self) -> None:
        self._owner.inner_halted = True


class AsyncReElectionElection(AsyncAlgorithm):
    """Asynchronous re-election wrapper.

    Epoch transitions are discovered by polling the detector every
    ``poll_interval`` time units (and opportunistically whenever a
    higher-epoch message arrives — the oracle is global, so a higher tag
    proves the suspicion is already visible).  Commits are armed by a
    ``commit_delay`` timer and verified against the epoch on expiry.

    For every planned crash to abort the right commit, choose
    ``commit_delay`` greater than ``detector lag + 1 (max message delay)
    + poll_interval``.
    """

    POLL = "reelect-poll"
    COMMIT = "reelect-commit"
    RESTART = "reelect-restart"

    def __init__(
        self,
        inner: Union[str, Callable[[], Any]] = "async_tradeoff",
        commit_delay: float = 4.0,
        poll_interval: float = 0.5,
        restart_delay: Optional[float] = None,
        inner_params: Optional[Dict[str, Any]] = None,
        **extra_inner_params: Any,
    ) -> None:
        if commit_delay <= 0 or poll_interval <= 0:
            raise ValueError("commit_delay and poll_interval must be > 0")
        if restart_delay is not None and restart_delay < 0:
            raise ValueError("restart_delay must be >= 0 (0 disables the timeout)")
        params = dict(inner_params or {})
        params.update(extra_inner_params)
        self.factory = _resolve_factory(inner, params if params else None, "async")
        self.commit_delay = commit_delay
        self.poll_interval = poll_interval
        if restart_delay is None:
            # Adaptive: far beyond a healthy inner election's time span
            # (delays are <= 1 per hop), so it only fires on stalls.
            restart_delay = max(64.0, 8.0 * commit_delay)
        self.restart_delay = restart_delay
        self.epoch = -1
        self.attempt = 0
        self.inner: Optional[AsyncAlgorithm] = None
        self.proxy: Optional[_AsyncSubClique] = None
        self.inner_halted = False
        self.tentative: Optional[int] = None
        self.commit_token: Optional[Tuple[int, int]] = None
        self.leader_hint: Optional[int] = None
        self.done = False
        self.epochs_run = 0
        self.attempts_run = 0

    # ------------------------------------------------------------------ #
    # wrapper <- inner callbacks

    def _inner_elected(self, ctx) -> None:
        assert self.proxy is not None
        ctx.send_many(self._coord_ports(), (COORD, self.epoch, ctx.my_id))
        self._arm_commit(ctx, ctx.my_id)

    def _inner_followed(self, leader_id: Optional[int]) -> None:
        if leader_id is not None:
            self.leader_hint = leader_id

    def _arm_commit(self, ctx, leader_id: int) -> None:
        self.tentative = leader_id
        self.commit_token = (self.epoch, leader_id)
        ctx.set_timer(self.commit_delay, (self.COMMIT, self.epoch, leader_id))

    # ------------------------------------------------------------------ #
    # subclass hooks (see ReElectionElection and repro.adversary.quorum)

    def _coord_ports(self):
        """Real ports the coord broadcast travels over (base: survivors)."""
        return self.proxy._v2r

    def _admit_epoch(self, ctx) -> bool:
        """Whether this node may elect in the freshly started epoch."""
        return True

    def _commit_ready(self, ctx) -> bool:
        """Whether a due commit timer may fire the commit (base: yes)."""
        return True

    def _handle_coord(self, ctx, port: int, payload) -> None:
        """React to a coord announcement (base: adopt same-epoch leaders)."""
        _tag, epoch, leader_id = payload
        if epoch > self.epoch:
            self._check_epoch(ctx)
        if epoch == self.epoch and self.tentative is None:
            self._arm_commit(ctx, leader_id)

    def _handle_extra(self, ctx, port: int, payload) -> None:
        """React to wrapper-level kinds beyond TAG/COORD (base: none)."""

    def _abstain(self, ctx) -> None:
        """Opt out of the current run: no leader can be elected here."""
        self.done = True
        self.inner = None
        self.inner_halted = True
        self.tentative = None
        self.commit_token = None
        if ctx.decision is None:
            ctx.decide_follower(None)
        ctx.halt()

    # ------------------------------------------------------------------ #
    # epoch machinery

    def _wake_inner(self, ctx) -> None:
        """(Re)instantiate the inner algorithm for the current attempt."""
        self.inner = self.factory()
        self.inner_halted = False
        self.proxy._decision = None
        self.attempts_run += 1
        self.inner.on_wake(self.proxy)
        if self.restart_delay > 0:
            ctx.set_timer(self.restart_delay, (self.RESTART, self.epoch, self.attempt))

    def _restart(self, ctx, suspects: frozenset) -> None:
        self.epoch = len(suspects)
        self.epochs_run += 1
        self.attempt = 0
        self.inner_halted = False
        self.tentative = None
        self.commit_token = None
        self.leader_hint = None
        live = ctx.detector.live_ports(ctx.now)
        self.proxy = _AsyncSubClique(self, ctx, live)
        self._r2v = {real: v for v, real in enumerate(live)}
        if not self._admit_epoch(ctx):
            self._abstain(ctx)
            return
        if self.proxy.n == 1:
            self.inner = None
            self.inner_halted = True
            self._arm_commit(ctx, ctx.my_id)
            return
        self._wake_inner(ctx)

    def _catch_up_attempt(self, ctx, attempt: int) -> None:
        """Adopt a peer's higher attempt number (async restart skew)."""
        self.attempt = attempt
        self._wake_inner(ctx)

    def _check_epoch(self, ctx) -> None:
        suspects = ctx.detector.suspects(ctx.now)
        if len(suspects) > self.epoch:
            self._restart(ctx, suspects)

    def on_wake(self, ctx) -> None:
        self._restart(ctx, ctx.detector.suspects(ctx.now))
        if not self.done:  # an abstaining node halts at wake
            ctx.set_timer(self.poll_interval, self.POLL)

    def on_message(self, ctx, port: int, payload: Any) -> None:
        if self.done:
            return
        kind = payload[0]
        if kind == TAG:
            _tag, epoch, attempt, inner_payload = payload
            if epoch > self.epoch:
                self._check_epoch(ctx)
                if self.done:
                    return
            if epoch == self.epoch:
                if (
                    attempt > self.attempt
                    and self.tentative is None
                    and self.inner is not None
                ):
                    self._catch_up_attempt(ctx, attempt)
                if attempt == self.attempt and not self.inner_halted:
                    virtual = self._r2v.get(port)
                    if virtual is not None:
                        self.inner.on_message(self.proxy, virtual, inner_payload)
        elif kind == COORD:
            self._handle_coord(ctx, port, payload)
        else:
            self._handle_extra(ctx, port, payload)

    def on_timer(self, ctx, tag: Any) -> None:
        if self.done:
            return
        if tag == self.POLL:
            self._check_epoch(ctx)
            if self.done:  # an epoch restart may have ended in abstention
                return
            if self.commit_token is not None and self.commit_token == (
                self.epoch,
                ctx.my_id,
            ):
                # Bounded retransmit while my commit timer runs (at most
                # commit_delay / poll_interval copies) — the async twin of
                # the sync wrapper's lossy-link guard.
                ctx.send_many(self._coord_ports(), (COORD, self.epoch, ctx.my_id))
            ctx.set_timer(self.poll_interval, self.POLL)
            return
        if isinstance(tag, tuple) and tag[0] == self.RESTART:
            # Bounded epoch-restart timeout: retry a stalled inner
            # election.  Stale timers (older epoch/attempt) are ignored;
            # a node holding a tentative leader lets the commit path run.
            _name, epoch, attempt = tag
            if epoch != self.epoch or attempt != self.attempt:
                return
            if self.tentative is None and self.inner is not None:
                self.attempt += 1
                self._wake_inner(ctx)
            return
        if isinstance(tag, tuple) and tag[0] == self.COMMIT:
            _name, epoch, leader_id = tag
            if self.commit_token != (epoch, leader_id) or epoch != self.epoch:
                return  # aborted by an epoch restart
            self._check_epoch(ctx)
            if self.done:
                return
            if self.commit_token != (epoch, leader_id) or epoch != self.epoch:
                return
            if leader_id == ctx.my_id and not self._commit_ready(ctx):
                # Quorum pending: retransmit the coord (re-soliciting
                # acks lost to drops) and re-arm the commit timer.
                ctx.send_many(self._coord_ports(), (COORD, self.epoch, ctx.my_id))
                ctx.set_timer(self.commit_delay, tag)
                return
            if leader_id == ctx.my_id:
                ctx.send_many(self._coord_ports(), (COORD, self.epoch, ctx.my_id))
                ctx.decide_leader()
            else:
                ctx.decide_follower(leader_id)
            ctx.halt()
            self.done = True
