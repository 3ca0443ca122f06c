"""Epoch-based re-election: run any crash-oblivious election, survive crashes.

The wrapper turns a crash-oblivious clique election (one of the paper's
algorithms in :data:`repro.core.ALGORITHMS`) into a crash-tolerant one,
following the fast-path / recovery-path split used by real coordination
services: the paper's message-optimal algorithm runs untouched while
nothing fails, and a detector-triggered *epoch restart* re-runs it from
scratch among the survivors whenever the membership shrinks.

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
  never needs to know how it works inside.  The sub-clique offers no
  failure detector, which is why the inner election must be
  crash-oblivious: the fault-layer entries are rejected as inners.
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

Engines
-------

One engine-neutral :class:`_ReElectionCore` holds the state machine:
epochs and attempts, tagging and stale-tag routing, the coord announce
and retransmit, abstention, the sole-survivor case and the commit
finish.  :class:`ReElectionElection` and :class:`AsyncReElectionElection`
are thin drivers that supply only how time passes: the clock the
detector is read at, how a tentative leader starts its commit
(:meth:`_adopt`), how attempts are paced, and what an epoch change
clears of their own timing state.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Optional, Union

from repro.asyncnet.algorithm import AsyncAlgorithm
from repro.common import Decision
from repro.net.ports import sample_range
from repro.sync.algorithm import Inbox, SyncAlgorithm

__all__ = ["ReElectionElection", "AsyncReElectionElection"]

TAG = "ree"
COORD = "ree_coord"


def check_count(name: str, value: Any, minimum: int = 1) -> int:
    """``value`` if it is an ``int`` (not a ``bool``) ``>= minimum``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return value


def check_delay(name: str, value: Any, *, zero_disables: bool = False) -> float:
    """``value`` if it is a finite number > 0 (or 0, when that disables)."""
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not math.isfinite(value)
        or value < 0
        or (value == 0 and not zero_disables)
    ):
        bound = ">= 0 (0 disables the timeout)" if zero_disables else "> 0"
        raise ValueError(f"{name} must be a finite number {bound}, got {value!r}")
    return value


def _resolve_factory(
    inner: Union[str, Callable[[], Any]],
    inner_params: Optional[Dict[str, Any]],
    engine: str,
) -> Callable[[], Any]:
    """Accept a registry name or a zero-argument factory.

    A name resolves to its ``engine`` class and is built once, so an
    inner election that cannot run on the wrapper's engine, or rejects
    its parameters, fails here, at construction.  The fault-layer
    entries (the only ones with an asynchronous twin) read the failure
    detector, which the sub-clique does not offer.
    """
    if callable(inner):
        if inner_params:
            raise ValueError("inner_params only apply to registry names")
        return inner
    from repro.core import get_algorithm  # deferred: registry imports us

    spec = get_algorithm(inner)
    if spec.async_factory is not None:
        raise ValueError(
            f"inner election {inner!r} reads the failure detector, which the "
            "survivor sub-clique does not offer; the inner election must be "
            "crash-oblivious (one of the paper's algorithms)"
        )
    factory = spec.make(engine=engine, **(inner_params or {}))
    factory()
    return factory


class _SubClique:
    """Virtual survivor-clique context handed to the inner algorithm.

    Virtual port ``p`` is real port ``live_ports[p]``; every send is
    tagged with the owner's epoch and attempt and handed to the real
    context as one batch.  The sync driver renumbers ``round`` and
    ``wake_round`` from the attempt start; asynchronous inner elections
    read the real ``now``.
    """

    round = wake_round = 0
    wake_time = 0.0

    def __init__(self, owner: "_ReElectionCore", ctx, live_ports: List[int]):
        self._owner = owner
        self._ctx = ctx
        self._v2r = live_ports
        self.n = len(live_ports) + 1
        self.my_id = ctx.my_id
        self.node = ctx.node
        self._decision: Optional[Decision] = None

    @property
    def now(self) -> float:
        return self._ctx.now

    @property
    def rng(self):
        return self._ctx.rng

    # topology ---------------------------------------------------------- #

    @property
    def port_count(self) -> int:
        return self.n - 1

    def all_ports(self) -> range:
        return range(self.n - 1)

    def sample_ports(self, m: int) -> List[int]:
        if m > self.port_count:
            raise ValueError(f"cannot sample {m} of {self.port_count} ports")
        return sample_range(self.rng, self.port_count, m)

    # communication ------------------------------------------------------ #

    def _tagged(self, payload: Any) -> tuple:
        return (TAG, self._owner.epoch, self._owner.attempt, payload)

    def send(self, port: int, payload: Any) -> None:
        self._ctx.send(self._v2r[port], self._tagged(payload))

    def send_many(self, ports, payload: Any) -> None:
        v2r = self._v2r
        self._ctx.send_many([v2r[port] for port in ports], self._tagged(payload))

    def broadcast(self, payload: Any) -> None:
        self._ctx.send_many(self._v2r, self._tagged(payload))

    # decisions ---------------------------------------------------------- #

    @property
    def decision(self) -> Optional[Decision]:
        return self._decision

    def decide_leader(self) -> None:
        self._decision = Decision.LEADER
        self._owner._inner_elected(self._ctx)

    def decide_follower(self, leader_id: Optional[int] = None) -> None:
        self._decision = Decision.NON_LEADER

    def halt(self) -> None:
        self._owner.inner_halted = True


class _ReElectionCore:
    """The engine-neutral re-election state machine (module docstring).

    A driver supplies ``ENGINE`` (which registry class an inner name
    resolves to) and four engine-specific pieces:

    * ``_clock(ctx)`` — the time the detector is read at;
    * ``_adopt(ctx, leader_id)`` — how a tentative leader starts its
      commit (a round countdown or a commit timer);
    * attempt pacing — when ``_next_attempt`` fires, plus
      ``_catch_up`` for a peer's higher attempt tag (a no-op where
      attempt numbers are computed);
    * ``_enter_epoch`` — extended with what an epoch change clears of
      the driver's own timing state.

    The quorum layer (:mod:`repro.adversary.quorum`) overrides the
    policy hooks ``_coord_ports``, ``_admit_epoch``, ``_commit_ready``,
    ``_handle_coord`` and ``_handle_extra``.
    """

    ENGINE = ""

    def __init__(self, inner, inner_params, extra_inner_params) -> None:
        params = dict(inner_params or {})
        params.update(extra_inner_params)
        self.factory = _resolve_factory(inner, params or None, self.ENGINE)
        self.epoch = -1
        self.attempt = 0
        self.inner: Optional[Any] = None
        self.proxy: Optional[_SubClique] = None
        self.inner_halted = False
        self.tentative: Optional[int] = None
        self.done = False
        self.epochs_run = 0

    # ------------------------------------------------------------------ #
    # wrapper <- inner callbacks

    def _inner_elected(self, ctx) -> None:
        """The inner election made me leader: announce, start my commit."""
        self._announce(ctx)
        self._adopt(ctx, ctx.my_id)

    def _announce(self, ctx) -> None:
        ctx.send_many(self._coord_ports(ctx), (COORD, self.epoch, ctx.my_id))

    def _catch_up(self, ctx, attempt: int) -> None:
        """A peer's tag shows a higher attempt in my epoch (base: ignore)."""

    # ------------------------------------------------------------------ #
    # policy hooks (see repro.adversary.quorum for the quorum variant)

    def _coord_ports(self, ctx):
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
        """Whether a due commit step may proceed (base: yes)."""
        return True

    def _handle_coord(self, ctx, port: int, payload) -> None:
        """React to a coord announcement (base: adopt same-epoch leaders)."""
        _tag, epoch, leader_id = payload
        if epoch > self.epoch:
            # The oracle is global: a higher tag proves the suspicion.
            self._check_epoch(ctx)
        if epoch == self.epoch and self.tentative is None:
            self._adopt(ctx, leader_id)

    def _handle_extra(self, ctx, port: int, payload) -> None:
        """React to wrapper-level kinds beyond TAG/COORD (base: none)."""

    # ------------------------------------------------------------------ #
    # epoch machinery

    def _check_epoch(self, ctx) -> None:
        suspects = ctx.detector.suspects(self._clock(ctx))
        if len(suspects) > self.epoch:
            self._restart(ctx, len(suspects))

    def _enter_epoch(self, ctx, epoch: int) -> None:
        """Move to ``epoch`` and drop the old epoch's attempt and leader."""
        self.epoch = epoch
        self.attempt = 0
        self.tentative = None

    def _restart(self, ctx, epoch: int) -> None:
        self._enter_epoch(ctx, epoch)
        self.epochs_run += 1
        live = ctx.detector.live_ports(self._clock(ctx))
        self.proxy = _SubClique(self, ctx, live)
        self._r2v = {real: v for v, real in enumerate(live)}
        if not self._admit_epoch(ctx):
            self._abstain(ctx)
        elif self.proxy.n == 1:
            self._stop_inner()  # sole survivor: nothing to elect
            self._adopt(ctx, ctx.my_id)
        else:
            self._wake_inner(ctx)

    def _stop_inner(self) -> None:
        self.inner = None
        self.inner_halted = True

    def _abstain(self, ctx) -> None:
        """Opt out of the current run: no leader can be elected here."""
        self._stop_inner()
        if ctx.decision is None:
            ctx.decide_follower(None)
        ctx.halt()
        self.done = True

    def _wake_inner(self, ctx) -> None:
        """(Re)instantiate the inner algorithm for the current attempt."""
        self.inner = self.factory()
        self.inner_halted = False
        self.proxy._decision = None
        self.inner.on_wake(self.proxy)

    def _next_attempt(self, ctx, attempt: int) -> None:
        """Discard a stalled inner election and re-run it as ``attempt``."""
        self.attempt = attempt
        self._wake_inner(ctx)

    def _route(self, ctx, port: int, payload):
        """Handle one wrapper message.

        Returns ``(virtual_port, inner_payload)`` for inner traffic of the
        current epoch and attempt, and ``None`` for everything else:
        stale tags are dropped, coords and extra kinds go to their hooks.
        """
        kind = payload[0]
        if kind == COORD:
            self._handle_coord(ctx, port, payload)
            return None
        if kind != TAG:
            self._handle_extra(ctx, port, payload)
            return None
        _tag, epoch, attempt, inner_payload = payload
        if epoch > self.epoch:
            self._check_epoch(ctx)
            if self.done:
                return None
        if epoch != self.epoch:
            return None
        if attempt > self.attempt and self.tentative is None and self.inner is not None:
            self._catch_up(ctx, attempt)
        if attempt != self.attempt or self.inner_halted:
            return None
        virtual = self._r2v.get(port)
        return None if virtual is None else (virtual, inner_payload)

    def _commit(self, ctx) -> None:
        """Turn the tentative leader into an irrevocable decision; halt."""
        if self.tentative == ctx.my_id:
            # Final retransmit at commit: a follower that lost every
            # window copy still learns the leader.
            self._announce(ctx)
            ctx.decide_leader()
        else:
            ctx.decide_follower(self.tentative)
        ctx.halt()
        self.done = True


class ReElectionElection(_ReElectionCore, SyncAlgorithm):
    """Synchronous re-election wrapper (see module docstring).

    Rounds pace everything: a commit counts down ``commit_rounds``
    crash-free rounds, and the attempt number is computed from the
    epoch start every ``restart_rounds`` rounds.
    """

    ENGINE = "sync"

    def __init__(
        self,
        inner: Union[str, Callable[[], Any]] = "afek_gafni",
        commit_rounds: int = 4,
        restart_rounds: Optional[int] = None,
        inner_params: Optional[Dict[str, Any]] = None,
        **extra_inner_params: Any,
    ) -> None:
        self.commit_rounds = check_count("commit_rounds", commit_rounds)
        if restart_rounds is not None:
            check_count("restart_rounds", restart_rounds, minimum=0)
        self.restart_rounds = restart_rounds
        super().__init__(inner, inner_params, extra_inner_params)
        self.epoch_start = self.attempt_start = 1
        self.commit_left: Optional[int] = None
        self.pending_coord_round: Optional[int] = None

    def _clock(self, ctx) -> int:
        return ctx.round

    def _adopt(self, ctx, leader_id: int) -> None:
        self.tentative = leader_id
        self.commit_left = self.commit_rounds

    def _inner_elected(self, ctx) -> None:
        # My own countdown starts next round, in lockstep with the
        # followers receiving the announcement.
        self._announce(ctx)
        self.pending_coord_round = ctx.round + 1

    def _enter_epoch(self, ctx, epoch: int) -> None:
        super()._enter_epoch(ctx, epoch)
        start = max(1, int(ctx.detector.last_transition(ctx.round)))
        self.epoch_start = self.attempt_start = start
        self.commit_left = self.pending_coord_round = None

    def _wake_inner(self, ctx) -> None:
        self.proxy.round = self.proxy.wake_round = ctx.round - self.attempt_start + 1
        super()._wake_inner(ctx)

    def _restart_window(self, ctx) -> int:
        """Rounds per attempt; 0 disables the epoch-restart timeout.

        The adaptive default is far beyond any healthy inner election
        (the registered algorithms finish in O(ell) rounds), so it only
        fires on genuine loss-induced stalls.
        """
        if self.restart_rounds is not None:
            return self.restart_rounds
        return max(64, 2 * ctx.n)

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
            self.attempt_start = self.epoch_start + due * window
            self._next_attempt(ctx, due)

    def on_wake(self, ctx) -> None:
        self._check_epoch(ctx)

    def on_round(self, ctx, inbox: Inbox) -> None:
        self._check_epoch(ctx)
        if self.done:
            return
        if (
            self.pending_coord_round is not None
            and ctx.round >= self.pending_coord_round
        ):
            self.pending_coord_round = None
            self._adopt(ctx, ctx.my_id)
        # Stale-attempt traffic delivered this round is dropped by _route.
        self._maybe_restart_attempt(ctx)
        routed = (self._route(ctx, port, payload) for port, payload in inbox)
        inner_inbox = [message for message in routed if message is not None]
        if self.inner is not None and not self.inner_halted:
            self.proxy.round = ctx.round - self.attempt_start + 1
            self.inner.on_round(self.proxy, inner_inbox)
        # Commit countdown: crash-free rounds since the announcement.  It
        # only advances while _commit_ready holds; a stalled countdown
        # keeps retransmitting so missing acks or lost coords can arrive.
        if self.commit_left is None:
            return
        if self._commit_ready(ctx):
            self.commit_left -= 1
            if self.commit_left <= 0:
                self._commit(ctx)
                return
        if self.tentative == ctx.my_id:
            # Bounded retransmit, one copy per window round: a lost coord
            # (or a loss burst shorter than the window) cannot wedge a
            # follower; duplicates are no-ops for followers.
            self._announce(ctx)


class AsyncReElectionElection(_ReElectionCore, AsyncAlgorithm):
    """Asynchronous re-election wrapper.

    Epoch transitions are discovered by polling the detector every
    ``poll_interval`` time units (and opportunistically whenever a
    higher-epoch message arrives — the oracle is global, so a higher tag
    proves the suspicion is already visible).  Commits are armed by a
    ``commit_delay`` timer and verified against the epoch on expiry;
    each attempt arms a ``restart_delay`` timer.

    For every planned crash to abort the right commit, choose
    ``commit_delay`` greater than ``detector lag + 1 (max message delay)
    + poll_interval``.
    """

    ENGINE = "async"
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
        self.commit_delay = check_delay("commit_delay", commit_delay)
        self.poll_interval = check_delay("poll_interval", poll_interval)
        if restart_delay is None:
            # Adaptive: far beyond a healthy inner election's time span
            # (delays are <= 1 per hop), so it only fires on stalls.
            restart_delay = max(64.0, 8.0 * commit_delay)
        self.restart_delay = check_delay(
            "restart_delay", restart_delay, zero_disables=True
        )
        super().__init__(inner, inner_params, extra_inner_params)

    def _clock(self, ctx) -> float:
        return ctx.now

    def _adopt(self, ctx, leader_id: int) -> None:
        self.tentative = leader_id
        ctx.set_timer(self.commit_delay, (self.COMMIT, self.epoch, leader_id))

    def _wake_inner(self, ctx) -> None:
        self.proxy.wake_time = ctx.now
        super()._wake_inner(ctx)
        if self.restart_delay > 0:
            ctx.set_timer(self.restart_delay, (self.RESTART, self.epoch, self.attempt))

    def _catch_up(self, ctx, attempt: int) -> None:
        # Restart timers fire per node: follow a peer that retried first.
        self._next_attempt(ctx, attempt)

    def on_wake(self, ctx) -> None:
        self._check_epoch(ctx)
        if not self.done:  # an abstaining node halts at wake
            ctx.set_timer(self.poll_interval, self.POLL)

    def on_message(self, ctx, port: int, payload: Any) -> None:
        routed = self._route(ctx, port, payload)
        if routed is not None:
            self.inner.on_message(self.proxy, *routed)

    def on_timer(self, ctx, tag: Any) -> None:
        if tag == self.POLL:
            self._check_epoch(ctx)
            if self.done:  # an epoch restart may have ended in abstention
                return
            if self.tentative == ctx.my_id:
                # Bounded retransmit while my commit timer runs (at most
                # commit_delay / poll_interval copies).
                self._announce(ctx)
            ctx.set_timer(self.poll_interval, self.POLL)
            return
        name, epoch, value = tag
        if epoch != self.epoch:
            return  # armed in an older epoch
        if name == self.RESTART:
            # A node holding a tentative leader lets the commit path run.
            if value == self.attempt and self.tentative is None and self.inner is not None:
                self._next_attempt(ctx, value + 1)
            return
        if value != self.tentative:
            return  # superseded by my own election
        self._check_epoch(ctx)
        if self.done or epoch != self.epoch:
            return  # aborted by an epoch restart
        if not self._commit_ready(ctx):
            # Quorum pending: retransmit the coord (re-soliciting acks
            # lost to drops) and re-arm the commit timer.
            self._announce(ctx)
            ctx.set_timer(self.commit_delay, tag)
            return
        self._commit(ctx)
