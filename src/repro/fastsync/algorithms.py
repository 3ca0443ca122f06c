"""Vectorized ports of six registry algorithms.

Each port reproduces its object-model twin's round schedule, message
kinds and survivor logic on index arrays — see the twins' module
docstrings (:mod:`repro.core.improved_tradeoff`,
:mod:`repro.core.afek_gafni`, :mod:`repro.core.las_vegas`,
:mod:`repro.core.small_id`, :mod:`repro.core.kutten16`,
:mod:`repro.core.adversarial_2round`) for the protocol rationale; only
the vectorization is documented here.

Afek–Gafni's last iteration contacts *every* peer (``m = n - 1``) and
is never sampled: every referee sees the globally maximal competing ID,
so the survivor set and response count follow in O(S), which keeps it
O(1) memory at ``n = 10^5``.  Theorem 3.10 meets ``m = n - 1`` only at
tiny ``n``, where the streamed iteration handles it.

Each port has one fault-free body, :meth:`run`, over the engine's
lanes: state lives in *global* ``lane * n + node`` index arrays, every
survivor/candidate array is kept sorted so
:meth:`FastSyncNetwork.lane_segments` can slice it per lane, and
per-lane termination (``tick(active)``) lets decided lanes stop paying
tick cost — the Las Vegas port is the one whose lanes genuinely finish
in different rounds.  A single run is a batch of one lane.  Under a
FaultPlan, :meth:`run` hands over to the port's single-lane
``_run_faulted`` fold.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Callable, Optional

import numpy as np

from repro.fastsync.algorithm import VectorAlgorithm
from repro.fastsync.faults import delivered_total
from repro.mathutil import ceil_pow_frac, ceil_sqrt

__all__ = [
    "VectorAdversarial2RoundElection",
    "VectorAfekGafniElection",
    "VectorImprovedTradeoffElection",
    "VectorKutten16Election",
    "VectorLasVegasElection",
    "VectorSmallIdElection",
]


def _referee_best(net, senders: np.ndarray, m: int, init: np.ndarray) -> np.ndarray:
    """``best[t]``: the highest sender rank among ``t``'s competes, floored at ``init[t]``.

    Every sender (sorted global indices) competes over its first ``m``
    ports, streamed (:meth:`FastSyncNetwork.stream_ports`) into a
    max-scatter on the lane's ``best`` segment: no (senders × m) matrix.
    """
    n = net.n
    sid = net.ids_rank_flat[senders]
    starts = net.lane_segments(senders)[0]
    best = init.copy()

    def scatter(b: int, rows, targets: np.ndarray) -> None:
        ranks = np.repeat(sid[starts[b] :][rows], targets.shape[1])
        # maximum.at holds the GIL and runs faster on intp indices; the cast does not.
        np.maximum.at(best[b * n : (b + 1) * n], targets.reshape(-1).astype(np.intp), ranks)

    net.stream_ports(senders, m, scatter)
    return best


def _referee_iteration(
    net, senders: np.ndarray, m: int, init: np.ndarray, compete_kind: str, response_kind: str
) -> np.ndarray:
    """One compete/response iteration (rounds ``2i-1``/``2i``).

    Every sender (sorted global indices) contacts its first ``m`` ports;
    a referee responds to the highest competing ID that beats its
    ``init`` floor (``-1``, or its own ID for self-comparing referees à
    la Afek–Gafni); a sender survives iff all ``m`` of its referees
    responded to it.  Returns the survivors and accounts both message
    batches per lane; the referee round's :meth:`tick` happens inside.

    ``init`` is the ``(batch * n,)`` referee floor in *rank space*
    (``net.ids_rank_flat`` values, or ``-1``).  Survivors are counted in
    O(n) with no gather: a referee ``t`` with ``best[t] > init[t]``
    answered the sender of rank ``best[t]``, and a sender survives iff
    it is answered ``m`` times.  That is exact because ranks are unique
    within a lane, no sender targets itself and a sender's ``m`` targets
    are distinct.
    """
    net.count_messages(net.rows_per_lane(senders) * m, compete_kind)
    net.tick()
    best = _referee_best(net, senders, m, init)
    n = net.n
    with net.profile("scatter"):  # what the sampler's max-scatter leaves: rank -> row
        base = np.repeat(np.arange(net.batch) * n, n)  # each node's lane offset
        row_of = np.empty(net.batch * n, dtype=np.intp)
        row_of[base[senders] + net.ids_rank_flat[senders]] = np.arange(len(senders))
        answered = best > init
        answers = np.bincount(row_of[(base + best)[answered]], minlength=len(senders))
    net.count_messages(answered.reshape(net.batch, n).sum(axis=1), response_kind)
    with net.profile("compaction"):
        return senders[answers == m]


def _rank_referee_grants(size: int, flat: np.ndarray, rep: np.ndarray) -> np.ndarray:
    """Referee grants for rank competitions (``kutten16`` / ``las_vegas``).

    A referee grants ``win`` to the unique maximum rank among the
    competes sent to it and ``lose`` to the rest.  Returns the
    per-compete ``is_win`` mask.
    """
    best = np.zeros(size, dtype=np.int64)
    np.maximum.at(best, flat, rep)
    hits = rep == best[flat]
    top_count = np.zeros(size, dtype=np.int64)
    np.add.at(top_count, flat[hits], 1)
    return hits & (top_count[flat] == 1)


def _rank_lane_counts(net, flat, is_win):
    """Per-lane ``(wins, considered)`` counts of one rank-referee round."""
    lanes_of = flat // net.n
    wins = np.bincount(lanes_of[is_win], minlength=net.batch)
    return wins, np.bincount(lanes_of, minlength=net.batch)


# --------------------------------------------------------------------- #
# FaultPlan fold helpers (single-lane, exact or scale mode)
#
# Under a FaultPlan the analytic shortcuts above are unsound: a dropped
# compete or a healed partition changes who responds to whom, so every
# faulted round materializes its send batch and pushes it through the
# engine's FastFaultRuntime — which burns the object engine's fault and
# adversary RNG streams in the object engine's global send order (sender
# ascending, port order within a sender).  Faulted runs have one lane,
# so a global index is the node index.  The helpers below keep that
# ordering contract; everything delivered comes back as per-kind
# :class:`~repro.fastsync.faults.Delivered` batches in arrival order.


def _send_batch(net, kind, src, dst, fields=()):
    """Account one uniform-kind send batch and deliver it through the plan."""
    src = np.asarray(src, dtype=np.int64).ravel()
    dst = np.asarray(dst, dtype=np.int64).ravel()
    if src.size == 0:
        return {}
    net.count_messages([src.size], kind)
    runtime = net.fault_runtime
    runtime.observe_sends(net.round, src, kind)
    return runtime.deliver(net.round, kind, src, dst, fields)


def _send_mixed(net, kinds, src, dst, fields=()):
    """Like :func:`_send_batch` for interleaved per-edge kinds (win/lose).

    The per-edge ``kinds`` sequence preserves the object engine's
    interleaving: a referee answers its competes in arrival order, so a
    link rule watching only ``win`` must see the rule RNG consumed at
    exactly the win positions of the interleaved stream.
    """
    src = np.asarray(src, dtype=np.int64).ravel()
    dst = np.asarray(dst, dtype=np.int64).ravel()
    if src.size == 0:
        return {}
    for kind, count in Counter(kinds).items():
        net.count_messages([count], kind)
    runtime = net.fault_runtime
    runtime.observe_sends(net.round, src, kinds)
    return runtime.deliver(net.round, kinds, src, dst, fields)


def _first_max_pick(dst, val, floor):
    """Indices of each receiver's first-arrival maximum above its floor.

    Replicates the referee scan ``if payload[1] > best: keep`` over an
    arrival-ordered edge list: only values strictly above ``floor[dst]``
    count, and among copies tied at the receiver's maximum the earliest
    arrival wins (the object scan replaces only on strict improvement).
    Returns positions into ``dst``/``val``, sorted by receiver — which
    is exactly the object engine's response send order (referees step in
    node order, one response each).

    O(E) apart from the final pick: a ``np.maximum.at`` max per receiver
    (started at the floor, which every kept value exceeds) marks the
    copies at their receiver's maximum, and ``np.unique(...,
    return_index=True)`` returns the first occurrence of each receiver
    among them, in receiver order.
    """
    idx = np.flatnonzero(val > floor[dst])
    if idx.size == 0:
        return idx
    d, v = dst[idx], val[idx]
    best = floor.copy()
    np.maximum.at(best, d, v)
    top = np.flatnonzero(v == best[d])
    _, first = np.unique(d[top], return_index=True)
    return idx[top[first]]


def _rank_grants_per_copy(dst, val, size):
    """Per-copy ``win`` mask of the rank referees, tamper-tolerant.

    Matches the object referee exactly: the running best starts at -1
    (tampered ranks can go negative and must stay unelectable), and a
    receiver grants ``win`` only to a *unique* copy of its final
    maximum — a duplicated top rank ties with itself and loses.
    """
    best = np.full(size, -1, dtype=np.int64)
    if dst.size:
        np.maximum.at(best, dst, val)
    hits = (val > -1) & (val == best[dst])
    top = np.zeros(size, dtype=np.int64)
    np.add.at(top, dst[hits], 1)
    return hits & (top[dst] == 1)


class VectorImprovedTradeoffElection(VectorAlgorithm):
    """Vectorized Theorem 3.10 tradeoff election (twin: ``improved_tradeoff``).

    Under a FaultPlan crash schedule (the :meth:`_run_faulted` fold),
    crashed survivors drop out at the start of the round their crash
    lands on, dead referees never respond (so their senders lose the
    iteration), and only nodes alive in the silent decision round decide
    — matching the object engine's crash-stop semantics bit for bit in
    ``exact`` mode (``tests/test_fastsync_crash.py``).  The fold
    materializes every send, so full fan-out costs ``O(n·m)`` memory
    where the fault-free analytic branch costs ``O(1)``.
    """

    name = "improved_tradeoff"
    supports_faults = True

    COMPETE = "compete"
    RESPONSE = "response"
    FINAL = "final"

    def __init__(self, ell: int = 3) -> None:
        if ell < 3 or ell % 2 == 0:
            raise ValueError("Theorem 3.10 requires an odd round budget ell >= 3")
        self.ell = ell
        self.k = (ell + 3) // 2

    def referee_count(self, n: int, iteration: int) -> int:
        """``m_i = min(⌈n^(i/(k-1))⌉, n - 1)`` — same schedule as the twin."""
        return min(ceil_pow_frac(n, iteration, self.k - 1), n - 1)

    def run(self, net) -> None:
        if net.has_faults:
            self._run_faulted(net)
            return
        n, batch = net.n, net.batch
        survivors = np.arange(batch * n, dtype=np.int64)
        for i in range(1, self.k - 1):
            m = self.referee_count(n, i)
            net.tick()  # round 2i-1: competes (prior tally already applied)
            init = np.full(batch * n, -1, dtype=np.int32)
            survivors = _referee_iteration(
                net, survivors, m, init, self.COMPETE, self.RESPONSE
            )
        net.tick()  # round 2k-3: surviving IDs are broadcast
        net.count_messages(net.rows_per_lane(survivors) * (n - 1), self.FINAL)
        net.tick()  # round 2k-2: silent decision round
        starts, stops = net.lane_segments(survivors)
        for b in range(batch):
            seg = survivors[starts[b] : stops[b]] - b * n
            net.decide(b, [int(seg[int(np.argmax(net.ids[seg]))])])

    def _run_faulted(self, net) -> None:
        """The per-receiver fold under a FaultPlan (exact twin semantics).

        Dropped or blocked responses starve their survivor; duplicated
        responses over-count and keep it (``>= awaiting``, like the
        twin's ``< awaiting`` demotion); tampered compete IDs enter the
        referee's first-max scan as delivered, so a forged ID can steal
        a response.  Outputs follow the twin's explicit election: the
        winner's broadcast ID, per receiver, or ``None`` where every
        broadcast was lost.
        """
        n, ids = net.n, net.ids
        survivor = np.ones(n, dtype=bool)
        awaiting = np.zeros(n, dtype=np.int64)
        resp = None  # RESPONSE batch in flight into the next odd round
        for i in range(1, self.k - 1):
            m = self.referee_count(n, i)
            net.tick()  # round 2i-1: tally iteration i-1, then compete
            alive = net.alive_flat
            count = np.zeros(n, dtype=np.int64)
            if resp is not None:
                ok = alive[resp.dst]
                np.add.at(count, resp.dst[ok], 1)
            # A fully starved survivor (every response dropped or dead)
            # demotes too: the tally runs even with nothing in flight.
            survivor &= count >= awaiting
            resp = None
            senders = np.nonzero(alive & survivor)[0]
            batch = {}
            if senders.size and m > 0:
                dst = net.first_ports(senders, m)
                batch = _send_batch(
                    net,
                    self.COMPETE,
                    np.repeat(senders, m),
                    dst.reshape(-1),
                    (np.repeat(ids[senders], m),),
                )
                awaiting[senders] = m
            net.tick()  # round 2i: referees answer their first-arrival max
            alive = net.alive_flat
            resp = None
            comp = batch.get(self.COMPETE)
            if comp is not None:
                ok = alive[comp.dst]
                cdst, csrc = comp.dst[ok], comp.src[ok]
                cval = comp.fields[0][ok]
                floor = np.full(n, -1, dtype=np.int64)
                pick = _first_max_pick(cdst, cval, floor)
                resp = _send_batch(net, self.RESPONSE, cdst[pick], csrc[pick]).get(
                    self.RESPONSE
                )
        net.tick()  # round 2k-3: tally the last iteration, broadcast final
        alive = net.alive_flat
        count = np.zeros(n, dtype=np.int64)
        if resp is not None:
            ok = alive[resp.dst]
            np.add.at(count, resp.dst[ok], 1)
        survivor &= count >= awaiting
        senders = np.nonzero(alive & survivor)[0]
        batch = {}
        if senders.size and n > 1:
            dst = net.first_ports(senders, n - 1)
            batch = _send_batch(
                net,
                self.FINAL,
                np.repeat(senders, n - 1),
                dst.reshape(-1),
                (np.repeat(ids[senders], n - 1),),
            )
        net.tick()  # round 2k-2: silent decision round
        alive = net.alive_flat
        best = np.where(survivor, ids, np.int64(-1))
        fin = batch.get(self.FINAL)
        if fin is not None:
            ok = alive[fin.dst]
            np.maximum.at(best, fin.dst[ok], fin.fields[0][ok])
        leader_mask = alive & survivor & (best == ids)
        outputs: list = [None] * n
        for u in np.nonzero(alive)[0]:
            b = int(best[u])
            outputs[int(u)] = b if b >= 0 else None
        net.decide(
            0,
            np.nonzero(leader_mask)[0].tolist(),
            decided_count=int(alive.sum()),
            outputs=outputs,
        )


class VectorAfekGafniElection(VectorAlgorithm):
    """Vectorized Afek–Gafni reconstruction (twin: ``afek_gafni``).

    Simultaneous wake-up only: at scale every node starts as a candidate,
    which is the head-to-head configuration the benchmarks sweep.

    Under a FaultPlan crash schedule there is one faithful sharp edge:
    the reconstruction's final iteration contacts *every* peer, so any
    crash that lands before the last referee round starves every
    candidate of a response and the protocol stalls — on both engines,
    which raise ``SimulationLimitExceeded`` in lockstep.  Crashes at or
    after the announcement round behave gracefully (dead followers
    simply never decide).
    """

    name = "afek_gafni"
    supports_faults = True

    COMPETE = "compete"
    RESPONSE = "response"
    ELECTED = "elected"

    def __init__(self, ell: int = 4) -> None:
        if ell < 2:
            raise ValueError("Afek-Gafni requires ell >= 2")
        self.ell = ell
        self.iterations = max(1, ell // 2)

    def referee_count(self, n: int, iteration: int) -> int:
        return min(ceil_pow_frac(n, iteration, self.iterations), n - 1)

    def run(self, net) -> None:
        if net.has_faults:
            self._run_faulted(net)
            return
        n, ids_flat = net.n, net.ids_flat
        batch = net.batch
        candidates = np.arange(batch * n, dtype=np.int64)
        for i in range(1, self.iterations + 1):
            m = self.referee_count(n, i)
            net.tick()  # round 2i-1: competes
            if m == n - 1:  # at n == 1 too, where m = 0
                net.count_messages(net.rows_per_lane(candidates) * m, self.COMPETE)
                net.tick()
                # Full fan-out with self-comparing referees: the max-ID
                # candidate beats every referee's floor and is the only
                # referee that never responds, so it alone survives and
                # exactly n - 1 responses flow.
                starts, stops = net.lane_segments(candidates)
                responses = np.zeros(batch, dtype=np.int64)
                keep = []
                for b in range(batch):
                    seg = candidates[starts[b] : stops[b]]
                    if len(seg):
                        responses[b] = n - 1
                        keep.append(seg[[int(np.argmax(ids_flat[seg]))]])
                net.count_messages(responses, self.RESPONSE)
                candidates = np.concatenate(keep) if keep else candidates[:0]
                continue
            init = np.full(batch * n, -1, dtype=np.int32)
            init[candidates] = net.ids_rank_flat[candidates]
            candidates = _referee_iteration(
                net, candidates, m, init, self.COMPETE, self.RESPONSE
            )
        net.tick()  # round 2K+1: the surviving candidates announce
        counts = net.rows_per_lane(candidates)
        net.count_messages(counts * (n - 1), self.ELECTED)
        if n >= 2:
            net.tick()  # round 2K+2: followers receive the announcement
        starts, stops = net.lane_segments(candidates)
        for b in range(batch):
            net.decide(b, (candidates[starts[b] : stops[b]] - b * n).tolist())

    def _run_faulted(self, net) -> None:
        """The FaultPlan fold: drops can leave several (or zero) winners.

        A candidate starved of any response drops out, so under message
        loss *multiple* candidates can reach the announcement round each
        believing it won — every one decides LEADER and broadcasts, and
        each follower adopts the first ``elected`` payload it receives,
        exactly like the twin.  Zero announcers (or followers cut off
        from every announcement) leave stragglers spinning until the
        round limit, on both engines.
        """
        n, ids = net.n, net.ids
        candidate = np.ones(n, dtype=bool)
        awaiting = np.zeros(n, dtype=np.int64)
        resp = None
        for i in range(1, self.iterations + 1):
            m = self.referee_count(n, i)
            net.tick()  # round 2i-1: tally iteration i-1, then compete
            alive = net.alive_flat
            count = np.zeros(n, dtype=np.int64)
            if resp is not None:
                ok = alive[resp.dst]
                np.add.at(count, resp.dst[ok], 1)
            # Starved candidates (every response dead or dropped) demote
            # too, so the tally runs even with nothing in flight.
            candidate &= count >= awaiting
            resp = None
            senders = np.nonzero(alive & candidate)[0]
            batch = {}
            if senders.size and m > 0:
                dst = net.first_ports(senders, m)
                batch = _send_batch(
                    net,
                    self.COMPETE,
                    np.repeat(senders, m),
                    dst.reshape(-1),
                    (np.repeat(ids[senders], m),),
                )
                awaiting[senders] = m
            net.tick()  # round 2i: self-comparing referees answer
            alive = net.alive_flat
            resp = None
            comp = batch.get(self.COMPETE)
            if comp is not None:
                ok = alive[comp.dst]
                cdst, csrc = comp.dst[ok], comp.src[ok]
                cval = comp.fields[0][ok]
                # A referee that is itself a live candidate floors the
                # scan at its own ID (it implicitly competes at itself).
                floor = np.where(candidate, ids, np.int64(-1))
                pick = _first_max_pick(cdst, cval, floor)
                resp = _send_batch(net, self.RESPONSE, cdst[pick], csrc[pick]).get(
                    self.RESPONSE
                )
        net.tick()  # round 2K+1: surviving candidates announce
        alive = net.alive_flat
        count = np.zeros(n, dtype=np.int64)
        if resp is not None:
            ok = alive[resp.dst]
            np.add.at(count, resp.dst[ok], 1)
        candidate &= count >= awaiting
        announcers = np.nonzero(alive & candidate)[0]
        decided = np.zeros(n, dtype=bool)
        halted = np.zeros(n, dtype=bool)
        outputs: list = [None] * n
        batch = {}
        if announcers.size:
            decided[announcers] = True
            halted[announcers] = True
            for u in announcers:
                outputs[int(u)] = int(ids[u])
            if n > 1:
                dst = net.first_ports(announcers, n - 1)
                batch = _send_batch(
                    net,
                    self.ELECTED,
                    np.repeat(announcers, n - 1),
                    dst.reshape(-1),
                    (np.repeat(ids[announcers], n - 1),),
                )
        leaders = announcers.tolist()
        inflight = delivered_total(batch)
        # Followers halt on their first elected payload; stragglers that
        # never get one keep the run alive until the round limit (the
        # twin's referees idle the same way).
        while bool((net.alive_flat & ~halted).any()) or inflight:
            net.tick()
            alive = net.alive_flat
            el = batch.get(self.ELECTED)
            if el is not None:
                ok = alive[el.dst] & ~halted[el.dst]
                edst, eval_ = el.dst[ok], el.fields[0][ok]
                order = np.argsort(edst, kind="stable")
                edst, eval_ = edst[order], eval_[order]
                first = np.ones(edst.size, dtype=bool)
                first[1:] = edst[1:] != edst[:-1]
                for d, v in zip(edst[first], eval_[first]):
                    outputs[int(d)] = int(v)
                decided[edst[first]] = True
                halted[edst[first]] = True
            batch = {}
            inflight = 0
        net.decide(0, leaders, decided_count=int(decided.sum()), outputs=outputs)


class VectorSmallIdElection(VectorAlgorithm):
    """Vectorized Algorithm 1 / Theorem 3.15 (twin: ``small_id``).

    The object twin's round structure is embarrassingly data-parallel:
    the ID range is cut into windows of width ``d·g``; rounds tick
    silently until the first window that contains an ID, whose members
    broadcast their ballots; everyone decides on the minimum ballot one
    round later.  The port alone is a one-liner over the id array —
    ``w = min((ids + d·g - 1) // (d·g))`` — which makes ``small_id`` the
    cheapest vectorized algorithm in the registry: zero messages until
    the deciding window, then one ``O(b·n)`` accounting step for the
    ``b ≤ d·g`` broadcasters.  Matches the twin bit for bit in exact
    mode: same rounds, same message counts, same winner
    (``tests/test_fastsync_small_id.py``).

    Under a FaultPlan crash schedule (the :meth:`_run_faulted` fold), a
    window whose members all died stays silent, so the opening round is
    the first window with a *live* member.
    """

    name = "small_id"
    supports_faults = True

    BALLOT = "ballot"

    def __init__(self, d: int, g: int = 1) -> None:
        if d < 1:
            raise ValueError("need d >= 1")
        if g < 1:
            raise ValueError("need integer g >= 1")
        self.d = d
        self.g = g

    def _windows(self, net) -> np.ndarray:
        n, ids = net.n, net.ids
        if self.d > n:
            raise ValueError("need d <= n")
        if int(ids.min()) < 1 or int(ids.max()) > n * self.g:
            raise ValueError(
                f"Algorithm 1 requires IDs in [1, n*g] = [1, {n * self.g}]; "
                f"got {int(ids.min() if ids.min() < 1 else ids.max())}"
            )
        width = self.d * self.g
        return (ids + width - 1) // width

    def _run_faulted(self, net) -> None:
        """FaultPlan fold: lost ballots re-open later windows.

        A node that hears no ballot (partitioned away, or its window's
        broadcasters all dropped) simply waits for its *own* window and
        broadcasts then — so under partitions each component elects its
        own minimum, and the fold runs window by window until every live
        node has decided and nothing is in flight, like the twin.
        """
        n, ids = net.n, net.ids
        windows = self._windows(net)
        big = np.iinfo(np.int64).max
        halted = np.zeros(n, dtype=bool)
        decided = np.zeros(n, dtype=bool)
        sent_round = np.zeros(n, dtype=np.int64)
        outputs: list = [None] * n
        leaders: list = []
        batch = {}
        while True:
            r = net.tick()
            alive = net.alive_flat
            act = alive & ~halted
            bal = batch.get(self.BALLOT)
            min_bal = np.full(n, big, dtype=np.int64)
            has_bal = np.zeros(n, dtype=bool)
            if bal is not None:
                ok = act[bal.dst]
                np.minimum.at(min_bal, bal.dst[ok], bal.fields[0][ok])
                has_bal[bal.dst[ok]] = True
            # Branch precedence mirrors the twin's handler: a node that
            # broadcast last round decides (its own ID participates);
            # otherwise any ballot decides it; otherwise its window may
            # open this round.
            deciders = act & (sent_round > 0) & (sent_round + 1 == r)
            win_sent = np.minimum(min_bal, ids)
            new_lead = deciders & (win_sent == ids)
            leaders.extend(np.nonzero(new_lead)[0].tolist())
            for u in np.nonzero(deciders)[0]:
                outputs[int(u)] = int(win_sent[u])
            rec = act & ~deciders & has_bal
            for u in np.nonzero(rec)[0]:
                outputs[int(u)] = int(min_bal[u])
            decided |= deciders | rec
            halted |= deciders | rec
            bc = act & ~deciders & ~rec & (windows == r)
            batch = {}
            if bc.any():
                idxs = np.nonzero(bc)[0]
                if n > 1:
                    dst = net.first_ports(idxs, n - 1)
                    batch = _send_batch(
                        net,
                        self.BALLOT,
                        np.repeat(idxs, n - 1),
                        dst.reshape(-1),
                        (np.repeat(ids[idxs], n - 1),),
                    )
                sent_round[bc] = r
            if not (net.alive_flat & ~halted).any() and delivered_total(batch) == 0:
                break
        net.decide(0, leaders, decided_count=int(decided.sum()), outputs=outputs)

    def run(self, net) -> None:
        if net.has_faults:
            self._run_faulted(net)
            return
        n, ids = net.n, net.ids
        batch = net.batch
        windows = self._windows(net)
        # Rounds before a lane's opening window are silent; the opening
        # round is the first window with a member, whose members
        # broadcast their ballots, and everyone decides in the round
        # after, exactly like the per-node twin.  Nodes sorted by window
        # make each round's window one slice, so a silent round costs
        # O(log n).
        order = np.argsort(windows, kind="stable")
        sorted_windows = windows[order]
        # stage 0: scanning for the opening window; 1: broadcast sent,
        # deciding next round; 2: done.
        stage = np.zeros(batch, dtype=np.int64)
        broadcasters: list = [None] * batch
        while (stage < 2).any():
            active = stage < 2
            r = net.tick(active)  # every running lane is at round r
            lo, hi = np.searchsorted(sorted_windows, [r, r + 1])
            window = order[lo:hi]
            counts = np.zeros(batch, dtype=np.int64)
            for b in np.nonzero(active)[0]:
                if stage[b] == 1:
                    seg = broadcasters[b]
                    net.decide(b, [int(seg[int(np.argmin(ids[seg]))])])
                    stage[b] = 2
                    continue
                if len(window):
                    broadcasters[b] = window
                    counts[b] = len(window) * (n - 1)
                    stage[b] = 1
            net.count_messages(counts, self.BALLOT)


class VectorLasVegasElection(VectorAlgorithm):
    """Vectorized Theorem 3.16 Las Vegas election (twin: ``las_vegas``).

    Lanes finish in different phases — decided lanes stop ticking and
    drawing while the stragglers keep restarting.  Under a FaultPlan
    crash schedule (the :meth:`_run_faulted` fold), dead nodes flip no
    candidacy coins and dead referees grant nothing, so their candidates
    can never collect a full win set.
    """

    name = "las_vegas"
    supports_faults = True

    COMPETE = "compete"
    WIN = "win"
    LOSE = "lose"
    ANNOUNCE = "announce"

    def __init__(
        self,
        candidate_coeff: float = 2.0,
        referee_coeff: float = 2.0,
        candidate_prob_fn: Optional[Callable[[int, int], float]] = None,
    ) -> None:
        if candidate_coeff <= 0 or referee_coeff <= 0:
            raise ValueError("coefficients must be positive")
        self.candidate_coeff = candidate_coeff
        self.referee_coeff = referee_coeff
        self.candidate_prob_fn = candidate_prob_fn
        self.phases_run = 0

    def candidate_probability(self, n: int, phase: int) -> float:
        if self.candidate_prob_fn is not None:
            return self.candidate_prob_fn(n, phase)
        if n < 2:
            return 1.0
        return min(1.0, self.candidate_coeff * math.log(n) / n)

    def referee_count(self, n: int) -> int:
        if n < 2:
            return 0
        return min(n - 1, math.ceil(self.referee_coeff * math.sqrt(n * math.log(n))))

    def _run_faulted(self, net) -> None:
        """FaultPlan fold: per-receiver certification, phase by phase.

        The twin's safety argument leans on announcements being reliable
        broadcasts; under faults that breaks *per receiver* — a node
        whose single announcement copy was dropped restarts while the
        rest follow, and a duplicated copy fails the ``exactly one``
        check.  The fold therefore tracks decisions per node and keeps
        phasing until every live node decided and nothing is in flight.
        """
        n, ids = net.n, net.ids
        if n == 1:
            net.tick()
            net.decide(0, [0], outputs=[int(ids[0])])
            return
        m = self.referee_count(n)
        halted = np.zeros(n, dtype=bool)
        decided = np.zeros(n, dtype=bool)
        announced = np.zeros(n, dtype=bool)
        cand_mask = np.zeros(n, dtype=bool)
        awaiting = np.zeros(n, dtype=np.int64)
        outputs: list = [None] * n
        leaders: list = []
        ann_batch = {}
        phase = 0
        while True:
            net.tick()  # round 3p+1: verify announcements / restart
            alive = net.alive_flat
            act = alive & ~halted
            ann = ann_batch.get(self.ANNOUNCE)
            ann_count = np.zeros(n, dtype=np.int64)
            ann_val = np.zeros(n, dtype=np.int64)
            if ann is not None:
                ok = act[ann.dst]
                np.add.at(ann_count, ann.dst[ok], 1)
                ann_val[ann.dst[ok]] = ann.fields[0][ok]
            new_lead = act & announced & (ann_count == 0)
            new_follow = act & ~announced & (ann_count == 1)
            leaders.extend(np.nonzero(new_lead)[0].tolist())
            for u in np.nonzero(new_lead)[0]:
                outputs[int(u)] = int(ids[u])
            for u in np.nonzero(new_follow)[0]:
                outputs[int(u)] = int(ann_val[u])
            decided |= new_lead | new_follow
            halted |= new_lead | new_follow
            undecided = act & ~new_lead & ~new_follow
            if not undecided.any():
                break
            self.phases_run = phase + 1
            announced &= ~undecided
            prob = self.candidate_probability(n, phase)
            coin = net.bernoulli(prob)[0]
            cand_mask = undecided & coin
            cand = np.nonzero(cand_mask)[0]
            comp_batch = {}
            if cand.size:
                ranks = net.rank_draws(cand, n**4)
                dst = net.sampled_targets(cand, m)
                comp_batch = _send_batch(
                    net,
                    self.COMPETE,
                    np.repeat(cand, m),
                    dst.reshape(-1),
                    (np.repeat(ranks, m),),
                )
                awaiting[cand] = m
            net.tick()  # round 3p+2: referees grant win/lose per copy
            alive = net.alive_flat
            act = alive & ~halted
            comp = comp_batch.get(self.COMPETE)
            wl_batch = {}
            if comp is not None:
                ok = act[comp.dst]
                cdst, csrc = comp.dst[ok], comp.src[ok]
                cval = comp.fields[0][ok]
                order = np.argsort(cdst, kind="stable")
                cdst, csrc, cval = cdst[order], csrc[order], cval[order]
                is_win = _rank_grants_per_copy(cdst, cval, n)
                kinds = [self.WIN if w else self.LOSE for w in is_win]
                wl_batch = _send_mixed(net, kinds, cdst, csrc)
            if not (alive & ~halted).any() and delivered_total(wl_batch) == 0:
                break
            net.tick()  # round 3p+3: full-win candidates announce
            alive = net.alive_flat
            act = alive & ~halted
            win = wl_batch.get(self.WIN)
            win_count = np.zeros(n, dtype=np.int64)
            if win is not None:
                ok = act[win.dst]
                np.add.at(win_count, win.dst[ok], 1)
            announcers = np.nonzero(
                act & cand_mask & (awaiting > 0) & (win_count == awaiting)
            )[0]
            announced[announcers] = True
            ann_batch = {}
            if announcers.size:
                dst = net.first_ports(announcers, n - 1)
                ann_batch = _send_batch(
                    net,
                    self.ANNOUNCE,
                    np.repeat(announcers, n - 1),
                    dst.reshape(-1),
                    (np.repeat(ids[announcers], n - 1),),
                )
            if not (alive & ~halted).any() and delivered_total(ann_batch) == 0:
                break
            phase += 1
        net.decide(0, leaders, decided_count=int(decided.sum()), outputs=outputs)

    def run(self, net) -> None:
        if net.has_faults:
            self._run_faulted(net)
            return
        n = net.n
        batch = net.batch
        if n == 1:
            net.tick()
            for b in range(batch):
                net.decide(b, [0])
            return
        m = self.referee_count(n)
        announcers = [np.empty(0, dtype=np.int64) for _ in range(batch)]  # lane-local
        active = np.ones(batch, dtype=bool)
        phase = 0
        while active.any():
            net.tick(active)  # round 3p+1: verify previous announcements
            for b in np.nonzero(active)[0]:
                if len(announcers[b]) == 1:
                    net.decide(b, [int(announcers[b][0])])
                    active[b] = False
            if not active.any():
                return
            # Zero or several announcers: the lane restarts the phase.
            act_idx = np.nonzero(active)[0]
            self.phases_run = phase + 1
            prob = self.candidate_probability(n, phase)
            coin = net.bernoulli(prob, lanes=act_idx)
            cand = np.nonzero(coin.reshape(-1))[0]
            ranks = net.rank_draws(cand, n**4)
            dst = net.sampled_targets(cand, m)
            net.count_messages(net.rows_per_lane(cand) * m, self.COMPETE)
            net.tick(active)  # round 3p+2: referees grant win/lose per compete
            flat = dst.reshape(-1)
            rep = np.repeat(ranks, m)
            is_win = _rank_referee_grants(batch * n, flat, rep)
            wins, considered = _rank_lane_counts(net, flat, is_win)
            net.count_messages(wins, self.WIN)
            net.count_messages(considered - wins, self.LOSE)
            net.tick(active)  # round 3p+3: all-win candidates broadcast
            ok = is_win.reshape(len(cand), m).all(axis=1) if len(cand) else np.empty(0, bool)
            ann = cand[ok]
            net.count_messages(net.rows_per_lane(ann) * (n - 1), self.ANNOUNCE)
            starts, stops = net.lane_segments(ann)
            for b in act_idx:
                announcers[b] = ann[starts[b] : stops[b]] - b * n
            phase += 1


class VectorKutten16Election(VectorAlgorithm):
    """Vectorized 2-round Monte Carlo baseline (twin: ``kutten16``).

    Round 1: every node flips the ``c1·ln n/n`` candidacy coin;
    candidates draw a rank and contact ``⌈c2·√(n·ln n)⌉`` sampled
    referees.  Round 2: referees grant ``win`` to the unique maximum
    rank.  Round 3 (silent): candidates whose referees all granted
    ``win`` decide LEADER — zero or several leaders are possible, which
    is the Monte Carlo failure mode the twin measures.  With no
    candidates at all the run ends after round 2, like the twin.

    Under a FaultPlan crash schedule (the :meth:`_run_faulted` fold),
    dead nodes flip no coins, dead referees grant nothing, and a winning
    candidate must survive into round 3 to decide.
    """

    name = "kutten16"
    supports_faults = True

    COMPETE = "compete"
    WIN = "win"
    LOSE = "lose"

    def __init__(self, candidate_coeff: float = 2.0, referee_coeff: float = 2.0) -> None:
        if candidate_coeff <= 0 or referee_coeff <= 0:
            raise ValueError("coefficients must be positive")
        self.candidate_coeff = candidate_coeff
        self.referee_coeff = referee_coeff

    def candidate_probability(self, n: int) -> float:
        if n < 2:
            return 1.0
        return min(1.0, self.candidate_coeff * math.log(n) / n)

    def referee_count(self, n: int) -> int:
        if n < 2:
            return 0
        return min(n - 1, math.ceil(self.referee_coeff * math.sqrt(n * math.log(n))))

    def _run_faulted(self, net) -> None:
        """FaultPlan fold: the Monte Carlo tally under lossy links.

        A dropped win (or a blocked compete) silently demotes its
        candidate; a *duplicated* win over-counts and demotes it too
        (the twin requires exactly ``awaiting`` wins).  Outputs are all
        ``None`` except the self-declared leaders — the twin's election
        is implicit.
        """
        n, ids = net.n, net.ids
        net.tick()  # round 1: candidacy coins + competes
        alive = net.alive_flat
        if n == 1:
            net.decide(0, [0], outputs=[int(ids[0])])
            return
        coin = net.bernoulli(self.candidate_probability(n))[0]
        cand_mask = alive & coin
        alive1 = alive.copy()
        cand = np.nonzero(cand_mask)[0]
        m = self.referee_count(n)
        comp_batch = {}
        if cand.size:
            ranks = net.rank_draws(cand, n**4)
            dst = net.sampled_targets(cand, m)
            comp_batch = _send_batch(
                net,
                self.COMPETE,
                np.repeat(cand, m),
                dst.reshape(-1),
                (np.repeat(ranks, m),),
            )
        net.tick()  # round 2: referees grant win/lose; non-candidates halt
        alive = net.alive_flat
        comp = comp_batch.get(self.COMPETE)
        wl_batch = {}
        if comp is not None:
            ok = alive[comp.dst]
            cdst, csrc = comp.dst[ok], comp.src[ok]
            cval = comp.fields[0][ok]
            order = np.argsort(cdst, kind="stable")
            cdst, csrc, cval = cdst[order], csrc[order], cval[order]
            is_win = _rank_grants_per_copy(cdst, cval, n)
            kinds = [self.WIN if w else self.LOSE for w in is_win]
            wl_batch = _send_mixed(net, kinds, cdst, csrc)
        if not (alive & cand_mask).any() and delivered_total(wl_batch) == 0:
            # No live candidate and nothing in flight: the run ends with
            # the silent referee round, like the twin.
            net.decide(
                0,
                [],
                decided_count=int((alive1 & ~coin).sum()),
                outputs=[None] * n,
            )
            return
        net.tick()  # round 3 (silent): candidates tally their verdicts
        alive = net.alive_flat
        win = wl_batch.get(self.WIN)
        win_count = np.zeros(n, dtype=np.int64)
        if win is not None:
            ok = alive[win.dst]
            np.add.at(win_count, win.dst[ok], 1)
        act3 = alive & cand_mask
        lead = act3 & (win_count == m)
        outputs: list = [None] * n
        leaders = np.nonzero(lead)[0]
        for u in leaders:
            outputs[int(u)] = int(ids[u])
        net.decide(
            0,
            leaders.tolist(),
            decided_count=int((alive1 & ~coin).sum()) + int(act3.sum()),
            outputs=outputs,
        )

    def run(self, net) -> None:
        if net.has_faults:
            self._run_faulted(net)
            return
        n = net.n
        batch = net.batch
        net.tick()  # round 1: candidacy coins + competes
        if n == 1:
            for b in range(batch):
                net.decide(b, [0])
            return
        coin = net.bernoulli(self.candidate_probability(n))
        cand = np.nonzero(coin.reshape(-1))[0]
        m = self.referee_count(n)
        ranks = net.rank_draws(cand, n**4)
        dst = net.sampled_targets(cand, m)
        cand_lanes = net.rows_per_lane(cand)
        net.count_messages(cand_lanes * m, self.COMPETE)
        active = cand_lanes > 0
        net.tick()  # round 2: referees grant win/lose; non-candidates halt
        for b in np.nonzero(~active)[0]:
            # Nobody competed: every node decided NON_LEADER in round 1
            # and the lane ends after the silent referee round.
            net.decide(b, [])
        if not active.any():
            return
        flat = dst.reshape(-1)
        rep = np.repeat(ranks, m)
        is_win = _rank_referee_grants(batch * n, flat, rep)
        wins, considered = _rank_lane_counts(net, flat, is_win)
        net.count_messages(wins, self.WIN)
        net.count_messages(considered - wins, self.LOSE)
        net.tick(active)  # round 3 (silent): candidates tally their verdicts
        winners = cand[is_win.reshape(len(cand), m).all(axis=1)]
        starts, stops = net.lane_segments(winners)
        for b in np.nonzero(active)[0]:
            net.decide(b, (winners[starts[b] : stops[b]] - b * n).tolist())


class VectorAdversarial2RoundElection(VectorAlgorithm):
    """Vectorized Theorem 4.1 election (twin: ``adversarial_2round``).

    The only wake-up-aware port: the engine's ``roots`` schedule names
    the adversarially woken nodes (default: everyone).  Round 1: roots
    send wake-ups over ``⌈√n⌉`` sampled ports.  Round 2: every node
    that *received* a wake-up flips the ``log(1/ε)/⌈√n⌉`` candidacy
    coin (receipt-based reading — see the twin's module docstring);
    candidates broadcast their ranks.  Round 3: the unique maximum rank
    leads; rank collisions elect nobody; with zero candidates only the
    awake nodes decide (as followers) and the sleepers sleep on —
    the ε-probability failure the theorem prices in.
    """

    name = "adversarial_2round"
    supports_roots = True
    supports_faults = True

    WAKE = "wake"
    RANK = "rank"

    def __init__(self, epsilon: float = 0.05) -> None:
        if not 0.0 < epsilon < 1.0:
            raise ValueError("need 0 < epsilon < 1")
        self.epsilon = epsilon

    def candidate_probability(self, n: int) -> float:
        return min(1.0, math.log(1.0 / self.epsilon) / ceil_sqrt(n))

    def run(self, net) -> None:
        if net.has_faults:
            self._run_faulted(net)
            return
        n = net.n
        batch = net.batch
        roots = net.roots if net.roots is not None else np.arange(n, dtype=np.int64)
        net.tick()  # round 1: roots send wake-ups
        if n == 1:
            for b in range(batch):
                net.decide(b, [0])
            return
        m = min(ceil_sqrt(n), n - 1)
        roots_g = (np.arange(batch, dtype=np.int64)[:, None] * n + roots[None, :]).reshape(-1)
        eligible = np.zeros(batch * n, dtype=bool)

        def mark(b: int, rows, targets: np.ndarray) -> None:
            eligible[b * n : (b + 1) * n][targets] = True

        net.stream_ports(roots_g, m, mark, sampled=True)
        net.count_messages(np.full(batch, len(roots) * m, dtype=np.int64), self.WAKE)
        net.tick()  # round 2: wake-up receivers flip candidacy coins
        coin = net.bernoulli(self.candidate_probability(n))
        cand = np.nonzero(eligible & coin.reshape(-1))[0]
        ranks = net.rank_draws(cand, n**4)
        net.count_messages(net.rows_per_lane(cand) * (n - 1), self.RANK)
        net.tick()  # round 3: every rank receiver decides
        is_root = np.zeros(n, dtype=bool)
        is_root[roots] = True
        eligible2 = eligible.reshape(batch, n)
        starts, stops = net.lane_segments(cand)
        for b in range(batch):
            seg = cand[starts[b] : stops[b]]
            if len(seg) == 0:
                awake = int((is_root | eligible2[b]).sum())
                net.decide(b, [], decided_count=awake, awake_count=awake)
                continue
            r = ranks[starts[b] : stops[b]]
            top = int(r.max())
            holders = seg[r == top]
            leaders = [int(holders[0] - b * n)] if len(holders) == 1 else []
            net.decide(b, leaders, decided_count=n, awake_count=n)

    def _run_faulted(self, net) -> None:
        """Fault fold: the twin's wake-round state machine, per receiver.

        The closed-form shortcut of :meth:`run` assumes fault-free
        delivery (every sampled wake-up arrives, every rank broadcast
        reaches everyone); under a plan each node's wake round and each
        receiver's surviving rank multiset must be tracked explicitly.
        """
        n, ids = net.n, net.ids
        roots = net.roots if net.roots is not None else np.arange(n, dtype=np.int64)
        net.tick()  # round 1: alive roots wake and send wake-ups
        if n == 1:
            net.decide(0, [0], outputs=[int(ids[0])])
            return
        alive = net.alive_flat
        root_mask = np.zeros(n, dtype=bool)
        root_mask[roots] = True
        wake_round = np.zeros(n, dtype=np.int64)
        wake_round[root_mask & alive] = 1
        m = min(ceil_sqrt(n), n - 1)
        senders = np.nonzero(root_mask & alive)[0]
        wake_batch = {}
        if senders.size:
            dst = net.sampled_targets(senders, m)
            wake_batch = _send_batch(
                net, self.WAKE, np.repeat(senders, m), dst.reshape(-1)
            )
        if not (alive & (wake_round > 0)).any() and delivered_total(wake_batch) == 0:
            # Every root crashed before waking: round 1 ran empty.
            net.decide(
                0,
                [],
                decided_count=0,
                awake_count=int((wake_round > 0).sum()),
                outputs=[None] * n,
            )
            return
        net.tick()  # round 2: wake-up receivers flip candidacy coins
        alive = net.alive_flat
        got = np.zeros(n, dtype=bool)
        for b in wake_batch.values():
            ok = alive[b.dst]
            got[b.dst[ok]] = True
        wake_round[got & (wake_round == 0)] = 2
        coin = net.bernoulli(self.candidate_probability(n))[0]
        cand_mask = got & coin
        cand = np.nonzero(cand_mask)[0]
        rank = np.zeros(n, dtype=np.int64)
        rank_batch = {}
        if cand.size:
            rank[cand] = net.rank_draws(cand, n**4)
            dst = net.first_ports(cand, n - 1)
            rank_batch = _send_batch(
                net,
                self.RANK,
                np.repeat(cand, n - 1),
                dst.reshape(-1),
                (np.repeat(rank[cand], n - 1), np.repeat(ids[cand], n - 1)),
            )
        # Awake non-root non-candidates become followers now (without
        # halting — they stay up so in-flight broadcasts are not dropped).
        decided = got & ~coin & ~root_mask
        if not (alive & (wake_round > 0)).any() and delivered_total(rank_batch) == 0:
            net.decide(
                0,
                [],
                decided_count=int(decided.sum()),
                awake_count=int((wake_round > 0).sum()),
                outputs=[None] * n,
            )
            return
        net.tick()  # round 3: every awake node decides
        alive = net.alive_flat
        got3 = np.zeros(n, dtype=bool)
        for b in rank_batch.values():  # any kind wakes, stale replays included
            ok = alive[b.dst]
            got3[b.dst[ok]] = True
        wake_round[got3 & (wake_round == 0)] = 3
        rk = rank_batch.get(self.RANK)
        has_rank = np.zeros(n, dtype=bool)
        imin = np.iinfo(np.int64).min
        best_rank = np.full(n, imin, dtype=np.int64)
        top_cnt = np.zeros(n, dtype=np.int64)
        best_sender = np.full(n, imin, dtype=np.int64)
        if rk is not None:
            ok = alive[rk.dst]
            rdst, rval, rsend = rk.dst[ok], rk.fields[0][ok], rk.fields[1][ok]
            has_rank[rdst] = True
            np.maximum.at(best_rank, rdst, rval)
            top = rval == best_rank[rdst]
            np.add.at(top_cnt, rdst[top], 1)
            # max(ranks) compares (rank, sender) tuples: the max sender
            # among maximum-rank entries wins (used only when unique).
            np.maximum.at(best_sender, rdst[top], rsend[top])
        deciders = alive & (wake_round > 0)
        newly = deciders & ~decided
        beaten = has_rank & (best_rank >= rank)
        lead_mask = newly & cand_mask & ~beaten
        followers = newly & ~lead_mask
        own_tie = cand_mask & (rank == best_rank)
        good = followers & has_rank & (top_cnt <= 1) & ~own_tie
        out_val = np.zeros(n, dtype=np.int64)
        out_val[good] = best_sender[good]
        out_val[lead_mask] = ids[lead_mask]
        has_out = good | lead_mask
        decided |= newly
        outputs = [int(out_val[u]) if has_out[u] else None for u in range(n)]
        net.decide(
            0,
            np.nonzero(lead_mask)[0].tolist(),
            decided_count=int(decided.sum()),
            awake_count=int((wake_round > 0).sum()),
            outputs=outputs,
        )
