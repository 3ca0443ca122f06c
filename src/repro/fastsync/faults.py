"""The vectorized fault runtime: one :class:`FaultPlan` drives all engines.

:class:`FastFaultRuntime` is the fast engine's counterpart of
:class:`repro.faults.runtime.FaultRuntime`.  It does **not** reimplement
the fault semantics — it *wraps* a real object-model runtime (same
``faults:{seed}`` / ``adversary:{seed}`` RNG streams, same drop budgets,
kill heap, tamper rules and metrics object) and consumes those streams
in the object engine's global send order:

* **partition masks** — component labels are materialized once per mask
  and whole edge batches are blocked with two gathers and a compare; the
  object runtime checks partitions *before* the stochastic link rules
  and consumes no randomness for blocked edges, so the vectorized check
  is not just faster but exactly stream-preserving;
* **honest, rule-free edges** — delivered via one ``np.repeat``;
* **link rules, per batch** — each unblocked edge is claimed by the
  first rule that matches it, in array form.  The drop/duplication
  coins come from a :class:`MersenneStream`, a numpy copy of the
  ``faults:{seed}`` Mersenne Twister that continues it bit for bit.  A
  rule that spends exactly one double per message decides all its
  edges at once; edges whose draw count depends on an earlier draw
  (drop *and* duplicate, or a drop budget) loop over the pre-drawn
  doubles through :meth:`FaultRuntime.link_copies`, the method the
  object engine calls too;
* **Byzantine senders, per edge** — edges whose sender is adversarial
  go through ``AdversaryRuntime.deliver`` with the payload reconstructed
  as the object engine's tuple, so tamper budgets, replay memory and the
  adversary RNG stream advance identically.

Because the fault streams are consumed in the same order,
an exact-mode fast run under a plan is **bit-identical** to the object
engine's run of the same plan (``tests/test_twin_differential.py``), and
a scale-mode run consumes the identical fault/adversary streams on top
of its own port distribution.

Message *payloads* live in array form as ``(kind, *fields)`` column
batches: a compete batch is ``kind="compete"`` plus one int64 field
column (the competing ID), a rank broadcast carries two field columns,
a response carries none.  :meth:`FastFaultRuntime.deliver` returns the
surviving copies bucketed per kind — replayed stale payloads may come
back under a *different* kind than they were sent with, exactly like
the object engine's inbox, and the vectorized folds filter by kind just
as the per-node handlers do.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np
from numpy.random.bit_generator import ISeedSequence

if TYPE_CHECKING:  # a fault-free run imports no fault layer
    from repro.faults.plan import FaultPlan, LinkFaults, PartitionMask

__all__ = ["Delivered", "FastFaultRuntime", "MersenneStream", "delivered_total"]


class Delivered(NamedTuple):
    """One kind's delivered copies, in arrival (= global send) order.

    ``src``/``dst`` are int64 node-index arrays with one entry per
    delivered *copy* (duplicates appear twice, in FIFO positions);
    ``fields`` holds the payload columns after the kind tag.
    """

    src: np.ndarray
    dst: np.ndarray
    fields: Tuple[np.ndarray, ...]


def delivered_total(batches: Optional[Dict[str, Delivered]]) -> int:
    """How many copies a :meth:`FastFaultRuntime.deliver` call put in flight.

    This is the object engine's liveness currency: a round with zero
    active nodes still executes when the previous round left copies in
    ``_inboxes_next`` — even copies addressed to halted or crashed
    receivers — so the folds use this count to replicate the engine's
    termination rule exactly.
    """
    if not batches:
        return 0
    return int(sum(b.src.size for b in batches.values()))


def _draws_once(rule: LinkFaults) -> bool:
    """Whether ``rule`` spends exactly one double on every message it claims."""
    return rule.drop_prob == 0.0 or (
        rule.duplicate_prob == 0.0 and rule.max_drops is None
    )


class _ZeroSeed(ISeedSequence):
    """A constant all-zero seed for a bit generator whose state is set next.

    Unlike ``MT19937(0)`` it skips ``SeedSequence`` hashing (the bulk of
    building a generator), and unlike ``MT19937()`` it reads no OS entropy.
    """

    def generate_state(self, n_words, dtype=np.uint32):
        return [0] * n_words


_ZERO_SEED = _ZeroSeed()


class MersenneStream:
    """A numpy copy of one ``random.Random`` stream, drawn a block at a time.

    ``random.Random`` is MT19937 and its ``random()`` is genrand_res53;
    numpy's ``Generator(MT19937).random()`` builds the same double from
    the same two 32-bit words.  Loading the 624-word key and position of
    ``rng.getstate()`` into a numpy ``MT19937`` therefore continues
    ``rng``'s stream bit for bit.  Doubles drawn but not consumed
    (:meth:`peek` without :meth:`skip`) stay buffered for the next call.
    """

    def __init__(self, rng: random.Random) -> None:
        version, internal, _gauss = rng.getstate()
        if version != 3 or len(internal) != 625:
            raise ValueError(
                f"unexpected random.Random state layout (version {version}, "
                f"{len(internal)} ints); cannot mirror it in numpy"
            )
        bits = np.random.MT19937(_ZERO_SEED)
        # A tuple key, not an array: the setter copies it word by word.
        bits.state = {
            "bit_generator": "MT19937",
            "state": {"key": internal[:624], "pos": internal[624]},
        }
        self._gen = np.random.Generator(bits)
        self._buf = np.empty(0)

    def peek(self, k: int) -> np.ndarray:
        """The next ``k`` doubles, left in the stream until :meth:`skip`."""
        short = k - self._buf.size
        if short > 0:
            self._buf = np.concatenate([self._buf, self._gen.random(short)])
        return self._buf[:k]

    def skip(self, k: int) -> None:
        """Consume the next ``k`` doubles (at most what was peeked)."""
        self._buf = self._buf[k:]


class FastFaultRuntime:
    """Array-facing adapter around one object-model :class:`FaultRuntime`.

    The adapter is bound to a single run (``n`` nodes, one seed) just
    like the runtime it wraps.  ``inner`` stays a public attribute: the
    engine's result assembly reads ``inner.metrics`` and
    ``inner.crashed_at`` directly, so faulted fast results carry the
    very same :class:`~repro.faults.runtime.FaultMetrics` object an
    object-engine run would.
    """

    def __init__(
        self,
        plan: FaultPlan,
        n: int,
        ids: Sequence[int],
        seed: int,
    ) -> None:
        from repro.faults.runtime import FaultRuntime

        self.plan = plan
        self.n = n
        self.inner = FaultRuntime(plan, n, [int(i) for i in ids], seed)
        # Built on the first link-rule draw; from then on it, not
        # ``inner.rng``, carries the ``faults:{seed}`` stream.
        self._stream: Optional[MersenneStream] = None
        self._draws_once = np.array([_draws_once(rule) for rule in plan.links], dtype=bool)
        self._drop_prob = np.array([rule.drop_prob for rule in plan.links])
        self._duplicate_prob = np.array([rule.duplicate_prob for rule in plan.links])
        self._labels: Dict[int, np.ndarray] = {}
        self._policy_kinds = frozenset(
            kind for policy in plan.policies for kind in policy.kinds
        )
        if plan.adversary is not None:
            byz = np.zeros(n, dtype=bool)
            for u in plan.adversary.byzantine:
                byz[u] = True
            self._byz_mask: Optional[np.ndarray] = byz
        else:
            self._byz_mask = None

    # ------------------------------------------------------------------ #
    # crash schedule (pass-through to the wrapped runtime)

    @property
    def metrics(self):
        return self.inner.metrics

    @property
    def crashed_at(self) -> Dict[int, float]:
        return self.inner.crashed_at

    def apply_due_crashes(self, alive: np.ndarray, now: float) -> None:
        """Apply scheduled crashes with ``at <= now`` to the alive mask.

        Mirrors ``SyncNetwork._apply_due_crashes``: the wrapped runtime
        arbitrates (protection, last-survivor rule) and records the
        casualty at the *current* round, exactly like the object
        engine's ``_crash(u)``.
        """
        for u in self.inner.due_crashes(now):
            if self.inner.approve_crash(u):
                alive[u] = False
                self.inner.note_crash(u, now)

    def drain_pending(self, alive: np.ndarray) -> None:
        """Post-quiescence crashes (mirrors the object engine's drain)."""
        for at, u in self.inner.drain_pending():
            if self.inner.approve_crash(u):
                alive[u] = False
                self.inner.note_crash(u, at)

    # ------------------------------------------------------------------ #
    # kill policies

    def observe_sends(
        self,
        now: float,
        senders: np.ndarray,
        kinds: Union[str, Sequence[str]],
    ) -> None:
        """Feed one round's sends to the kill policies, in send order.

        ``FaultRuntime.observe_send`` consumes no randomness and is
        idempotent per sender, so the batch is deduplicated to first
        occurrences; when every policy budget is spent (or no policy
        watches these kinds) the whole call is a no-op — which is what
        keeps the common fault-free-kind rounds at array speed.
        """
        if not self.plan.policies or self.inner.kills_remaining() == 0:
            return
        uniform = isinstance(kinds, str)
        if uniform and kinds not in self._policy_kinds:
            return
        inner = self.inner
        seen = set()
        for i, u in enumerate(np.asarray(senders).ravel()):
            u = int(u)
            kind = kinds if uniform else kinds[i]
            if (u, kind) in seen:
                continue
            seen.add((u, kind))
            inner.observe_send(now, u, kind)
            if inner.kills_remaining() == 0:
                return

    # ------------------------------------------------------------------ #
    # partitions

    def _component_labels(self, mask: PartitionMask) -> np.ndarray:
        """Per-node component label for ``mask`` (-1 = isolated)."""
        labels = self._labels.get(id(mask))
        if labels is None:
            labels = np.full(self.n, -1, dtype=np.int64)
            for c, comp in enumerate(mask.components):
                for u in comp:
                    labels[u] = c
            self._labels[id(mask)] = labels
        return labels

    def _blocked(self, src: np.ndarray, dst: np.ndarray, now: float) -> np.ndarray:
        """Which edges any active partition mask blocks (RNG-free)."""
        blocked = np.zeros(src.size, dtype=bool)
        for mask in self.plan.partitions:
            if not mask.active(now):
                continue
            labels = self._component_labels(mask)
            ls, ld = labels[src], labels[dst]
            blocked |= (ls < 0) | (ld < 0) | (ls != ld)
        return blocked

    def reachable_alive(self, u: int, now: float, alive: np.ndarray) -> int:
        """How many alive nodes (including ``u``) can still reach ``u``.

        The quorum veto's connectivity oracle: intersects the alive mask
        with ``u``'s component under every active partition mask.
        """
        ok = np.asarray(alive, dtype=bool).copy()
        for mask in self.plan.partitions:
            if not mask.active(now):
                continue
            labels = self._component_labels(mask)
            if labels[u] < 0:
                ok &= np.arange(self.n) == u
            else:
                ok &= labels == labels[u]
        ok &= np.asarray(alive, dtype=bool)
        return int(ok.sum())

    # ------------------------------------------------------------------ #
    # link rules

    def _claim(
        self,
        kinds: Union[str, Sequence[str]],
        src: np.ndarray,
        dst: np.ndarray,
        blocked: np.ndarray,
    ) -> np.ndarray:
        """Per edge, the index of the first link rule matching it (-1: none).

        Partition-blocked edges stay unclaimed: the object runtime checks
        partitions first and draws nothing for them.
        """
        rule_of = np.full(src.size, -1, dtype=np.int64)
        free = ~blocked
        uniform = isinstance(kinds, str)
        names = codes = None
        for r, rule in enumerate(self.plan.links):
            hit = free.copy()
            if rule.kinds is not None:
                if uniform:
                    if kinds not in rule.kinds:
                        continue
                else:
                    if codes is None:
                        names, codes = np.unique(np.asarray(kinds), return_inverse=True)
                    hit &= np.isin(names, rule.kinds)[codes]
            if rule.src is not None:
                hit &= src == rule.src
            if rule.dst is not None:
                hit &= dst == rule.dst
            rule_of[hit] = r
            free &= ~hit
        return rule_of

    def _link_copies(self, rule_of: np.ndarray) -> np.ndarray:
        """Copies per claimed edge (send order), drawn like the object runtime.

        A *one-draw* rule (``drop_prob == 0``, or ``duplicate_prob == 0``
        with no drop budget) spends exactly one double per message, so its
        edges are decided in array form.  The remaining *variable-draw*
        edges run :meth:`FaultRuntime.link_copies` in a loop over the
        pre-drawn doubles, skipping the one double each one-draw edge
        between them owns; doubles left over go back to the stream.  A
        batch with no variable-draw edge takes the next ``k`` doubles as
        one slice, one per edge in send order.
        """
        if self._stream is None:
            self._stream = MersenneStream(self.inner.rng)
        k = rule_of.size
        once = self._draws_once[rule_of]
        if once.all():
            u = self._stream.peek(k)
            self._stream.skip(k)
            return self._one_draw_copies(u, rule_of)
        var_edges = np.flatnonzero(~once).tolist()
        buf = self._stream.peek(k + len(var_edges))
        copies = np.ones(k, dtype=np.int64)
        draws = np.ones(k, dtype=np.int64)
        vals = buf.tolist()
        cursor = 0

        def draw() -> float:
            nonlocal cursor
            cursor += 1
            return vals[cursor - 1]

        prev = -1
        link_copies = self.inner.link_copies
        for j in var_edges:
            cursor += j - prev - 1
            start = cursor
            copies[j] = link_copies(int(rule_of[j]), draw)
            draws[j] = cursor - start
            prev = j
        u = buf[(np.cumsum(draws) - draws)[once]]
        self._stream.skip(int(draws.sum()))
        copies[once] = self._one_draw_copies(u, rule_of[once])
        return copies

    def _one_draw_copies(self, u: np.ndarray, rules: np.ndarray) -> np.ndarray:
        """Copies per one-draw edge from its double ``u``, counted in metrics."""
        dropped = u < self._drop_prob[rules]
        duplicated = ~dropped & (u < self._duplicate_prob[rules])
        metrics = self.inner.metrics
        metrics.dropped_messages += int(dropped.sum())
        metrics.duplicated_messages += int(duplicated.sum())
        return np.where(dropped, 0, np.where(duplicated, 2, 1))

    # ------------------------------------------------------------------ #
    # delivery

    def deliver(
        self,
        now: float,
        kinds: Union[str, Sequence[str]],
        src: np.ndarray,
        dst: np.ndarray,
        fields: Tuple[np.ndarray, ...] = (),
    ) -> Dict[str, Delivered]:
        """Push one round's send batch through the plan, in send order.

        ``src``/``dst`` list the attempted sends in the object engine's
        global order (sender ascending, port order within a sender);
        ``kinds`` is one kind string for a uniform batch or a per-edge
        sequence for interleaved batches (win/lose grants).  Returns the
        surviving copies bucketed by delivered kind — the caller filters
        receivers by *their* state at the delivery round, because the
        object engine burns fault randomness at send time even for
        messages a dead receiver will never read.
        """
        src = np.asarray(src, dtype=np.int64).ravel()
        dst = np.asarray(dst, dtype=np.int64).ravel()
        m = src.size
        if m == 0:
            return {}
        uniform = isinstance(kinds, str)
        plan = self.plan
        inner = self.inner
        copies = np.ones(m, dtype=np.int64)

        blocked = self._blocked(src, dst, now)
        if blocked.any():
            inner.metrics.partition_blocked += int(blocked.sum())
            copies[blocked] = 0

        if plan.links:
            rule_of = self._claim(kinds, src, dst, blocked)
            claimed = np.flatnonzero(rule_of >= 0)
            if claimed.size:
                copies[claimed] = self._link_copies(rule_of[claimed])

        # Per-kind output buffers: (positions, src, dst, field columns).
        out: Dict[str, List[Tuple[int, int, int, Tuple[int, ...]]]] = {}
        byz_order: List[np.ndarray] = []
        if self._byz_mask is not None:
            byz_edges = np.nonzero(self._byz_mask[src] & (copies > 0))[0]
        else:
            byz_edges = np.empty(0, dtype=np.int64)
        if byz_edges.size:
            adversary = inner.adversary
            honest_copies = copies.copy()
            honest_copies[byz_edges] = 0
            for i in byz_edges:
                i = int(i)
                kind = kinds if uniform else kinds[i]
                payload = (kind,) + tuple(int(col[i]) for col in fields)
                for p in adversary.deliver(int(src[i]), int(dst[i]), payload, int(copies[i])):
                    out.setdefault(p[0], []).append(
                        (i, int(src[i]), int(dst[i]), tuple(p[1:]))
                    )
        else:
            honest_copies = copies

        pos = np.repeat(np.arange(m, dtype=np.int64), honest_copies)
        batches: Dict[str, Delivered] = {}
        if pos.size:
            hsrc, hdst = src[pos], dst[pos]
            hfields = tuple(col[pos] for col in fields)
            if uniform:
                batches[kinds] = Delivered(hsrc, hdst, hfields)
                honest_pos = {kinds: pos}
            else:
                honest_pos = {}
                kind_arr = np.asarray(list(kinds), dtype=object)[pos]
                for kind in dict.fromkeys(kind_arr.tolist()):
                    sel = kind_arr == kind
                    batches[kind] = Delivered(
                        hsrc[sel], hdst[sel], tuple(col[sel] for col in hfields)
                    )
                    honest_pos[kind] = pos[sel]
        else:
            honest_pos = {}

        if out:
            # Merge tampered copies with the honest batch per kind.  A
            # position carries entries from exactly one path (an edge is
            # honest xor Byzantine), so a stable sort on edge position
            # reconstructs the global arrival order.
            for kind, entries in out.items():
                b_pos = np.asarray([e[0] for e in entries], dtype=np.int64)
                b_src = np.asarray([e[1] for e in entries], dtype=np.int64)
                b_dst = np.asarray([e[2] for e in entries], dtype=np.int64)
                arity = len(entries[0][3])
                if any(len(e[3]) != arity for e in entries):
                    raise ValueError(
                        f"mixed payload arity for tampered kind {kind!r}"
                    )
                b_fields = tuple(
                    np.asarray([e[3][j] for e in entries], dtype=np.int64)
                    for j in range(arity)
                )
                have = batches.get(kind)
                if have is None:
                    batches[kind] = Delivered(b_src, b_dst, b_fields)
                    continue
                if len(have.fields) != arity:
                    raise ValueError(
                        f"mixed payload arity for tampered kind {kind!r}"
                    )
                all_pos = np.concatenate([honest_pos[kind], b_pos])
                order = np.argsort(all_pos, kind="stable")
                batches[kind] = Delivered(
                    np.concatenate([have.src, b_src])[order],
                    np.concatenate([have.dst, b_dst])[order],
                    tuple(
                        np.concatenate([have.fields[j], b_fields[j]])[order]
                        for j in range(arity)
                    ),
                )
        return batches
