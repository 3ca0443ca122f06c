"""The vectorized fault runtime: one :class:`FaultPlan` drives all engines.

:class:`FastFaultRuntime` is the fast engine's counterpart of
:class:`repro.faults.runtime.FaultRuntime`.  It does **not** reimplement
the fault semantics — it *wraps* a real object-model runtime (same
``faults:{seed}`` / ``adversary:{seed}`` RNG streams, same drop budgets,
kill heap, tamper rules and metrics object) and drives it edge-by-edge
in the object engine's global send order whenever a per-edge decision
consumes randomness or mutates budget state.  Everything that is
RNG-free is vectorized:

* **partition masks** — component labels are materialized once per mask
  and whole edge batches are blocked with two gathers and a compare; the
  object runtime checks partitions *before* the stochastic link rules
  and consumes no randomness for blocked edges, so the vectorized check
  is not just faster but exactly stream-preserving;
* **honest, rule-free edges** — delivered via one ``np.repeat``;
* **link-rule matching** — which edges a rule *could* claim is computed
  in array form; only the matched, unblocked edges enter the Python loop
  that consumes the drop/duplication RNG stream (one
  ``FaultRuntime.deliveries`` call per edge, in send order);
* **Byzantine senders** — edges whose sender is adversarial go through
  ``AdversaryRuntime.deliver`` with the payload reconstructed as the
  object engine's tuple, so tamper budgets, replay memory and the
  adversary RNG stream advance identically.

Because the wrapped runtime sees the same decisions in the same order,
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

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.faults.plan import FaultPlan, PartitionMask
from repro.faults.runtime import FaultRuntime

__all__ = ["Delivered", "FastFaultRuntime", "delivered_total"]


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
        plan.validate_for(n)
        self.plan = plan
        self.n = n
        self.inner = FaultRuntime(plan, n, [int(i) for i in ids], seed)
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
            matched = np.zeros(m, dtype=bool)
            for rule in plan.links:
                hit = np.ones(m, dtype=bool)
                if rule.kinds is not None:
                    if uniform:
                        if kinds not in rule.kinds:
                            continue
                    else:
                        hit &= np.fromiter(
                            (k in rule.kinds for k in kinds), dtype=bool, count=m
                        )
                if rule.src is not None:
                    hit &= src == rule.src
                if rule.dst is not None:
                    hit &= dst == rule.dst
                matched |= hit
            for i in np.nonzero(matched & ~blocked)[0]:
                kind = kinds if uniform else kinds[i]
                copies[i] = inner.deliveries(int(src[i]), int(dst[i]), kind, now)

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
