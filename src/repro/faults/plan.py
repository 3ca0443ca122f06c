"""Declarative, seed-reproducible fault schedules.

A :class:`FaultPlan` is the immutable description of *everything that can
go wrong* in one run: which nodes crash and when, which links drop or
duplicate messages, which adversarial policies may schedule additional
crashes while the run executes, and which failure-detector oracle the
surviving nodes are given.  The plan itself contains no randomness — all
stochastic choices (link-level drops, detector noise) are derived inside
:class:`repro.faults.runtime.FaultRuntime` from the run seed, so the same
``(seed, FaultPlan)`` pair always produces the same execution on a given
engine (see ``tests/test_fault_determinism.py``).

Time units follow the host engine: on the synchronous engine ``at`` is a
round number (the crash takes effect at the *start* of that round, before
deliveries); on the asynchronous engine ``at`` is a timestamp.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

__all__ = [
    "CrashFault",
    "LinkFaults",
    "PartitionMask",
    "LeaderKillPolicy",
    "DetectorSpec",
    "FaultPlan",
]


@dataclass(frozen=True)
class CrashFault:
    """Crash node ``node`` (index, not ID) at round/time ``at``.

    A crashed node takes no further steps, sends nothing, and every
    message or timer delivered to it afterwards is silently dropped —
    the classic crash-stop fault model.  Messages the node sent *before*
    crashing remain in flight (the network does not retract them).
    """

    node: int
    at: float

    def __post_init__(self) -> None:
        if self.node < 0:
            raise ValueError("crash target must be a node index >= 0")
        if not 0 <= self.at < float("inf"):
            raise ValueError(
                f"crash schedule entries need a finite at >= 0, got {self.at!r}"
            )


@dataclass(frozen=True)
class LinkFaults:
    """Message-level drop/duplication on a (possibly wildcarded) link.

    ``src``/``dst`` are node indices; ``None`` means "any".  ``kinds``
    optionally restricts the rule to specific payload kinds (see
    :func:`repro.common.message_kind`).  The first rule whose scope
    matches a send decides its fate; later rules are ignored for that
    message.  Duplication delivers a second copy over the same link at
    the same nominal delivery time (the duplicate never overtakes — FIFO
    still holds).

    ``max_drops`` bounds how many messages the rule may drop over the
    whole run; after the budget is spent the rule stops dropping (it
    still claims matching messages and may still duplicate).  With
    ``drop_prob=1.0`` this gives deterministic *drop schedules* — "lose
    the first k ``ree_coord`` messages into node 3" — which is how the
    loss-tolerance regression tests pin their scenarios.
    """

    drop_prob: float = 0.0
    duplicate_prob: float = 0.0
    src: Optional[int] = None
    dst: Optional[int] = None
    kinds: Optional[Tuple[str, ...]] = None
    max_drops: Optional[int] = None

    def __post_init__(self) -> None:
        for name in ("drop_prob", "duplicate_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p!r}")
        if self.drop_prob == 0.0 and self.duplicate_prob == 0.0:
            raise ValueError("a LinkFaults rule must drop or duplicate something")
        if self.max_drops is not None:
            if self.max_drops < 1:
                raise ValueError("max_drops must be >= 1 when set")
            if self.drop_prob == 0.0:
                raise ValueError("max_drops needs a positive drop_prob")

    def matches(self, src: int, dst: int, kind: str) -> bool:
        if self.src is not None and src != self.src:
            return False
        if self.dst is not None and dst != self.dst:
            return False
        if self.kinds is not None and kind not in self.kinds:
            return False
        return True


@dataclass(frozen=True)
class PartitionMask:
    """Split the clique into components for a time window.

    While ``start <= now < end`` (``end=None``: for the rest of the run)
    every message whose endpoints sit in *different* components is
    silently discarded at send time — the network behaves like disjoint
    sub-cliques.  A node that appears in no component is *isolated*: it
    can reach nobody and nobody can reach it (useful for quarantining a
    single node without enumerating the rest).  Healing is automatic:
    once ``now >= end`` the mask stops matching and full connectivity
    returns; messages dropped during the window are gone (the network
    does not replay them).

    Partition drops are decided *before* the stochastic link rules and
    consume no randomness, so adding a mask never perturbs the drop/
    duplication RNG stream of an otherwise identical plan.  Detectors
    are partition-aware: from ``start + lag`` each node also suspects
    the peers outside its component (a timeout detector cannot tell a
    crashed peer from an unreachable one), which is what lets the
    re-election wrapper elect one leader *per component*.
    """

    components: Tuple[Tuple[int, ...], ...]
    start: float = 0.0
    end: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.components:
            raise ValueError("a PartitionMask needs at least one component")
        seen: Dict[int, int] = {}
        for c, comp in enumerate(self.components):
            if not comp:
                raise ValueError("partition components cannot be empty")
            for u in comp:
                if u < 0:
                    raise ValueError("component members must be node indices >= 0")
                if u in seen:
                    raise ValueError(f"node {u} appears in two partition components")
                seen[u] = c
        # Negated comparisons, so NaN fails them too.
        if not self.start >= 0:
            raise ValueError(f"partition start must be >= 0, got {self.start!r}")
        if self.end is not None and not self.end > self.start:
            raise ValueError(
                f"partition end must be after its start, got {self.end!r}"
            )
        object.__setattr__(self, "_component_of", seen)

    def component_of(self, u: int) -> Optional[int]:
        """The component index of node ``u`` (``None`` = isolated)."""
        return self._component_of.get(u)

    def active(self, now: float) -> bool:
        return now >= self.start and (self.end is None or now < self.end)

    def separates(self, u: int, v: int) -> bool:
        """Whether ``u`` and ``v`` sit in different components (time-free)."""
        cu = self._component_of.get(u)
        cv = self._component_of.get(v)
        return cu is None or cv is None or cu != cv

    def blocks(self, src: int, dst: int, now: float) -> bool:
        return self.active(now) and self.separates(src, dst)


@dataclass(frozen=True)
class LeaderKillPolicy:
    """Adversarial churn: crash whoever announces leadership first.

    The policy watches every send; when it sees a payload whose kind is
    in ``kinds`` (the announcement vocabulary of the registered
    algorithms plus the fault-tolerant wrappers), it schedules the
    *sender* — the current frontrunner — to crash ``delay`` rounds/time
    units later.  ``max_kills`` bounds the total number of crashes the
    policy may inject, so runs always terminate with at least one
    survivor (the runtime additionally refuses to crash the last alive
    node).
    """

    kinds: Tuple[str, ...] = ("leader", "elected", "announce", "coord", "ree_coord")
    delay: float = 1.0
    max_kills: int = 1

    def __post_init__(self) -> None:
        if not self.delay > 0:  # NaN fails too
            raise ValueError(
                "kill delay must be > 0 (crashes apply strictly later), "
                f"got {self.delay!r}"
            )
        if self.max_kills < 1:
            raise ValueError("max_kills must be >= 1")
        if not self.kinds:
            raise ValueError("policy needs at least one payload kind to watch")


@dataclass(frozen=True)
class DetectorSpec:
    """Which failure-detector oracle the nodes are given.

    * ``kind="perfect"`` — strong completeness and strong accuracy: a
      crashed node is suspected by every alive node exactly ``lag``
      rounds/time units after its crash, and alive nodes are never
      suspected.
    * ``kind="eventually_perfect"`` — ◇P à la the increasing-timeout
      detectors: before ``noise_horizon`` each (observer, peer) pair may
      additionally go through one *false-suspicion window* (probability
      ``false_prob``, drawn deterministically from the run seed); after
      ``noise_horizon`` the detector behaves exactly like the perfect
      one.  This models a timeout detector that wrongly suspects slow
      peers until its timeout has grown past the true message delay.
    """

    kind: str = "perfect"
    lag: float = 1.0
    noise_horizon: float = 0.0
    false_prob: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("perfect", "eventually_perfect"):
            raise ValueError(f"unknown detector kind {self.kind!r}")
        if not self.lag >= 0:  # NaN fails too
            raise ValueError(f"detector lag must be >= 0, got {self.lag!r}")
        if self.kind == "perfect" and (self.noise_horizon or self.false_prob):
            raise ValueError("a perfect detector cannot have noise parameters")
        if not 0.0 <= self.false_prob <= 1.0:
            raise ValueError("false_prob must be in [0, 1]")
        if self.false_prob > 0 and self.noise_horizon <= 0:
            raise ValueError("false suspicions need a positive noise_horizon")


@dataclass(frozen=True)
class FaultPlan:
    """The full fault schedule for one run.

    ``protect`` lists node indices the runtime must never crash (useful
    to pin a known survivor in adversarial sweeps).  Independently of
    ``protect``, the runtime refuses any crash that would leave zero
    alive nodes.

    ``adversary`` optionally attaches a Byzantine
    :class:`~repro.adversary.plan.AdversaryPlan` — message tampering and
    detector slander on top of the crash/omission schedule.  The import
    is deferred so the crash-only fault layer keeps zero dependencies on
    the adversary package.
    """

    crashes: Tuple[CrashFault, ...] = ()
    links: Tuple[LinkFaults, ...] = ()
    partitions: Tuple[PartitionMask, ...] = ()
    policies: Tuple[LeaderKillPolicy, ...] = ()
    detector: DetectorSpec = field(default_factory=DetectorSpec)
    protect: Tuple[int, ...] = ()
    adversary: Optional[Any] = None

    def __post_init__(self) -> None:
        seen = set()
        for crash in self.crashes:
            if crash.node in seen:
                raise ValueError(f"node {crash.node} is scheduled to crash twice")
            seen.add(crash.node)
        if seen & set(self.protect):
            raise ValueError("a node cannot be both protected and scheduled to crash")
        if self.adversary is not None:
            from repro.adversary.plan import AdversaryPlan

            if not isinstance(self.adversary, AdversaryPlan):
                raise ValueError(
                    "FaultPlan.adversary must be a repro.adversary.AdversaryPlan, "
                    f"got {type(self.adversary).__name__}"
                )

    @property
    def has_link_faults(self) -> bool:
        return bool(self.links)

    @property
    def has_partitions(self) -> bool:
        return bool(self.partitions)

    @property
    def has_adversary(self) -> bool:
        return self.adversary is not None

    @property
    def slanders(self) -> Tuple:
        """The adversary's slander windows (empty without an adversary)."""
        return self.adversary.slanders if self.adversary is not None else ()

    def validate_for(self, n: int) -> None:
        """Check node indices against a concrete clique size."""
        for crash in self.crashes:
            if crash.node >= n:
                raise ValueError(f"crash target {crash.node} out of range for n={n}")
        if len(self.crashes) >= n:
            raise ValueError("cannot schedule every node to crash")
        for u in self.protect:
            if not 0 <= u < n:
                raise ValueError(f"protected node {u} out of range for n={n}")
        for rule in self.links:
            for endpoint in (rule.src, rule.dst):
                if endpoint is not None and not 0 <= endpoint < n:
                    raise ValueError(f"link rule endpoint {endpoint} out of range")
        for mask in self.partitions:
            for comp in mask.components:
                for u in comp:
                    if u >= n:
                        raise ValueError(
                            f"partition component member {u} out of range for n={n}"
                        )
        if self.adversary is not None:
            self.adversary.validate_for(n)
