"""Name-indexed registry of the paper's algorithms.

Used by the experiment runner, the benchmark harness and the examples to
construct algorithms uniformly.  Each entry records which engine the
algorithm runs under and which wake-up regimes it supports, so harness
code can refuse meaningless combinations early.  The fault-layer
entries (``monarchical``, ``reelect``, ``quorum_reelect``) also carry
their asynchronous twin: this module is the one place that maps an
algorithm name to the class each object engine runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Optional, Tuple

from repro.core.adversarial_2round import AdversarialTwoRoundElection
from repro.core.afek_gafni import AfekGafniElection
from repro.core.async_afek_gafni import AsyncAfekGafniElection
from repro.core.async_tradeoff import AsyncTradeoffElection
from repro.core.improved_tradeoff import ImprovedTradeoffElection
from repro.core.kutten16 import Kutten16Election
from repro.core.las_vegas import LasVegasElection
from repro.core.small_id import SmallIdElection
from repro.adversary.quorum import (
    AsyncQuorumReElectionElection,
    QuorumReElectionElection,
)
from repro.faults.monarchical import AsyncMonarchicalElection, MonarchicalElection
from repro.faults.reelect import AsyncReElectionElection, ReElectionElection

__all__ = ["AlgorithmSpec", "ALGORITHMS", "get_algorithm", "refuse_duplicates"]


@dataclass(frozen=True)
class AlgorithmSpec:
    """Metadata for one algorithm of the paper."""

    name: str
    factory: Callable[..., Any]
    engine: str  # "sync" | "async"
    deterministic: bool
    wakeup: Tuple[str, ...]  # supported regimes: "simultaneous", "adversarial"
    paper_ref: str
    messages_formula: str
    time_formula: str
    #: The asynchronous twin of a sync entry (fault-layer wrappers only).
    async_factory: Optional[Callable[..., Any]] = None
    #: The asynchronous class assumes exactly-once delivery: a duplicated
    #: message breaks its request/reply bookkeeping (see
    #: :func:`refuse_duplicates`).
    exactly_once: bool = False

    @property
    def engines(self) -> Tuple[str, ...]:
        """The object engines this algorithm has a class for."""
        if self.async_factory is None:
            return (self.engine,)
        return (self.engine, "async")

    def make(self, *, engine: Optional[str] = None, **params: Any) -> Callable[[], Any]:
        """A zero-argument factory for ``engine`` (default: the home engine).

        Raises ``ValueError`` when the algorithm has no class for that
        engine.
        """
        engine = engine or self.engine
        if engine not in self.engines:
            raise ValueError(
                f"{self.name} runs on the {'+'.join(self.engines)} engine, "
                f"not {engine}"
            )
        cls = self.async_factory if engine != self.engine else self.factory
        return lambda: cls(**params)

    @property
    def has_fast(self) -> bool:
        """Whether a vectorized port exists (and numpy is importable).

        The fast registry lives in :mod:`repro.fastsync`, which needs the
        optional numpy dependency; without numpy every spec simply
        reports no fast twin instead of breaking the core registry.
        """
        try:
            from repro.fastsync import FAST_ALGORITHMS
        except ImportError:
            return False
        return self.name in FAST_ALGORITHMS

    @property
    def has_fast_faults(self) -> bool:
        """Whether the vectorized port runs full :class:`FaultPlan` folds.

        True only when a fast twin exists *and* declares
        ``supports_faults`` — the contract behind auto-routing faulted
        specs onto the vectorized engine (see
        :meth:`repro.sweep.RunSpec.resolved_engine`).
        """
        try:
            from repro.fastsync import FAST_ALGORITHMS
        except ImportError:
            return False
        port = FAST_ALGORITHMS.get(self.name)
        return port is not None and getattr(port, "supports_faults", False)

    @property
    def envelope(self) -> Optional[Any]:
        """The theory-bound conformance envelope, or None when no
        theorem statement covers this algorithm (absence of a bound is
        not an error — reference rows have no envelope to check)."""
        from repro.monitor.conformance import get_envelope

        return get_envelope(self.name)

    def make_fast(self, **params: Any) -> Callable[[], Any]:
        """A zero-argument factory for the ``engine="fast"`` port.

        Raises the guidance-carrying ``ImportError`` of
        :mod:`repro.fastsync` when numpy is missing, or ``KeyError`` when
        the algorithm has no vectorized twin.
        """
        from repro.fastsync import get_fast_algorithm

        factory = get_fast_algorithm(self.name)
        return lambda: factory(**params)


ALGORITHMS: Dict[str, AlgorithmSpec] = {
    spec.name: spec
    for spec in [
        AlgorithmSpec(
            name="improved_tradeoff",
            factory=ImprovedTradeoffElection,
            engine="sync",
            deterministic=True,
            wakeup=("simultaneous",),
            paper_ref="Theorem 3.10",
            messages_formula="O(ell * n^(1 + 2/(ell+1)))",
            time_formula="ell (odd, >= 3)",
        ),
        AlgorithmSpec(
            name="afek_gafni",
            factory=AfekGafniElection,
            engine="sync",
            deterministic=True,
            wakeup=("simultaneous", "adversarial"),
            paper_ref="Afek-Gafni [1] (baseline)",
            messages_formula="O(ell * n^(1 + 2/ell))",
            time_formula="ell (+1 announcement round)",
        ),
        AlgorithmSpec(
            name="small_id",
            factory=SmallIdElection,
            engine="sync",
            deterministic=True,
            wakeup=("simultaneous",),
            paper_ref="Algorithm 1 / Theorem 3.15",
            messages_formula="<= n * d * g",
            time_formula="<= ceil(n/d)",
        ),
        AlgorithmSpec(
            name="kutten16",
            factory=Kutten16Election,
            engine="sync",
            deterministic=False,
            wakeup=("simultaneous",),
            paper_ref="Kutten et al. [16] (baseline)",
            messages_formula="O(sqrt(n) * log^(3/2) n) whp",
            time_formula="2",
        ),
        AlgorithmSpec(
            name="las_vegas",
            factory=LasVegasElection,
            engine="sync",
            deterministic=False,
            wakeup=("simultaneous",),
            paper_ref="Theorem 3.16",
            messages_formula="O(n) whp; Omega(n) necessary",
            time_formula="3 whp",
        ),
        AlgorithmSpec(
            name="adversarial_2round",
            factory=AdversarialTwoRoundElection,
            engine="sync",
            deterministic=False,
            wakeup=("adversarial",),
            paper_ref="Theorem 4.1",
            messages_formula="O(n^(3/2) log(1/eps)) expected",
            time_formula="2",
        ),
        AlgorithmSpec(
            name="async_tradeoff",
            factory=AsyncTradeoffElection,
            engine="async",
            deterministic=False,
            wakeup=("adversarial", "simultaneous"),
            paper_ref="Algorithm 2 / Theorem 5.1",
            messages_formula="O(n^(1 + 1/k)) whp",
            time_formula="k + 8 whp",
            exactly_once=True,
        ),
        AlgorithmSpec(
            name="async_afek_gafni",
            factory=AsyncAfekGafniElection,
            engine="async",
            deterministic=True,
            wakeup=("simultaneous",),
            paper_ref="Section 5.4 / Theorem 5.14",
            messages_formula="O(n log n)",
            time_formula="O(log n)",
            exactly_once=True,
        ),
        AlgorithmSpec(
            name="monarchical",
            factory=MonarchicalElection,
            async_factory=AsyncMonarchicalElection,
            engine="sync",
            deterministic=True,
            wakeup=("simultaneous",),
            paper_ref="faults: Algo 2.6/2.8 (monarchical, detector oracle)",
            messages_formula="n - 1 per reign (one coord broadcast)",
            time_formula="detector lag + stable_rounds",
        ),
        AlgorithmSpec(
            name="reelect",
            factory=ReElectionElection,
            async_factory=AsyncReElectionElection,
            engine="sync",
            deterministic=False,  # depends on the wrapped inner algorithm
            wakeup=("simultaneous", "adversarial"),
            paper_ref="faults: epoch re-election wrapper",
            messages_formula="inner per epoch + (commit_rounds+1)*n' coord",
            time_formula="inner + commit_rounds per epoch",
        ),
        AlgorithmSpec(
            name="quorum_reelect",
            factory=QuorumReElectionElection,
            async_factory=AsyncQuorumReElectionElection,
            engine="sync",
            deterministic=False,  # depends on the wrapped inner algorithm
            wakeup=("simultaneous", "adversarial"),
            paper_ref="adversary: quorum-safe re-election (f < n/2)",
            messages_formula="reelect + (n-1) coord fan-out + quorum acks",
            time_formula="reelect + ack round trip per commit",
        ),
    ]
}


def get_algorithm(name: str) -> AlgorithmSpec:
    """Look up an algorithm spec; raises ``KeyError`` with suggestions."""
    try:
        return ALGORITHMS[name]
    except KeyError:
        known = ", ".join(sorted(ALGORITHMS))
        raise KeyError(f"unknown algorithm {name!r}; known: {known}") from None


def refuse_duplicates(name: str, params: Dict[str, Any], links: Iterable[Any]) -> None:
    """Refuse an async run of ``name`` whose ``links`` duplicate messages.

    Raises ``ValueError`` when a link rule has ``duplicate_prob > 0``
    and the election that receives the messages is an ``exactly_once``
    entry: ``name`` itself, or a wrapper's inner election (``inner=``
    in ``params``, else the async class's ``DEFAULT_INNER``).  Sync and
    fast runs take duplicates; so does an inner given as a factory.
    """
    if not any(rule.duplicate_prob > 0 for rule in links):
        return
    spec = ALGORITHMS.get(name)
    if spec is None:
        return  # the run's own lookup reports the unknown name
    receiver = params.get("inner", getattr(spec.async_factory, "DEFAULT_INNER", name))
    receiver_spec = ALGORITHMS.get(receiver) if isinstance(receiver, str) else None
    if receiver_spec is None or not receiver_spec.exactly_once:
        return
    who = name if receiver == name else f"{name}'s inner election {receiver}"
    raise ValueError(
        f"{who} assumes exactly-once delivery on the async engine, but the "
        "fault plan duplicates messages (duplicate_prob > 0)"
    )
