"""Name-indexed registry of the paper's algorithms.

Used by the experiment runner, the benchmark harness and the examples to
construct algorithms uniformly.  Each entry records which engine the
algorithm runs under and which wake-up regimes it supports, so harness
code can refuse meaningless combinations early.  The fault-layer
entries (``monarchical``, ``reelect``, ``quorum_reelect``) also carry
their asynchronous twin: this module is the one place that maps an
algorithm name to the class each object engine runs.

The registry's classes are imported on first use: each entry names its
class through a small loader function, so looking up
``improved_tradeoff`` imports that algorithm alone, not the fault and
adversary layers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Optional, Tuple

__all__ = ["AlgorithmSpec", "ALGORITHMS", "get_algorithm", "refuse_duplicates"]


class _Lazy:
    """A class given as the function that imports and returns it."""

    __slots__ = ("load",)

    def __init__(self, load: Callable[[], Any]) -> None:
        self.load = load


class _ClassField:
    """An :class:`AlgorithmSpec` class field that resolves a :class:`_Lazy`.

    The field takes a class or a ``_Lazy``; the first read of a
    ``_Lazy`` runs its import and keeps the class.  Without a default,
    the dataclass sees a required field.
    """

    def __init__(self, *default: Any) -> None:
        self.default = default

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, spec: Optional["AlgorithmSpec"], owner: Optional[type] = None) -> Any:
        if spec is None:  # the dataclass machinery asks for the default
            if not self.default:
                raise AttributeError(self.name)
            return self.default[0]
        value = spec.__dict__[self.name]
        if isinstance(value, _Lazy):
            value = spec.__dict__[self.name] = value.load()
        return value

    def __set__(self, spec: "AlgorithmSpec", value: Any) -> None:
        spec.__dict__[self.name] = value


@dataclass(frozen=True)
class AlgorithmSpec:
    """Metadata for one algorithm of the paper."""

    name: str
    factory: Callable[..., Any] = _ClassField()
    engine: str  # "sync" | "async"
    deterministic: bool
    wakeup: Tuple[str, ...]  # supported regimes: "simultaneous", "adversarial"
    paper_ref: str
    messages_formula: str
    time_formula: str
    #: The asynchronous twin of a sync entry (fault-layer wrappers only).
    async_factory: Optional[Callable[..., Any]] = _ClassField(None)
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


@_Lazy
def _improved_tradeoff():
    from repro.core.improved_tradeoff import ImprovedTradeoffElection

    return ImprovedTradeoffElection


@_Lazy
def _afek_gafni():
    from repro.core.afek_gafni import AfekGafniElection

    return AfekGafniElection


@_Lazy
def _small_id():
    from repro.core.small_id import SmallIdElection

    return SmallIdElection


@_Lazy
def _kutten16():
    from repro.core.kutten16 import Kutten16Election

    return Kutten16Election


@_Lazy
def _las_vegas():
    from repro.core.las_vegas import LasVegasElection

    return LasVegasElection


@_Lazy
def _adversarial_2round():
    from repro.core.adversarial_2round import AdversarialTwoRoundElection

    return AdversarialTwoRoundElection


@_Lazy
def _async_tradeoff():
    from repro.core.async_tradeoff import AsyncTradeoffElection

    return AsyncTradeoffElection


@_Lazy
def _async_afek_gafni():
    from repro.core.async_afek_gafni import AsyncAfekGafniElection

    return AsyncAfekGafniElection


@_Lazy
def _monarchical():
    from repro.faults.monarchical import MonarchicalElection

    return MonarchicalElection


@_Lazy
def _async_monarchical():
    from repro.faults.monarchical import AsyncMonarchicalElection

    return AsyncMonarchicalElection


@_Lazy
def _reelect():
    from repro.faults.reelect import ReElectionElection

    return ReElectionElection


@_Lazy
def _async_reelect():
    from repro.faults.reelect import AsyncReElectionElection

    return AsyncReElectionElection


@_Lazy
def _quorum_reelect():
    from repro.adversary.quorum import QuorumReElectionElection

    return QuorumReElectionElection


@_Lazy
def _async_quorum_reelect():
    from repro.adversary.quorum import AsyncQuorumReElectionElection

    return AsyncQuorumReElectionElection


ALGORITHMS: Dict[str, AlgorithmSpec] = {
    spec.name: spec
    for spec in [
        AlgorithmSpec(
            name="improved_tradeoff",
            factory=_improved_tradeoff,
            engine="sync",
            deterministic=True,
            wakeup=("simultaneous",),
            paper_ref="Theorem 3.10",
            messages_formula="O(ell * n^(1 + 2/(ell+1)))",
            time_formula="ell (odd, >= 3)",
        ),
        AlgorithmSpec(
            name="afek_gafni",
            factory=_afek_gafni,
            engine="sync",
            deterministic=True,
            wakeup=("simultaneous", "adversarial"),
            paper_ref="Afek-Gafni [1] (baseline)",
            messages_formula="O(ell * n^(1 + 2/ell))",
            time_formula="ell (+1 announcement round)",
        ),
        AlgorithmSpec(
            name="small_id",
            factory=_small_id,
            engine="sync",
            deterministic=True,
            wakeup=("simultaneous",),
            paper_ref="Algorithm 1 / Theorem 3.15",
            messages_formula="<= n * d * g",
            time_formula="<= ceil(n/d)",
        ),
        AlgorithmSpec(
            name="kutten16",
            factory=_kutten16,
            engine="sync",
            deterministic=False,
            wakeup=("simultaneous",),
            paper_ref="Kutten et al. [16] (baseline)",
            messages_formula="O(sqrt(n) * log^(3/2) n) whp",
            time_formula="2",
        ),
        AlgorithmSpec(
            name="las_vegas",
            factory=_las_vegas,
            engine="sync",
            deterministic=False,
            wakeup=("simultaneous",),
            paper_ref="Theorem 3.16",
            messages_formula="O(n) whp; Omega(n) necessary",
            time_formula="3 whp",
        ),
        AlgorithmSpec(
            name="adversarial_2round",
            factory=_adversarial_2round,
            engine="sync",
            deterministic=False,
            wakeup=("adversarial",),
            paper_ref="Theorem 4.1",
            messages_formula="O(n^(3/2) log(1/eps)) expected",
            time_formula="2",
        ),
        AlgorithmSpec(
            name="async_tradeoff",
            factory=_async_tradeoff,
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
            factory=_async_afek_gafni,
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
            factory=_monarchical,
            async_factory=_async_monarchical,
            engine="sync",
            deterministic=True,
            wakeup=("simultaneous",),
            paper_ref="faults: Algo 2.6/2.8 (monarchical, detector oracle)",
            messages_formula="n - 1 per reign (one coord broadcast)",
            time_formula="detector lag + stable_rounds",
        ),
        AlgorithmSpec(
            name="reelect",
            factory=_reelect,
            async_factory=_async_reelect,
            engine="sync",
            deterministic=False,  # depends on the wrapped inner algorithm
            wakeup=("simultaneous", "adversarial"),
            paper_ref="faults: epoch re-election wrapper",
            messages_formula="inner per epoch + (commit_rounds+1)*n' coord",
            time_formula="inner + commit_rounds per epoch",
        ),
        AlgorithmSpec(
            name="quorum_reelect",
            factory=_quorum_reelect,
            async_factory=_async_quorum_reelect,
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
