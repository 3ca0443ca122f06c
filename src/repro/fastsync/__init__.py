"""Vectorized synchronous round engine for large-``n`` sweeps.

The object-model engine (:mod:`repro.sync`) instantiates one algorithm
object, one context and one inbox list per node, which tops out around
``n ≈ 10^3`` before sweeps take minutes.  This package re-implements the
synchronous clique as flat numpy arrays — ids, candidate flags and
per-round message batches — so the paper's tradeoff frontiers can be
measured at ``n ≥ 10^5`` (see ``benchmarks/run.py fastsync_scale``).

Every synchronous registry algorithm has a vectorized port (the Theorem
3.10 tradeoff family, the Afek–Gafni baseline, the Theorem 3.16 Las
Vegas sampler, the Theorem 3.15 small-ID windows, the Monte Carlo
baseline of [16] and the Theorem 4.1 adversarial wake-up election);
each is cross-validated against its object-model twin — same seed, same
port map, identical winner and message/round counts — in
``tests/test_fastsync_equivalence.py`` and the per-port twin suites.
Every engine run is a *batch* of lanes, one per seed
(``FastSyncNetwork(n, seeds=[...])``); a single run is a batch of one
lane, so each port has one fault-free body and a lane's result never
depends on the batch it ran in.  See DESIGN.md ("Fast vectorized
engine" and "Batched fast engine") for the array layout and the
equivalence guarantees.

numpy is an *optional* dependency: the rest of the ``repro`` package
works without it, and importing :mod:`repro.fastsync` without numpy
raises this guidance instead of a bare ``ModuleNotFoundError``.
"""

try:
    import numpy  # noqa: F401
except ImportError as exc:  # pragma: no cover - exercised via sys.modules stub
    raise ImportError(
        "repro.fastsync needs numpy, which is not installed. The vectorized "
        "engine is an optional extra: install it with `pip install numpy` "
        "(or, from a checkout, `pip install -e '.[fast]'`). Every other repro "
        "subpackage works without numpy — use repro.sync / repro.asyncnet "
        "instead."
    ) from exc

from repro._exports import lazy_exports


def _algorithm():
    from repro.fastsync.algorithm import VectorAlgorithm  # noqa: F401

    return locals()


def _algorithms():
    from repro.fastsync.algorithms import (  # noqa: F401
        VectorAdversarial2RoundElection,
        VectorAfekGafniElection,
        VectorImprovedTradeoffElection,
        VectorKutten16Election,
        VectorLasVegasElection,
        VectorSmallIdElection,
    )

    return locals()


def _engine():
    from repro.fastsync.engine import ArrayPortMap, FastRunResult, FastSyncNetwork  # noqa: F401

    return locals()


def _faults():
    from repro.fastsync.faults import Delivered, FastFaultRuntime, delivered_total  # noqa: F401

    return locals()


def _registry():
    from repro.fastsync.registry import FAST_ALGORITHMS, get_fast_algorithm  # noqa: F401

    return locals()


__all__ = [
    "ArrayPortMap",
    "Delivered",
    "FastFaultRuntime",
    "FastRunResult",
    "FastSyncNetwork",
    "delivered_total",
    "VectorAlgorithm",
    "VectorAdversarial2RoundElection",
    "VectorAfekGafniElection",
    "VectorImprovedTradeoffElection",
    "VectorKutten16Election",
    "VectorLasVegasElection",
    "VectorSmallIdElection",
    "FAST_ALGORITHMS",
    "get_fast_algorithm",
]

__getattr__ = lazy_exports(
    globals(),
    _algorithm,
    _algorithms,
    _engine,
    _faults,
    _registry,
)
