"""The paper's algorithms (its primary contribution).

Synchronous (run under :class:`repro.sync.SyncNetwork`):

* :class:`ImprovedTradeoffElection` — Theorem 3.10, the improved
  deterministic message/time tradeoff under simultaneous wake-up.
* :class:`AfekGafniElection` — the Afek–Gafni (1991) baseline the paper
  improves on (reconstructed from its stated tradeoff).
* :class:`SmallIdElection` — Algorithm 1 / Theorem 3.15 for linear-size
  ID universes.
* :class:`Kutten16Election` — the 2-round Monte Carlo baseline of Kutten
  et al. [16].
* :class:`LasVegasElection` — Theorem 3.16's 3-round Las Vegas algorithm.
* :class:`AdversarialTwoRoundElection` — Theorem 4.1, the optimal 2-round
  algorithm under adversarial wake-up.

Asynchronous (run under :class:`repro.asyncnet.AsyncNetwork`):

* :class:`AsyncTradeoffElection` — Algorithm 2 / Theorem 5.1, the first
  asynchronous message/time tradeoff.
* :class:`AsyncAfekGafniElection` — §5.4 / Theorem 5.14, the
  asynchronous translation of Afek–Gafni under simultaneous wake-up.
"""

from repro._exports import lazy_exports


def _improved_tradeoff():
    from repro.core.improved_tradeoff import ImprovedTradeoffElection  # noqa: F401

    return locals()


def _afek_gafni():
    from repro.core.afek_gafni import AfekGafniElection  # noqa: F401

    return locals()


def _small_id():
    from repro.core.small_id import SmallIdElection  # noqa: F401

    return locals()


def _kutten16():
    from repro.core.kutten16 import Kutten16Election  # noqa: F401

    return locals()


def _las_vegas():
    from repro.core.las_vegas import LasVegasElection  # noqa: F401

    return locals()


def _adversarial_2round():
    from repro.core.adversarial_2round import AdversarialTwoRoundElection  # noqa: F401

    return locals()


def _async_tradeoff():
    from repro.core.async_tradeoff import AsyncTradeoffElection  # noqa: F401

    return locals()


def _async_afek_gafni():
    from repro.core.async_afek_gafni import AsyncAfekGafniElection  # noqa: F401

    return locals()


def _registry():
    from repro.core.registry import ALGORITHMS, AlgorithmSpec, get_algorithm  # noqa: F401

    return locals()


__all__ = [
    "ImprovedTradeoffElection",
    "AfekGafniElection",
    "SmallIdElection",
    "Kutten16Election",
    "LasVegasElection",
    "AdversarialTwoRoundElection",
    "AsyncTradeoffElection",
    "AsyncAfekGafniElection",
    "ALGORITHMS",
    "AlgorithmSpec",
    "get_algorithm",
]

__getattr__ = lazy_exports(
    globals(),
    _improved_tradeoff,
    _afek_gafni,
    _small_id,
    _kutten16,
    _las_vegas,
    _adversarial_2round,
    _async_tradeoff,
    _async_afek_gafni,
    _registry,
)
