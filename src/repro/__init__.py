"""repro — a reproduction of "Improved Tradeoffs for Leader Election".

Kutten, Robinson, Tan, Zhu (PODC 2023; arXiv:2301.08235).

The package provides:

* :mod:`repro.sync` / :mod:`repro.asyncnet` — synchronous and
  asynchronous clique simulators implementing the paper's model (KT0
  ports, simultaneous/adversarial wake-up, adversarial FIFO delays);
* :mod:`repro.core` — every algorithm in the paper (plus the baselines it
  compares against);
* :mod:`repro.lowerbound` — executable artifacts of the lower-bound
  proofs: communication graphs, the component-capacity adversary, the
  single-send transformation, bound formulas for every Table 1 row, and
  the §4.2 wake-up falsification experiment;
* :mod:`repro.analysis` — experiment runner, power-law fitting and paper
  style tables;
* :mod:`repro.faults` — crash-fault injection, failure-detector oracles,
  partition masks, and fault-tolerant (monarchical / epoch re-election)
  algorithms for failover scenarios on both engines;
* :mod:`repro.scenarios` — declarative churn timelines (crash/recover,
  joins, partitions with automatic heal, repeated elections) executed
  act by act on any engine with per-epoch convergence metrics.

Quickstart::

    from repro import SyncNetwork, ImprovedTradeoffElection

    net = SyncNetwork(1024, lambda: ImprovedTradeoffElection(ell=5), seed=1)
    result = net.run()
    assert result.unique_leader
    print(result.elected_id, result.messages, result.last_send_round)

This package and every subpackage re-export their public names lazily
(PEP 562): importing a package binds nothing, and a name's first lookup
imports the module that defines it, so ``import repro`` loads no engine
and no numpy.
"""

from repro._exports import lazy_exports


def _common():
    from repro.common import Decision, ProtocolError, SimulationLimitExceeded  # noqa: F401

    return locals()


def _core():
    from repro.core import (  # noqa: F401
        AdversarialTwoRoundElection,
        AfekGafniElection,
        AsyncAfekGafniElection,
        AsyncTradeoffElection,
        ImprovedTradeoffElection,
        Kutten16Election,
        LasVegasElection,
        SmallIdElection,
    )

    return locals()


def _asyncnet():
    from repro.asyncnet import AsyncNetwork  # noqa: F401

    return locals()


def _sync():
    from repro.sync import SyncNetwork  # noqa: F401

    return locals()


__version__ = "1.0.0"

__all__ = [
    "Decision",
    "ProtocolError",
    "SimulationLimitExceeded",
    "SyncNetwork",
    "AsyncNetwork",
    "ImprovedTradeoffElection",
    "AfekGafniElection",
    "SmallIdElection",
    "Kutten16Election",
    "LasVegasElection",
    "AdversarialTwoRoundElection",
    "AsyncTradeoffElection",
    "AsyncAfekGafniElection",
    "__version__",
]

__getattr__ = lazy_exports(globals(), _common, _core, _asyncnet, _sync)
