"""Protocol for whole-clique vectorized algorithms.

A :class:`VectorAlgorithm` is a port of a *protocol*, not of one node:
where a :class:`repro.sync.SyncAlgorithm` describes what a single node
does with its inbox, a vector algorithm describes what the entire clique
does per round, operating on index arrays.  Each port has one
fault-free body, :meth:`run`, written against the engine's lanes (a
single run is a batch of one lane).  The contract:

* keep state in *global* ``lane * n + node`` index arrays, sorted so
  :meth:`FastSyncNetwork.lane_segments` can slice them per lane;
* call :meth:`FastSyncNetwork.tick` exactly once per synchronous round
  of the original schedule — including silent decision rounds — so
  ``rounds_executed`` and ``last_send_round`` match the object engine;
  ``tick(active)`` carries the mask of lanes still running;
* account every message batch per lane with
  :meth:`FastSyncNetwork.count_messages` under the same payload kind the
  object algorithm uses;
* draw all randomness through the engine's sampling primitives
  (:meth:`bernoulli`, :meth:`rank_draws`, :meth:`first_ports`,
  :meth:`sampled_targets`) so ``exact`` mode can replay the per-node
  ``random.Random`` streams of the object engine bit-for-bit;
* finish every lane by calling :meth:`FastSyncNetwork.decide` with its
  leader node(s).

A port that declares :attr:`supports_faults` also has a
``_run_faulted`` fold, which :meth:`run` hands over to when a FaultPlan
is attached (:attr:`FastSyncNetwork.has_faults`).  The fold is the only
body that reads :attr:`FastSyncNetwork.alive`: crashes, like every
other fault, come from the plan.  Faulted runs are single-lane, so the
fold calls the same primitives with one lane, where a global index is
the node index.

Ports assume the simultaneous wake-up regime (every node awake in round
1) unless they declare :attr:`supports_roots` and honor the engine's
``roots`` wake-up schedule (currently ``adversarial_2round``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.fastsync.engine import FastSyncNetwork

__all__ = ["VectorAlgorithm"]


class VectorAlgorithm:
    """One whole-clique synchronous protocol, vectorized."""

    #: Registry name of the object-model twin (for diagnostics).
    name: str = "?"

    #: Whether the port honors an adversarial wake-up schedule
    #: (:attr:`FastSyncNetwork.roots`).  Ports without it assume every
    #: node wakes in round 1.
    supports_roots: bool = False

    #: Whether the port implements a FaultPlan fold — the per-receiver
    #: round-by-round path driven through the engine's
    #: :class:`~repro.fastsync.faults.FastFaultRuntime` (crashes,
    #: partitions, link faults, kill policies, tampering).  The engine
    #: refuses to attach ``faults=`` to a port that does not.
    supports_faults: bool = False

    def run(self, net: "FastSyncNetwork") -> None:
        """Execute the full round schedule on every lane of ``net`` (see module docs)."""
        raise NotImplementedError
