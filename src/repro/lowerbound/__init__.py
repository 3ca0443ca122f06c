"""Executable artifacts of the paper's lower-bound arguments.

Lower bounds cannot be "run", but their quantitative content can be
exercised and checked:

* :mod:`repro.lowerbound.commgraph` — the communication graphs of
  Definition 3.1 (directed first-contact edges, weakly connected
  components) and the component *capacity* of Definition 3.2, built live
  from an execution via a recorder.
* :mod:`repro.lowerbound.adversary` — the adaptive port-mapping adversary
  in the style of Lemma 3.9/Lemma 3.3: newly opened ports are routed
  inside the sender's component while capacity lasts, slowing component
  growth to the message rate; used both as a stress test (algorithms must
  survive *any* mapping) and to measure forced growth rates.
* :mod:`repro.lowerbound.singlesend` — the multicast → single-send
  transformation of Lemma 3.12, as an executable algorithm wrapper.
* :mod:`repro.lowerbound.bounds` — closed-form evaluators for every row
  of Table 1 (lower *and* upper bound expressions), used by the
  benchmark harness to print paper-vs-measured columns.
* :mod:`repro.lowerbound.wakeup_experiment` — the Section 4.2 experiment:
  two-round wake-up protocols with parametric fan-outs, demonstrating the
  Ω(n^(3/2)) barrier of Theorem 4.2 empirically.
* :mod:`repro.lowerbound.flood_experiment` — the Theorem 3.8 round floor
  traced empirically: a budget-saturating flood against the capacity
  adversary, one point per per-node budget ``f``.
* :mod:`repro.lowerbound.covertree` — the cover trees of Lemmas 5.4–5.8,
  rebuilt from a recorded asynchronous execution (depth, branching).
* :mod:`repro.lowerbound.terminating` — Definitions 3.4/3.5 by exhaustive
  search: does an ID set form terminating components in isolation?
"""

from repro._exports import lazy_exports


def _commgraph():
    from repro.lowerbound.commgraph import CommGraph, CommGraphRecorder  # noqa: F401

    return locals()


def _adversary():
    from repro.lowerbound.adversary import (  # noqa: F401
        ComponentCapacityAdversary,
        GrowthTrace,
        run_under_capacity_adversary,
    )

    return locals()


def _covertree():
    from repro.lowerbound.covertree import CoverTree, build_cover_tree  # noqa: F401

    return locals()


def _singlesend():
    from repro.lowerbound.singlesend import SingleSendAdapter, single_send_factory  # noqa: F401

    return locals()


def _bounds():
    import repro.lowerbound.bounds as bounds  # noqa: F401

    return locals()


def _wakeup_experiment():
    from repro.lowerbound.wakeup_experiment import (  # noqa: F401
        TwoRoundWakeupSpray,
        WakeupOutcome,
        run_wakeup_trial,
        wakeup_success_rate,
    )

    return locals()


__all__ = [
    "CommGraph",
    "CommGraphRecorder",
    "ComponentCapacityAdversary",
    "GrowthTrace",
    "run_under_capacity_adversary",
    "SingleSendAdapter",
    "single_send_factory",
    "CoverTree",
    "build_cover_tree",
    "bounds",
    "TwoRoundWakeupSpray",
    "WakeupOutcome",
    "run_wakeup_trial",
    "wakeup_success_rate",
]

__getattr__ = lazy_exports(
    globals(),
    _commgraph,
    _adversary,
    _covertree,
    _singlesend,
    _bounds,
    _wakeup_experiment,
)
