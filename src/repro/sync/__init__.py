"""Synchronous clique simulator (the model of Section 2 of the paper).

Computation proceeds in rounds ``1, 2, ...``.  In each round an awake,
non-terminated node may send (possibly distinct) messages over any of its
ports; a message sent in round ``r`` is delivered at the start of round
``r + 1``.  An asleep node wakes when a message is delivered to it and
takes its first step in that same round (this matches the paper's "wakes
up at the end of a round if it received a message in that round").

Complexity accounting follows the paper:

* *message complexity* — total number of messages sent;
* *time complexity* — the last round in which any message was sent
  (:attr:`SyncMetrics.last_send_round`); silent decision steps after the
  final sends are free, exactly as in the paper's round counts.
"""

from repro._exports import lazy_exports


def _algorithm():
    from repro.sync.algorithm import SyncAlgorithm  # noqa: F401

    return locals()


def _engine():
    from repro.sync.engine import SyncContext, SyncNetwork, SyncRunResult  # noqa: F401

    return locals()


def _metrics():
    from repro.sync.metrics import SyncMetrics  # noqa: F401

    return locals()


def _wakeup():
    from repro.sync.wakeup import (  # noqa: F401
        adversarial_wakeup,
        random_wakeup,
        simultaneous_wakeup,
        single_wakeup,
    )

    return locals()


__all__ = [
    "SyncAlgorithm",
    "SyncContext",
    "SyncNetwork",
    "SyncRunResult",
    "SyncMetrics",
    "simultaneous_wakeup",
    "adversarial_wakeup",
    "single_wakeup",
    "random_wakeup",
]

__getattr__ = lazy_exports(globals(), _algorithm, _engine, _metrics, _wakeup)
