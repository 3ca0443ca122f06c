"""Asynchronous clique simulator (the model of Section 5 of the paper).

Messages experience adversarial delays of at most one *time unit*; links
are FIFO; the adversary wakes an arbitrary nonempty subset of nodes (at
arbitrary times), and any sleeping node wakes when a message reaches it.
The *asynchronous time complexity* of an execution is the total time from
the first wake-up until the last message is received, with every delay
normalized to at most 1 — exactly the paper's definition.

Delay choices are delegated to pluggable :class:`DelayScheduler`
strategies so benches can exercise unit-delay (lock-step-like), random,
rushing and per-link-heterogeneous adversaries.
"""

from repro._exports import lazy_exports


def _algorithm():
    from repro.asyncnet.algorithm import AsyncAlgorithm  # noqa: F401

    return locals()


def _engine():
    from repro.asyncnet.engine import AsyncContext, AsyncNetwork, AsyncRunResult  # noqa: F401

    return locals()


def _metrics():
    from repro.asyncnet.metrics import AsyncMetrics  # noqa: F401

    return locals()


def _schedulers():
    from repro.asyncnet.schedulers import (  # noqa: F401
        DelayScheduler,
        PerLinkDelayScheduler,
        RushScheduler,
        TargetedDelayScheduler,
        UniformDelayScheduler,
        UnitDelayScheduler,
    )

    return locals()


__all__ = [
    "AsyncAlgorithm",
    "AsyncContext",
    "AsyncNetwork",
    "AsyncRunResult",
    "AsyncMetrics",
    "DelayScheduler",
    "UnitDelayScheduler",
    "UniformDelayScheduler",
    "RushScheduler",
    "PerLinkDelayScheduler",
    "TargetedDelayScheduler",
]

__getattr__ = lazy_exports(globals(), _algorithm, _engine, _metrics, _schedulers)
