"""Structured execution traces.

Both engines accept a ``recorder`` with (a subset of) the hooks

* ``on_send(time_or_round, u, port, v, peer_port, payload)``
* ``on_deliver(time, v, port, payload)`` (asynchronous engine only)
* ``on_wake(time_or_round, u)``
* ``on_decide(time_or_round, u, decision, output)``

This package provides ready-made recorders: an in-memory event log for
tests and debugging, a printing recorder for the examples, and a
composite that fans hooks out to several recorders (e.g. a communication
graph plus an event log).
"""

from repro._exports import lazy_exports


def _events():
    from repro.trace.events import (  # noqa: F401
        EVENT_KINDS,
        CompositeRecorder,
        EventRecorder,
        MemoryRecorder,
        PrintRecorder,
        TraceEvent,
    )

    return locals()


__all__ = [
    "TraceEvent",
    "EVENT_KINDS",
    "EventRecorder",
    "MemoryRecorder",
    "PrintRecorder",
    "CompositeRecorder",
]

__getattr__ = lazy_exports(globals(), _events)
