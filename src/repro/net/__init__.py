"""Network substrate shared by the synchronous and asynchronous simulators.

The only topology in the paper is the *clique* under the clean-network
(KT0) model: every node has ``n - 1`` ports; the assignment of ports to
peers is arbitrary (adversarial) and unknown to a node until a message is
sent or received over the port.  :mod:`repro.net.ports` implements that
model, including the partially-defined ("lazy") mappings used by the
paper's lower-bound arguments.
"""

from repro._exports import lazy_exports


def _ports():
    from repro.net.ports import (  # noqa: F401
        CanonicalPortMap,
        LazyPortMap,
        PortMap,
        PortMapExhausted,
        PortConnectionPolicy,
        RandomPortPolicy,
        SequentialPortPolicy,
        CallbackPortPolicy,
    )

    return locals()


__all__ = [
    "CanonicalPortMap",
    "LazyPortMap",
    "PortMap",
    "PortMapExhausted",
    "PortConnectionPolicy",
    "RandomPortPolicy",
    "SequentialPortPolicy",
    "CallbackPortPolicy",
]

__getattr__ = lazy_exports(globals(), _ports)
