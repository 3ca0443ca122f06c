"""The clique port model (clean network / KT0) of Section 2 of the paper.

Every node ``u`` in an ``n``-node clique owns ports ``0 .. n-2``.  A *port
mapping* ``p`` maps each pair ``(u, i)`` to a pair ``(v, j)``, meaning a
message sent by ``u`` over port ``i`` is received by ``v`` over port ``j``.
The mapping is bijective and involutive — ``p((u, i)) = (v, j)`` implies
``p((v, j)) = (u, i)`` — and every unordered node pair ``{u, v}`` is joined
by exactly one link.

Crucially, nodes do not know how their ports are connected until they send
or receive over them, and the model quantifies over *all* port mappings.
The paper's lower bounds exploit this by fixing the endpoints of unused
ports adaptively ("partial port mappings", Definition 3.4).  We realize
that formalism directly: :class:`LazyPortMap` keeps the mapping partial and
resolves an endpoint only at first use, delegating the choice to a
pluggable :class:`PortConnectionPolicy` — uniform random by default, or an
adaptive adversary for lower-bound experiments.

The uniform random draws are inlined rather than calls into
:class:`random.Random`: port picks replay the ``getrandbits`` words of
``randrange`` and :func:`sample_range` those of ``sample(range(n), k)``,
word for word as CPython 3.10-3.12 consumes them, so wirings, samples and
the final generator states equal those of the library calls.
"""

from __future__ import annotations

import random
from math import ceil, log
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "PortMap",
    "LazyPortMap",
    "CanonicalPortMap",
    "PortMapExhausted",
    "PortConnectionPolicy",
    "RandomPortPolicy",
    "SequentialPortPolicy",
    "CallbackPortPolicy",
    "sample_range",
]

Endpoint = Tuple[int, int]


def sample_range(rng: random.Random, n: int, k: int) -> List[int]:
    """``rng.sample(range(n), k)``, with ``_randbelow`` inlined.

    Both of CPython's branches are kept: a shrinking pool when an
    ``n``-list is smaller than a ``k``-set, else rejection against the
    picks so far.  Each pick draws ``getrandbits(bound.bit_length())``
    words until one is below its bound, so the sample and the final
    state of ``rng`` equal those of ``Random.sample``.
    """
    if not 0 <= k <= n:
        raise ValueError("Sample larger than population or is negative")
    getrandbits = rng.getrandbits
    setsize = 21  # CPython's pool-or-set threshold
    if k > 5:
        setsize += 4 ** ceil(log(k * 3, 4))
    if n <= setsize:
        pool = list(range(n))
        result = [0] * k
        for i in range(k):
            bound = n - i
            bits = bound.bit_length()
            j = getrandbits(bits)
            while j >= bound:
                j = getrandbits(bits)
            result[i] = pool[j]
            pool[j] = pool[bound - 1]
        return result
    bits = n.bit_length()
    picked: Dict[int, None] = {}
    for _ in range(k):
        j = getrandbits(bits)
        while j >= n or j in picked:
            j = getrandbits(bits)
        picked[j] = None
    return list(picked)


class PortMapExhausted(RuntimeError):
    """Raised when a connection request cannot be satisfied.

    This can only happen through misuse (resolving more than ``n - 1``
    ports for one node) or through an inconsistent adversarial policy.
    """


class PortMap:
    """Abstract interface of a (possibly partial) clique port mapping."""

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValueError("need n >= 1")
        self.n = n

    @property
    def ports_per_node(self) -> int:
        """Each node owns ``n - 1`` ports."""
        return self.n - 1

    def check_port(self, u: int, port: int) -> None:
        """Validate that ``port`` is a legal port number of node ``u``."""
        n = self.n
        if not 0 <= u < n:
            raise ValueError(f"node {u} out of range [0, {n})")
        if not 0 <= port < n - 1:
            raise ValueError(f"port {port} out of range [0, {n - 1}) at node {u}")

    def resolve(self, u: int, port: int) -> Endpoint:
        """Return (and fix, if still undefined) the endpoint of ``(u, port)``."""
        raise NotImplementedError

    def resolve_many(self, u: int, ports: Sequence[int], out: List[Endpoint]) -> None:
        """Append the endpoint of each ``(u, port)`` to ``out``, in order.

        One call per send batch.  If a resolution raises, the endpoints
        resolved before it are already in ``out``: those sends happened.
        """
        resolve = self.resolve
        append = out.append
        for port in ports:
            append(resolve(u, port))

    def is_resolved(self, u: int, port: int) -> bool:
        """Whether the endpoint of ``(u, port)`` has already been fixed."""
        raise NotImplementedError

    def peer(self, u: int, port: int) -> int:
        """The node reached through ``(u, port)`` (resolving if needed)."""
        return self.resolve(u, port)[0]

    def linked_peers(self, u: int) -> Iterable[int]:
        """Nodes already connected to ``u`` by a resolved link."""
        raise NotImplementedError


class CanonicalPortMap(PortMap):
    """The deterministic "ring offset" mapping, fully defined up front.

    Port ``i`` of node ``u`` connects to node ``(u + i + 1) mod n``; the
    reverse port at ``v`` is ``(u - v - 1) mod n``.  This is the simplest
    total port mapping and is useful as a worst-case-free baseline and for
    exhaustive small-``n`` tests.  It needs O(1) memory.
    """

    def resolve(self, u: int, port: int) -> Endpoint:
        self.check_port(u, port)
        v = (u + port + 1) % self.n
        j = (u - v - 1) % self.n
        return (v, j)

    def is_resolved(self, u: int, port: int) -> bool:
        self.check_port(u, port)
        return True

    def linked_peers(self, u: int) -> Iterable[int]:
        return (v for v in range(self.n) if v != u)


class PortConnectionPolicy:
    """Strategy deciding where a freshly used port gets connected.

    The default :meth:`connect` asks ``choose_peer`` for a node ``v != u``
    not yet linked to ``u``, then takes the first free port at ``v`` (or
    the one ``choose_peer_port`` names).  Policies see the map itself and
    may therefore base decisions on the full partial mapping — exactly
    the power the paper grants its adaptive adversary.
    """

    def choose_peer(self, port_map: "LazyPortMap", u: int, port: int) -> int:
        raise NotImplementedError

    def choose_peer_port(
        self, port_map: "LazyPortMap", u: int, port: int, v: int
    ) -> Optional[int]:
        """Optionally pick the port at ``v``; ``None`` lets the map pick."""
        return None

    def connect(self, port_map: "LazyPortMap", u: int, port: int) -> Endpoint:
        """Fix and bind the far end of the unresolved port ``(u, port)``."""
        v = self.choose_peer(port_map, u, port)
        if v == u or not 0 <= v < port_map.n:
            raise PortMapExhausted(f"policy returned invalid peer {v} for node {u}")
        if port_map.linked(u, v):
            raise PortMapExhausted(f"policy returned peer {v} already linked to node {u}")
        j = self.choose_peer_port(port_map, u, port, v)
        if j is None:
            j = port_map.first_free_port(v)
        elif j in port_map._ports[v]:
            raise PortMapExhausted(f"policy returned bound port {j} at node {v}")
        else:
            port_map.check_port(v, j)
        port_map._bind(u, port, v, j)
        return (v, j)

    def resolve_many(
        self, port_map: "LazyPortMap", u: int, ports: Sequence[int], out: List[Endpoint]
    ) -> None:
        """Append the endpoint of each of ``u``'s ``ports``, connecting the unresolved.

        The batch behind :meth:`LazyPortMap.resolve_many`, which has
        validated ``u`` and ``ports``.
        """
        bound = port_map._ports[u]
        append = out.append
        for port in ports:
            endpoint = bound.get(port)
            append(endpoint if endpoint is not None else self.connect(port_map, u, port))


class RandomPortPolicy(PortConnectionPolicy):
    """Connect each newly used port to a uniformly random eligible peer.

    Both the peer and the peer-side port are picked uniformly among the
    eligible choices, so the resolved mapping is a "generic" port mapping
    with no adversarial structure.

    Each pick is rejection sampling over ``randrange(bound)`` draws, with
    the draw inlined: ``getrandbits(bound.bit_length())`` until the word
    is below ``bound``, the words CPython's ``randrange`` consumes
    (3.10-3.12).  So the mapping and the final RNG state equal those of
    ``randrange`` calls.  After ``_REJECTION_CAP`` rejected picks an
    explicit scan keeps the worst case linear instead of unbounded.  The
    draw loop lives in :meth:`resolve_many`, which runs a whole send
    batch in one frame; :meth:`connect` is a batch of one.
    """

    _REJECTION_CAP = 64

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng

    def connect(self, port_map: "LazyPortMap", u: int, port: int) -> Endpoint:
        out: List[Endpoint] = []
        self.resolve_many(port_map, u, (port,), out)
        return out[0]

    def resolve_many(
        self, port_map: "LazyPortMap", u: int, ports: Sequence[int], out: List[Endpoint]
    ) -> None:
        # Hits come from ``u``'s port dict; each fresh port draws its
        # peer, then the peer's port, and binds the link inline
        # (``LazyPortMap._bind``).
        n = port_map.n
        m = n - 1
        kn, km = n.bit_length(), m.bit_length()
        cap = self._REJECTION_CAP
        rng = self.rng
        getrandbits = rng.getrandbits
        all_ports, all_peers = port_map._ports, port_map._peer_to_port
        mine, linked = all_ports[u], all_peers[u]
        append = out.append
        for port in ports:
            endpoint = mine.get(port)
            if endpoint is None:
                if len(linked) >= m:
                    raise PortMapExhausted(f"node {u} is already linked to all peers")
                for _ in range(cap):
                    v = getrandbits(kn)
                    while v >= n:
                        v = getrandbits(kn)
                    if v != u and v not in linked:
                        break
                else:
                    v = rng.choice([w for w in range(n) if w != u and w not in linked])
                bound = all_ports[v]
                if len(bound) >= m:
                    raise PortMapExhausted(f"node {v} has no free port")
                for _ in range(cap):
                    j = getrandbits(km)
                    while j >= m:
                        j = getrandbits(km)
                    if j not in bound:
                        break
                else:
                    j = rng.choice([i for i in range(m) if i not in bound])
                endpoint = (v, j)
                mine[port] = endpoint
                bound[j] = (u, port)
                linked[v] = port
                all_peers[v][u] = j
                port_map._links += 1
            append(endpoint)


class SequentialPortPolicy(PortConnectionPolicy):
    """Connect each newly used port to the smallest eligible peer.

    Deterministic and highly "clustered": low ports of low nodes all talk
    to each other.  Valuable in tests because it is the kind of degenerate
    mapping a correct algorithm must tolerate.
    """

    def choose_peer(self, port_map: "LazyPortMap", u: int, port: int) -> int:
        for v in range(port_map.n):
            if v != u and not port_map.linked(u, v):
                return v
        raise PortMapExhausted(f"node {u} is already linked to all peers")


class CallbackPortPolicy(PortConnectionPolicy):
    """Adapter turning a plain function into a connection policy.

    The callback receives ``(port_map, u, port)`` and returns the peer
    node.  Used by the lower-bound adversaries in
    :mod:`repro.lowerbound.adversary`.
    """

    def __init__(
        self,
        choose_peer: Callable[["LazyPortMap", int, int], int],
        choose_peer_port: Optional[Callable[["LazyPortMap", int, int, int], Optional[int]]] = None,
    ) -> None:
        self._choose_peer = choose_peer
        self._choose_peer_port = choose_peer_port

    def choose_peer(self, port_map: "LazyPortMap", u: int, port: int) -> int:
        return self._choose_peer(port_map, u, port)

    def choose_peer_port(
        self, port_map: "LazyPortMap", u: int, port: int, v: int
    ) -> Optional[int]:
        if self._choose_peer_port is None:
            return None
        return self._choose_peer_port(port_map, u, port, v)


class LazyPortMap(PortMap):
    """A partial port mapping, resolved on demand (Definition 3.4 style).

    Only the links that have actually been used are materialized, so memory
    is ``O(messages)`` rather than ``O(n^2)`` — this is what makes
    simulating sub-quadratic-message algorithms on large cliques cheap.
    """

    def __init__(self, n: int, policy: PortConnectionPolicy) -> None:
        super().__init__(n)
        self.policy = policy
        # u -> {port_at_u: (v, port_at_v)}; involutive: both ends stored.
        self._ports: List[Dict[int, Endpoint]] = [dict() for _ in range(n)]
        # u -> {v: port_at_u}; tracks which peers u is linked to.
        self._peer_to_port: List[Dict[int, int]] = [dict() for _ in range(n)]
        self._links = 0

    # ------------------------------------------------------------------ #
    # queries

    def is_resolved(self, u: int, port: int) -> bool:
        self.check_port(u, port)
        return port in self._ports[u]

    def linked(self, u: int, v: int) -> bool:
        """Whether the (unique) link between ``u`` and ``v`` is materialized."""
        return v in self._peer_to_port[u]

    def linked_peers(self, u: int) -> Iterable[int]:
        return self._peer_to_port[u].keys()

    def bound_port_count(self, u: int) -> int:
        """Number of ``u``'s ports whose endpoint has been fixed."""
        return len(self._ports[u])

    def link_count(self) -> int:
        """Number of materialized links."""
        return self._links

    # ------------------------------------------------------------------ #
    # resolution

    def resolve(self, u: int, port: int) -> Endpoint:
        self.check_port(u, port)
        existing = self._ports[u].get(port)
        if existing is not None:
            return existing
        return self.policy.connect(self, u, port)

    def resolve_many(self, u: int, ports: Sequence[int], out: List[Endpoint]) -> None:
        # Validated once for the batch; an out-of-range port fails before
        # any of the batch resolves, with the error ``check_port`` gives.
        n = self.n
        if len(ports) and not (0 <= u < n and 0 <= min(ports) and max(ports) < n - 1):
            for port in ports:
                self.check_port(u, port)
        self.policy.resolve_many(self, u, ports, out)

    def force_link(self, u: int, i: int, v: int, j: int) -> None:
        """Bind the link ``(u, i) <-> (v, j)``, validating consistency.

        Exposed so tests and lower-bound adversaries can pre-wire parts of
        the mapping (a *partial port mapping* in the paper's terms).
        """
        self.check_port(u, i)
        self.check_port(v, j)
        if u == v:
            raise ValueError("cannot link a node to itself")
        if i in self._ports[u] or j in self._ports[v]:
            raise PortMapExhausted("port already bound")
        if self.linked(u, v):
            raise PortMapExhausted(f"nodes {u} and {v} already share a link")
        self._bind(u, i, v, j)

    def _bind(self, u: int, i: int, v: int, j: int) -> None:
        """Record the link ``(u, i) <-> (v, j)``; the caller has validated it."""
        self._ports[u][i] = (v, j)
        self._ports[v][j] = (u, i)
        self._peer_to_port[u][v] = i
        self._peer_to_port[v][u] = j
        self._links += 1

    def first_free_port(self, v: int) -> int:
        """Smallest port of ``v`` whose endpoint is still undefined."""
        bound = self._ports[v]
        for j in range(self.ports_per_node):
            if j not in bound:
                return j
        raise PortMapExhausted(f"node {v} has no free port")


def random_port_map(n: int, rng: random.Random) -> LazyPortMap:
    """Convenience constructor: lazy map with uniform random connections."""
    return LazyPortMap(n, RandomPortPolicy(rng))


__all__.append("random_port_map")
