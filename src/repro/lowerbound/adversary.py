"""The component-capacity port adversary (Lemma 3.3 / Lemma 3.9 style).

The tradeoff lower bound (Theorem 3.8) rests on an adversary that fixes
the endpoints of newly opened ports *adaptively* so that communication
stays trapped inside small components: as long as a component has
capacity (Definition 3.2), new messages can be routed to in-component
nodes (Lemma 3.3), and when components must merge, the adversary merges
them pairwise into blocks, so the largest component grows by at most a
factor ``2^(⌈log2 f(n)⌉ + 1)`` per round — which forces
``Ω(log n / log f(n))`` rounds before any component can span a majority
of the clique (the termination requirement of Corollary 3.7).

:class:`ComponentCapacityAdversary` is the operational version of that
strategy, usable as a :class:`repro.net.ports.PortConnectionPolicy`:

* a newly opened port of ``u`` is connected to an uncontacted node
  *inside* ``u``'s component whenever one exists (capacity-first
  routing, exactly Lemma 3.3);
* otherwise it is connected to the *smallest* other component, which is
  the greedy realization of the proof's pairwise block merging.

Because a correct deterministic algorithm must work under **every** port
mapping, running one under this adversary is simultaneously a stress
test (correctness must be preserved) and a measurement device: the
per-round growth factor of the largest component, reported in
:class:`GrowthTrace`, is the quantity the lower bound controls.

The proof's other ingredient — pruning "costly" ID assignments — ranges
over exponentially many assignments and is inherently non-executable; the
bound formulas it yields are evaluated in :mod:`repro.lowerbound.bounds`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.lowerbound.commgraph import CommGraph, CommGraphRecorder
from repro.net.ports import LazyPortMap, PortConnectionPolicy
from repro.sync.engine import SyncNetwork, SyncRunResult

__all__ = [
    "ComponentCapacityAdversary",
    "GrowthTrace",
    "run_under_capacity_adversary",
]


class ComponentCapacityAdversary(PortConnectionPolicy):
    """Adaptive port policy that minimizes component growth."""

    def __init__(self, graph: CommGraph) -> None:
        self.graph = graph
        self.in_component_links = 0
        self.merge_links = 0

    def choose_peer(self, port_map: LazyPortMap, u: int, port: int) -> int:
        # Lemma 3.3: while the component has capacity, keep traffic inside.
        candidates = [
            w
            for w in self.graph.uncontacted_in_component(u)
            if not port_map.linked(u, w)
        ]
        if candidates:
            self.in_component_links += 1
            return min(candidates)
        # Capacity exhausted: merge with the smallest other component
        # (greedy pairwise block merging).
        my_root = self.graph.find(u)
        best_root: Optional[int] = None
        best_size = 0
        for root in self.graph.roots():
            if root == my_root:
                continue
            size = self.graph.component_size(root)
            if best_root is None or (size, root) < (best_size, best_root):
                best_root = root
                best_size = size
        if best_root is None:
            # Single component left: any unlinked peer will do.
            linked = set(port_map.linked_peers(u))
            for w in range(port_map.n):
                if w != u and w not in linked:
                    self.merge_links += 1
                    return w
            raise RuntimeError(f"node {u} has no eligible peer left")
        self.merge_links += 1
        members = self.graph.component_members(best_root)
        eligible = [w for w in members if not port_map.linked(u, w)]
        return min(eligible)

    def connect(self, port_map: LazyPortMap, u: int, port: int) -> Tuple[int, int]:
        endpoint = super().connect(port_map, u, port)
        # The engine resolves a whole send batch before its recorder adds
        # the batch's edges, so add this send's edge now: the next port
        # of the batch must see the component it merged.
        self.graph.add_edge(u, endpoint[0])
        return endpoint


@dataclass
class GrowthTrace:
    """Largest-component and message-volume trace of one execution."""

    n: int
    largest_by_round: Dict[int, int] = field(default_factory=dict)
    sends_by_round: Dict[int, int] = field(default_factory=dict)
    in_component_links: int = 0
    merge_links: int = 0

    @property
    def rounds(self) -> List[int]:
        return sorted(set(self.largest_by_round) | set(self.sends_by_round))

    def growth_factors(self) -> List[float]:
        """Largest-component growth factor per round (round 2 onward)."""
        factors = []
        previous = 1
        for r in self.rounds:
            current = self.largest_by_round.get(r, previous)
            factors.append(current / previous)
            previous = current
        return factors

    def max_growth_factor(self) -> float:
        factors = self.growth_factors()
        return max(factors) if factors else 1.0

    def rounds_to_majority(self) -> Optional[int]:
        """First round with a component spanning a majority of the clique.

        Corollary 3.7 / Theorem 3.8: a deterministic algorithm cannot
        terminate before this happens (for ID spaces without terminating
        components), so this is the executable proxy for the round lower
        bound.
        """
        for r in self.rounds:
            if self.largest_by_round.get(r, 0) > self.n / 2:
                return r
        return None


def run_under_capacity_adversary(
    n: int,
    algorithm_factory: Callable[[], object],
    *,
    ids: Optional[Sequence[int]] = None,
    seed: int = 0,
    awake: Optional[Sequence[int]] = None,
    max_rounds: Optional[int] = None,
) -> tuple:
    """Run a synchronous algorithm against the capacity adversary.

    Returns ``(SyncRunResult, GrowthTrace)``.  The algorithm must still
    elect a unique leader (the model quantifies over all port mappings);
    the trace shows how slowly the adversary forced components to grow.
    """
    graph = CommGraph(n)
    policy = ComponentCapacityAdversary(graph)
    port_map = LazyPortMap(n, policy)
    recorder = CommGraphRecorder(graph)
    net = SyncNetwork(
        n,
        algorithm_factory,
        ids=ids,
        seed=seed,
        port_map=port_map,
        awake=awake,
        max_rounds=max_rounds,
        recorder=recorder,
    )
    result: SyncRunResult = net.run()
    trace = GrowthTrace(
        n=n,
        largest_by_round=dict(recorder.largest_by_round),
        sends_by_round=dict(result.metrics.sends_by_round),
        in_component_links=policy.in_component_links,
        merge_links=policy.merge_links,
    )
    return result, trace
