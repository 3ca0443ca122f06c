"""The vectorized synchronous round engine.

Instead of one algorithm object, context and inbox per node, the whole
clique is a handful of flat arrays:

* ``ids``      — ``int64[n]``, the unique node identifiers;
* per-round message *batches* — ``(senders, destinations)`` index arrays
  built by the algorithm with the engine's sampling primitives;
* metric counters identical in meaning to :class:`repro.sync.SyncMetrics`
  (``messages_total``, ``last_send_round``, ``rounds_executed``,
  per-kind counts).

A :class:`~repro.fastsync.algorithm.VectorAlgorithm` drives the whole
round schedule itself (it is a port of the *protocol*, not of one node),
calling :meth:`FastSyncNetwork.tick` once per synchronous round and the
sampling/accounting primitives in between.  The engine owns everything
that must be shared between algorithms: id layout, randomness, the port
model, round/message accounting and the termination limit.

Two port-model modes
--------------------

``mode="exact"``
    The clique's port mapping is materialized up front as an
    ``(n, n-1)`` permutation matrix — row ``u`` is a uniformly random
    ordering of the other nodes, exactly the distribution the
    object-model engine's :class:`~repro.net.ports.RandomPortPolicy`
    resolves lazily.  Per-node ``random.Random`` streams are seeded with
    the same ``master.getrandbits(64)`` schedule as
    :class:`repro.sync.SyncNetwork`, so an object-model run given
    :meth:`FastSyncNetwork.port_map` and the same seed consumes
    *identical* randomness: winners and message/round counts match
    exactly (``tests/test_fastsync_equivalence.py``).  Memory is
    ``O(n^2)`` — intended for ``n ≤ exact_limit``.

    Row ``u`` of the matrix is the stable argsort of the PCG64 keys
    ``random((n, n))[u]`` with self sorting last.  It is built without
    float keys: a PCG64 ``random()`` is the raw draw's top 53 bits, so
    each entry is packed into one ``uint64`` as ``key53 << bits |
    column`` (``bits = (n-1).bit_length()``), the diagonal is set to the
    ``UINT64_MAX`` sentinel, an in-place row sort orders keys with ties
    by column, and masking the low ``bits`` leaves the permutation.  Up
    to ``n = 2048`` the whole key fits; above, the packed key keeps its
    top ``64 - bits`` bits, and any row where two kept prefixes tie is
    regenerated from the stream and stable-sorted on full keys.  The
    draws come in row chunks of about ``2**19`` (one stream, continued
    across chunks), so the only ``uint64`` buffer is one chunk's 4 MiB;
    each sorted chunk lands in the matrix, which is stored in the
    narrowest unsigned type that holds ``n - 1`` (``uint16`` at
    ``n = 2048``: 8.4 MB rather than 33.5 MB).  ``first_ports`` and
    ``sampled_targets`` still return ``int64`` global indices.

    The per-node seeds are drawn up front, but a node's ``Random`` is
    built only when ``bernoulli``, ``rank_draws`` or ``sampled_targets``
    first draws for it, so deterministic ports (``first_ports`` only)
    never build one.

    A lane's wiring — its per-node seeds and its port matrix — depends
    on ``(n, seed)`` alone, so every algorithm run on the same instance
    (a Table 1 grid runs six) shares one build.  A per-process cache
    keyed by ``(n, seed)`` keeps the two most recently used wirings, all
    of one ``n`` (a lookup at another ``n`` empties it first), and hands
    them out read-only.  :func:`release_wirings` empties it; the sweep
    executor calls it before every object-engine spec, so no matrix
    outlives the fast cells into the object cells that follow them.

    Across processes, :func:`shared_wirings` scopes a temporary
    directory for a given set of ``(n, seed)`` keys (a pooled
    ``sweep()`` enters it with the keys two or more of its cells need).
    Inside it, a cache miss on a shared key memory-maps
    ``{n}-{seed}.npy`` from the directory when a valid file is there
    (shape ``(n, n-1)``, the stored dtype) and otherwise builds the
    matrix and publishes it, atomically, for the other processes; any
    other key builds privately and writes nothing.  Only fork-started
    workers inherit the directory; under spawn or forkserver each
    worker builds privately.  The node seeds are always drawn
    in-process (about 0.2 ms per wiring).  A miss on a shared key after
    :func:`release_wirings` therefore reloads the published file rather
    than rebuilding.

``mode="scale"``
    No materialized port map.  "Send over ports ``0..m-1``" and "send
    over ``m`` sampled ports" both become "send to ``m`` distinct
    uniformly random peers", which is the same *distribution* a random
    port mapping induces, drawn from one ``numpy`` PCG64 generator per
    lane.  Memory is ``O(messages per round)``, which is what unlocks
    ``n ≥ 10^5`` (sub-quadratic algorithms never materialize ``n^2``
    anything).  Runs are deterministic per ``(n, seed, mode)`` but do
    not replay the object engine bit-for-bit; see DESIGN.md for the
    exact equivalence contract.

``mode="auto"`` picks ``exact`` for ``n ≤ exact_limit`` (default 2048)
and ``scale`` above.

The batch axis
--------------

Every execution is a batch of independent elections (*lanes*) of one
``(n, algorithm)`` configuration.  ``FastSyncNetwork(n, seeds=[s0, s1,
...])`` (or ``batch=k``, which expands to ``seeds=[seed, seed+1, ...,
seed+k-1]``) runs one lane per seed and ``run()`` returns one
:class:`FastRunResult` per lane; a plain ``FastSyncNetwork(n, seed=s)``
is a batch of one lane whose ``run()`` returns that lane's result.
State arrays carry a leading lane dimension (``alive`` is ``(batch,
n)``) and index arrays hold *global* indices ``lane * n + node`` — in a
one-lane run, the node index itself.  Every lane draws from its **own**
RNG streams seeded by its seed alone, and per-lane termination lets
finished lanes stop paying tick cost, so a lane's result depends only
on ``(n, seed, mode)``, never on the batch it ran in
(``tests/test_fastsync_batch.py``).  Faults, crashes included, come
only from a ``faults=`` :class:`~repro.faults.FaultPlan`, and a faulted
run is single-lane.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import random
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.common import SimulationLimitExceeded, SurvivorAccounting
from repro.net.ports import PortMap, sample_range
from repro.sweep import worker as sweep_worker
from repro.telemetry.profile import NULL_PROFILE

__all__ = ["ArrayPortMap", "DEFAULT_EXACT_LIMIT", "FastRunResult", "FastSyncNetwork"]

#: ``mode="auto"``'s exact/scale crossover.
DEFAULT_EXACT_LIMIT = 2048

#: Safety valve for the collision-resampling loops: statistically the
#: loops converge geometrically, so this is never reached.
_RESAMPLE_LIMIT = 500

#: Elements per block of the scale sampler's passes: a block's draws,
#: masks and sort stay in cache.
_BLOCK_ELEMS = 1 << 18

#: Elements per row chunk of the port-matrix build: one chunk's
#: ``uint64`` draws (4 MiB) are the build's only wide buffer.
_PORT_CHUNK_ELEMS = 1 << 19

#: Lanes a kernel call may run at once; ``None`` defers to the sweep
#: pool worker's core share, then to every core this process may use
#: (:func:`lane_width`).
LANE_WIDTH: Optional[int] = None


def port_mode(n: int, mode: str, exact_limit: int = DEFAULT_EXACT_LIMIT) -> str:
    """The port model ``mode`` resolves to at ``n`` (``"auto"`` by size)."""
    if mode == "auto":
        return "exact" if n <= exact_limit else "scale"
    return mode


class ArrayPortMap(PortMap):
    """A fully materialized port mapping backed by a permutation matrix.

    ``dest[u, i]`` is the node reached through port ``i`` of node ``u``;
    each row is a permutation of the other ``n - 1`` nodes.  The reverse
    port of a link is recovered from the inverse permutation, so the
    mapping is involutive as required by the model.  This is the adapter
    that lets the *object-model* engine run on the exact wiring a
    :class:`FastSyncNetwork` used, which is what the cross-engine
    equivalence tests rely on.
    """

    def __init__(self, dest: np.ndarray) -> None:
        n = dest.shape[0]
        super().__init__(n)
        if dest.shape != (n, max(0, n - 1)):
            raise ValueError(f"need an (n, n-1) destination matrix, got {dest.shape}")
        self._dest = dest
        # rank[v, u] = the port of node v that leads to node u.
        rank = np.full((n, n), -1, dtype=np.int64)
        if n > 1:
            rows = np.arange(n)[:, None]
            rank[rows, dest] = np.arange(n - 1, dtype=np.int64)[None, :]
        self._rank = rank

    def resolve(self, u: int, port: int):
        self.check_port(u, port)
        v = int(self._dest[u, port])
        return (v, int(self._rank[v, u]))

    def is_resolved(self, u: int, port: int) -> bool:
        self.check_port(u, port)
        return True

    def linked_peers(self, u: int):
        return (v for v in range(self.n) if v != u)


@dataclass
class FastRunResult(SurvivorAccounting):
    """Summary of one vectorized execution (mirrors ``SyncRunResult``)."""

    n: int
    mode: str
    ids: List[int]
    rounds_executed: int
    messages: int
    last_send_round: int
    leaders: List[int]
    leader_ids: List[int]
    decided_count: int
    awake_count: int
    halted_count: int
    messages_by_kind: Dict[str, int]
    sends_by_round: Dict[int, int]
    wall_time_s: float
    crashed: List[int] = field(default_factory=list)  # FaultPlan casualties
    fault_metrics: Optional[object] = None
    seed: Optional[int] = None  # the run (or lane) seed, when known
    #: Per-node decision values (``None`` = undecided or decided-None),
    #: populated by the faulted folds so twin tests can compare the full
    #: output vector against ``SyncRunResult.outputs``.
    outputs: Optional[List[Optional[int]]] = None

    @property
    def unique_leader(self) -> bool:
        return len(self.leaders) == 1

    @property
    def elected_id(self) -> Optional[int]:
        return self.leader_ids[0] if self.unique_leader else None


def _random_port_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    """An ``(n, n-1)`` matrix whose rows are random orderings of peers.

    Row ``u`` is the stable argsort of ``rng.random((n, n))[u]`` with self
    sorting last, computed as packed in-place ``uint64`` sorts of row
    chunks and stored as ``np.min_scalar_type(n - 1)`` (see the module
    docstring); ``rng`` must be PCG64-backed.
    """
    bits = (n - 1).bit_length()
    drop = max(0, 53 + bits - 64)  # key bits that do not fit beside the column
    start = rng.bit_generator.state
    out = np.empty((n, max(0, n - 1)), dtype=np.min_scalar_type(n - 1))
    columns = np.arange(n, dtype=np.uint64)
    step = max(1, _PORT_CHUNK_ELEMS // n)
    for lo in range(0, n, step):
        rows = min(step, n - lo)
        buf = rng.bit_generator.random_raw((rows, n))
        buf >>= np.uint64(11 + drop)  # random() keeps the top 53 bits
        buf <<= np.uint64(bits)
        buf |= columns
        local = np.arange(rows)
        buf[local, lo + local] = np.iinfo(np.uint64).max  # self is never a peer: sorts last
        buf.sort(axis=1)
        if drop:
            _repair_truncated_ties(buf, start, bits, lo)
        buf &= np.uint64((1 << bits) - 1)
        out[lo : lo + rows] = buf[:, : n - 1]
    return out


def _repair_truncated_ties(buf: np.ndarray, start: dict, bits: int, lo: int) -> None:
    """Re-order, from full keys, the sorted rows whose kept prefixes tie.

    ``buf`` holds rows ``lo, lo + 1, ...`` of the packed matrix.  Two
    packed entries tie on their prefix exactly when their XOR is below
    ``2**bits``.  Such a row is regenerated from the PCG64 ``start``
    state (row ``u`` is draws ``u*n .. u*n+n-1``) and stable-sorted; its
    bare columns, which the caller's column mask leaves unchanged,
    replace the packed entries.
    """
    n = buf.shape[1]
    rows = buf[:, : n - 1]
    tied = ((rows[:, 1:] ^ rows[:, :-1]) < np.uint64(1 << bits)).any(axis=1)
    for i in np.nonzero(tied)[0].tolist():
        u = lo + i
        gen = np.random.PCG64(0)
        gen.state = start
        gen.advance(u * n)
        keys = gen.random_raw(n) >> np.uint64(11)
        keys[u] = np.uint64(1 << 53)  # above every 53-bit key
        buf[i] = np.argsort(keys, kind="stable").astype(np.uint64)


#: ``(n, seed) -> (node_seeds, ports)``, least recently used first.
_WIRINGS: Dict[Tuple[int, int], Tuple[Tuple[int, ...], np.ndarray]] = {}

#: How many wirings :data:`_WIRINGS` keeps: enough for a two-seed block
#: of one ``n``, the shape of the Table 1 grids.
_WIRING_SLOTS = 2


#: ``(n, seed) -> path`` of each wiring :func:`shared_wirings` shares;
#: empty outside one.
_SHARED_WIRINGS: Dict[Tuple[int, int], str] = {}


@contextlib.contextmanager
def shared_wirings(keys: Iterable[Tuple[int, int]]) -> Iterator[None]:
    """Share the port matrices of ``keys`` through a temporary directory.

    Inside the block, a wiring cache miss on one of ``keys`` first loads
    ``{n}-{seed}.npy`` from the directory (memory-mapped, read-only) and
    only builds the matrix when no valid file is there; a build is then
    published for the other processes.  Other keys build as outside the
    block and write nothing.  The paths travel as a module global, so
    only processes forked inside the block (a fork-started sweep pool)
    share them; spawn or forkserver workers build privately.  On exit
    the previous paths are restored and the directory removed.
    """
    global _SHARED_WIRINGS
    previous = _SHARED_WIRINGS
    with tempfile.TemporaryDirectory(prefix="repro-wirings-") as directory:
        _SHARED_WIRINGS = {
            (n, seed): os.path.join(directory, f"{n}-{seed}.npy") for n, seed in keys
        }
        try:
            yield
        finally:
            _SHARED_WIRINGS = previous


def _load_ports(path: str, n: int) -> Optional[np.ndarray]:
    """The published matrix at ``path``, or ``None`` if absent or malformed."""
    try:
        ports = np.load(path, mmap_mode="r")
    except (OSError, ValueError):
        return None  # missing, truncated, or not an .npy file
    if ports.shape != (n, max(0, n - 1)) or ports.dtype != np.min_scalar_type(n - 1):
        return None
    return np.asarray(ports)  # a plain read-only view of the mapping


def _publish_ports(path: str, ports: np.ndarray) -> None:
    """Write ``ports`` to ``path`` atomically; sharing is only an optimisation.

    Readers only ever see a complete file: it is written under a
    temporary name and renamed into place.  Any ``OSError`` (a full
    disk, a removed directory) leaves this process with its private
    copy; a partial temporary file goes when the directory does.
    """
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
        with os.fdopen(fd, "wb") as out:
            np.save(out, ports)
        os.replace(tmp, path)
    except OSError:
        pass


def _wiring(n: int, seed: int) -> Tuple[Tuple[int, ...], np.ndarray]:
    """The exact wiring of ``(n, seed)``: per-node seeds and port matrix.

    The seeds follow ``SyncNetwork``'s schedule (one master stream, one
    64-bit draw per node, in node order); the port matrix comes from a
    PCG64 stream of the same seed.  Both are cached (see the module
    docstring) and the matrix is read-only.
    """
    key = (n, seed)
    wiring = _WIRINGS.pop(key, None)
    if wiring is None:
        if any(cached_n != n for cached_n, _ in _WIRINGS):
            _WIRINGS.clear()
        while len(_WIRINGS) >= _WIRING_SLOTS:
            del _WIRINGS[next(iter(_WIRINGS))]
        master = random.Random(seed)
        node_seeds = tuple(master.getrandbits(64) for _ in range(n))
        path = _SHARED_WIRINGS.get(key)
        ports = None if path is None else _load_ports(path, n)
        if ports is None:
            ports = _random_port_matrix(np.random.default_rng(np.random.PCG64(seed)), n)
            ports.flags.writeable = False
            if path is not None:
                _publish_ports(path, ports)
        wiring = (node_seeds, ports)
    _WIRINGS[key] = wiring
    return wiring


def release_wirings() -> None:
    """Empty the wiring cache, freeing every matrix no network still holds."""
    _WIRINGS.clear()


class _NodeStreams:
    """One lane's per-node ``random.Random`` streams, each built on first use.

    The seeds are drawn up front (the ``SyncNetwork`` schedule); a
    ``Random`` is only constructed when a primitive first draws from that
    node, so deterministic ports never pay for ``n`` of them.
    """

    __slots__ = ("_seeds", "_streams")

    def __init__(self, seeds: Sequence[int]) -> None:
        self._seeds = seeds
        self._streams: List[Optional[random.Random]] = [None] * len(seeds)

    def __getitem__(self, u: int) -> random.Random:
        rng = self._streams[u]
        if rng is None:
            rng = self._streams[u] = random.Random(self._seeds[u])
        return rng

    def all(self) -> List[random.Random]:
        """Every node's stream, in node order."""
        streams = self._streams
        if None in streams:
            streams[:] = [
                random.Random(s) if rng is None else rng
                for rng, s in zip(streams, self._seeds)
            ]
        return streams

    @property
    def built(self) -> int:
        """How many of the lane's streams exist so far."""
        return sum(rng is not None for rng in self._streams)


def lane_width() -> int:
    """How many lanes a kernel call runs at once.

    :data:`LANE_WIDTH` if set, else the share of the cores a sweep pool
    worker was given (:data:`repro.sweep.worker.CORE_SHARE`), else every
    core this process may use.
    """
    if LANE_WIDTH is not None:
        return LANE_WIDTH
    if sweep_worker.CORE_SHARE is not None:
        return sweep_worker.CORE_SHARE
    return len(os.sched_getaffinity(0))


def for_each_lane(fn: Callable[[int], None], lanes: Sequence[int]) -> None:
    """Call ``fn(b)`` for every lane ``b``, up to :func:`lane_width` at once.

    The callers' kernels spend most of their time in numpy calls that
    release the GIL (``Generator.integers``, sorts, comparisons), and
    each lane writes only its own rows and its own ``lane * n`` segment,
    so lanes run on threads without locks and give the same bits in any
    order.  The pool lives for this call only: no thread is alive when a
    sweep pool later forks its workers.
    """
    width = min(lane_width(), len(lanes))
    if width <= 1:
        for b in lanes:
            fn(b)
        return
    with ThreadPoolExecutor(max_workers=width) as pool:
        list(pool.map(fn, lanes))


def _adjacent_dups(rows: np.ndarray) -> np.ndarray:
    """Which sorted rows hold a repeated value."""
    return (rows[:, 1:] == rows[:, :-1]).any(axis=1)


def _collided_capacity(rows: int, m: int, n: int) -> int:
    """Rows reserved for first-pass collisions: the birthday-bound mean plus 4 sigma."""
    p = -math.expm1(float(np.log1p(-np.arange(m) / (n - 1)).sum()))
    return min(rows, int(rows * p + 4 * math.sqrt(rows * p * (1 - p))) + 1)


def _draw_distinct(
    rng: np.random.Generator,
    src_local: np.ndarray,
    m: int,
    n: int,
    blocks: Callable[[object, np.ndarray], None],
    redraws: Optional[Callable[[np.ndarray, np.ndarray], None]] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Draw ``m`` distinct uniform peers (≠ self) per row, handing them out as drawn.

    The scale sampler (DESIGN.md "Batched fast engine").  A row is a
    *set*, kept sorted in place, so duplicates are adjacent; a draw from
    ``[0, n-1)`` that hits ``src`` is remapped to ``n-1``.  The first
    pass draws, remaps and sorts cache-sized blocks of rows and hands
    each to ``blocks(rows, targets)`` (a slice of rows, their sorted
    peers with repeats) while it is in cache; only the rows that
    collided are kept, in one compact buffer.  Redraw passes give each
    extra copy a fresh draw, handed to ``redraws(rows, targets)`` (one
    value per row, shape ``(k, 1)``), and re-sort until no row repeats:
    by exchangeability of the iid redraws, the uniform distinct-set law.
    A redraw replaces only an extra copy, so the values handed out for
    a row are exactly its final set.  ``integers`` continues one stream
    across blocks and chunks, so no block size changes a draw or the
    generator's final state.  For ``m`` above half the peers the
    *excluded* set is drawn instead and the final rows go to ``blocks``.
    Returns ``(rows, sets)``: the first pass's collided rows and their
    final sorted sets.
    """
    rows = len(src_local)
    none = (np.empty(0, dtype=np.intp), np.empty((0, m), dtype=np.int32))
    if m == 0 or rows == 0:
        return none
    if m > (n - 1) // 2:
        # Draw the n-1-m excluded peers (none at m = n - 1) and keep the
        # rest; nonzero() walks row-major, so the reshape is exact.
        excluded = np.empty((rows, (n - 1) - m), dtype=np.int32)
        _sample_distinct(rng, src_local, (n - 1) - m, n, excluded)
        step = max(1, _BLOCK_ELEMS // n)
        for lo in range(0, rows, step):
            hi = min(rows, lo + step)
            keep = np.ones((hi - lo, n), dtype=bool)
            local = np.arange(hi - lo)
            keep[local, src_local[lo:hi]] = False
            keep[local[:, None], excluded[lo:hi]] = False
            blocks(slice(lo, hi), np.nonzero(keep)[1].reshape(hi - lo, m))
        return none
    src32 = src_local.astype(np.int32)
    last = np.int32(n - 1)
    step = max(1, _BLOCK_ELEMS // m)
    which = np.empty(_collided_capacity(rows, m, n), dtype=np.intp)
    sets = np.empty((len(which), m), dtype=np.int32)
    count = 0
    for lo in range(0, rows, step):
        hi = min(rows, lo + step)
        draw = rng.integers(0, n - 1, size=(hi - lo, m), dtype=np.int32)
        np.copyto(draw, last, where=draw == src32[lo:hi, None])
        draw.sort(axis=1)
        blocks(slice(lo, hi), draw)
        dup = np.nonzero(_adjacent_dups(draw))[0]
        if count + len(dup) > len(which):  # np.resize keeps the filled rows in front
            grown = max(count + len(dup), 2 * len(which))
            which, sets = np.resize(which, grown), np.resize(sets, (grown, m))
        which[count : count + len(dup)] = lo + dup
        sets[count : count + len(dup)] = draw[dup]
        count += len(dup)
    which, sets = which[:count], sets[:count]
    pending = np.arange(count)
    for _ in range(_RESAMPLE_LIMIT):
        if not len(pending):
            return which, sets
        whole = len(pending) == count  # every collided row is pending: chunks are views
        still = []
        for lo in range(0, len(pending), step):
            idx = pending[lo : lo + step]
            sub = sets[lo : lo + step] if whole else sets[idx]
            r_idx, c_idx = np.divmod(np.flatnonzero(sub[:, 1:] == sub[:, :-1]), m - 1)
            fresh = rng.integers(0, n - 1, size=len(r_idx), dtype=np.int32)
            redrawn = which[idx[r_idx]]
            np.copyto(fresh, last, where=fresh == src32[redrawn])
            if redraws is not None:
                redraws(redrawn, fresh[:, None])
            sub[r_idx, c_idx + 1] = fresh
            # The rows are nearly sorted, where timsort beats quicksort;
            # an integer sort's output is the same for every kind.
            sub.sort(axis=1, kind="stable")
            if not whole:
                sets[idx] = sub
            still.append(idx[_adjacent_dups(sub)])
        pending = np.concatenate(still)
    raise RuntimeError(  # pragma: no cover - statistically unreachable
        "distinct-target resampling failed to converge"
    )


def _sample_distinct(
    rng: np.random.Generator, src_local: np.ndarray, m: int, n: int, out: np.ndarray,
    offset: int = 0,
) -> None:
    """Write ``m`` distinct uniform peers (≠ self) per row, plus ``offset``, into ``out``.

    The matrix consumer of :func:`_draw_distinct`, for callers that need
    a row's targets side by side (the rank-grant ports): first-pass
    blocks go straight into ``out``, then the collided rows' final sets.
    """

    def write(rows, targets: np.ndarray) -> None:
        np.add(targets, offset, out=out[rows], casting="unsafe")

    rows, sets = _draw_distinct(rng, src_local, m, n, write)
    out[rows] = sets + np.int32(offset)


class FastSyncNetwork:
    """An ``n``-clique executing one :class:`VectorAlgorithm` end to end.

    With ``seeds=[...]`` (or ``batch=k``) one execution simulates
    ``len(seeds)`` independent elections (lanes) of the same
    configuration; without them it is a single run, a batch of one
    lane — see the module docstring.
    """

    def __init__(
        self,
        n: int,
        *,
        ids: Optional[Sequence[int]] = None,
        seed: int = 0,
        seeds: Optional[Sequence[int]] = None,
        batch: Optional[int] = None,
        mode: str = "auto",
        exact_limit: int = DEFAULT_EXACT_LIMIT,
        max_rounds: Optional[int] = None,
        roots: Optional[Sequence[int]] = None,
        faults: Optional[object] = None,
        quorum: bool = False,
        telemetry: Optional[object] = None,
        profiler: Optional[object] = None,
    ) -> None:
        if n < 1:
            raise ValueError("need n >= 1")
        if mode not in ("auto", "exact", "scale"):
            raise ValueError(f"mode must be auto|exact|scale, got {mode!r}")
        self.n = n
        self.seed = seed
        self.mode = port_mode(n, mode, exact_limit)

        # ---- batch-axis resolution -------------------------------------
        # A single run is a batch of one lane; run() then returns the
        # lane's result instead of a one-element list.
        self._single = False
        if seeds is not None:
            lane_seeds = [int(s) for s in seeds]
            if not lane_seeds:
                raise ValueError("need at least one lane seed")
            if batch is not None and batch != len(lane_seeds):
                raise ValueError(
                    f"batch={batch} disagrees with len(seeds)={len(lane_seeds)}"
                )
        elif batch is not None:
            if batch < 1:
                raise ValueError("need batch >= 1")
            lane_seeds = [seed + b for b in range(int(batch))]
        else:
            lane_seeds = [seed]
            self._single = True
        self.batch = len(lane_seeds)
        self.lane_seeds: Tuple[int, ...] = tuple(lane_seeds)
        if self.batch * n > 2**31 - 1:
            raise ValueError(
                f"batch * n = {self.batch * n} exceeds the int32 index "
                "space; split the sweep into smaller batches"
            )

        if ids is None:
            id_array = np.arange(1, n + 1, dtype=np.int64)
        else:
            id_array = np.asarray(list(ids), dtype=np.int64)
            if id_array.shape != (n,):
                raise ValueError(f"need {n} IDs, got {id_array.shape}")
            if np.unique(id_array).size != n:
                raise ValueError("IDs must be distinct")
        self.ids = id_array
        self.ids_flat = np.tile(self.ids, self.batch)
        self._ids_rank_flat: Optional[np.ndarray] = None
        self.max_rounds = max_rounds if max_rounds is not None else max(4096, 32 * n)

        # ---- adversarial wake-up roots ---------------------------------
        if roots is not None:
            root_list = sorted({int(u) for u in roots})
            if not root_list:
                raise ValueError("need at least one initially-awake root")
            if not all(0 <= u < n for u in root_list):
                raise ValueError("root indices must be in [0, n)")
            self.roots: Optional[np.ndarray] = np.asarray(root_list, dtype=np.int64)
        else:
            self.roots = None

        # ---- randomness ------------------------------------------------
        # Each lane is seeded by its own seed alone.  Exact mode mirrors
        # SyncNetwork's seeding schedule per lane (SyncNetwork only skips
        # its port-policy draw when a port map is supplied — which is
        # exactly how the twin run is constructed): the lane's wiring
        # (_wiring) holds the per-node seeds, and the per-node streams
        # are built from them on first use.
        if self.mode == "exact":
            self._node_streams: Optional[List[_NodeStreams]] = []
            self._lane_ports: Optional[np.ndarray] = None
            if self.batch > 1:
                self._lane_ports = np.empty(
                    (self.batch, n, max(0, n - 1)), dtype=np.min_scalar_type(n - 1)
                )
            for b, s in enumerate(self.lane_seeds):
                node_seeds, ports = _wiring(n, s)
                self._node_streams.append(_NodeStreams(node_seeds))
                if self.batch == 1:
                    # Share the cached (read-only) matrix: a lane buffer
                    # would hold a second (n, n-1) array.
                    self._lane_ports = ports[None]
                else:
                    self._lane_ports[b] = ports
            self._lane_rngs: Optional[List[np.random.Generator]] = None
        else:
            self._node_streams = None
            self._lane_ports = None
            self._lane_rngs = [
                np.random.default_rng(np.random.PCG64(s)) for s in self.lane_seeds
            ]

        # ---- fault runtime (FaultPlan-driven path) -----------------------
        # ``faults=`` attaches a FaultPlan — crashes, partitions, link
        # rules, kill policies, tampering — through the FastFaultRuntime
        # adapter, which crash-stops nodes in ``alive`` at the start of
        # their round, like the object engine.  Fault-free runs leave
        # ``alive`` all-true.
        self.alive = np.ones((self.batch, n), dtype=bool)
        self.quorum = bool(quorum)
        self.fault_runtime = None
        if faults is not None:
            if self.batch > 1:
                raise ValueError(
                    "faulted runs are single-lane; the sweep executor runs "
                    "batched faulted specs one seed at a time"
                )
            from repro.fastsync.faults import FastFaultRuntime

            self.fault_runtime = FastFaultRuntime(
                faults, n, self.ids.tolist(), self.lane_seeds[0]
            )

        # ---- accounting ------------------------------------------------
        self.round = 0
        self.lane_round = np.zeros(self.batch, dtype=np.int64)
        self._messages_lanes = np.zeros(self.batch, dtype=np.int64)
        self._last_send_lanes = np.zeros(self.batch, dtype=np.int64)
        self._kind_lanes: Dict[str, np.ndarray] = {}
        self._round_lanes: Dict[int, np.ndarray] = {}
        self._lane_leaders: List[Optional[List[int]]] = [None] * self.batch
        self._lane_decided = np.zeros(self.batch, dtype=np.int64)
        self._lane_awake: List[Optional[int]] = [None] * self.batch
        self._lane_outputs: List[Optional[List[Optional[int]]]] = [None] * self.batch
        self._ran = False

        # ---- observability ---------------------------------------------
        # Both hooks are opt-in and None by default: the disabled paths
        # are a single attribute test per round / accounting call, which
        # the telemetry-overhead bench keeps within budget.
        self._telemetry = telemetry
        self._profiler = profiler
        if telemetry is not None:
            telemetry.bind(self)

    def profile(self, name: str):
        """A timing context for one kernel phase (no-op when disabled)."""
        if self._profiler is None:
            return NULL_PROFILE
        return self._profiler.phase(name)

    @property
    def has_faults(self) -> bool:
        """Whether a FaultPlan runtime is attached (faulted fold path)."""
        return self.fault_runtime is not None

    @property
    def alive_flat(self) -> np.ndarray:
        """The ``(batch * n,)`` view of the per-lane alive masks."""
        return self.alive.reshape(-1)

    @property
    def ids_rank_flat(self) -> np.ndarray:
        """Rank-compressed IDs (``int32``, per lane), for cheap comparisons.

        ``ids_rank_flat[g]`` is the rank of node ``g % n``'s ID within
        the (lane-shared) ID array — order-isomorphic to the IDs, so
        max-compete logic can run on int32 ranks instead of arbitrary
        int64 identifiers, halving scatter/gather traffic.
        """
        if self._ids_rank_flat is None:
            rank = np.empty(self.n, dtype=np.int32)
            rank[np.argsort(self.ids)] = np.arange(self.n, dtype=np.int32)
            self._ids_rank_flat = np.tile(rank, self.batch)
        return self._ids_rank_flat

    # ------------------------------------------------------------------ #
    # port model

    def port_map(self, lane: int = 0) -> ArrayPortMap:
        """``lane``'s materialized mapping, for running an object-model twin.

        Only available in ``exact`` mode — ``scale`` mode never holds the
        ``O(n^2)`` matrix, by design.
        """
        if self._lane_ports is None:
            raise RuntimeError(
                "port_map() needs mode='exact'; scale mode does not materialize "
                "the O(n^2) port matrix"
            )
        return ArrayPortMap(self._lane_ports[lane])

    # ------------------------------------------------------------------ #
    # round/message accounting (called by algorithms)

    def _quorum_veto(self, lane: int, leaders, outputs):
        """Strip leaders that cannot reach a majority of the clique.

        The fast-engine port of the ``quorum_reelect`` gate: a claimed
        leader only stands if the alive nodes it can still reach (its
        partition component at the final round, or everyone absent
        partitions) form a strict majority of ``n``.  Vetoed leaders
        also lose their entry in every adopter's output.
        """
        alive = self.alive[lane]
        kept = []
        vetoed_ids = set()
        for u in leaders:
            if self.fault_runtime is not None:
                reach = self.fault_runtime.reachable_alive(int(u), self.round, alive)
            else:
                reach = int(alive.sum())
            if reach > self.n // 2:
                kept.append(u)
            else:
                vetoed_ids.add(int(self.ids[u]))
        if vetoed_ids and outputs is not None:
            outputs = [None if o in vetoed_ids else o for o in outputs]
        return kept, outputs

    def tick(self, active: Optional[np.ndarray] = None) -> int:
        """Advance the global round counter by one synchronous round.

        Under a FaultPlan, scheduled crashes with ``at <= round`` take
        effect here — at the *start* of the round, before that round's
        deliveries and sends — matching the object engine's
        ``_apply_due_crashes`` semantics.  ``active`` is a ``(batch,)``
        bool mask of lanes still running: finished lanes stop ticking
        (their round counters freeze).
        """
        self.round += 1
        if self.round > self.max_rounds:
            raise SimulationLimitExceeded(
                f"no termination after {self.max_rounds} rounds (n={self.n})"
            )
        runtime = self.fault_runtime
        lanes = range(self.batch) if active is None else np.nonzero(active)[0]
        for b in lanes:
            self.lane_round[b] += 1
            if runtime is not None:
                runtime.apply_due_crashes(self.alive[b], self.round)
            if self._telemetry is not None:
                survivors = self.n if runtime is None else int(self.alive[b].sum())
                self._telemetry.on_tick(int(b), int(self.lane_round[b]), survivors)
        return self.round

    def count_messages(self, counts: Sequence[int], kind: str) -> None:
        """Record ``counts[b]`` messages of ``kind`` sent by lane ``b`` this round."""
        counts = np.asarray(counts, dtype=np.int64)
        mask = counts > 0
        if not mask.any():
            return
        self._messages_lanes += counts
        np.copyto(self._last_send_lanes, self.lane_round, where=mask)
        for table, key in ((self._kind_lanes, kind), (self._round_lanes, self.round)):
            per_lane = table.get(key)
            if per_lane is None:
                per_lane = table[key] = np.zeros(self.batch, dtype=np.int64)
            per_lane += counts
        if self._telemetry is not None:
            for b in np.nonzero(mask)[0]:
                self._telemetry.on_send(
                    int(b), int(self.lane_round[b]), kind, int(counts[b])
                )

    def decide(
        self,
        lane: int,
        leader_nodes: Sequence[int],
        decided_count: Optional[int] = None,
        awake_count: Optional[int] = None,
        outputs: Optional[Sequence[Optional[int]]] = None,
    ) -> None:
        """Record ``lane``'s election outcome (a decided lane stops ticking).

        ``leader_nodes`` are node indices within the lane.
        ``awake_count`` overrides the default all-awake accounting for
        ports running under an adversarial wake-up schedule.  The
        faulted folds additionally pass the per-node ``outputs`` vector
        (who each node thinks won), which under partitions genuinely
        differs between receivers.
        """
        self._lane_leaders[lane] = [int(u) for u in leader_nodes]
        self._lane_decided[lane] = self.n if decided_count is None else int(decided_count)
        self._lane_awake[lane] = awake_count
        if outputs is not None:
            if len(outputs) != self.n:
                raise ValueError(f"need {self.n} outputs, got {len(outputs)}")
            self._lane_outputs[lane] = [None if o is None else int(o) for o in outputs]
        if self._telemetry is not None:
            self._telemetry.on_decide(
                int(lane), int(self.lane_round[lane]), self._lane_leaders[lane]
            )

    # ------------------------------------------------------------------ #
    # sampling primitives (rows keyed by *global* index lane * n + node)

    def lane_segments(self, src_global: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(starts, stops)`` slicing a sorted global index array per lane."""
        edges = np.arange(1, self.batch + 1, dtype=np.int64) * self.n
        stops = np.searchsorted(src_global, edges, side="left")
        starts = np.concatenate(([0], stops[:-1]))
        return starts, stops

    def rows_per_lane(self, src_global: np.ndarray) -> np.ndarray:
        """How many of the sorted global rows fall in each lane."""
        starts, stops = self.lane_segments(src_global)
        return stops - starts

    def _check_ports(self, m: int) -> None:
        if not 0 <= m <= self.n - 1:
            raise ValueError(f"need m >= 0 ports, at most {self.n - 1}; got {m}")

    def first_ports(self, src_global: np.ndarray, m: int) -> np.ndarray:
        """Global destinations of "send over ports ``0..m-1``", one row per source.

        Exact mode reads the lane's materialized matrix (so repeated
        calls see the *same* ports, like the object engine); scale mode
        draws fresh distinct peers, the distribution a random port
        mapping induces on first use.
        """
        self._check_ports(m)
        n = self.n
        with self.profile("sampling"):
            if self._lane_ports is not None:
                lane = src_global // n
                node = src_global - lane * n
                # In int64: a narrow port plus a lane offset would wrap.
                return np.add(
                    self._lane_ports[lane, node, :m], (lane * n)[:, None], dtype=np.int64
                )
            return self._scale_targets(src_global, m)

    def sampled_targets(self, src_global: np.ndarray, m: int) -> np.ndarray:
        """Global destinations of "send over ``m`` sampled ports" (``ctx.sample_ports``)."""
        self._check_ports(m)
        n = self.n
        with self.profile("sampling"):
            if self._node_streams is not None:
                lane = src_global // n
                node = src_global - lane * n
                streams = self._node_streams
                ports: List[int] = []
                for b, u in zip(lane.tolist(), node.tolist()):
                    ports += sample_range(streams[b][u], n - 1, m)
                cols = np.array(ports, dtype=np.int64).reshape(len(src_global), m)
                return np.add(
                    self._lane_ports[lane[:, None], node[:, None], cols],
                    (lane * n)[:, None],
                    dtype=np.int64,
                )
            return self._scale_targets(src_global, m)

    # Earlier names of the two samplers, still patched by name by the
    # benchmark's tracer.
    first_ports_lanes = first_ports
    sampled_targets_lanes = sampled_targets

    def stream_ports(
        self,
        src_global: np.ndarray,
        m: int,
        consume: Callable[[int, object, np.ndarray], None],
        *,
        sampled: bool = False,
    ) -> None:
        """Hand the targets of :meth:`first_ports` (or :meth:`sampled_targets`) to ``consume``.

        ``consume(lane, rows, targets)`` gets lane-local peers for some
        ``rows`` (a slice or an index array) of the lane's part of the
        sorted ``src_global``.  A row's peers may come over several calls
        and with repeats, but their union is its set, so a consumer that
        needs only the set (a max-scatter, a mark) never needs the
        (rows × m) matrix: scale mode hands over the sampler's draws as
        it makes them (:func:`_draw_distinct`), exact mode each lane's
        rows of the wiring matrix.  Lanes run concurrently
        (:func:`for_each_lane`), so ``consume`` may touch only its lane's
        state.
        """
        self._check_ports(m)
        if np.any(src_global[1:] < src_global[:-1]):
            raise ValueError("streamed sampling needs sorted global rows")
        n = self.n
        starts, stops = self.lane_segments(src_global)

        def stream_lane(b: int) -> None:
            local = src_global[starts[b] : stops[b]] - b * n
            every = slice(0, len(local))
            if self._lane_ports is None:
                sink = functools.partial(consume, b)
                _draw_distinct(self._lane_rngs[b], local, m, n, sink, sink)
            elif sampled:
                cols: List[int] = []
                for u in local.tolist():
                    cols += sample_range(self._node_streams[b][u], n - 1, m)
                cols = np.array(cols, dtype=np.int64).reshape(len(local), m)
                consume(b, every, self._lane_ports[b][local[:, None], cols])
            else:
                consume(b, every, self._lane_ports[b][local, :m])

        with self.profile("sampling"):
            for_each_lane(stream_lane, [b for b in range(self.batch) if stops[b] > starts[b]])

    def bernoulli(self, p: float, lanes: Optional[np.ndarray] = None) -> np.ndarray:
        """One biased coin per node per lane — ``(batch, n)`` bool.

        Every node of a lane draws, in node order.  ``lanes`` restricts
        the draw to those lane indices (finished lanes stop consuming
        randomness); other rows come back False.
        """
        out = np.zeros((self.batch, self.n), dtype=bool)
        lane_list = range(self.batch) if lanes is None else [int(b) for b in lanes]
        if self._node_streams is not None:
            for b in lane_list:
                out[b] = np.fromiter(
                    (rng.random() < p for rng in self._node_streams[b].all()),
                    dtype=bool,
                    count=self.n,
                )
        else:
            for b in lane_list:
                out[b] = self._lane_rngs[b].random(self.n) < p
        return out

    def rank_draws(self, src_global: np.ndarray, high: int) -> np.ndarray:
        """One uniform draw from ``[1, high]`` per row.

        Scale mode caps ``high`` at ``2^62`` so draws stay in int64 —
        ranks only need to be near-collision-free, not exactly
        ``[n^4]``-distributed (exact mode keeps the true range).
        """
        n = self.n
        if self._node_streams is not None:
            return np.fromiter(
                (
                    self._node_streams[int(g) // n][int(g) % n].randrange(1, high + 1)
                    for g in src_global
                ),
                dtype=np.int64,
                count=len(src_global),
            )
        out = np.empty(len(src_global), dtype=np.int64)
        starts, stops = self.lane_segments(src_global)
        capped = min(high, 2**62)
        for b in range(self.batch):
            s, e = starts[b], stops[b]
            if s == e:
                continue
            out[s:e] = self._lane_rngs[b].integers(
                1, capped + 1, size=e - s, dtype=np.int64
            )
        return out

    def _scale_targets(self, src_global: np.ndarray, m: int) -> np.ndarray:
        """Per-lane distinct sampling through the int32 scale sampler.

        Returns global int32 targets (``batch * n`` fits int32).
        ``src_global`` must be sorted, so each lane's rows are one slice,
        sampled concurrently (:func:`for_each_lane`) from its own stream.
        """
        if np.any(src_global[1:] < src_global[:-1]):
            raise ValueError("scale-mode sampling needs sorted global rows")
        n = self.n
        out = np.empty((len(src_global), m), dtype=np.int32)
        starts, stops = self.lane_segments(src_global)

        def sample_lane(b: int) -> None:
            s, e = starts[b], stops[b]
            local = src_global[s:e] - b * n
            _sample_distinct(self._lane_rngs[b], local, m, n, out[s:e], b * n)

        for_each_lane(sample_lane, [b for b in range(self.batch) if stops[b] > starts[b]])
        return out

    # ------------------------------------------------------------------ #
    # execution

    def run(self, algorithm):
        """Execute ``algorithm`` once and summarize every lane.

        Returns one :class:`FastRunResult` per lane, in lane order — or
        the bare result for a single run (no ``seeds=``/``batch=``).
        """
        if self._ran:
            raise RuntimeError("a FastSyncNetwork is single-use, like SyncNetwork")
        if self.roots is not None and not getattr(algorithm, "supports_roots", False):
            raise ValueError(
                f"{type(algorithm).__name__} assumes simultaneous wake-up; "
                "only wake-up-aware vectorized ports (adversarial_2round) "
                "accept a roots= schedule"
            )
        if self.fault_runtime is not None and not getattr(
            algorithm, "supports_faults", False
        ):
            raise ValueError(
                f"{type(algorithm).__name__} has no FaultPlan fold; use the "
                "object engine for plans against this algorithm"
            )
        self._ran = True
        start = time.perf_counter()
        algorithm.run(self)
        wall = time.perf_counter() - start
        runtime = self.fault_runtime
        results: List[FastRunResult] = []
        # Box the shared IDs once; each lane gets its own shallow copy so
        # mutating one record's ids cannot leak into its siblings.
        ids_list = self.ids.tolist()
        for b in range(self.batch):
            if self._lane_leaders[b] is None:
                raise RuntimeError(
                    f"{type(algorithm).__name__}.run() returned without calling "
                    f"decide() for lane {b}"
                )
            crashed_at: Dict[int, float] = {}
            if runtime is not None:  # faulted runs are single-lane
                # Post-quiescence crashes still happen (to the machines,
                # not the protocol), mirroring SyncNetwork's drain of
                # pending crashes.
                runtime.drain_pending(self.alive[b])
                crashed_at = runtime.crashed_at
            never_woke = sum(1 for at in crashed_at.values() if at <= 1)
            decided = int(self._lane_decided[b])
            if self._lane_awake[b] is not None:
                awake = int(self._lane_awake[b])
                halted = decided
            else:
                awake = self.n - never_woke
                halted = self.n if runtime is None else decided
            leaders = list(self._lane_leaders[b])
            outputs = self._lane_outputs[b]
            if self.quorum and leaders:
                leaders, outputs = self._quorum_veto(b, leaders, outputs)
            results.append(
                FastRunResult(
                    n=self.n,
                    mode=self.mode,
                    ids=list(ids_list),
                    rounds_executed=int(self.lane_round[b]),
                    messages=int(self._messages_lanes[b]),
                    last_send_round=int(self._last_send_lanes[b]),
                    leaders=leaders,
                    leader_ids=[int(self.ids[u]) for u in leaders],
                    decided_count=decided,
                    awake_count=awake,
                    halted_count=halted,
                    messages_by_kind={
                        k: int(v[b]) for k, v in self._kind_lanes.items() if v[b] > 0
                    },
                    sends_by_round={
                        r: int(v[b]) for r, v in self._round_lanes.items() if v[b] > 0
                    },
                    wall_time_s=wall / self.batch,
                    crashed=sorted(crashed_at),
                    fault_metrics=None if runtime is None else runtime.metrics,
                    seed=self.lane_seeds[b],
                    outputs=outputs,
                )
            )
        return results[0] if self._single else results
