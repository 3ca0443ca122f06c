"""The faulted referee folds' first-arrival maximum pick.

:func:`repro.fastsync.algorithms._first_max_pick` replays the object
referee's scan ``if payload[1] > best: keep`` over an arrival-ordered
edge list.  The reference below is the three-key ``np.lexsort`` it
used to be: sort by receiver, then value descending, then arrival, and
keep each receiver's first row.  Both must return the same positions,
sorted by receiver.
"""

import pytest

np = pytest.importorskip("numpy")

from repro.fastsync.algorithms import _first_max_pick  # noqa: E402


def lexsort_pick(dst, val, floor):
    idx = np.nonzero(val > floor[dst])[0]
    if idx.size == 0:
        return idx
    order = np.lexsort((idx, -val[idx], dst[idx]))
    sd = dst[idx[order]]
    first = np.ones(order.size, dtype=bool)
    first[1:] = sd[1:] != sd[:-1]
    return idx[order[first]]


def edge_list(rng, n, m, id_range, dup_frac):
    """``m`` arrival-ordered edges with small IDs (many ties) and copies."""
    dst = rng.integers(0, n, m)
    val = rng.integers(1, id_range + 1, m)
    dup = rng.random(m) < dup_frac
    if dup.any():
        # A duplicated copy: one edge repeated later in arrival order.
        pos = np.repeat(np.arange(m), np.where(dup, 2, 1))
        dst, val = dst[pos], val[pos]
    return dst.astype(np.int64), val.astype(np.int64)


def floors(rng, n, ids, kind):
    if kind == "minus_one":
        return np.full(n, -1, dtype=np.int64)
    # A live candidate referee floors the scan at its own ID.
    candidate = rng.random(n) < 0.5
    return np.where(candidate, ids, np.int64(-1))


def check(dst, val, floor):
    got = _first_max_pick(dst, val, floor)
    want = lexsort_pick(dst, val, floor)
    assert got.tolist() == want.tolist()
    receivers = dst[got]
    assert np.all(receivers[1:] > receivers[:-1])
    return got


@pytest.mark.parametrize("seed", range(40))
@pytest.mark.parametrize("floor_kind", ["minus_one", "own_rank"])
def test_pick_equals_the_lexsort_formulation(seed, floor_kind):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 24))
    m = int(rng.integers(0, 120))
    # A narrow ID range forces ties at a receiver's maximum.
    id_range = int(rng.integers(1, 2 * n + 2))
    dst, val = edge_list(rng, n, m, id_range, dup_frac=0.2)
    ids = rng.permutation(np.arange(1, n + 1)).astype(np.int64)
    check(dst, val, floors(rng, n, ids, floor_kind))


def test_ties_go_to_the_earliest_arrival():
    dst = np.array([2, 0, 2, 0, 2, 1], dtype=np.int64)
    val = np.array([5, 3, 7, 3, 7, 4], dtype=np.int64)
    got = check(dst, val, np.full(3, -1, dtype=np.int64))
    assert got.tolist() == [1, 5, 2]


def test_a_duplicated_copy_loses_to_its_first_arrival():
    dst = np.array([0, 0, 0], dtype=np.int64)
    val = np.array([4, 9, 9], dtype=np.int64)
    assert check(dst, val, np.full(1, -1, dtype=np.int64)).tolist() == [1]


def test_nothing_above_the_floor_picks_nothing():
    dst = np.array([0, 1, 1, 0], dtype=np.int64)
    val = np.array([3, 2, 5, 1], dtype=np.int64)
    got = check(dst, val, np.array([3, 5], dtype=np.int64))
    assert got.size == 0
    empty = np.empty(0, dtype=np.int64)
    assert check(empty, empty, np.full(4, -1, dtype=np.int64)).size == 0


def test_the_own_rank_floor_is_strict():
    # Receiver 1 is a candidate at ID 6: a compete at 6 does not beat it.
    dst = np.array([1, 0, 1, 1], dtype=np.int64)
    val = np.array([6, 2, 7, 7], dtype=np.int64)
    got = check(dst, val, np.array([-1, 6], dtype=np.int64))
    assert got.tolist() == [1, 2]


def test_a_single_receiver():
    rng = np.random.default_rng(3)
    for _ in range(20):
        m = int(rng.integers(1, 40))
        dst = np.zeros(m, dtype=np.int64)
        val = rng.integers(0, 6, m).astype(np.int64)
        for floor in (-1, 2):
            check(dst, val, np.array([floor], dtype=np.int64))
