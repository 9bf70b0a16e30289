"""Global spatial clusters: sweep every reference point, then keep the
inclusion-maximal member sets.

global_spatial_clusters is whole-array code in four layers: one bulk
neighbour join (range_query_disk over every point, which the grid answers
from its k-d tree, keeping its cell-run table for rectangles), one batched
angular sweep (local_member_families), a maximality filter (find_gsc)
and, for the survivors only, SpatialCluster objects.

The filter is an owner check.  Let F(S) be the region of feasible
covering-circle centers of a set S (the intersection of the radius-r
disks around its members).  S is globally maximal exactly when it is a
local cluster at every member whose circle bounds F(S): a point that
could join S would have to reach some stretch of that boundary.  Walking
the boundary counter-clockwise, the arc after member v's belongs to the
member whose window ends where S's common arc at v ends; so a copy of S
found at v is kept only if S is a local cluster at those successors too,
and S survives only if every copy of it is kept.  That takes equality
lookups of (member set, reference) pairs only.  Rounding can lose a
successor whose share of the boundary is a single point, so the verdict
is then confirmed: a set is kept exactly when no kept set contains it,
containers being sought among the near kept sets whose center
rectangles meet the set's.

The paper's filter compares sets element-wise, and two prunes cut the
number of those comparisons without changing the result:

* reference-distance prune: clusters whose reference points are more than
  d apart can never contain one another (both references would have to sit
  inside one circle of diameter d);
* center-rectangle prune: a cluster's covering-circle centers live in a
  small rectangle, and containment forces the two rectangles to intersect.

That element-wise filter, run cluster by cluster over a list of
SpatialCluster objects, is kept as the sequential reference in
tests/reference.py.  find_gsc reports the comparison counts that filter
makes with neither prune, with the first only and with both, all derived
from the final family in one pass.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from itertools import islice
from typing import Sequence

import numpy as np
from scipy.sparse import csr_matrix

from .model import DEFAULT_EPS, ClusterKind, GeoPoint, GeoSocError, SpatialCluster
from .spatial_index import build_grid, range_query_disk
from .sweep_exact import LocalFamilies, local_member_families
from .sweep_exact import spans as _spans


class EmptyCluster(GeoSocError):
    """A cluster operation received no members."""


@dataclass
class ComparisonStats:
    """Element-wise subset comparisons that the paper's sequential filter
    makes on the same clusters (find_gsc derives them): with both prunes,
    with the reference-distance prune only, and with none."""

    comparisons: int = 0
    rule1: int = 0
    unpruned: int = 0


@dataclass(frozen=True)
class ClusterTable:
    """Many point sets in CSR form: set i has the points at positions
    ``members[offsets[i]:offsets[i + 1]]`` of the coordinate arrays."""

    xs: np.ndarray
    ys: np.ndarray
    offsets: np.ndarray
    members: np.ndarray


def center_rect(members: ClusterTable, r: float):
    """Feasible covering-circle centers of each set of the table.

    For a set with coordinate extremes (x_min, x_max, y_min, y_max) and
    radius r they lie in [x_max - r, x_min + r] x [y_max - r, y_min + r],
    which is non-empty (up to tolerance) exactly when a radius-r circle
    can cover the set.  The four bounds come back as arrays, one entry per
    set, in the order x_lo, x_hi, y_lo, y_hi.
    """
    starts = members.offsets[:-1]
    if np.any(np.diff(members.offsets) == 0):
        raise EmptyCluster("cannot build a center rectangle from zero points")
    if not len(starts):
        return (np.zeros(0),) * 4
    xs = members.xs[members.members]
    ys = members.ys[members.members]
    return (
        np.maximum.reduceat(xs, starts) - r,
        np.minimum.reduceat(xs, starts) + r,
        np.maximum.reduceat(ys, starts) - r,
        np.minimum.reduceat(ys, starts) + r,
    )


def _run_sums(values: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Sums of consecutive runs of the given (positive) sizes."""
    if not len(sizes):
        return np.zeros(0, np.int64)
    return np.add.reduceat(values, np.cumsum(sizes) - sizes)


def _member_sets(fam: LocalFamilies, k: int):
    """Number the distinct member sets of the local clusters of size >= k
    in the sequential filter's order: larger sets first, then by members.

    Each size class is sorted once, by one void key per set: its members'
    id ranks as big-endian uint32 (so ranks must fit in uint32), whose
    bytes compare as the member id tuples do.  Returns the set of every
    local cluster (-1 below size k), the local clusters ordered by set,
    and the start of each set's run in that order.
    """
    sizes = fam.sizes
    ids = fam.nbhd.ids
    rank = np.empty(len(ids), ">u4")
    rank[np.argsort(ids)] = np.arange(len(ids))
    use = np.flatnonzero(sizes >= k)
    use = use[np.argsort(-sizes[use], kind="stable")]
    order, new = [use[:0]], [np.zeros(0, bool)]
    for cls in np.split(use, np.flatnonzero(np.diff(sizes[use])) + 1) if len(use) else ():
        size = int(sizes[cls[0]])
        keys = rank[fam.members[fam.offsets[cls, None] + np.arange(size)]].view(f"V{4 * size}").ravel()
        by_key = np.argsort(keys, kind="stable")
        keys = keys[by_key]
        order.append(cls[by_key])
        new.append(np.append(True, keys[1:] != keys[:-1]))
    order, new = np.concatenate(order), np.concatenate(new)
    local_set = np.full(len(sizes), -1, np.int64)
    local_set[order] = np.cumsum(new) - 1
    return local_set, order, np.flatnonzero(new)


def find_gsc(
    fam: LocalFamilies,
    k: int,
    d: float,
) -> tuple[list[SpatialCluster], ComparisonStats]:
    """Keep the local clusters of size >= k that no other one contains.

    The filter is the bulk owner check of the module docstring, over the
    distinct member sets numbered in the sequential filter's order (larger
    sets first, then by members; see _member_sets), so every pass hands
    its kept sets to _comparisons in that order as they stand.  The output
    is sorted by members.  The stats are the comparisons that the
    sequential filter of tests/reference.py makes on the same clusters, at
    each prune level.
    """
    r = d / 2
    nbhd = fam.nbhd
    n = len(nbhd.ids)
    local_set, by_set, set_start = _member_sets(fam, k)
    n_sets = len(set_start)
    copies = np.diff(np.append(set_start, len(by_set)))
    # a copy of a set is kept only if the set is local at its successors too
    asked = local_set[fam.succ_of]
    live = np.flatnonzero(asked >= 0)
    asked, succ = asked[live], fam.succ_pos[live]
    slots = _spans(set_start[asked], copies[asked])
    found = _run_sums(fam.refs[by_set[slots]] == np.repeat(succ, copies[asked]), copies[asked]) > 0
    kept = np.ones(n_sets, bool)
    kept[asked[~found]] = False

    set_rep = by_set[set_start]
    # the reference the sequential filter meets first: earliest in the input
    first_seen = np.minimum.reduceat(nbhd.order[fam.refs[by_set]], set_start) if n_sets else set_start
    position = np.empty(n, np.int64)
    position[nbhd.order] = np.arange(n)
    set_ref = position[first_seen]
    sizes = fam.sizes[set_rep]
    offsets = np.zeros(n_sets + 1, np.int64)
    np.cumsum(sizes, out=offsets[1:])
    table = ClusterTable(nbhd.xs, nbhd.ys, offsets, fam.members[_spans(fam.offsets[set_rep], sizes)])
    # The owner check can only err where a successor's share of the
    # boundary shrinks to a point and rounding loses it.  So it is
    # confirmed: a set is kept exactly when no kept set contains it, and
    # wrong calls flip.  One flip keeps every maximal set, a second drops
    # the rest, and a third pass finds nothing to flip.  Set numbers follow
    # the filter's order, so the kept sets' numbers are that order already.
    for attempt in range(3):
        chosen = np.flatnonzero(kept)
        stats, contained = _comparisons(kept, chosen, set_ref, table, nbhd, r)
        wrong = contained == kept
        if not wrong.any() or attempt == 2:
            break
        kept ^= wrong

    # the member tuples, one size class at a time, then in output order:
    # by members (each class is sorted already, so the sort merges runs)
    size = sizes[chosen]
    flat = iter(nbhd.ids[table.members[_spans(table.offsets[chosen], size)]].tolist())
    tuples: list[tuple[int, ...]] = []
    for run in np.split(size, np.flatnonzero(np.diff(size)) + 1) if len(size) else ():
        part = islice(flat, len(run) * int(run[0]))
        tuples.extend(zip(*[part] * int(run[0])))
    by_members = sorted(range(len(tuples)), key=tuples.__getitem__)
    refs = nbhd.ids[set_ref[chosen]].tolist()
    out = SpatialCluster._canonical_many(
        list(map(tuples.__getitem__, by_members)),
        list(map(refs.__getitem__, by_members)),
        ClusterKind.EXACT_CIRCLE,
    )
    return out, stats


def _sorted_search(keys: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """np.searchsorted, with the queries visited in ascending order."""
    order = np.argsort(queries)
    out = np.empty(len(queries), np.int64)
    out[order] = np.searchsorted(keys, queries[order])
    return out


def _by_column(rows: np.ndarray, sizes: np.ndarray, n_cols: int):
    """Transpose a CSR pattern: row i holds columns rows[...]; returns, per
    column, the start of its run and the rows holding it, ascending."""
    indptr = np.zeros(len(sizes) + 1, np.int64)
    np.cumsum(sizes, out=indptr[1:])
    pattern = csr_matrix((np.ones(len(rows), np.int8), rows, indptr), shape=(len(sizes), n_cols)).tocsc()
    return pattern.indptr.astype(np.int64), pattern.indices.astype(np.int64)


def _comparisons(kept, chosen, set_ref, table, nbhd, r):
    """Subset comparisons the sequential filter makes on these sets at each
    prune level, and which sets some kept set contains.

    chosen lists the kept sets in the sequential filter's order.  With the
    final family known, each count follows: a kept set is compared with
    every kept predecessor the prune rule admits, a dropped one with those
    up to its first container.  Every admitted set is referenced within
    reach; a container is larger, hence earlier, and its center rectangle
    lies in the set's, so it is sought among the sets meeting that one.
    """
    n = len(nbhd.ids)
    n_kept = len(chosen)
    sizes = np.diff(table.offsets)
    kept_size = sizes[chosen]
    place = np.full(len(kept), -1)
    place[chosen] = np.arange(n_kept)
    # the kept sets referenced within reach of each point, in the filter's order
    kept_ref = set_ref[chosen]
    degree = np.diff(nbhd.offsets)[kept_ref]
    near_start, near = _by_column(nbhd.nbrs[_spans(nbhd.offsets[kept_ref], degree)], degree, n)
    near_key = np.repeat(np.arange(n), np.diff(near_start)) * n_kept + near
    # candidates: the kept sets before a kept set, larger than a dropped one
    bound = np.where(kept, place, np.searchsorted(-kept_size, -sizes, side="left"))
    start = near_start[set_ref]
    stop = _sorted_search(near_key, set_ref * n_kept + bound) - start

    x_lo, x_hi, y_lo, y_hi = center_rect(table, r)
    eps = DEFAULT_EPS
    # apart exactly when some entry of (x_lo, -x_hi - eps, y_lo, -y_hi - eps)
    # of one set exceeds that of (x_hi + eps, -x_lo, y_hi + eps, -y_lo) of the other
    mine = np.stack((x_lo, -(x_hi + eps), y_lo, -(y_hi + eps)), axis=1)
    theirs = np.take(np.stack((x_hi + eps, -x_lo, y_hi + eps, -y_lo), axis=1), chosen, axis=0)
    # a set's signature ors one bit per member, by its point number: points
    # are numbered in cell order, so near points mostly get distinct bits
    bit = np.left_shift(np.uint64(1), np.arange(n, dtype=np.uint64) % np.uint64(64))
    sig = np.bitwise_or.reduceat(bit[table.members], table.offsets[:-1]) if len(sizes) else bit[:0]
    kept_sig = sig[chosen]

    # walk the j-th candidate of every set at once, longest lists first;
    # count the rectangle meetings so far, and note the meeting candidates
    # that hold the set's signature
    walk = np.argsort((stop.max(initial=0) - stop) * (len(near) + 1) + start)
    stop, start, mine = stop[walk], start[walk], np.take(mine, walk, axis=0)
    own_sig, own_size = sig[walk], sizes[walk]
    meets = np.zeros(len(walk), np.int64)
    noted = [(np.zeros(0, np.int64),) * 4]
    # sets with more than j candidates: a prefix, its length per column
    widths = np.searchsorted(-stop, -np.arange(int(stop[0]) if len(stop) else 0), side="left").tolist()
    for j, m in enumerate(widths):
        pt = near[start[:m] + j]
        meet = (mine[:m] > np.take(theirs, pt, axis=0)).view(np.uint32).ravel() == 0
        meets[:m] += meet
        c = np.flatnonzero(meet)
        t = pt[c]
        c = c[(own_size[c] < kept_size[t]) & (own_sig[c] & ~kept_sig[t] == 0)]
        noted.append((c, pt[c], np.full(len(c), j), meets[c]))
    cand, cand_kept, cand_col, cand_meets = map(np.concatenate, zip(*noted))
    # each kept set as a bitset over the point numbers it spans (near
    # points are numbered near, so the spans are short)
    held = table.members[_spans(table.offsets[chosen], kept_size)]
    held_start = np.cumsum(kept_size) - kept_size
    low = np.minimum.reduceat(held, held_start) if n_kept else held
    words = (np.maximum.reduceat(held, held_start) - low >> 6) + 1 if n_kept else held
    word_start = np.cumsum(words) - words
    offset = held - np.repeat(low, kept_size)
    bitset = np.zeros(int(words.sum()), np.uint64)
    bits = np.left_shift(np.uint64(1), (offset & 63).astype(np.uint64))
    np.bitwise_or.at(bitset, np.repeat(word_start, kept_size) + (offset >> 6), bits)
    # a set's first container is its first noted candidate (in column
    # order) holding every member: test them all, take each set's first
    by_set = np.argsort(cand, kind="stable")
    c, t = cand[by_set], cand_kept[by_set]
    size = sizes[walk[c]]
    at = table.members[_spans(table.offsets[walk[c]], size)] - np.repeat(low[t], size)
    inside_span = (at >= 0) & (at < np.repeat(words[t] * 64, size))
    at = np.where(inside_span, at, 0)
    word = bitset[np.repeat(word_start[t], size) + (at >> 6)]
    hit = inside_span & ((word >> (at & 63).astype(np.uint64)) & np.uint64(1) == 1)
    holds = np.flatnonzero(_run_sums(hit, size) == size)
    done = by_set[holds[np.diff(c[holds], prepend=-1) != 0]]
    inner = cand[done]
    limit = bound[walk]
    limit[inner] = cand_kept[done] + 1
    admitted = stop.copy()
    admitted[inner] = cand_col[done] + 1
    meets[inner] = cand_meets[done]
    found = np.zeros(len(walk), bool)
    found[walk[inner]] = True
    return ComparisonStats(int(meets.sum()), int(admitted.sum()), int(limit.sum())), found


def global_spatial_clusters(
    points: Sequence[GeoPoint],
    d: float,
    k: int = 1,
    stats_out: ComparisonStats | None = None,
) -> list[SpatialCluster]:
    """Every maximal set coverable by a circle of diameter d, size >= k.

    Every point's candidates within d are swept for local clusters, and
    the union of local families is filtered for maximality, all as
    whole-array passes.  Skipping points with fewer than k candidates in
    reach is safe because a size-k cluster puts at least k points within d
    of each of its members.  stats_out receives the comparison counts.
    """
    if d <= 0:
        raise ValueError("distance threshold d must be positive")
    pts = list(points)
    if not pts:
        return []
    # The passes make no reference cycles; a collection while they build
    # tens of thousands of objects would only walk every live object.
    collecting = gc.isenabled()
    gc.disable()
    try:
        grid = build_grid(pts, d)
        nbhd = range_query_disk(grid, None, d)
        families = local_member_families(nbhd, d / 2, min_size=k)
        out, stats = find_gsc(families, k=k, d=d)
    finally:
        if collecting:
            gc.enable()
    if stats_out is not None:
        vars(stats_out).update(vars(stats))
    return out
