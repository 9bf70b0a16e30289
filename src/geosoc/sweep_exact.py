"""Angular sweep: all maximal point sets coverable by a circle of radius r
whose boundary passes through a fixed reference point.

Rotating the covering circle's center around the reference point v, a
candidate u at distance d_u <= 2r from v is enclosed exactly while the
rotation angle stays within arccos(d_u / 2r) of u's bearing from v.  Each
candidate therefore contributes one closed angular window, and the
coverable sets are the stabbing groups of those windows on the circle.
By definition the circle is unrolled onto a doubled line (every window
duplicated one full turn later), the line's maximal stabbing groups are
taken, and those are deduplicated and reduced to the inclusion-maximal
ones.

local_member_families runs that sweep for every point at once, in whole
arrays: a reference's active set is a bitmask over its neighbour slots,
and a running xor over its angle-sorted events yields the groups.  Where
no two events are near each other, the windows are swept as arcs of the
circle, which gives the same groups once each; the few references with
near ties get their windows recomputed with math's libm, as
atan2(dy, dx) -/+ acos(min(1, dist / 2r)), and are swept on the doubled
line exactly as defined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .model import (
    DEFAULT_EPS,
    ClusterKind,
    GeoPoint,
    GeoSocError,
    SpatialCluster,
    euclidean_distance,
)
from .spatial_index import Neighbours, build_grid, range_query_disk

TAU = 2.0 * math.pi


class TooFar(GeoSocError):
    """Candidate point cannot be covered together with the reference."""


@dataclass(frozen=True)
class LocalFamilies:
    """The local families of many reference points, flattened.

    Local cluster c was found at reference position ``refs[c]`` and has
    members ``members[offsets[c]:offsets[c + 1]]`` (positions into
    ``nbhd``, ascending id).  Each pair ``(succ_of[t], succ_pos[t])`` names
    a member whose window ends exactly where the common arc of cluster
    succ_of[t] at its reference ends: the next owner, counter-clockwise,
    of the boundary of the cluster's feasible-center region.
    """

    nbhd: Neighbours
    refs: np.ndarray
    offsets: np.ndarray
    members: np.ndarray
    succ_of: np.ndarray
    succ_pos: np.ndarray

    def __len__(self) -> int:
        return len(self.refs)

    @property
    def sizes(self) -> np.ndarray:
        return np.diff(self.offsets)


# numpy's trig kernels may differ from libm by a few ulps; sweep events
# closer than this are re-derived with math so ties decide as libm does
_TIE_GAP = 1e-12
# above this dist / 2r the window width reacts too steeply to a one-ulp
# change of dist, so such windows are computed with math outright
_STEEP = 1.0 - 1e-5
_CHUNK_EVENTS = 1 << 18


def spans(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Concatenated index ranges [start, start + size)."""
    return np.repeat(starts - (np.cumsum(sizes) - sizes), sizes) + np.arange(int(sizes.sum()))


def _math_windows(xs, ys, row, other, two_r):
    """Window bounds alpha -/+ acos(min(1, dist / two_r)) of the given
    pairs, around the bearing alpha = atan2(dy, dx), with math's libm."""
    s = np.empty(len(row))
    e = np.empty(len(row))
    for t, (i, j) in enumerate(zip(row.tolist(), other.tolist())):
        dx = xs[j] - xs[i]
        dy = ys[j] - ys[i]
        alpha = math.atan2(dy, dx)
        width = math.acos(min(1.0, max(0.0, math.hypot(dx, dy) / two_r)))
        s[t] = alpha - width
        e[t] = alpha + width
    return s, e


def _one_hot(slot: np.ndarray, live: np.ndarray, words: int) -> np.ndarray:
    """Bitmasks, shape slot.shape + (words,), with the bit of each live slot."""
    bit = np.left_shift(np.uint64(1), (slot % 64).astype(np.uint64))
    bit[~live] = 0
    if words == 1:
        return bit[..., None]
    out = np.zeros(slot.shape + (words,), np.uint64)
    np.put_along_axis(out, (slot // 64)[..., None], bit[..., None], axis=-1)
    return out


class _Sweep:
    """Angular sweep over many references, a chunk of references at a time."""

    def __init__(self, nbhd: Neighbours, r: float, active: np.ndarray):
        self.nbhd = nbhd
        row = nbhd.row_of()
        if active.all():
            entry, other = np.arange(len(row)), nbhd.nbrs
        else:
            entry = np.flatnonzero(active[row])
            row, other = row[entry], nbhd.nbrs[entry]
        # each pair's offset from its reference, and its distance as the join
        # measures it; math.hypot decides near 0 (the base test), and libm
        # windows near 2r (_STEEP)
        dx = nbhd.xs[other] - nbhd.xs[row]
        dy = nbhd.ys[other] - nbhd.ys[row]
        dist = np.sqrt(dx * dx + dy * dy)
        own = other == row
        near = np.flatnonzero((dist <= 2 * DEFAULT_EPS) & ~own)
        dist[near] = [math.hypot(dx[t], dy[t]) for t in near.tolist()]
        # the reference and its coincident points join every group
        base = own | (dist <= DEFAULT_EPS)
        slot = entry - nbhd.offsets[row]
        self.base_row, self.base_slot = row[base], slot[base]
        win = np.flatnonzero(~base)
        self.row, self.other, self.slot = row[win], other[win], slot[win]
        two_r = 2 * r
        ratio = np.clip(dist[win] / two_r, 0.0, 1.0)
        alpha = np.arctan2(dy[win], dx[win])
        width = np.arccos(ratio)
        self.s = alpha - width
        self.e = alpha + width
        self.two_r = two_r
        self.exact(np.flatnonzero(ratio > _STEEP))
        n = len(nbhd.ids)
        self.m = np.bincount(self.row, minlength=n)
        self.wstart = np.cumsum(self.m) - self.m
        self.words = (np.diff(nbhd.offsets) + 63) // 64

    def exact(self, windows: np.ndarray) -> None:
        """Recompute the given windows with math (see _math_windows)."""
        if len(windows):
            self.s[windows], self.e[windows] = _math_windows(
                self.nbhd.xs, self.nbhd.ys, self.row[windows], self.other[windows], self.two_r
            )

    def run(self, rows: np.ndarray, exact: bool):
        """Local clusters of the given rows.  Unless exact, rows with events
        closer than _TIE_GAP are left out and returned for an exact rerun."""
        parts = []
        tied = [np.zeros(0, np.int64)]
        key = self.words[rows] * (1 << 32) + (self.m[rows] + 7) // 8
        order = np.argsort(key, kind="stable")
        rows, key = rows[order], key[order]
        for group in np.split(rows, np.flatnonzero(np.diff(key)) + 1):
            if not len(group):
                continue
            width = int(self.m[group].max())
            words = int(self.words[group[0]])
            per = max(1, _CHUNK_EVENTS // (4 * width * words))
            for lo in range(0, len(group), per):
                part, flagged = self._chunk(np.sort(group[lo : lo + per]), width, words, exact)
                parts.append(part)
                tied.append(flagged)
        return parts, np.concatenate(tied)

    def _base(self, rows: np.ndarray, words: int) -> np.ndarray:
        sel = np.flatnonzero(np.isin(self.base_row, rows))
        out = np.zeros((len(rows), words), np.uint64)
        at = np.searchsorted(rows, self.base_row[sel])
        slot = self.base_slot[sel]
        np.bitwise_or.at(out, (at, slot // 64), np.left_shift(np.uint64(1), (slot % 64).astype(np.uint64)))
        return out

    def _chunk(self, rows, width, words, exact):
        valid = np.arange(width) < self.m[rows][:, None]
        widx = np.where(valid, self.wstart[rows][:, None] + np.arange(width), 0)
        s = np.where(valid, self.s[widx], np.inf)
        e = np.where(valid, self.e[widx], np.inf)
        slot = np.where(valid, self.slot[widx], 0)
        base = self._base(rows, words)
        if exact:
            ref, masks, succ_of, succ_slot = _line_groups(s, e, slot, base, words)
            tied = np.zeros(len(rows), bool)
        else:
            ref, masks, succ_of, succ_slot, tied = _circle_groups(s, e, slot, base, words)
        # members: the neighbours at the set bits, in slot (ascending id) order
        offs = self.nbhd.offsets
        shift = max(3, (int(np.diff(offs)[rows].max()) - 1).bit_length())
        raw = masks.astype("<u8", copy=False).view(np.uint8).reshape(len(ref), 8 * words)
        found = np.flatnonzero(np.unpackbits(raw, axis=1, count=1 << shift, bitorder="little"))
        row_start = offs[rows[ref]]
        members = self.nbhd.nbrs[row_start[found >> shift] + (found & ((1 << shift) - 1))]
        succ_pos = self.nbhd.nbrs[row_start[succ_of] + succ_slot]
        sizes = np.bincount(found >> shift, minlength=len(ref))
        return (rows[ref], sizes, members, succ_of, succ_pos), rows[tied]


def _sorted_events(starts, ends, slot):
    """Events of each row in angle order, a start before an end at equal
    angles: angles, end flags, live flags, slots."""
    width = starts.shape[1]
    coords = np.concatenate((starts, ends), axis=1)
    order = np.argsort(coords, axis=1, kind="stable")
    at = np.take_along_axis(coords, order, axis=1)
    live = at < np.inf
    is_end = (order >= width) & live
    return at, is_end, live, np.take_along_axis(slot, order % width, axis=1)


def _circle_groups(s, e, slot, base, words):
    """Maximal stabbing groups of the windows taken as arcs of the circle.

    Each window toggles its bit at its start and at its end, so a running
    xor from the angle 0, seeded with the arcs across 0, is the active set;
    a start directly followed (cyclically) by an end marks a maximal group,
    each exactly once.  Rows with events closer than _TIE_GAP, or with an
    arc of nearly half a turn, are flagged: only there can rounding make
    the doubled-line sweep of the original definition disagree.

    Events sort as int64 keys: the angle's bits (angles are non-negative
    here) with the lowest ones replaced by the event kind and the slot.
    """
    n_rows, width = s.shape
    s_c = np.where(s < 0, s + TAU, s)
    e_c = np.where(e < 0, e + TAU, e)
    slot_bits = max(1, (64 * words - 1).bit_length())
    low = np.int64((1 << (slot_bits + 1)) - 1)
    # truncating the angles moves them by less than this; closer events
    # may swap, and are flagged as tied
    tie = max(_TIE_GAP, 4 * 2.0 ** (slot_bits + 1 - 52) * 8)
    pad = np.iinfo(np.int64).max
    keys = np.empty((n_rows, 2 * width), np.int64)
    keys[:, :width] = np.where(s_c < np.inf, (s_c.view(np.int64) & ~low) | slot, pad)
    keys[:, width:] = np.where(e_c < np.inf, (e_c.view(np.int64) & ~low) | (1 << slot_bits) | slot, pad)
    keys.sort(axis=1)
    live = keys != pad
    at = (keys & ~low).view(np.float64)
    is_end = (keys >> slot_bits) & 1 == 1
    is_end &= live
    is_start = ~is_end & live
    slot_at = np.where(live, keys & ((1 << slot_bits) - 1), 0)
    rows = np.arange(n_rows)
    last = live.sum(axis=1) - 1
    with np.errstate(invalid="ignore"):
        close = at[:, 1:] - at[:, :-1] <= tie
        # the event after the last one is the first, one turn later
        wrap_close = at[:, 0] + TAU - at[rows, last] <= tie
        tied = (
            np.any(close & live[:, 1:] & ~(is_start[:, :-1] & is_start[:, 1:]), axis=1)
            | (wrap_close & ~(is_start[rows, last] & is_start[:, 0]))
            | np.any((np.abs(s) <= tie) | (np.abs(e) <= tie), axis=1)
            | np.any(e - s >= math.pi - tie, axis=1)
        )
    across = np.bitwise_xor.reduce(_one_hot(slot, (e_c < s_c) & (s_c < np.inf), words), axis=1)
    active = np.bitwise_xor.accumulate(_one_hot(slot_at, live, words), axis=1)
    trans = is_start[:, :-1] & is_end[:, 1:]
    trans &= ~tied[:, None]
    flat = np.flatnonzero(trans)
    rr, tt = np.divmod(flat, trans.shape[1])
    succ = np.take(slot_at, flat + rr + 1)
    wrap = np.flatnonzero(is_start[rows, last] & is_end[:, 0] & ~tied)
    rr = np.concatenate((rr, wrap))
    tt = np.concatenate((tt, last[wrap]))
    succ = np.concatenate((succ, slot_at[wrap, 0]))
    # (flat take: far cheaper than two-array indexing)
    masks = np.take(active.reshape(-1, words), rr * (2 * width) + tt, axis=0)
    masks ^= np.take(across, rr, axis=0)
    masks |= np.take(base, rr, axis=0)
    return rr, masks, np.arange(len(rr)), succ, tied


def _line_groups(s, e, slot, base, words):
    """The doubled-line sweep of the definition, for flagged rows.

    Every window is repeated one turn later; each start directly followed
    by an end marks a maximal stabbing group of the line (a stable sort
    puts starts first at equal angles).  The groups' member sets are then
    deduplicated and reduced to the inclusion-maximal ones per row.
    """
    n_rows = s.shape[0]
    at, is_end, live, slot_at = _sorted_events(
        np.concatenate((s, s + TAU), axis=1),
        np.concatenate((e, e + TAU), axis=1),
        np.concatenate((slot, slot), axis=1),
    )
    is_start = ~is_end & live
    active = np.bitwise_xor.accumulate(_one_hot(slot_at, live, words), axis=1)
    rr, tt = np.nonzero(is_start[:, :-1] & is_end[:, 1:])
    masks = active[rr, tt] | base[rr]
    # the members whose windows end where the group's common arc ends
    end = at[rr, tt + 1]
    succ_t = [np.arange(len(rr))]
    succ_slot = [slot_at[rr, tt + 1]]
    run = np.arange(len(rr))
    for step in range(2, at.shape[1]):
        run = run[tt[run] + step < at.shape[1]]
        nxt = tt[run] + step
        run = run[is_end[rr[run], nxt] & (at[rr[run], nxt] == end[run])]
        if not len(run):
            break
        succ_t.append(run)
        succ_slot.append(slot_at[rr[run], tt[run] + step])
    pick, cluster_of = _maximal_groups(n_rows, rr, masks)
    succ_t = np.concatenate(succ_t)
    sel = cluster_of[succ_t] >= 0
    return rr[pick], masks[pick], cluster_of[succ_t[sel]], np.concatenate(succ_slot)[sel]


def _maximal_groups(n_rows: int, row: np.ndarray, masks: np.ndarray):
    """The distinct inclusion-maximal masks of each row.

    Returns the index of one group per kept mask and, per group, the
    index of its kept mask in that list (-1 when the mask is dropped).
    """
    words = masks.shape[1]
    if words == 1:
        key = masks[:, 0]
    else:
        key = np.unique(masks, axis=0, return_inverse=True)[1].ravel().astype(np.uint64) + 1
    # equal masks of a row become neighbours in a row-wise sort
    count = np.bincount(row, minlength=n_rows)
    col = np.arange(len(row)) - (np.cumsum(count) - count)[row]
    width = max(int(count.max(initial=0)), 1)
    keys = np.zeros((n_rows, width), np.uint64)
    keys[row, col] = key
    which = np.full((n_rows, width), -1)
    which[row, col] = np.arange(len(row))
    order = np.argsort(keys, axis=1)
    keys = np.take_along_axis(keys, order, axis=1)
    which = np.take_along_axis(which, order, axis=1).ravel()
    first = keys != 0
    first[:, 1:] &= keys[:, 1:] != keys[:, :-1]
    first = first.ravel()
    uid = np.empty(len(row), np.int64)
    uid[which[which >= 0]] = (np.cumsum(first) - 1)[which >= 0]
    ufirst = np.flatnonzero(first)
    urow = ufirst // width
    umask = masks[which[ufirst]]
    # subset tests between every two distinct masks of one row
    size = np.bincount(urow, minlength=n_rows)
    g = size[urow]
    a = np.repeat(np.arange(len(urow)), g)
    b = np.repeat((np.cumsum(size) - size)[urow] - (np.cumsum(g) - g), g) + np.arange(len(a))
    inner = np.all(umask[a] & umask[b] == umask[a], axis=1) & (a != b)
    keep = np.ones(len(urow), bool)
    keep[a[inner]] = False
    new_id = np.where(keep, np.cumsum(keep) - 1, -1)
    return which[ufirst[keep]], new_id[uid]


def local_member_families(nbhd: Neighbours, r: float, min_size: int = 1) -> LocalFamilies:
    """All maximal sets coverable by a radius-r circle through each point.

    nbhd is the disk join at radius 2r (range_query_disk with center None).
    Every point whose neighbourhood holds at least min_size points (itself
    included) is a reference.  Each other neighbour u at distance d_u
    contributes the angular window of half-width acos(d_u / 2r) around its
    bearing from the reference, and all references are swept
    at once as the module docstring describes.  Points within DEFAULT_EPS
    of the reference join every group.  Backs local_spatial_clusters and
    global_spatial_clusters.
    """
    counts = np.diff(nbhd.offsets)
    active = counts >= max(min_size, 1)
    sweep = _Sweep(nbhd, r, active)
    swept = np.flatnonzero(active & (sweep.m > 0))
    parts, tied = sweep.run(swept, exact=False)
    if len(tied):
        sweep.exact(np.flatnonzero(np.isin(sweep.row, tied)))
        parts += sweep.run(tied, exact=True)[0]
    # references without windows: the reference and its coincident points
    lone = np.flatnonzero(active & (sweep.m == 0))
    empty = np.zeros(0, np.int64)
    parts.append((lone, counts[lone], nbhd.nbrs[spans(nbhd.offsets[lone], counts[lone])], empty, empty))
    refs = np.concatenate([p[0] for p in parts])
    sizes = np.concatenate([p[1] for p in parts])
    shift = np.cumsum([0] + [len(p[0]) for p in parts])
    offsets = np.zeros(len(refs) + 1, np.int64)
    np.cumsum(sizes, out=offsets[1:])
    return LocalFamilies(
        nbhd,
        refs,
        offsets,
        np.concatenate([p[2] for p in parts]),
        np.concatenate([p[3] + shift[i] for i, p in enumerate(parts)]),
        np.concatenate([p[4] for p in parts]),
    )


def local_spatial_clusters(
    v: GeoPoint,
    candidates: Iterable[GeoPoint],
    r: float,
) -> list[SpatialCluster]:
    """All maximal sets coverable by a radius-r circle through v.

    Every returned cluster contains v; no cluster is a subset of another.
    Candidates coincident with v are enclosed by every such circle and so
    join every cluster.  The candidates and v are swept together, as the
    global stage sweeps every point, and v's families are kept.
    """
    pts = [v] + [u for u in candidates if u.id != v.id]
    for u in pts[1:]:
        dist = euclidean_distance(v, u)
        if dist > 2 * r + DEFAULT_EPS:
            raise TooFar(f"point {u.id} is {dist:.6g} away from {v.id}, beyond 2r = {2 * r:.6g}")
    nbhd = range_query_disk(build_grid(pts, 2 * r), None, 2 * r)
    fam = local_member_families(nbhd, r)
    # v is the grid's first point: its cell number c has nbhd.order[c] == 0
    clusters = [
        SpatialCluster(tuple(nbhd.ids[fam.members[a:b]].tolist()), v.id, ClusterKind.EXACT_CIRCLE)
        for c, a, b in zip(fam.refs.tolist(), fam.offsets[:-1].tolist(), fam.offsets[1:].tolist())
        if nbhd.order[c] == 0
    ]
    return sorted(clusters, key=lambda c: c.members)
