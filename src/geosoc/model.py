"""Core value types shared across the package.

Coordinates live in an abstract planar unit system (meters once a
geographic input has been projected).  Everything here is immutable after
construction and safe to share between threads.  A network's lazily built
caches (``positions``, ``point_map`` and ``grids``, which holds the one
``spatial_index`` grid that a search reads its balls from) are derived
only from its immutable fields, so building one never changes what the
network means.
"""

from __future__ import annotations

import enum
import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

if TYPE_CHECKING:
    from .spatial_index import GridIndex

DEFAULT_EPS = 1e-9


class GeoSocError(Exception):
    """Base class for all errors raised by this package."""


class DuplicateId(GeoSocError):
    """Two inputs claim the same vertex id."""


class UnknownVertex(GeoSocError):
    """An id does not belong to the network at hand."""


class SocialKind(enum.Enum):
    """Which social-cohesiveness engine a community was checked against."""

    CORE = "core"
    TRUSS = "truss"


class ClusterKind(enum.Enum):
    """Provenance of a spatial cluster."""

    EXACT_CIRCLE = "exact_circle"
    APPROX_SQUARE = "approx_square"
    ALL_PAIR = "all_pair"  # clique baseline: pairwise distances, no covering shape


@dataclass(frozen=True)
class GeoPoint:
    id: int
    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"point {self.id}: coordinates must be finite")


def euclidean_distance(a: GeoPoint, b: GeoPoint) -> float:
    """Planar Euclidean distance between two points."""
    return math.hypot(a.x - b.x, a.y - b.y)


@dataclass(frozen=True)
class Params:
    """Detection parameters; the covering radius r is always d/2."""

    d: float
    k: int = 1
    social_kind: SocialKind = SocialKind.CORE
    eps: float = DEFAULT_EPS

    def __post_init__(self) -> None:
        if not (math.isfinite(self.d) and self.d > 0):
            raise ValueError("distance threshold d must be positive and finite")
        if self.k < 1:
            raise ValueError("social constraint parameter k must be >= 1")
        if not (math.isfinite(self.eps) and self.eps >= 0):
            raise ValueError("eps must be >= 0 and finite")

    @property
    def r(self) -> float:
        return self.d / 2


def _check_members(members: tuple[int, ...]) -> None:
    if not members:
        raise ValueError("member set must be non-empty")
    for a, b in zip(members, members[1:]):
        if a >= b:
            raise ValueError("members must be strictly increasing")


@dataclass(frozen=True, slots=True)
class SpatialCluster:
    """A canonical (sorted, duplicate-free) set of co-located point ids."""

    members: tuple[int, ...]
    reference: int
    kind: ClusterKind

    def __post_init__(self) -> None:
        _check_members(self.members)
        if self.reference not in self.members:
            raise ValueError("reference point must be a member")

    @classmethod
    def from_members(cls, members: Iterable[int], reference: int, kind: ClusterKind) -> "SpatialCluster":
        return cls(tuple(sorted(set(members))), reference, kind)

    @classmethod
    def _canonical_many(
        cls, members: Sequence[tuple[int, ...]], references: Sequence[int], kind: ClusterKind
    ) -> "list[SpatialCluster]":
        """Build many clusters without the checks, for member tuples already
        strictly increasing and holding their references (bulk outputs,
        where the per-object checks would cost as much as the clustering)."""
        out = list(map(object.__new__, repeat(cls, len(members))))
        fill = object.__setattr__
        for name, values in (
            ("members", members),
            ("reference", references),
            ("kind", repeat(kind, len(out))),
        ):
            deque(map(fill, out, repeat(name), values), maxlen=0)
        return out


@dataclass(frozen=True)
class Community:
    """A vertex set satisfying a social constraint, in canonical order."""

    members: tuple[int, ...]
    k: int
    social_kind: SocialKind

    def __post_init__(self) -> None:
        _check_members(self.members)
        low = self.k + 1 if self.social_kind is SocialKind.CORE else self.k
        if len(self.members) < low:
            raise ValueError(
                f"{self.social_kind.value} community with k={self.k} "
                f"needs at least {low} members"
            )

    @classmethod
    def from_members(cls, members: Iterable[int], k: int, social_kind: SocialKind) -> "Community":
        return cls(tuple(sorted(set(members))), k, social_kind)


@dataclass(frozen=True)
class GeoSocialNetwork:
    """Points plus a symmetric, loop-free adjacency over their ids."""

    points: tuple[GeoPoint, ...]
    adjacency: dict[int, tuple[int, ...]]

    @cached_property
    def positions(self) -> dict[int, int]:
        """Id -> index of the point in ``points``."""
        return {p.id: i for i, p in enumerate(self.points)}

    @cached_property
    def point_map(self) -> Mapping[int, GeoPoint]:
        """Id -> point, read-only."""
        return MappingProxyType({p.id: p for p in self.points})

    @cached_property
    def grids(self) -> dict[float, GridIndex]:
        """The grid over ``points`` that the last search built, keyed by its
        cell size (a search at another size replaces it); two searches
        racing may both build one grid, and either copy serves."""
        return {}

    @property
    def ids(self) -> tuple[int, ...]:
        return tuple(p.id for p in self.points)

    def point(self, pid: int) -> GeoPoint:
        try:
            return self.points[self.positions[pid]]
        except KeyError:
            raise UnknownVertex(f"vertex {pid} is not in the network") from None

    def neighbors(self, pid: int) -> tuple[int, ...]:
        try:
            return self.adjacency[pid]
        except KeyError:
            raise UnknownVertex(f"vertex {pid} is not in the network") from None

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u, ns in sorted(self.adjacency.items()) for v in ns if u < v]

    def subnetwork(self, ids: Iterable[int]) -> "GeoSocialNetwork":
        """The points with these ids, in this network's order, and the edges
        among them; costs O(|ids| log |ids|) plus their degrees."""
        keep = set(ids)
        try:
            at = sorted(map(self.positions.__getitem__, keep))
        except KeyError as exc:
            raise UnknownVertex(f"vertex {exc.args[0]} is not in the network") from None
        pts = tuple(map(self.points.__getitem__, at))
        adj = {p.id: tuple([v for v in self.adjacency[p.id] if v in keep]) for p in pts}
        return GeoSocialNetwork(pts, adj)


def build_network(
    points: Sequence[GeoPoint], edges: Iterable[tuple[int, int]]
) -> GeoSocialNetwork:
    """Validate and canonicalise a network.

    Self-loops and duplicate edges are dropped, adjacency is symmetrised,
    and edges naming unknown vertices are rejected.
    """
    pts = tuple(points)
    seen: set[int] = set()
    for p in pts:
        if p.id in seen:
            raise DuplicateId(f"point id {p.id} appears twice")
        seen.add(p.id)
    adj: dict[int, set[int]] = {p.id: set() for p in pts}
    for u, v in edges:
        if u not in adj or v not in adj:
            missing = u if u not in adj else v
            raise UnknownVertex(f"edge ({u}, {v}) references unknown vertex {missing}")
        if u == v:
            continue
        adj[u].add(v)
        adj[v].add(u)
    return GeoSocialNetwork(pts, {i: tuple(sorted(ns)) for i, ns in adj.items()})

