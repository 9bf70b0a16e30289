"""Synthetic point clouds with controlled size and density.

Randomness comes from numpy's Philox counter-based generator (Philox4x32
with 10 rounds), seeded directly from the spec, so output is reproducible
across platforms and processes.  Density is points per unit area: n points
are placed in a square of side sqrt(n / density).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import GeoPoint, GeoSocError


class InvalidSpec(GeoSocError):
    """Generator parameters out of range."""


class Distribution(enum.Enum):
    UNIFORM = "uniform"
    GAUSSIAN = "gaussian"


@dataclass(frozen=True)
class GenSpec:
    n: int
    density: float
    distribution: Distribution = Distribution.UNIFORM
    n_centers: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise InvalidSpec("n must be >= 1")
        if not (math.isfinite(self.density) and self.density > 0):
            raise InvalidSpec("density must be positive and finite")
        if self.n_centers < 1:
            raise InvalidSpec("n_centers must be >= 1")

    @property
    def side(self) -> float:
        return math.sqrt(self.n / self.density)


def generate(spec: GenSpec) -> list[GeoPoint]:
    """Exactly n points in [0, side]^2, ids 0..n-1, deterministic per seed.

    Uniform draws are i.i.d. over the square.  Gaussian draws come from an
    equal mixture of n_centers isotropic Gaussians with centers uniform in
    the square and sigma = side / (4 * sqrt(n_centers)); out-of-square
    draws are resampled around the same center.
    """
    rng = np.random.Generator(np.random.Philox(spec.seed))
    side = spec.side
    if spec.distribution is Distribution.UNIFORM:
        coords = rng.uniform(0.0, side, size=(spec.n, 2))
    else:
        centers = rng.uniform(0.0, side, size=(spec.n_centers, 2))
        sigma = side / (4.0 * math.sqrt(spec.n_centers))
        which = rng.integers(0, spec.n_centers, size=spec.n)
        coords = centers[which] + rng.normal(0.0, sigma, size=(spec.n, 2))
        rounds = 0
        while True:
            bad = np.flatnonzero(((coords < 0.0) | (coords > side)).any(axis=1))
            if bad.size == 0:
                break
            rounds += 1
            if rounds > 200:  # resampling stalls only in pathological specs
                coords[bad] = np.clip(coords[bad], 0.0, side)
                break
            coords[bad] = centers[which[bad]] + rng.normal(0.0, sigma, size=(bad.size, 2))
    return [GeoPoint(i, float(x), float(y)) for i, (x, y) in enumerate(coords)]


def attach_social_edges(
    points: Sequence[GeoPoint],
    m_nearest: int = 3,
    n_random: int = 0,
    seed: int = 0,
) -> list[tuple[int, int]]:
    """Seed-deterministic synthetic friendships for full-framework runs.

    Each vertex links to its m nearest spatial neighbors, plus up to
    n_random uniformly drawn long-range pairs (self-loops and duplicates
    are dropped, so fewer may result).  This wiring is invented plumbing
    for benchmarks, not part of any real dataset.
    """
    if m_nearest < 0 or n_random < 0:
        raise ValueError(f"m_nearest ({m_nearest}) and n_random ({n_random}) must be non-negative")
    from scipy.spatial import cKDTree

    pts = list(points)
    n = len(pts)
    edges: set[tuple[int, int]] = set()
    if n > 1 and m_nearest > 0:
        coords = np.array([(p.x, p.y) for p in pts])
        tree = cKDTree(coords)
        k = min(m_nearest + 1, n)
        _, nbrs = tree.query(coords, k=k)
        nbrs = np.atleast_2d(nbrs)
        for i, row in enumerate(nbrs):
            for j in row:
                j = int(j)
                if j == i:
                    continue
                u, v = pts[i].id, pts[j].id
                edges.add((min(u, v), max(u, v)))
    if n > 1 and n_random > 0:
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, 0x10E5])))
        pairs = rng.integers(0, n, size=(n_random, 2))
        for i, j in pairs:
            if i == j:
                continue
            u, v = pts[int(i)].id, pts[int(j)].id
            edges.add((min(u, v), max(u, v)))
    return sorted(edges)
