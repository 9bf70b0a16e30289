"""Seeded input generation for the benchmark workloads.

The program under test only ever sees the TSV files written here; it
ingests them through its own loaders.  Generation is never timed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree

from geosoc.datagen import Distribution, GenSpec, attach_social_edges, generate
from geosoc.model import GeoPoint

ZIPF_EXPONENT = 2.0
ZIPF_CAP = 32
N_CENTERS = 10
# Gaussian center layout: the centers datagen draws for seed 1.  Fixing them
# keeps the workload's cost steady across seeds (random layouts that pile
# centers together cost up to twice as much); the seed still draws every
# point and every friendship.
LAYOUT_SEED = 1


@dataclass(frozen=True)
class Inputs:
    locations: Path
    edges: Path
    ids: np.ndarray  # point ids, in file order
    xs: np.ndarray
    ys: np.ndarray
    adjacency: dict[int, set[int]]  # benchmark's own copy, used by the checks


def heavy_tailed_edges(xs: np.ndarray, ys: np.ndarray, ids: np.ndarray, seed: int):
    """Each vertex links to its m_i nearest neighbours, m_i ~ Zipf(2.0) capped at 32.

    Unlike a fixed m, this spreads core numbers over a range, so core
    pruning in the social layer has both prunable and surviving vertices.
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, 0x50C1A1])))
    m = np.minimum(rng.zipf(ZIPF_EXPONENT, size=len(ids)), ZIPF_CAP)
    coords = np.column_stack([xs, ys])
    _, nbrs = cKDTree(coords).query(coords, k=ZIPF_CAP + 1)
    edges: set[tuple[int, int]] = set()
    for i, row in enumerate(nbrs):
        for j in [j for j in row if j != i][: m[i]]:
            u, v = int(ids[i]), int(ids[j])
            edges.add((u, v) if u < v else (v, u))
    return sorted(edges)


def gaussian_points(n: int, density: float, seed: int) -> list[GeoPoint]:
    """n points, n / N_CENTERS around each fixed center, sigma as in datagen.

    Out-of-square draws are redrawn around the same center.
    """
    side = math.sqrt(n / density)
    centers = np.random.Generator(np.random.Philox(LAYOUT_SEED)).uniform(0.0, side, size=(N_CENTERS, 2))
    sigma = side / (4.0 * math.sqrt(N_CENTERS))
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, 0x6A055])))
    which = np.arange(n) % N_CENTERS
    coords = centers[which] + rng.normal(0.0, sigma, size=(n, 2))
    while True:
        bad = np.flatnonzero(((coords < 0.0) | (coords > side)).any(axis=1))
        if bad.size == 0:
            break
        coords[bad] = centers[which[bad]] + rng.normal(0.0, sigma, size=(bad.size, 2))
    return [GeoPoint(i, float(x), float(y)) for i, (x, y) in enumerate(coords)]


def make_inputs(
    out_dir: Path, n: int, density: float, distribution: Distribution, wiring: str, seed: int
) -> Inputs:
    """Generate points and friendships from the seed and write them as TSV."""
    if distribution is Distribution.UNIFORM:
        points = generate(GenSpec(n, density, distribution, seed=seed))
    else:
        points = gaussian_points(n, density, seed)
    ids = np.array([p.id for p in points], dtype=np.int64)
    xs = np.array([p.x for p in points], dtype=np.float64)
    ys = np.array([p.y for p in points], dtype=np.float64)
    if wiring == "nearest3":
        edges = attach_social_edges(points, m_nearest=3, seed=seed)
    elif wiring == "zipf":
        edges = heavy_tailed_edges(xs, ys, ids, seed)
    else:
        raise ValueError(f"unknown wiring {wiring!r}")

    out_dir.mkdir(parents=True, exist_ok=True)
    loc_path = out_dir / "locations.tsv"
    edge_path = out_dir / "edges.tsv"
    with open(loc_path, "w", encoding="utf-8") as fh:
        fh.write("# id\tx\ty\n")
        fh.writelines(f"{p.id}\t{p.x:.17g}\t{p.y:.17g}\n" for p in points)
    with open(edge_path, "w", encoding="utf-8") as fh:
        fh.write("# u\tv\n")
        fh.writelines(f"{u}\t{v}\n" for u, v in edges)

    adjacency: dict[int, set[int]] = {int(i): set() for i in ids}
    for u, v in edges:
        adjacency[u].add(v)
        adjacency[v].add(u)
    return Inputs(loc_path, edge_path, ids, xs, ys, adjacency)


def core_histogram(adjacency: dict[int, set[int]]) -> dict[int, int]:
    """Vertices per core number, by plain min-degree peeling (own code)."""
    degree = {v: len(ns) for v, ns in adjacency.items()}
    buckets: dict[int, set[int]] = {}
    for v, dv in degree.items():
        buckets.setdefault(dv, set()).add(v)
    core: dict[int, int] = {}
    level = 0
    while len(core) < len(degree):
        dv = min(b for b, vs in buckets.items() if vs)
        v = buckets[dv].pop()
        level = max(level, dv)
        core[v] = level
        for u in adjacency[v]:
            if u not in core:
                du = degree[u]
                buckets[du].discard(u)
                degree[u] = du - 1
                buckets.setdefault(du - 1, set()).add(u)
    hist: dict[int, int] = {}
    for c in core.values():
        hist[c] = hist.get(c, 0) + 1
    return dict(sorted(hist.items()))
