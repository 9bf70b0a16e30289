"""Benchmark harness: one subprocess per grid cell with a wall-clock cap.

Each data set is generated or loaded in the parent before its cells run;
the forked children inherit its points and time the spatial algorithm
only.  A timed-out, failed or killed cell is reported in its CSV row and
never aborts the sweep.
"""

from __future__ import annotations

import multiprocessing as mp
import time
import traceback
from dataclasses import dataclass
from itertools import product
import numpy as np

from .baseline import CliqueBudgetExceeded
from .datagen import Distribution, GenSpec, generate
from .framework import DetectionConfig, SpatialAlgo, spatial_clusters
from .gsc import ComparisonStats
from .io import load_locations
from .model import GeoPoint, Params

CSV_HEADER = (
    "algo,dataset,n,density,d,k,seconds,comparisons_unpruned,comparisons_rule1,comparisons,clusters,status"
)

#: the longest wait ``Connection.poll`` takes: it waits in whole
#: milliseconds, passed to poll(2) as a C int
MAX_TIMEOUT_S = (2**31 - 1) / 1000


@dataclass(frozen=True)
class BenchCell:
    """One grid cell; n is the number of points it benchmarks."""

    algo: str
    dataset: str
    n: int
    density: float | None
    d: float
    k: int


@dataclass(frozen=True)
class RunReport:
    """A cell and what its child measured: wall seconds, subset comparisons
    at each prune level (exact mode), cluster count and cell status."""

    cell: BenchCell
    seconds: float
    comparisons: ComparisonStats | None
    clusters: int | None
    status: str

    @property
    def n(self) -> int:
        return self.cell.n

    def csv_row(self) -> str:
        c = self.cell
        density = "" if c.density is None else f"{c.density:g}"
        stats = self.comparisons
        comparisons = ",," if stats is None else f"{stats.unpruned},{stats.rule1},{stats.comparisons}"
        clusters = "" if self.clusters is None else str(self.clusters)
        return (
            f"{c.algo},{c.dataset},{c.n},{density},{c.d:g},{c.k},"
            f"{self.seconds:.6f},{comparisons},{clusters},{self.status}"
        )


@dataclass(frozen=True)
class BenchConfig:
    algos: tuple[str, ...]
    ds: tuple[float, ...]
    ns: tuple[int, ...] = ()
    densities: tuple[float, ...] = (0.008,)
    ratios: tuple[float, ...] = ()
    k: int = 1
    seed: int = 0
    distribution: Distribution = Distribution.UNIFORM
    locations: str | None = None
    timeout_s: float = 8000.0

    def __post_init__(self) -> None:
        labels = {a.value for a in SpatialAlgo}
        for algo in self.algos:
            if algo not in labels:
                raise ValueError(f"unknown algorithm label {algo!r}")
        if self.locations is None:
            if not self.ns:
                raise ValueError("synthetic sweeps need at least one n")
            if self.ratios:
                raise ValueError("--ratios goes with --locations only")
        elif self.ns:
            raise ValueError("--n goes with synthetic sweeps only, not with --locations")
        for ratio in self.ratios:
            if not 0.0 < ratio <= 1.0:
                raise ValueError(f"sample ratio {ratio:g} is outside (0, 1]")
        if not 0.0 < self.timeout_s <= MAX_TIMEOUT_S:
            raise ValueError(f"timeout {self.timeout_s} s is not in (0, {MAX_TIMEOUT_S}]")


def _sample_ratio(points: list[GeoPoint], ratio: float, seed: int) -> list[GeoPoint]:
    if ratio == 1.0:
        return points
    rng = np.random.Generator(np.random.Philox(seed))
    m = max(1, int(round(ratio * len(points))))
    idx = rng.choice(len(points), size=m, replace=False)
    return [points[i] for i in sorted(int(i) for i in idx)]


def _datasets(cfg: BenchConfig, located: list[GeoPoint] | None):
    """(dataset, density, points) in ns x densities order, or one per ratio
    of the location file's points; a location file has no density."""
    if located is not None:
        dataset = str(cfg.locations).rsplit("/", 1)[-1]
        for ratio in cfg.ratios or (1.0,):
            yield dataset, None, _sample_ratio(located, ratio, cfg.seed)
        return
    for n, density in product(cfg.ns, cfg.densities):
        spec = GenSpec(n, density, cfg.distribution, seed=cfg.seed)
        yield cfg.distribution.value, density, generate(spec)


def _child(points: list[GeoPoint], cell: BenchCell, conn) -> None:
    """Time the spatial stage on inherited points and send back
    (seconds, comparison stats, clusters, status)."""
    try:
        cfg = DetectionConfig(Params(cell.d, cell.k), SpatialAlgo(cell.algo))
        stats = ComparisonStats()
        start = time.perf_counter()
        clusters = spatial_clusters(points, cfg, stats_out=stats)
        seconds = time.perf_counter() - start
        exact = cfg.spatial_algo is SpatialAlgo.EXACT_RULE12
        conn.send((seconds, stats if exact else None, len(clusters), "ok"))
    except CliqueBudgetExceeded:
        conn.send((0.0, None, None, "budget"))
    except Exception:  # noqa: BLE001 - a cell failure must not kill the sweep
        traceback.print_exc()
        conn.send((0.0, None, None, "error"))
    finally:
        conn.close()


def run_bench(cfg: BenchConfig, out_path) -> list[RunReport]:
    """Run every cell, in algos x data sets x ds order, writing one CSV row
    per cell.  A location file is read once, before any cell runs."""
    # the disk queries import scipy.spatial on first use; importing it before
    # the cells fork keeps that import out of every cell's time
    import scipy.spatial  # noqa: F401

    located = None if cfg.locations is None else load_locations(cfg.locations)
    reports: list[RunReport] = []
    ctx = mp.get_context("fork")
    for algo in cfg.algos:
        for dataset, density, points in _datasets(cfg, located):
            for d in cfg.ds:
                cell = BenchCell(algo, dataset, len(points), density, d, cfg.k)
                parent_conn, child_conn = ctx.Pipe(duplex=False)
                proc = ctx.Process(target=_child, args=(points, cell, child_conn))
                proc.start()
                child_conn.close()
                if parent_conn.poll(cfg.timeout_s):
                    try:
                        measured = parent_conn.recv()
                    except EOFError:  # the child died without a word (a signal)
                        measured = (0.0, None, None, "error")
                else:
                    proc.terminate()
                    measured = (cfg.timeout_s, None, None, "timeout")
                proc.join()
                parent_conn.close()
                reports.append(RunReport(cell, *measured))
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(CSV_HEADER + "\n")
        for report in reports:
            fh.write(report.csv_row() + "\n")
    return reports
