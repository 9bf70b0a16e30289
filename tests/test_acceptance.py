"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line so the gate can be read off a plain
`pytest -s` run.  Tolerances are pinned here, not configurable.
"""

import functools
import itertools
import math
import time

import numpy as np
import pytest

from geosoc.approx import find_gasc
from geosoc.baseline import oracle_gasc, oracle_gsc, oracle_lsc
from geosoc.bench import BenchConfig, run_bench
from geosoc.datagen import Distribution, GenSpec, generate
from geosoc.framework import DetectionConfig, detect_mccs, find_global_mcc
from geosoc.gsc import ComparisonStats, global_spatial_clusters
from geosoc.model import Community, GeoPoint, Params, SocialKind, build_network
from geosoc.social import k_core_communities, k_truss_edges
from geosoc.sweep_exact import local_spatial_clusters
from helpers import (
    brute_core_family,
    brute_mcc_family,
    core_numbers,
    families,
    random_network,
    run_geosoc,
)

SQRT2 = math.sqrt(2)


def criterion(label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {label}: FAIL", flush=True)
                raise
            print(f"\nACCEPTANCE {label}: PASS", flush=True)

        return wrapper

    return decorate


def _instance(seed: int, max_n: int = 200):
    n = 20 + (seed * 83) % (max_n - 19)
    d = [5.0, 15.0, 30.0][seed % 3]
    dist = Distribution.GAUSSIAN if (seed // 3) % 2 else Distribution.UNIFORM
    return generate(GenSpec(n=n, density=0.008, distribution=dist, seed=seed)), d


@criterion("1 exact clustering equals candidate-circle enumeration (200 instances)")
def test_criterion_1_exact_oracle_equivalence():
    start = time.perf_counter()
    for seed in range(200):
        points, d = _instance(seed)
        got = families(global_spatial_clusters(points, d))
        want = families(oracle_gsc(points, d))
        assert got == want, f"seed {seed}, d {d}"
    elapsed = time.perf_counter() - start
    assert elapsed < 300, f"took {elapsed:.0f}s, budget is 300s"


@criterion("2 local sweep equals direct angle enumeration (500 instances)")
def test_criterion_2_local_oracle_equivalence():
    rng = np.random.default_rng(2024)
    v = GeoPoint(0, 0.0, 0.0)
    for trial in range(470):
        r = float(rng.uniform(0.3, 25))
        m = int(rng.integers(0, 31))
        cands = []
        for i in range(m):
            ang = float(rng.uniform(-math.pi, math.pi))
            rad = float(rng.uniform(0, 2 * r))
            cands.append(GeoPoint(i + 1, rad * math.cos(ang), rad * math.sin(ang)))
        got = families(local_spatial_clusters(v, cands, r))
        assert got == families(oracle_lsc(v, cands, r)), f"trial {trial}"
    # constructed coverage of the angle seam: tight blobs at bearing pi,
    # zero-width windows on the seam, and mixed distractors
    for trial in range(30):
        r = 1.0 + trial / 7
        blob = [
            GeoPoint(
                i + 1,
                1.8 * r * math.cos(math.pi + t),
                1.8 * r * math.sin(math.pi + t),
            )
            for i, t in enumerate(np.linspace(-0.12, 0.12, 3 + trial % 4))
        ]
        extra = [
            GeoPoint(50, 2 * r, 0.0),
            GeoPoint(51, 0.0, 1.2 * r),
            GeoPoint(52, -2 * r, 0.0),
        ]
        cands = blob + extra[: trial % 4]
        got = families(local_spatial_clusters(v, cands, r))
        assert got == families(oracle_lsc(v, cands, r)), f"seam trial {trial}"
        assert any(set(b.id for b in blob) <= set(m) for m in got)


@criterion("3 prune levels agree and strictly cut comparisons (100 instances)")
def test_criterion_3_pruning_soundness():
    # the outputs need no cross-check: the prune levels share one filter
    # run, and test_bulk_comparison_counts_equal_the_sequential_filter
    # checks each level's count and output against the sequential filter
    strict_rule2 = 0
    strict_rule1 = 0
    total = 100
    for seed in range(total):
        n = 100 + (seed * 37) % 121
        points = generate(
            GenSpec(n=n, density=0.008, distribution=Distribution.UNIFORM, seed=1000 + seed)
        )
        stats = ComparisonStats()
        global_spatial_clusters(points, 30.0, stats_out=stats)
        assert stats.comparisons <= stats.rule1 <= stats.unpruned, f"seed {seed}: {stats}"
        strict_rule1 += stats.rule1 < stats.unpruned
        strict_rule2 += stats.comparisons < stats.rule1
    assert strict_rule1 >= 0.9 * total, f"rule1 strict on {strict_rule1}/{total}"
    assert strict_rule2 >= 0.9 * total, f"rule2 strict on {strict_rule2}/{total}"


@criterion("4 square relaxation keeps its distance guarantees (200 instances)")
def test_criterion_4_approximation_guarantees():
    tol = 1e-9
    for seed in range(200):
        points, d = _instance(seed)
        pmap = {p.id: p for p in points}
        squares = find_gasc(points, d)
        square_sets = [frozenset(c.members) for c in squares]
        for c in squares:
            members = [pmap[i] for i in c.members]
            xs = [q.x for q in members]
            ys = [q.y for q in members]
            assert max(xs) - min(xs) <= d + tol
            assert max(ys) - min(ys) <= d + tol
            diameter = max(
                (math.hypot(a.x - b.x, a.y - b.y) for a in members for b in members),
                default=0.0,
            )
            assert diameter <= SQRT2 * d + tol
        for c in oracle_gsc(points, d):
            assert any(frozenset(c.members) <= s for s in square_sets), f"seed {seed}"
        wide = [frozenset(c.members) for c in oracle_gsc(points, SQRT2 * d)]
        for s in square_sets:
            assert any(s <= w for w in wide), f"seed {seed}"


@criterion("5 square sweep equals anchored-square enumeration (200 instances)")
def test_criterion_5_square_oracle_equivalence():
    for seed in range(200):
        points, d = _instance(seed + 300)
        assert families(find_gasc(points, d)) == families(oracle_gasc(points, d)), (
            f"seed {seed}"
        )


def _graph_from_bits(n: int, bits: int):
    pairs = list(itertools.combinations(range(n), 2))
    edges = [e for i, e in enumerate(pairs) if bits >> i & 1]
    return build_network([GeoPoint(i, 0.0, float(i)) for i in range(n)], edges)


@criterion("6 social engines match exhaustive search and nest correctly")
def test_criterion_6_social_correctness():
    checked = 0
    # systematic: every graph on 4 and on 5 vertices
    for n in (4, 5):
        n_pairs = n * (n - 1) // 2
        for bits in range(1 << n_pairs):
            g = _graph_from_bits(n, bits)
            adj = {v: list(g.adjacency[v]) for v in g.ids}
            for k in (1, 2, 3):
                assert families(k_core_communities(g, k)) == brute_core_family(adj, k)
            checked += 1
    # sampled: random graphs on 6..8 vertices, deterministic seeds
    rng = np.random.default_rng(606)
    for n in (6, 7, 8):
        n_pairs = n * (n - 1) // 2
        for _ in range(3000):
            bits = int(rng.integers(0, 1 << n_pairs))
            g = _graph_from_bits(n, bits)
            adj = {v: list(g.adjacency[v]) for v in g.ids}
            for k in (1, 2, 3):
                assert families(k_core_communities(g, k)) == brute_core_family(adj, k)
            checked += 1
    assert checked >= 10_000, checked

    # truss nesting and core cross-checks on larger random graphs
    rng = np.random.default_rng(607)
    for _ in range(100):
        n = int(rng.integers(10, 501))
        m = int(rng.integers(n, 4 * n))
        edges = {
            (min(u, v), max(u, v))
            for u, v in rng.integers(0, n, size=(m, 2))
            if u != v
        }
        g = build_network([GeoPoint(i, 0.0, float(i)) for i in range(n)], sorted(edges))
        cores = core_numbers(g)
        for k in (1, 2, 3):
            union = set()
            for c in k_core_communities(g, k):
                union |= set(c.members)
            assert union == {v for v, cv in cores.items() if cv >= k}
        prev = k_truss_edges(g, 2)
        for k in (3, 4, 5):
            cur = k_truss_edges(g, k)
            assert cur <= prev
            prev = cur


@criterion("7 end-to-end detection equals the brute-force pipeline (100 instances)")
def test_criterion_7_end_to_end():
    for seed in range(100):
        n = 30 + (seed * 13) % 71
        net = random_network(seed, n, density=0.008)
        d = 20.0
        k = 2 if seed % 2 else 3
        got = families(detect_mccs(net, DetectionConfig(params=Params(d=d, k=k))))
        assert got == brute_mcc_family(net, d, k), f"seed {seed}, k {k}"

    # the canonical three-set maximality filter case: two maximal
    # communities plus a strict subset of one of them
    triple = [
        Community.from_members((0, 1, 2, 3), 2, SocialKind.CORE),
        Community.from_members((8, 9, 10, 11), 2, SocialKind.CORE),
        Community.from_members((9, 10, 11), 2, SocialKind.CORE),
    ]
    assert families(find_global_mcc(triple)) == {(0, 1, 2, 3), (8, 9, 10, 11)}


@pytest.fixture(scope="module")
def bench_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("bench")


@pytest.fixture(scope="module")
def exact_baseline_time(bench_dir):
    cfg = BenchConfig(algos=("exact-r12",), ds=(30.0,), ns=(20_000, 100_000), seed=1, timeout_s=600.0)
    rows = run_bench(cfg, bench_dir / "exact.csv")
    return {row.n: row for row in rows}


@criterion("8a square sweep scales sub-quadratically from 1e4 to 1e5 points")
def test_criterion_8a_approx_scaling(bench_dir):
    cfg = BenchConfig(algos=("approx",), ds=(30.0,), ns=(10_000, 100_000), seed=1, timeout_s=900.0)
    rows = {row.n: row for row in run_bench(cfg, bench_dir / "approx.csv")}
    assert rows[10_000].status == "ok" and rows[100_000].status == "ok"
    ratio = rows[100_000].seconds / rows[10_000].seconds
    assert ratio < 15, f"10x points took {ratio:.1f}x time"


@criterion("8b exact clustering finishes 1e5 points inside 10 minutes")
def test_criterion_8b_exact_within_budget(exact_baseline_time):
    row = exact_baseline_time[100_000]
    assert row.status == "ok", row
    assert row.seconds <= 600, f"{row.seconds:.0f}s"


@criterion("8c clique baseline is at least 5x slower at 2e4 points (or over budget)")
def test_criterion_8c_clique_gap(bench_dir, exact_baseline_time):
    exact = exact_baseline_time[20_000]
    assert exact.status == "ok"
    cap = max(5 * exact.seconds, 30.0)
    cfg = BenchConfig(algos=("clique",), ds=(30.0,), ns=(20_000,), seed=1, timeout_s=cap)
    (row,) = run_bench(cfg, bench_dir / "clique.csv")
    slower_5x = row.status == "ok" and row.seconds >= 5 * exact.seconds
    over_budget = row.status in ("timeout", "budget")
    assert slower_5x or over_budget, (
        f"clique finished in {row.seconds:.1f}s vs exact-r12 {exact.seconds:.1f}s "
        f"({row.seconds / exact.seconds:.2f}x, needed 5x)"
    )


def _cli(*args):
    proc = run_geosoc(*args)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _mask_seconds(csv_text: str) -> str:
    lines = csv_text.splitlines()
    out = [lines[0]]
    for line in lines[1:]:
        cells = line.split(",")
        cells[6] = "X"
        out.append(",".join(cells))
    return "\n".join(out)


@criterion("9 fixed seeds give byte-identical outputs across runs")
def test_criterion_9_determinism(tmp_path):
    loc = tmp_path / "pts.tsv"
    edg = tmp_path / "edges.tsv"
    gen_args = ("gen", "--n", 300, "--density", 0.008, "--distribution", "gaussian",
                "--seed", 11, "--out", loc, "--edges-out", edg, "--extra-edges", 60)
    _cli(*gen_args)
    first_loc, first_edg = loc.read_bytes(), edg.read_bytes()
    for _ in range(2):
        _cli(*gen_args)
        assert loc.read_bytes() == first_loc
        assert edg.read_bytes() == first_edg

    outputs = {}
    for name, extra in (
        ("spatial", ("spatial", "--locations", loc, "--d", 30, "--algo", "exact-r12")),
        ("detect", ("detect", "--locations", loc, "--edges", edg, "--d", 30, "--k", 2)),
        ("search", ("search", "--locations", loc, "--edges", edg, "--d", 30, "--k", 2,
                    "--query", 0)),
    ):
        blobs = []
        for run in range(4):
            out = tmp_path / f"{name}_{run}.out"
            _cli(*extra, "--out", out)
            blobs.append(out.read_bytes())
        assert all(b == blobs[0] for b in blobs), f"{name} output varies"
        outputs[name] = blobs[0]
    assert outputs["detect"]  # the instance must actually produce communities

    # bench rows are deterministic apart from the wall-clock column
    bench_args = ("bench", "--algos", "exact-r12,approx", "--n", "300,600",
                  "--d", 30, "--seed", 11)
    runs = []
    for run in range(2):
        out = tmp_path / f"bench_{run}.csv"
        _cli(*bench_args, "--out", out)
        runs.append(_mask_seconds(out.read_text(encoding="utf-8")))
    assert runs[0] == runs[1]

    stdouts = {_cli("validate", "--instances", 3, "--n", 40, "--seed", 5) for _ in range(2)}
    assert len(stdouts) == 1
