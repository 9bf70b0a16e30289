import json

import pytest

from geosoc import bench
from geosoc.framework import DetectionConfig, detect_mccs
from geosoc.io import load_edges, load_locations
from geosoc.model import Params, SocialKind, build_network
from helpers import run_geosoc as run_cli


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    base = tmp_path_factory.mktemp("data")
    loc = base / "points.tsv"
    edg = base / "edges.tsv"
    res = run_cli(
        "gen", "--n", 120, "--density", 0.008, "--seed", 7,
        "--out", loc, "--edges-out", edg, "--m-nearest", 3, "--extra-edges", 30,
    )
    assert res.returncode == 0, res.stderr
    return loc, edg


def test_gen_output_is_loadable(dataset):
    loc, edg = dataset
    points = load_locations(loc)
    assert len(points) == 120
    edges = load_edges(edg)
    assert edges
    build_network(points, edges)


def test_gen_deterministic(tmp_path, dataset):
    loc, _ = dataset
    again = tmp_path / "again.tsv"
    res = run_cli("gen", "--n", 120, "--density", 0.008, "--seed", 7, "--out", again)
    assert res.returncode == 0
    assert again.read_bytes() == loc.read_bytes()


def test_spatial_command(tmp_path, dataset):
    loc, _ = dataset
    out = tmp_path / "clusters.jsonl"
    res = run_cli("spatial", "--locations", loc, "--d", 30, "--algo", "approx", "--out", out)
    assert res.returncode == 0, res.stderr
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    assert lines
    assert all(obj["kind"] == "approx_square" for obj in lines)


def test_detect_matches_library(tmp_path, dataset):
    loc, edg = dataset
    out = tmp_path / "mccs.jsonl"
    res = run_cli(
        "detect", "--locations", loc, "--edges", edg,
        "--d", 30, "--k", 2, "--social", "core", "--out", out,
    )
    assert res.returncode == 0, res.stderr
    got = [tuple(json.loads(line)["members"]) for line in out.read_text().splitlines()]
    net = build_network(load_locations(loc), load_edges(edg))
    cfg = DetectionConfig(params=Params(d=30.0, k=2, social_kind=SocialKind.CORE))
    want = [c.members for c in detect_mccs(net, cfg)]
    assert got == want


def test_search_command(tmp_path, dataset):
    loc, edg = dataset
    out = tmp_path / "search.jsonl"
    res = run_cli(
        "search", "--locations", loc, "--edges", edg,
        "--d", 30, "--k", 2, "--query", 0, "--out", out,
    )
    assert res.returncode == 0, res.stderr
    for line in out.read_text().splitlines():
        assert 0 in json.loads(line)["members"]


def test_detect_missing_file_is_input_error(tmp_path):
    res = run_cli(
        "detect", "--locations", tmp_path / "nope.tsv", "--edges", tmp_path / "nope2.tsv",
        "--d", 30, "--k", 2, "--out", tmp_path / "o.jsonl",
    )
    assert res.returncode == 1
    assert "error" in res.stderr.lower()


def test_detect_malformed_input_is_input_error(tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("0\tx\ty\n", encoding="utf-8")
    edge = tmp_path / "e.tsv"
    edge.write_text("", encoding="utf-8")
    res = run_cli(
        "detect", "--locations", bad, "--edges", edge,
        "--d", 30, "--k", 2, "--out", tmp_path / "o.jsonl",
    )
    assert res.returncode == 1


def test_both_location_sources_rejected(tmp_path, dataset):
    loc, _ = dataset
    res = run_cli(
        "spatial", "--locations", loc, "--checkins", loc,
        "--d", 30, "--out", tmp_path / "o.jsonl",
    )
    assert res.returncode == 1


def test_checkins_pipeline(tmp_path):
    checkins = tmp_path / "checkins.tsv"
    checkins.write_text(
        "0\t2010-01-01T00:00:00Z\t30.2600\t-97.7400\t1\n"
        "1\t2010-01-01T00:00:00Z\t30.2601\t-97.7401\t2\n"
        "2\t2010-01-01T00:00:00Z\t30.9000\t-97.9000\t3\n",
        encoding="utf-8",
    )
    out = tmp_path / "clusters.jsonl"
    res = run_cli(
        "spatial", "--checkins", checkins, "--checkin-policy", "mean",
        "--d", 500, "--out", out,
    )
    assert res.returncode == 0, res.stderr
    got = {tuple(json.loads(line)["members"]) for line in out.read_text().splitlines()}
    assert got == {(0, 1), (2,)}


def test_bench_grid_rows(tmp_path):
    out = tmp_path / "bench.csv"
    res = run_cli(
        "bench", "--algos", "exact-r12,approx", "--n", "200,400",
        "--d", 30, "--seed", 1, "--out", out,
    )
    assert res.returncode == 0, res.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == "algo,dataset,n,density,d,k,seconds,comparisons,clusters,status"
    assert len(lines) == 1 + 4
    assert all(line.endswith("ok") for line in lines[1:])
    # comparison counts present for the exact algorithm only
    for line in lines[1:]:
        cells = line.split(",")
        if cells[0] == "exact-r12":
            assert cells[7] != ""
        else:
            assert cells[7] == ""


def test_bench_rule2_never_compares_more_than_rule1(tmp_path):
    # the pruning experiment: the rules change how many subset
    # comparisons the filter makes, never the clusters it keeps
    out = tmp_path / "bench.csv"
    res = run_cli(
        "bench", "--algos", "exact,exact-r1,exact-r12", "--n", "300,600",
        "--d", 30, "--seed", 2, "--out", out,
    )
    assert res.returncode == 0, res.stderr
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    by_n = {}
    for cells in rows:
        by_n.setdefault(cells[2], {})[cells[0]] = (int(cells[7]), int(cells[8]))
    assert sorted(by_n) == ["300", "600"]
    for n, got in by_n.items():
        (c0, k0), (c1, k1), (c12, k12) = got["exact"], got["exact-r1"], got["exact-r12"]
        assert k0 == k1 == k12, n
        assert c0 >= c1 >= c12, n


def test_bench_location_file_rows(tmp_path):
    loc = tmp_path / "pts.tsv"
    assert run_cli("gen", "--n", 400, "--seed", 5, "--out", loc).returncode == 0
    out = tmp_path / "bench.csv"
    res = run_cli(
        "bench", "--locations", loc, "--ratios", "0.5,1", "--d", "20,30", "--out", out,
    )
    assert res.returncode == 0, res.stderr
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [(r[0], r[2], r[4]) for r in rows] == [
        (algo, n, d) for algo in ("exact-r12", "approx") for n in ("200", "400") for d in ("20", "30")
    ]
    assert all(r[1] == "pts.tsv" and r[3] == "" and r[-1] == "ok" for r in rows)


@pytest.mark.parametrize("ratio", ["0", "-0.5", "1.5"])
def test_bench_rejects_a_ratio_outside_the_unit_interval(tmp_path, ratio):
    loc = tmp_path / "pts.tsv"
    loc.write_text("0\t0\t0\n1\t1\t1\n", encoding="utf-8")
    out = tmp_path / "bench.csv"
    res = run_cli("bench", "--locations", loc, f"--ratios={ratio}", "--d", 30, "--out", out)
    assert res.returncode == 1
    assert "ratio" in res.stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "command, option",
    [
        ("detect", "--precluster"),
        ("search", "--precluster"),
        ("spatial", "--threads=4"),
        ("detect", "--threads=4"),
        ("search", "--threads=4"),
        ("detect", "--clique-budget=10"),
        ("search", "--clique-budget=10"),
        ("bench", "--clique-budget=10"),
    ],
    ids=lambda value: value.lstrip("-").split("=")[0],
)
def test_deleted_option_is_rejected(tmp_path, dataset, command, option):
    loc, edg = dataset
    needed = {
        "spatial": ("--locations", loc, "--d", 30),
        "detect": ("--locations", loc, "--edges", edg, "--d", 30, "--k", 2),
        "search": ("--locations", loc, "--edges", edg, "--d", 30, "--k", 2, "--query", 0),
        "bench": ("--n", 50, "--algos", "approx", "--d", 30),
    }[command]
    out = tmp_path / "o.out"
    res = run_cli(command, *needed, option, "--out", out)
    assert res.returncode == 2
    assert option.split("=")[0] in res.stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "option, sweep",
    [
        ("--ratios", ("--n", 300, "--ratios", 0.5)),
        ("--n", ("--n", 50)),
        ("--densities", ("--densities", 0.5)),
        ("--distribution", ("--distribution", "gaussian")),
    ],
)
def test_bench_rejects_a_dimension_of_the_other_sweep(tmp_path, option, sweep):
    loc = tmp_path / "pts.tsv"
    loc.write_text("0\t0\t0\n1\t1\t1\n", encoding="utf-8")
    source = () if option == "--ratios" else ("--locations", loc)
    out = tmp_path / "bench.csv"
    res = run_cli("bench", *source, *sweep, "--algos", "approx", "--d", 30, "--out", out)
    assert res.returncode == 1
    assert option in res.stderr
    assert not out.exists()


def test_bench_timed_out_sample_reports_its_n(tmp_path):
    loc = tmp_path / "pts.tsv"
    assert run_cli("gen", "--n", 300, "--seed", 5, "--out", loc).returncode == 0
    out = tmp_path / "bench.csv"
    res = run_cli(
        "bench", "--locations", loc, "--ratios", 0.5, "--algos", "exact-r12",
        "--d", 30, "--timeout-s", 0.0001, "--out", out,
    )
    assert res.returncode == 2
    row = out.read_text().splitlines()[1].split(",")
    assert (row[2], row[-1]) == ("150", "timeout")


def test_bench_reads_a_location_file_once(tmp_path, monkeypatch):
    loc = tmp_path / "pts.tsv"
    assert run_cli("gen", "--n", 100, "--seed", 5, "--out", loc).returncode == 0
    calls = []

    def counted(path):
        calls.append(path)
        return load_locations(path)

    monkeypatch.setattr(bench, "load_locations", counted)
    cfg = bench.BenchConfig(
        algos=("exact-r12", "approx"), ds=(20.0, 30.0), ratios=(0.5, 1.0), locations=str(loc),
    )
    reports = bench.run_bench(cfg, tmp_path / "bench.csv")
    assert len(calls) == 1
    assert [(r.cell.algo, r.n, r.cell.d, r.status) for r in reports] == [
        (algo, n, d, "ok") for algo in cfg.algos for n in (50, 100) for d in cfg.ds
    ]


def test_bench_malformed_location_file_is_input_error(tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("0\tx\ty\n", encoding="utf-8")
    out = tmp_path / "bench.csv"
    res = run_cli(
        "bench", "--locations", bad, "--algos", "approx,exact", "--ratios", "0.5,1",
        "--d", "20,30", "--out", out,
    )
    assert res.returncode == 1
    assert f"{bad}:1:" in res.stderr
    assert "Traceback" not in res.stderr
    assert not out.exists()


def test_bench_error_row_reports_its_cause(tmp_path):
    # k = 0 passes the parser and fails in the child, when Params checks it
    out = tmp_path / "bench.csv"
    res = run_cli("bench", "--n", 50, "--k", 0, "--algos", "approx", "--d", 30, "--out", out)
    assert res.returncode == 1
    assert out.read_text().splitlines()[1].split(",")[2:] == [
        "50", "0.008", "30", "0", "0.000000", "", "", "error",
    ]
    assert "Traceback" in res.stderr and "ValueError" in res.stderr


def test_bench_timeout_row(tmp_path):
    out = tmp_path / "bench.csv"
    res = run_cli(
        "bench", "--algos", "exact", "--n", 30000, "--d", 30,
        "--timeout-s", 0.05, "--out", out,
    )
    assert res.returncode == 2
    row = out.read_text().splitlines()[1].split(",")
    assert row[-1] == "timeout"
    assert float(row[6]) == pytest.approx(0.05)


def test_validate_passes():
    res = run_cli("validate", "--instances", 4, "--n", 50, "--seed", 3)
    assert res.returncode == 0, res.stdout + res.stderr
    assert "FAIL" not in res.stdout
    assert res.stdout.count("PASS") == 4
