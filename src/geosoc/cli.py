"""Command-line surface.

Subcommands: gen, spatial, detect, search, bench, validate.  Exit codes:
0 on success, 1 on input errors, 2 when the only failures were timeouts.
"""

from __future__ import annotations

import argparse
import sys

from .approx import find_gasc
from .baseline import oracle_gasc, oracle_gsc, oracle_lsc
from .bench import BenchConfig, run_bench
from .datagen import Distribution, GenSpec, attach_social_edges, generate
from .framework import (
    BOUND_OF,
    DetectionConfig,
    SpatialAlgo,
    detect_mccs,
    search_mccs,
    spatial_clusters,
)
from .gsc import global_spatial_clusters
from .io import (
    CheckinPolicy,
    load_checkins,
    load_edges,
    load_locations,
    write_clusters,
    write_communities,
    write_edges,
    write_locations,
)
from .model import GeoSocError, Params, SocialKind, build_network
from .sweep_exact import local_spatial_clusters


def _csv_list(cast):
    def parse(text: str):
        return tuple(cast(part) for part in text.split(",") if part)

    return parse


def _add_points_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--locations", help="TSV with id<TAB>x<TAB>y rows")
    sp.add_argument("--checkins", help="check-in file (user, timestamp, lat, lon, ...)")
    sp.add_argument(
        "--checkin-policy",
        choices=[p.value for p in CheckinPolicy],
        default="latest",
        help="one position per user: latest check-in or coordinate mean",
    )


def _load_points(args):
    if (args.locations is None) == (args.checkins is None):
        raise ValueError("exactly one of --locations / --checkins is required")
    if args.locations is not None:
        return load_locations(args.locations)
    return load_checkins(args.checkins, CheckinPolicy(args.checkin_policy))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geosoc",
        description="Co-located community detection over geo-social networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic location file")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--density", type=float, default=0.008)
    gen.add_argument("--distribution", choices=[d.value for d in Distribution], default="uniform")
    gen.add_argument("--n-centers", type=int, default=10)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.add_argument("--edges-out", help="also write synthetic friendships")
    gen.add_argument("--m-nearest", type=int, default=3)
    gen.add_argument("--extra-edges", type=int, default=0)
    gen.set_defaults(func=cmd_gen)

    spatial = sub.add_parser("spatial", help="spatial clusters only (no social stage)")
    _add_points_args(spatial)
    spatial.add_argument("--d", type=float, required=True)
    spatial.add_argument("--k", type=int, default=1)
    spatial.add_argument(
        "--algo",
        choices=[a.value for a in SpatialAlgo if a is not SpatialAlgo.CLIQUE_BASELINE],
        default="exact-r12",
    )
    spatial.add_argument("--out", required=True)
    spatial.set_defaults(func=cmd_spatial)

    for name, help_text in (
        ("detect", "detect all maximal co-located communities"),
        ("search", "communities for one query user"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        _add_points_args(cmd)
        cmd.add_argument("--edges", required=True, help="TSV with u<TAB>v rows")
        cmd.add_argument("--d", type=float, required=True)
        cmd.add_argument("--k", type=int, required=True)
        cmd.add_argument("--social", choices=[s.value for s in SocialKind], default="core")
        cmd.add_argument("--algo", choices=[a.value for a in SpatialAlgo], default="exact-r12")
        cmd.add_argument("--out", required=True)
        if name == "search":
            cmd.add_argument("--query", type=int, required=True)
            cmd.set_defaults(func=cmd_search)
        else:
            cmd.set_defaults(func=cmd_detect)

    bench = sub.add_parser("bench", help="timing sweep over a parameter grid")
    bench.add_argument("--algos", type=_csv_list(str), default=("exact-r12", "approx"),
                       help=f"comma list from {', '.join(a.value for a in SpatialAlgo)}")
    bench.add_argument("--n", type=_csv_list(int), default=(), dest="ns")
    bench.add_argument("--densities", type=_csv_list(float))
    bench.add_argument("--d", type=_csv_list(float), default=(30.0,), dest="ds")
    bench.add_argument("--ratios", type=_csv_list(float), default=())
    bench.add_argument("--k", type=int, default=1)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--distribution", choices=[d.value for d in Distribution])
    bench.add_argument("--locations", help="benchmark a real location file instead of synthetic data")
    bench.add_argument("--timeout-s", type=float, default=8000.0)
    bench.add_argument("--out", required=True)
    bench.set_defaults(func=cmd_bench)

    validate = sub.add_parser("validate", help="cross-check fast paths against brute force")
    validate.add_argument("--seed", type=int, default=0)
    validate.add_argument("--instances", type=int, default=10)
    validate.add_argument("--n", type=int, default=60)
    validate.add_argument("--d", type=float, default=30.0)
    validate.add_argument("--density", type=float, default=0.008)
    validate.set_defaults(func=cmd_validate)

    return parser


def cmd_gen(args) -> int:
    spec = GenSpec(
        n=args.n,
        density=args.density,
        distribution=Distribution(args.distribution),
        n_centers=args.n_centers,
        seed=args.seed,
    )
    points = generate(spec)
    if args.edges_out:
        edges = attach_social_edges(points, args.m_nearest, args.extra_edges, seed=args.seed)
        write_edges(edges, args.edges_out)
    write_locations(points, args.out)
    print(f"wrote {len(points)} points to {args.out}")
    return 0


def cmd_spatial(args) -> int:
    points = _load_points(args)
    params = Params(d=args.d, k=args.k)
    cfg = DetectionConfig(params=params, spatial_algo=SpatialAlgo(args.algo))
    clusters = spatial_clusters(points, cfg)
    write_clusters(clusters, {"algo": args.algo, "d": args.d}, args.out)
    print(f"{len(clusters)} spatial clusters -> {args.out}")
    return 0


def _run_detection(args, query: int | None) -> int:
    points = _load_points(args)
    edges = load_edges(args.edges)
    network = build_network(points, edges)
    params = Params(d=args.d, k=args.k, social_kind=SocialKind(args.social))
    cfg = DetectionConfig(params, SpatialAlgo(args.algo))
    if query is None:
        communities = detect_mccs(network, cfg)
    else:
        communities = search_mccs(network, query, cfg)
    meta = {
        "algo": args.algo,
        "d": args.d,
        "bound": BOUND_OF[cfg.spatial_algo],
    }
    if query is not None:
        meta["query"] = query
    write_communities(communities, network.point_map, meta, args.out)
    print(f"{len(communities)} communities -> {args.out}")
    return 0


def cmd_detect(args) -> int:
    return _run_detection(args, None)


def cmd_search(args) -> int:
    return _run_detection(args, args.query)


def cmd_bench(args) -> int:
    if args.locations is not None:
        for option in ("densities", "distribution"):
            if getattr(args, option) is not None:
                raise ValueError(f"--{option} goes with synthetic sweeps only, not with --locations")
    cfg = BenchConfig(
        algos=tuple(args.algos),
        ds=tuple(args.ds),
        ns=tuple(args.ns),
        densities=args.densities or BenchConfig.densities,
        ratios=tuple(args.ratios),
        k=args.k,
        seed=args.seed,
        distribution=Distribution(args.distribution or BenchConfig.distribution),
        locations=args.locations,
        timeout_s=args.timeout_s,
    )
    reports = run_bench(cfg, args.out)
    statuses = [r.status for r in reports]
    print(f"{len(reports)} cells -> {args.out} "
          f"({statuses.count('ok')} ok, {statuses.count('timeout')} timeout)")
    if any(s == "error" for s in statuses):
        return 1
    if any(s == "timeout" for s in statuses):
        return 2
    return 0


def cmd_validate(args) -> int:
    if args.instances < 1:
        raise ValueError(f"--instances must be at least 1, got {args.instances}")
    failures = 0

    def report(name: str, ok: bool) -> None:
        nonlocal failures
        print(f"{name}: {'PASS' if ok else 'FAIL'}")
        if not ok:
            failures += 1

    def families(clusters):
        return {c.members for c in clusters}

    d = args.d
    ok_local = ok_global = ok_square = ok_between = True
    for i in range(args.instances):
        spec = GenSpec(
            n=args.n,
            density=args.density,
            distribution=Distribution.GAUSSIAN if i % 2 else Distribution.UNIFORM,
            seed=args.seed + i,
        )
        points = generate(spec)

        center = points[0]
        near = [p for p in points[1:] if ((p.x - center.x) ** 2 + (p.y - center.y) ** 2) <= d * d]
        ok_local &= families(local_spatial_clusters(center, near, d / 2)) == families(
            oracle_lsc(center, near, d / 2)
        )

        exact = global_spatial_clusters(points, d)
        reference = oracle_gsc(points, d)
        ok_global &= families(exact) == families(reference)

        squares = find_gasc(points, d)
        ok_square &= families(squares) == families(oracle_gasc(points, d))

        square_sets = [frozenset(c.members) for c in squares]
        ok_between &= all(
            any(frozenset(c.members) <= s for s in square_sets) for c in reference
        )
        wide = [frozenset(c.members) for c in oracle_gsc(points, 2**0.5 * d)]
        ok_between &= all(any(s <= w for w in wide) for s in square_sets)

    report("local clusters vs direct angle enumeration", ok_local)
    report("global clusters vs candidate-circle enumeration", ok_global)
    report("square clusters vs anchored-square enumeration", ok_square)
    report("square clusters bracket circle clusters", ok_between)
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (GeoSocError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
