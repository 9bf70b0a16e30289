#!/usr/bin/env python3
"""Alternating parent/change pairs of one perfbench workload, or of one
``geosoc bench`` cell.

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workload detect-exact --seed 1 --pairs 10 --label truss_prefilter
    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --algo exact-r12 --n 20000 --seed 1 --pairs 10 --label member_order

Each pair runs one measurement in each source tree, one process at a
time; the side that runs first alternates from pair to pair.

With --workload, a measurement is ``python3 perfbench/run.py --workload W
--seed S --seconds 35 --trace T``.  A run whose last output line is not
``correct`` (or has failed operations), or whose member digest differs
from any earlier run of either side, stops the script.  The pairs go
under the section ``end_to_end_seed<S>`` (``traced_seed<S>`` with
--trace 1) and the workload's name, with the member digest.

With --algo, a measurement is ``python3 -m geosoc bench --algos A --n N
--d 30 --seed S`` with PYTHONPATH set to the tree's ``src``.  A cell
whose status is not ``ok``, or whose ``comparisons_unpruned``,
``comparisons_rule1``, ``comparisons`` or ``clusters`` differ from any
earlier run of either side, stops the script.  The pairs go under the
section ``geosoc_bench_seed<S>`` and the key ``A n=N``, with those four
counts of the cell.

Either way the pairs are written into BENCH_<label>.json at the root of
this repository, replacing an earlier entry under the same key: each
metric's runs per side, their median and quartiles
(``statistics.quantiles(n=4, method='inclusive')``), and how many pairs
the change's value was strictly lower in.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
#: the columns of a geosoc bench row that both sides must agree on
CELL_COUNTS = ("comparisons_unpruned", "comparisons_rule1", "comparisons", "clusters")


def run_once(tree: Path, workload: str, seed: int, trace: int) -> tuple[dict, str]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "35", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit(f"{tree}: {' '.join(cmd)} exited {proc.returncode}\n{proc.stderr[-2000:]}")
    result, detail = json.loads(lines[-1]), json.loads(lines[-2])["detail"]
    if not result["correct"] or result["failed"]:
        sys.exit(f"{tree}: run not correct ({result['failed']} failed): {detail['problems']}")
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return metrics, detail["member_digest"][:16]


def run_cell(tree: Path, algo: str, n: int, seed: int) -> tuple[dict, tuple]:
    cmd = [sys.executable, "-m", "geosoc", "bench", "--algos", algo, "--n", str(n), "--d", "30",
           "--seed", str(seed), "--out"]
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "bench.csv"
        proc = subprocess.run(cmd + [str(out)], cwd=tree, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.exit(f"{tree}: {' '.join(cmd)} exited {proc.returncode}\n{proc.stderr[-2000:]}")
        with open(out, newline="") as fh:
            (row,) = csv.DictReader(fh)
    if row["status"] != "ok":
        sys.exit(f"{tree}: {' '.join(cmd)}: cell status {row['status']}")
    # a column missing from an older header reads empty, and so differs
    return {"seconds": float(row["seconds"])}, tuple(row.get(name, "") for name in CELL_COUNTS)


def summary(values: list[float]) -> dict:
    # one run is its own quartiles
    q1, _, q3 = statistics.quantiles(values * 2 if len(values) == 1 else values, n=4, method="inclusive")
    return {"median": round(statistics.median(values), 4), "q1": round(q1, 4),
            "q3": round(q3, 4), "runs": [round(v, 4) for v in values]}


def dump(doc: dict) -> str:
    """Indented JSON with each list, and each object of plain values, on one line."""
    text = json.dumps(doc, indent=1)
    for pattern in (r"\[([^\[\]{}]*)\]", r"\{([^\[\]{}]*(?:\[[^\]\n]*\][^\[\]{}]*)*)\}"):
        text = re.sub(pattern, lambda m: m.group(0)[0] + " ".join(m.group(1).split()) + m.group(0)[-1], text)
    # joining lines squeezes runs of spaces, also inside a string value
    return (text if json.loads(text) == doc else json.dumps(doc, indent=1)) + "\n"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", type=Path, required=True, help="source tree of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="source tree of the change")
    what = ap.add_mutually_exclusive_group(required=True)
    what.add_argument("--workload", help="perfbench workload")
    what.add_argument("--algo", help="geosoc bench algorithm of the cell")
    ap.add_argument("--n", type=int, help="geosoc bench cell: number of points")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--label", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    if (args.algo is None) != (args.n is None):
        ap.error("--algo and --n go together")
    if args.algo is not None and args.trace:
        ap.error("--trace goes with --workload only")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    if args.workload is not None:
        def measure(tree):
            return run_once(tree, args.workload, args.seed, args.trace)
        section = f"{'traced' if args.trace else 'end_to_end'}_seed{args.seed}"
        key, shown, checked = args.workload, ("run_s", "trace.run_s"), "member digests"
    else:
        def measure(tree):
            return run_cell(tree, args.algo, args.n, args.seed)
        section = f"geosoc_bench_seed{args.seed}"
        key, shown, checked = f"{args.algo} n={args.n}", ("seconds",), f"({', '.join(CELL_COUNTS)})"

    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    seen: set = set()
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for side in order:
            metrics, check = measure(trees[side])
            runs[side].append(metrics)
            seen.add(check)
        if len(seen) > 1:
            sys.exit(f"{key}: {checked} differ between runs: {sorted(seen)}")
        print(f"pair {i + 1}/{args.pairs} ({order[0]} first): " + ", ".join(
            f"{name} {runs['parent'][-1][name]:.4g} -> {runs['change'][-1][name]:.4g}"
            for name in shown if name in runs["change"][-1]), flush=True)

    entry: dict = {"pairs": args.pairs}
    if args.workload is not None:
        entry["all_correct"] = True
        (entry["member_digest"],) = seen
    else:
        (counts,) = seen
        entry.update({name: int(value) if value else None for name, value in zip(CELL_COUNTS, counts)})
    for name in runs["change"][0]:
        per_side = {side: [r[name] for r in runs[side]] for side in SIDES}
        entry[name] = {
            **{side: summary(per_side[side]) for side in SIDES},
            "change_lower_in_pairs": sum(c < p for p, c in zip(per_side["parent"], per_side["change"])),
        }

    out = ROOT / f"BENCH_{args.label}.json"
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc.setdefault("label", args.label)
    doc["host"] = (f"{platform.machine()} {platform.system()}, {len(os.sched_getaffinity(0))} cores, "
                   f"Python {platform.python_version()}, numpy {np.__version__}; one benchmark process at a time")
    if args.workload is not None:
        doc["command"] = "python3 perfbench/run.py --workload W --seed S --seconds 35 --trace T"
    else:
        doc["bench_command"] = "python3 -m geosoc bench --algos A --n N --d 30 --seed S --out CSV"
    doc["protocol"] = (
        "parent and change run from separate source trees; each pair runs both sides back to back, "
        "the side that runs first alternating between pairs. Quartiles are statistics.quantiles(n=4, "
        "method='inclusive'); change_lower_in_pairs counts pairs where the change's value is strictly lower."
    )
    doc.setdefault(section, {})[key] = entry
    out.write_text(dump(doc))
    print(f"wrote {key} to {section} in {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
