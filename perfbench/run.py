"""geosoc benchmark entry point.

    python3 perfbench/run.py --workload detect-exact --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics;
the line before it carries details (sample counts, fail ratio, member
digest, core-number histogram).  With --trace 0 the metrics are the
end-to-end ones, with --trace 1 the per-layer ones from a traced run.
Inputs, outputs and span files go to .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not (ROOT / "src" / "geosoc" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {ROOT / 'src' / 'geosoc'}; "
              "run from the root of a geosoc source checkout", file=sys.stderr)
        return 2
    # one thread per workload process: set before numpy is first imported
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS, run_workload

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    if set(out["metrics"]) != set(declared):
        print(f"perfbench: measured metrics {sorted(out['metrics'])} differ from the ones "
              f"BENCHMARK.json declares {sorted(declared)}", file=sys.stderr)
        return 1
    print(json.dumps({"detail": out["detail"]}))
    print(json.dumps({
        "correct": out["correct"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: {"value": out["metrics"][name], "unit": unit} for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
