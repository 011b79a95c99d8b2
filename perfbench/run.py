"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload tu_sweep --seed 1 --seconds 20 --trace 0

Run from the repository root. The last line of stdout is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``. Lines before it give each metric by name and
unit, the machine facts and any failed gate. The exit code is not 0 when the
marketclear sources are missing or a run cannot finish.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import BLAS_VARS, DEFAULT_SEED, WORKLOADS  # noqa: E402


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse(argv)
    # One BLAS/OpenMP thread, fixed before numpy loads; children inherit it.
    for var in BLAS_VARS:
        os.environ[var] = "1"
    if not (ROOT / "src" / "marketclear" / "__init__.py").is_file():
        print(f"error: no marketclear sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    from perfbench import bench

    if args.trace:
        result = bench.traced_run(args.workload, args.seed, ROOT, seconds=args.seconds)
    else:
        result = bench.timed_run(args.workload, args.seed, args.seconds, ROOT)
    measured = result["metrics"]
    missing = [m["name"] for m in declared if m["name"] not in measured]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 3

    print("# machine " + json.dumps(result["machine"], sort_keys=True))
    print("# info " + json.dumps(result["info"], sort_keys=True, default=float))
    for key, reasons in result["failures"].items():
        print(f"# FAILED {key}: {'; '.join(reasons)}")
    print(f"# failed_frac {result['failed']}/{result['attempted']}")
    metrics = {}
    for m in declared:
        value = measured[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"# {m['name']} = {value!r} {m['unit']}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
