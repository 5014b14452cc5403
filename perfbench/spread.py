"""Run-to-run spread of the end-to-end metrics, next to their bounds.

Runs the benchmark ``--runs`` times per workload, each with another
seed, and reports for every metric the median and the distance between
the first and third quartiles as a share of the median -- the figure
``BENCHMARK.json``'s bounds must cover.  Run from the repository root::

    python3 perfbench/spread.py --runs 10 --out perfbench/spread.json
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--workload", action="append",
                        help="repeatable; default: every workload")
    parser.add_argument("--out", help="write the table as JSON here")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    table = {}
    for workload in workloads:
        values = {}
        for i in range(args.runs):
            seed = args.first_seed + i
            out = subprocess.run(
                bench["command"] + [
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed={seed} " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in
                result["metrics"].items()), flush=True)
        table[workload] = {
            name: {"median": statistics.median(v), "iqr_share": spread(v),
                   "bound": bounds[name], "runs": len(v)}
            for name, v in values.items()}
        for name, row in table[workload].items():
            print(f"  {workload}/{name}: median {row['median']:.4g} "
                  f"spread {row['iqr_share']:.3f} bound {row['bound']}",
                  flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps({
            "python": platform.python_version(), "spreads": table},
            indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
