"""Repository benchmark: closed-loop ``tune``, ``serve-warm`` and
``serve-cold`` workloads, plus a traced run for a per-layer ledger.

Run from the repository root::

    python3 perfbench/run.py                       # all workloads
    python3 perfbench/run.py --workload serve-cold --seed 3 --seconds 50
    python3 perfbench/run.py --workload tune --trace 1

``--trace 0`` measures the end-to-end metrics for ``--seconds``;
``--trace 1`` runs the workload's fixed operation list untraced once and
traced twice, reports the per-layer metrics (see ``metrics.py``) and
writes the last traced run's spans to ``.bench_out/spans-<workload>.json``.
Every metric is printed as ``<workload>/<name> = value unit``; the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Any failed operation, wrong
output or count that does not repeat exits with code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    from perfbench import workloads
    if name == "tune":
        if trace:
            return workloads.trace_tune(ROOT, seed)
        return workloads.run_tune(ROOT, seed, seconds)
    if trace:
        return workloads.trace_serve(ROOT, name, seed)
    return workloads.run_serve(ROOT, name, seed, seconds)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        help="tune, serve-warm, serve-cold or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.daemon import pin_threads

    # Here and, through the environment, in every process started.
    pin_threads(os.environ)
    import numpy

    from perfbench.metrics import END_TO_END, PER_LAYER, WORKLOADS
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    if any(n not in WORKLOADS for n in names):
        parser.error(f"--workload must be one of {WORKLOADS} or all")
    units = ({n: spec[0] for n, spec in PER_LAYER.items()} if args.trace
             else END_TO_END)

    print(f"# git_sha={_git_sha()} nproc={os.cpu_count()} "
          f"python={platform.python_version()} numpy={numpy.__version__} "
          f"seed={args.seed} seconds={args.seconds} trace={args.trace}",
          flush=True)
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        outcome = run_workload(name, args.seed, args.seconds,
                               bool(args.trace))
        result["attempted"] += outcome.attempted
        result["failed"] += len(outcome.failures)
        result["correct"] = result["correct"] and not outcome.failures
        if outcome.spans:
            out = ROOT / ".bench_out" / f"spans-{name}.json"
            out.parent.mkdir(exist_ok=True)
            out.write_text(json.dumps(outcome.spans))
        for failure in sorted(set(outcome.failures)):
            print(f"# FAIL {name}: {failure}", flush=True)
        for metric, unit in units.items():
            value = outcome.metrics[metric]
            print(f"{name}/{metric} = {value:.6g} {unit}", flush=True)
            key = metric if len(names) == 1 else f"{name}/{metric}"
            result["metrics"][key] = {"value": value, "unit": unit}
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
