"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py [--workloads W ...] [--seeds 1 2 ...] [--seconds S]

For every workload and end-to-end metric this prints the median of the
runs, the distance between the first and third quartile as a share of the
median (``statistics.quantiles(values, n=4)``), and the metric's bound from
BENCHMARK.json.  A spread under a third of the bound is steady; the exit
code is 1 when any run fails or any spread exceeds its bound.  Runs go
one at a time, so they do not disturb each other.
"""

import argparse
import json
import statistics
import subprocess
import sys

from run import ROOT, load_spec


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct"):
        print(proc.stdout + proc.stderr, file=sys.stderr)
        raise SystemExit(f"{workload} seed {seed}: run failed "
                         f"(exit code {proc.returncode})")
    return result["metrics"]


def main() -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()

    worst = 0.0
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            runs.append(run_once(workload, seed, args.seconds))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in runs[-1].items()), flush=True)
        for metric in spec["end_to_end"]:
            values = [r[metric["name"]]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / median
            worst = max(worst, share / metric["bound"])
            print(f"  {workload:<14} {metric['name']:<14} median {median:12.6g} "
                  f"{metric['unit']:<6} spread {share:8.4f} bound {metric['bound']:g}"
                  f"{'  STEADY' if share < metric['bound'] / 3 else '  WIDE'}",
                  flush=True)
    return 1 if worst > 1.0 else 0


if __name__ == "__main__":
    sys.exit(main())
