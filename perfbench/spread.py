"""Repeat the benchmark over several seeds and report each metric's spread.

Usage (from the repository root)::

    python3 perfbench/spread.py --workloads vm-fleet --seeds 5 --seconds 30
    python3 perfbench/spread.py --seeds 10 --seconds 30 --record perfbench/baseline.json

For every end-to-end metric it prints the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the quartile distance
as a share of the median, next to the metric's bound from ``BENCHMARK.json``.
``--record`` stores these figures under ``measured`` in the given file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[entry["name"] for entry in benchmark["workloads"]])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    parser.add_argument("--record", help="JSON file whose 'measured' entry is updated")
    args = parser.parse_args()
    bounds = {entry["name"]: entry["bound"] for entry in benchmark["end_to_end"]}

    measured = {}
    worst = 0.0
    for workload in args.workloads:
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            start = time.perf_counter()
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
            )
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: incorrect result", file=sys.stderr)
                return 1
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: {time.perf_counter() - start:.1f} s", file=sys.stderr)
        rows = {}
        for name, series in values.items():
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median if median else 0.0
            rows[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                          "bound": bounds[name], "values": series}
            if name != "setup_s":
                worst = max(worst, spread / bounds[name])
            print(f"{workload:<10} {name:<28} median {median:12.6g}  q1 {q1:12.6g}  "
                  f"q3 {q3:12.6g}  spread {spread:6.3f}  bound {bounds[name]:.2f}"
                  f"{'  OVER' if spread > bounds[name] / 3 else ''}")
        measured[workload] = {"seeds": args.seeds, "seconds": args.seconds, "metrics": rows}
    print(f"worst spread / bound (setup_s excluded): {worst:.3f}")
    if args.record:
        document = {}
        if os.path.exists(args.record):
            with open(args.record) as handle:
                document = json.load(handle)
        document.setdefault("measured", {}).update(measured)
        with open(args.record, "w") as handle:
            json.dump(document, handle, indent=1)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
