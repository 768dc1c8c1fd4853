"""Run the benchmark on several seeds and print each metric's spread.

    python3 benchmarks/spread.py --workload padic --seeds 101-110 [--seconds 25]

Prints, for every end-to-end metric and for the raw command time, the
median over the runs and the distance between the quartiles of
``statistics.quantiles(values, n=4)`` as a share of the median. This is how
the spread table in README.md was made (seeds 101-110 and 201-210).
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="first-last")
    parser.add_argument("--seconds", default="25")
    args = parser.parse_args()
    first, last = map(int, args.seeds.split("-"))
    values = {}
    for seed in range(first, last + 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("run.py")),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", "0"],
            capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().split("\n")[-1])
        if not result["correct"] or result["failed"]:
            print(proc.stderr, file=sys.stderr)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        raw = [float(x) for x in re.findall(r"raw ([0-9.]+) s", proc.stderr)]
        values.setdefault("raw command time", []).append(statistics.median(raw))
        print(seed, {k: round(v[-1], 6) for k, v in values.items()},
              flush=True)
    for name, vals in values.items():
        q = statistics.quantiles(vals, n=4)
        median = statistics.median(vals)
        print(f"{args.workload} {name}: median {median:.6g}, "
              f"IQR {100 * (q[2] - q[0]) / median:.1f} % of the median "
              f"({len(vals)} runs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
