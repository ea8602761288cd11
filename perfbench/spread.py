"""Run-to-run spread of the end-to-end metrics.

Runs ``run.py`` once per seed on one workload (untraced) and prints,
per metric, the median and the interquartile range as a share of the
median -- the figure each metric's ``bound`` in BENCHMARK.json must
stay above.  From the repository root::

    python3 perfbench/spread.py --workload paper-serial --seeds 1-10

Exits non-zero if any run fails its output check.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_range(text):
    low, __, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default="1-10")
    parser.add_argument("--seconds", default="20")
    args = parser.parse_args(argv)
    values = {}
    for seed in args.seeds:
        completed = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", "0"],
            stdout=subprocess.PIPE, text=True)
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        if completed.returncode or not result["correct"]:
            print("seed %d failed its output check" % seed)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.4g" % (name, metric["value"])
            for name, metric in result["metrics"].items())), flush=True)
    for name, series in values.items():
        median = statistics.median(series)
        q1, __, q3 = statistics.quantiles(series, n=4)
        print("%-18s median %10.4g  spread %6.2f %%  (n=%d)"
              % (name, median, 100.0 * (q3 - q1) / median, len(series)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
