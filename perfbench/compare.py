#!/usr/bin/env python3
"""Pair two sets of benchmark result files and compare their metrics.

    python3 perfbench/compare.py perfbench/out/base/*.json \
        --against perfbench/out/new/*.json

Each file is one run's record as written by ``run.py``.  All files must
come from the same workload and trace mode, and from the same kernel
backend: artifact bytes and kernel times differ across backends, so runs
of different backends are refused rather than paired.  Prints, per metric,
each side's median and quartiles and the change of the medians.
"""

import argparse
import json
import statistics
import sys


def _load(paths):
    runs = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            runs.append(json.load(fh))
    return runs


def _summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", nargs="+")
    parser.add_argument("--against", nargs="+", required=True)
    args = parser.parse_args(argv)
    base, new = _load(args.base), _load(args.against)

    for key in ("workload", "trace"):
        seen = {run[key] for run in base + new}
        if len(seen) != 1:
            sys.stderr.write("refusing to pair runs of different %s: %s\n"
                             % (key, sorted(seen)))
            return 2
    backends = {run["stamp"]["kernel_backend"] for run in base + new}
    if len(backends) != 1:
        sys.stderr.write("refusing to pair runs of different kernel "
                         "backends: %s\n" % sorted(backends))
        return 2

    print("workload %s, %d base runs, %d new runs, backend %s"
          % (base[0]["workload"], len(base), len(new), backends.pop()))
    print("%-38s %11s %11s %11s %11s %11s %11s %8s" % (
        "metric", "base q1", "base med", "base q3", "new q1", "new med",
        "new q3", "change"))
    for name in base[0]["metrics"]:
        b = _summary([run["metrics"][name] for run in base])
        n = _summary([run["metrics"][name] for run in new])
        change = "%+7.1f%%" % (100.0 * (n[1] - b[1]) / b[1]) if b[1] else "-"
        print("%-38s %11.5g %11.5g %11.5g %11.5g %11.5g %11.5g %8s"
              % ((name,) + b + n + (change,)))
    for side, runs in (("base", base), ("new", new)):
        failed = sum(run["failed"] for run in runs)
        attempted = sum(run["attempted"] for run in runs)
        print("%s: %d of %d operations failed" % (side, failed, attempted))
    return 0


if __name__ == "__main__":
    sys.exit(main())
