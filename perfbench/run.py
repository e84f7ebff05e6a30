#!/usr/bin/env python3
"""Benchmark of toruslin's linearize -> certify pipeline, one workload a run.

Run from the repository root:

    python3 perfbench/run.py --workload ref-cli-scan --seed 1 \
        --seconds 20 --trace 0

Workloads and metrics are declared in BENCHMARK.json; see
perfbench/README.md for why each workload exists and what each metric
means.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  Every run
also writes its samples, failures and environment stamp to
``perfbench/out/<workload>-seed<seed>-trace<t>.json``.

Set-up is timed from before a fresh interpreter starts to the end of its
warm-up operation, five times per untraced run (median reported); the
third of the five processes also runs the measured closed loop.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
DEADLINE_S = 170.0
TAIL_BEYOND = 10
PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


class BenchError(RuntimeError):
    pass


def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def source_stamp(root):
    """Git revision when the tree is a checkout, and a digest of src/."""
    rev = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            proc = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                                  capture_output=True, text=True)
        except OSError:  # no git on this machine
            proc = None
        if proc is not None and proc.returncode == 0:
            rev = proc.stdout.strip()
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "toruslin")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".py", ".pyx", ".prob")):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return {"git_rev": rev, "src_sha256": digest.hexdigest()}


def tail(samples):
    """Highest order statistic with TAIL_BEYOND samples above it.

    Returns (value, percentile) or None when there are too few samples.
    """
    ordered = sorted(samples)
    idx = len(ordered) - TAIL_BEYOND - 1
    if idx < 0:
        return None
    return ordered[idx], 100.0 * (idx + 1) / len(ordered)


def run_processes(root, args, workdir):
    """Start the set-up and measuring processes one after another.

    An untraced run times set-up twice before and twice after the measuring
    process as well, so the five samples span tens of seconds and the
    median does not hang on one moment of the host's load.  Returns (set-up
    seconds per process, measuring process payload).
    """
    env = dict(os.environ, **PINNED_ENV)
    roles = (["measure"] if args.trace
             else ["setup", "setup", "measure", "setup", "setup"])
    begin = _now()
    setups, payload = [], None
    for i, role in enumerate(roles):
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--root", root, "--workdir", workdir,
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--role", role]
        left = DEADLINE_S - (_now() - begin)
        if left <= 0:
            raise BenchError("out of time before set-up %d" % (i + 1))
        t0 = _now()
        try:
            proc = subprocess.run(cmd, env=env, cwd=root, timeout=left,
                                  stdout=subprocess.PIPE, text=True)
        except subprocess.TimeoutExpired:
            raise BenchError("%s process exceeded the %gs deadline"
                             % (role, DEADLINE_S))
        if proc.returncode != 0:
            raise BenchError("%s process exited with %d"
                             % (role, proc.returncode))
        lines = proc.stdout.splitlines()
        ready = [ln for ln in lines if ln.startswith("READY ")]
        if not ready:
            raise BenchError("%s process never reported READY" % role)
        setups.append(float(ready[0].split()[1]) - t0)
        if role == "measure":
            found = [ln for ln in lines if ln.startswith("RESULT ")]
            if not found:
                raise BenchError("measuring process printed no RESULT")
            payload = json.loads(found[-1][len("RESULT "):])
    return setups, payload


def end_to_end(setups, payload):
    """The gated metrics of an untraced run, and the raw figures beside them.

    Latency is gated as ``op_cal.p50``, each operation's seconds divided by
    the calibration seconds timed around it (see ``worker.calibrate``); the
    raw seconds swing with the host's load by more than any bound allows.
    """
    pairs = [(d, c) for d, c in zip(payload["durations_s"],
                                    payload["calibration_s"]) if d == d]
    if not pairs:
        raise BenchError("no operation completed")
    done = [d for d, _ in pairs]
    gated = {
        "setup_s": statistics.median(setups),
        "op_cal.p50": statistics.median(d / c for d, c in pairs),
        "peak_rss_mb": payload["peak_rss_mb"],
    }
    raw = {
        "op_s.p50": (statistics.median(done), "s"),
        "ops_per_s": (len(done) / sum(done), "1/s"),
        "calibration_s.p50": (statistics.median(c for _, c in pairs), "s"),
    }
    return gated, raw


def _declared(spec, key):
    return {m["name"]: m["unit"] for m in spec[key]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(root, "src", "toruslin",
                                       "__init__.py")):
        raise BenchError("no toruslin sources under %s/src; run from the "
                         "repository root" % root)
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        raise BenchError("unknown workload %r" % args.workload)
    if args.seconds <= 0:
        raise BenchError("--seconds must be positive")

    label = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    workdir = os.path.join(OUT, "work", label)
    setups, payload = run_processes(root, args, workdir)
    failures = payload["failures"]
    attempted, failed = len(failures), sum(1 for f in failures if f)
    stamp = dict(payload["stamp"], **source_stamp(root))

    if args.trace:
        per_layer = payload["per_layer"]
        metrics = per_layer["metrics"]
        declared = _declared(spec, "per_layer")
    else:
        metrics, raw = end_to_end(setups, payload)
        declared = _declared(spec, "end_to_end")
    if set(metrics) != set(declared):
        raise BenchError("metrics %s do not match BENCHMARK.json"
                         % sorted(set(metrics) ^ set(declared)))

    done = [d for d in payload["durations_s"] if d == d]
    print("stamp " + json.dumps(stamp, sort_keys=True))
    print("workload %s seed %d trace %d: %d attempted, %d failed, "
          "fail_ratio %.4g" % (args.workload, args.seed, args.trace,
                               attempted, failed, failed / attempted))
    for msg in sorted({m for f in failures for m in f})[:5]:
        print("  failure: %s" % msg)
    if args.trace:
        for name, unit in declared.items():
            print("  %-40s %14.6g %s" % (name, metrics[name], unit))
        print("  traced ops %d, layers + glue account for %.6f of %.6f s"
              % (len(payload["traced_s"]), per_layer["accounted_s"],
                 per_layer["traced_total_s"]))
        if per_layer["unsteady_counts"]:
            print("  counts that differ between ops: %s"
                  % per_layer["unsteady_counts"])
    else:
        for name, unit in declared.items():
            print("  %-18s %12.6g %-5s (gated)" % (name, metrics[name], unit))
        for name, (value, unit) in raw.items():
            print("  %-18s %12.6g %-5s" % (name, value, unit))
        t = tail(done)
        print("  %-18s %s" % ("op_s.tail", (
            "%12.6g s     p%.1f, %d samples beyond" % (t[0], t[1],
                                                        TAIL_BEYOND)
            if t else "undefined: needs more than %d samples" % TAIL_BEYOND)))
        print("  samples %d; set-ups %s s" % (
            len(done), " ".join("%.4f" % s for s in setups)))

    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds, "stamp": stamp,
              "setup_s": setups, "metrics": metrics,
              "raw": None if args.trace else raw,
              "attempted": attempted, "failed": failed,
              "fail_ratio": failed / attempted,
              "op_s.tail": tail(done), "payload": payload}
    with open(os.path.join(OUT, label + ".json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": {name: {"value": metrics[name], "unit": unit}
                                  for name, unit in declared.items()}}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, ValueError, KeyError) as exc:
        sys.stderr.write("perfbench: %s\n" % exc)
        sys.exit(2)
