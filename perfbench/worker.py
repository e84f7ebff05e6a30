"""One benchmark process: set up a workload, then run its closed loop.

Started by ``run.py``; not meant to be run by hand.  Prints ``READY <t>``
once set-up (imports, input generation, one warm-up operation) is done,
with ``t`` read from the system-wide monotonic clock so the parent can time
set-up from before it started this process.  With ``--role setup`` it
exits there; with ``--role measure`` it then runs one caller's closed loop
for ``--seconds`` and prints ``RESULT <json>``.

With ``--trace 1`` the first half of the time runs untraced and the second
half with every layer wrapped (see ``tracing.py``); the difference of the
two medians is the tracing overhead.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads a BLAS

import argparse
import json
import resource
import statistics
import sys
import time

CAL_ITERATIONS = 40_000


def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _import_toruslin(root):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import toruslin

    where = os.path.abspath(toruslin.__file__)
    if not where.startswith(os.path.join(src, "")):
        raise RuntimeError("imported toruslin from %s, not %s" % (where, src))
    return toruslin


def calibrate():
    """Seconds taken by a fixed pure-Python sparse accumulation.

    The host this benchmark runs on changes speed by up to 1.6x within
    seconds, because other tenants contend for the same cores.  Timing this
    fixed reference right before and after every operation lets ``run.py``
    report each latency as a multiple of it, which cancels most of that
    swing.  It imports nothing from toruslin, so no change to the package
    moves it.
    """
    t0 = time.perf_counter()
    acc = {}
    for i in range(CAL_ITERATIONS):
        P, Q = (i % 11 - 5,), (i % 5,)
        if sum(Q) > 3 or max(map(abs, P)) > 4:
            continue
        key = (i % 7, P, Q)
        new = acc.get(key, 0j) + complex(i, 1) * 1.5
        if abs(new) > 1e-300:
            acc[key] = new
    sorted(acc)
    return time.perf_counter() - t0


def _loop(workload, seconds, run_op):
    """Closed loop with one caller.

    Returns per-operation latencies, the mean of the calibrations timed just
    before and just after each operation, and each operation's failures.
    """
    durations, cals, failures = [], [], []
    before = calibrate()
    start = time.perf_counter()
    while not durations or time.perf_counter() - start < seconds:
        workload.prepare()
        error = None
        try:
            out, t0, t1 = run_op(workload.op)
        except Exception as exc:  # an operation that raises counts as failed
            error = "%s: %s" % (type(exc).__name__, exc)
            t0 = t1 = float("nan")
        after = calibrate()
        durations.append(t1 - t0)
        cals.append(0.5 * (before + after))
        before = after
        failures.append([error] if error else workload.check(out))
    return durations, cals, failures


def _timed(op):
    t0 = time.perf_counter()
    out = op()
    return out, t0, time.perf_counter()


def _median(values):
    values = [v for v in values if v == v]
    return statistics.median(values) if values else float("nan")


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--role", choices=("setup", "measure"),
                        required=True)
    args = parser.parse_args(argv)

    toruslin = _import_toruslin(args.root)
    import tracing
    import workloads

    os.makedirs(args.workdir, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    workload.prepare()
    try:
        workload.check(workload.op())  # warm-up; sets the byte reference
    except Exception as exc:  # the timed loop counts and reports it
        sys.stderr.write("warm-up raised %s: %s\n" % (type(exc).__name__, exc))
    print("READY %.9f" % _now(), flush=True)
    if args.role == "setup":
        return 0

    import numpy
    import scipy

    payload = {"stamp": {
        "kernel_backend": toruslin.kernel_backend,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads_env": {v: os.environ[v] for v in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }}
    if not args.trace:
        durations, cals, failures = _loop(workload, args.seconds, _timed)
    else:
        plain, plain_cal, plain_fail = _loop(workload, args.seconds / 2,
                                             _timed)
        tracer = tracing.Tracer()
        payload["wrapped"] = tracer.install()
        origin = time.perf_counter()
        traced, traced_cal, traced_fail = _loop(workload, args.seconds / 2,
                                                tracer.op)
        durations, cals = plain + traced, plain_cal + traced_cal
        failures = plain_fail + traced_fail
        payload["per_layer"] = tracing.layer_metrics(
            tracer, _median(traced) - _median(plain))
        payload["untraced_s"], payload["traced_s"] = plain, traced
        tracer.write(os.path.join(args.workdir, "spans.tsv"), origin)
    payload["durations_s"] = durations
    payload["calibration_s"] = cals
    payload["failures"] = failures
    payload["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print("RESULT " + json.dumps(payload), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
