"""Span tracing of toruslin's layers from outside the package.

``Tracer.install`` wraps every public function of each layer module, and the
public methods of the classes a layer defines, then rebinds each wrapped
object wherever a ``toruslin`` module holds it: at its definition and at
every ``from .x import y`` site (``toruslin.series.cauchy_product``,
``toruslin.linearize.solve_family``, ...).  Nothing under ``src/`` changes.

A span is ``(name id, parent span index, start, end)`` kept in memory; the
root span of each timed operation is opened by the benchmark itself, so the
part of an operation spent outside every layer shows up as benchmark glue.
Self time is a span's duration minus the durations of its direct children
(one thread, so children never overlap).
"""

import collections
import importlib
import inspect
import sys
import time

LAYERS = ("problem", "divisors", "lattice", "series", "_kernels", "deckmaps",
          "cohomology", "linearize", "majorant", "norms", "reports", "cli")

# Private callables that other layers call across the module boundary, or
# that a per-layer metric names; every other private name stays inside the
# self time of its public caller.
PRIVATE_TARGETS = {
    "series": ("TruncatedSeries._arrays",),
    "linearize": ("_degree_ledger",),
}
KERNELS = ("cauchy_product", "evaluate")
ROOT = "bench.op"


def _count_cauchy(counts, args, result, dur):
    # cauchy_product(exps_a, vals_a, exps_b, vals_b, n, d, vmax, hband, prune)
    counts["kernels.cauchy.pairs"] += len(args[1]) * len(args[3])
    counts["kernels.cauchy.kept"] += len(result[1])


def _count_evaluate(counts, args, result, dur):
    # evaluate(exps, vals, logh, v)
    counts["kernels.evaluate.term_points"] += len(args[1]) * len(args[2])


def _count_divisor(counts, args, result, dur):
    counts["divisors.records"] += 1


def _count_solve(counts, args, result, dur):
    counts["cohomology.unknowns"] += len(result.divisors_used)


def _count_write(counts, args, result, dur):
    counts["reports.write_text.bytes"] += len(args[1].encode("utf-8"))


def _count_step(counts, args, result, dur):
    # linearize_step(family, m, ...): wall time per vertical degree
    counts["linearize.step_s.m%d" % args[1]] += dur


HOOKS = {
    "_kernels.cauchy_product": _count_cauchy,
    "_kernels.evaluate": _count_evaluate,
    "divisors.divisor_values": _count_divisor,
    "cohomology.solve_family": _count_solve,
    "reports.write_text": _count_write,
    "linearize.linearize_step": _count_step,
}


def _layer_targets():
    """Yield (span name, owner, attribute, callable, rewrap) per target."""
    for layer in LAYERS:
        mod = importlib.import_module("toruslin." + layer)
        if layer == "_kernels":
            for name in KERNELS:
                yield "%s.%s" % (layer, name), mod, name, getattr(mod, name), None
            continue
        extras = PRIVATE_TARGETS.get(layer, ())
        for name, obj in sorted(vars(mod).items()):
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                if not name.startswith("_") or name in extras:
                    yield "%s.%s" % (layer, name), mod, name, obj, None
            elif inspect.isclass(obj):
                for attr, raw in sorted(vars(obj).items()):
                    qual = "%s.%s" % (name, attr)
                    if attr.startswith("_") and qual not in extras:
                        continue
                    if isinstance(raw, (staticmethod, classmethod)):
                        fn, rewrap = raw.__func__, type(raw)
                    elif inspect.isfunction(raw):
                        fn, rewrap = raw, None
                    else:  # properties and plain class attributes
                        continue
                    if inspect.isgeneratorfunction(fn):
                        continue  # its work runs after the call returns
                    yield "%s.%s" % (layer, qual), obj, attr, fn, rewrap


class Tracer:
    """In-memory span recorder for one benchmark process."""

    def __init__(self):
        self.names = [ROOT]
        self.spans = []
        self.counts = collections.Counter()
        self.op_counts = []
        self.active = False
        self._stack = []

    # -- recording ------------------------------------------------------------

    def _wrap(self, name, fn):
        name_id = len(self.names)
        self.names.append(name)
        hook = HOOKS.get(name)
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name_id, parent, t0, t1)
            if hook is not None:
                hook(counts, args, result, t1 - t0)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every layer target and rebind it at all of its import sites."""
        replaced = {}
        for name, owner, attr, fn, rewrap in list(_layer_targets()):
            wrapper = replaced.get(id(fn))
            if wrapper is None:
                wrapper = self._wrap(name, fn)
                replaced[id(fn)] = wrapper
            setattr(owner, attr, wrapper if rewrap is None else rewrap(wrapper))
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "toruslin"
                                   or modname.startswith("toruslin.")):
                continue
            for attr, val in list(vars(mod).items()):
                wrapper = replaced.get(id(val))
                if wrapper is not None and getattr(wrapper, "__wrapped__",
                                                   None) is val:
                    setattr(mod, attr, wrapper)
        return len(replaced)

    def op(self, fn):
        """Run fn() inside a root span; returns (result, start, end).

        The work counts of this operation alone are appended to
        ``op_counts``.
        """
        self.counts.clear()
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        self.active = True
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            t1 = time.perf_counter()
            self.active = False
            self._stack.pop()
            self.spans[idx] = (0, -1, t0, t1)
            self.op_counts.append(dict(self.counts))
        return result, t0, t1

    # -- analysis -------------------------------------------------------------

    def self_times(self):
        """Per span-name totals: (calls, self seconds)."""
        child = [0.0] * len(self.spans)
        for name_id, parent, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls = collections.Counter()
        own = collections.defaultdict(float)
        for idx, (name_id, parent, t0, t1) in enumerate(self.spans):
            name = self.names[name_id]
            calls[name] += 1
            own[name] += (t1 - t0) - child[idx]
        return calls, own

    def write(self, path, origin):
        """Dump all spans as tab-separated rows with their parent links."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            for idx, (name_id, parent, t0, t1) in enumerate(self.spans):
                fh.write("%d\t%d\t%s\t%.9f\t%.9f\n" % (
                    idx, parent, self.names[name_id], t0 - origin,
                    t1 - origin))


# -- per-layer metrics ---------------------------------------------------------

LAYER_PREFIX = {layer: layer.lstrip("_") for layer in LAYERS}

# metric -> span whose per-operation self time (or call count) it reports
SELF_SPANS = {
    "series.mul": "series.TruncatedSeries.mul",
    "series.add": "series.TruncatedSeries.add",
    "series.substitute_vertical": "series.substitute_vertical",
    "series.invert_vertical_map": "series.invert_vertical_map",
    "kernels.cauchy": "_kernels.cauchy_product",
    "kernels.evaluate": "_kernels.evaluate",
    "deckmaps.conjugate": "deckmaps.conjugate_by_vertical",
    "deckmaps.compose_with_map": "deckmaps.compose_with_map",
    "deckmaps.invert_map": "deckmaps.invert_map",
    "norms.sup_norm_bound": "norms.sup_norm_bound",
    "norms.sampled_lower_bound": "norms.sampled_lower_bound",
    "lattice.union_and_hull": "lattice.union_and_hull",
    "lattice.max_margin_eta": "lattice.max_margin_eta",
    "lattice.sup_monomials": "lattice.DomainSpec.sup_monomials",
    "majorant.constants_bundle": "majorant.constants_bundle",
    "majorant.build_state": "majorant.build_state",
    "majorant.dominance_and_radius": "majorant.dominance_and_radius",
    "divisors.scan_and_fit": "divisors.scan_and_fit",
    "divisors.enhanced_bound_check": "divisors.enhanced_bound_check",
    "cohomology.solve_family": "cohomology.solve_family",
    "linearize.linearize_step": "linearize.linearize_step",
    "linearize.check_commutation": "linearize.check_commutation",
    "linearize.conjugacy_residual": "linearize.conjugacy_residual",
    "linearize.degree_ledger": "linearize._degree_ledger",
    "reports.write_text": "reports.write_text",
    "problem.parse_problem": "problem.parse_problem",
}
CALL_METRICS = ("deckmaps.conjugate", "deckmaps.compose_with_map",
                "deckmaps.invert_map", "divisors.scan_and_fit",
                "divisors.enhanced_bound_check", "cohomology.solve_family",
                "reports.write_text")
COUNT_METRICS = ("kernels.cauchy.pairs", "kernels.cauchy.kept",
                 "kernels.evaluate.term_points", "divisors.records",
                 "cohomology.unknowns", "reports.write_text.bytes")
STEP_DEGREES = range(2, 13)


def layer_metric_units():
    """Every per-layer metric name with its unit, in report order.

    Values are means per traced operation, hence ``s/op`` and ``count/op``.
    """
    units = {}
    for metric in SELF_SPANS:
        units[metric + ".self_s"] = "s/op"
    for metric in CALL_METRICS:
        units[metric + ".calls"] = "count/op"
    for metric in COUNT_METRICS:
        units[metric] = "count/op"
    units["kernels.cauchy.kept_ratio"] = "ratio"
    for m in STEP_DEGREES:
        units["linearize.step_s.m%d" % m] = "s/op"
    for prefix in LAYER_PREFIX.values():
        units["layer.%s.self_s" % prefix] = "s/op"
    units["bench.glue_s"] = "s/op"
    units["trace.spans"] = "count/op"
    units["trace.op_s.p50"] = "s"
    units["trace.overhead_s"] = "s"
    return units


def layer_metrics(tracer, overhead_s):
    """Per-operation means over the traced operations of one run.

    Work counts must repeat exactly from operation to operation; a count
    that does not is reported as its mean and flagged in ``unsteady``.
    """
    calls, own = tracer.self_times()
    ops = calls[ROOT]
    out = {}
    for metric, span in SELF_SPANS.items():
        out[metric + ".self_s"] = own.get(span, 0.0) / ops
    for metric in CALL_METRICS:
        out[metric + ".calls"] = calls.get(SELF_SPANS[metric], 0) / ops
    unsteady = []
    for metric in COUNT_METRICS:
        per_op = [c.get(metric, 0) for c in tracer.op_counts]
        if len(set(per_op)) > 1:
            unsteady.append(metric)
        out[metric] = sum(per_op) / ops
    pairs = out["kernels.cauchy.pairs"]
    out["kernels.cauchy.kept_ratio"] = \
        out["kernels.cauchy.kept"] / pairs if pairs else 0.0
    for m in STEP_DEGREES:
        key = "linearize.step_s.m%d" % m
        out[key] = sum(c.get(key, 0.0) for c in tracer.op_counts) / ops
    layer_self = collections.defaultdict(float)
    for span, secs in own.items():
        layer_self[span.split(".", 1)[0]] += secs
    for layer, prefix in LAYER_PREFIX.items():
        out["layer.%s.self_s" % prefix] = layer_self[layer] / ops
    out["bench.glue_s"] = own[ROOT] / ops
    out["trace.spans"] = (len(tracer.spans) - ops) / ops
    root = sorted(t1 - t0 for name_id, _, t0, t1 in tracer.spans
                  if name_id == 0)
    out["trace.op_s.p50"] = _median_sorted(root)
    out["trace.overhead_s"] = overhead_s
    accounted = sum(layer_self.values())  # twelve layers plus glue
    return {"metrics": out, "unsteady_counts": unsteady,
            "accounted_s": accounted, "traced_total_s": sum(root)}


def _median_sorted(values):
    mid = len(values) // 2
    if len(values) % 2:
        return values[mid]
    return 0.5 * (values[mid - 1] + values[mid])
