"""The benchmark's workloads, one operation each, against their own checks.

``perfbench/workloads.py`` builds its inputs through the package's public
surfaces (problem files, ``build_family``, series constructors and
``with_window``, ``DeckMapFamily``) and checks every operation's output,
including that each artifact ``ref-cli-scan`` writes reads back.  It is
loaded by file path, so the benchmark directory needs no package marker.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from _fixtures import lattice2_family

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_bench_module(name):
    spec = importlib.util.spec_from_file_location("perfbench_" + name,
                                                  PERFBENCH / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = load_bench_module("workloads").WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_operation_passes_its_checks(name, tmp_path):
    workload = WORKLOADS[name](1, str(tmp_path))
    workload.prepare()
    assert workload.check(workload.op()) == []


def exact(f):
    """Window, truncation record and coefficients as exact bit patterns."""
    return (f.n, f.d, f.components, f.vmax, f.tailflag, f.discarded.hex(),
            [(k, P, Q, c.real.hex(), c.imag.hex()) for k, P, Q, c in f.terms()])


def exact_maps(maps):
    return [([z.hex() for z in np.asarray(m.lam).view(float)],
             [z.hex() for z in np.asarray(m.mu).view(float)],
             exact(m.pert_h), exact(m.pert_v)) for m in maps]


@pytest.mark.parametrize("seed", [1, 7])
def test_lattice2_workload_builds_the_fixture_family(seed, tmp_path):
    # the workload writes psi into a fresh series' coeffs and widens it,
    # the fixture passes psi to the constructor: the same family either way
    workload = WORKLOADS["lattice2-o8"](seed, str(tmp_path))
    family, psi = lattice2_family(seed, vmax=workload.order)
    assert exact(workload.psi) == exact(psi)
    assert exact_maps(workload.family.maps) == exact_maps(family.maps)
    assert exact_maps(workload.family.inv_maps) == \
        exact_maps(family.inv_maps)


# Names the benchmark reaches by name that no longer resolve, each with the
# reason the metrics built on them are allowed to read 0.
UNRESOLVED_ALLOWED = {
    "toruslin.divisors.divisor_values":
        "tracing.py counts divisors.records on it; the scan no longer has "
        "it, so the metric reads 0 (FOUND line in CHANGES.md)",
    "toruslin.deckmaps.compose_with_map":
        "the one-job wrapper, deleted; its span and call metrics read 0 "
        "since the degree loop composes through compose_with_maps",
}


def bench_names():
    """Every dotted ``toruslin`` name the benchmark reaches: the targets
    ``perfbench/tracing.py`` wraps, hooks and reports on, and each
    attribute chain on a ``toruslin`` module in the benchmark's files."""
    tracing = load_bench_module("tracing")
    names = {"toruslin." + layer for layer in tracing.LAYERS}
    names |= {"toruslin." + target for target in
              [*tracing.HOOKS, *tracing.SELF_SPANS.values()]}
    names |= {"toruslin._kernels." + name for name in tracing.KERNELS}
    names |= {"toruslin.%s.%s" % (layer, qual)
              for layer, quals in tracing.PRIVATE_TARGETS.items()
              for qual in quals}
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules.update((a.asname or a.name, a.name)
                               for a in node.names
                               if a.name.split(".")[0] == "toruslin")
            elif isinstance(node, ast.ImportFrom) and node.module and \
                    node.module.split(".")[0] == "toruslin":
                modules.update((a.asname or a.name,
                                "%s.%s" % (node.module, a.name))
                               for a in node.names)
        for node in ast.walk(tree):
            chain, inner = [], node
            while isinstance(inner, ast.Attribute):
                chain.append(inner.attr)
                inner = inner.value
            if chain and isinstance(inner, ast.Name) and inner.id in modules:
                names.add(".".join([modules[inner.id], *chain[::-1]]))
    return names


def resolves(name):
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def test_benchmark_names_resolve():
    # a deletion in src/ that the benchmark still reaches by name would
    # zero a metric or break a workload without an error; each name that
    # may not resolve is listed with its reason, and a listed name that
    # resolves again is stale
    names = bench_names()
    assert {"toruslin.deckmaps.conjugate_by_vertical",
            "toruslin.series.TruncatedSeries._arrays",
            "toruslin._kernels.cauchy_product",
            "toruslin.lattice.DomainSpec",
            "toruslin.kernel_backend"} <= names
    missing = {name for name in names if not resolves(name)}
    assert missing == set(UNRESOLVED_ALLOWED)
