"""The benchmark's workloads, one operation each, against their own checks.

``perfbench/workloads.py`` builds its inputs through the package's public
surfaces (problem files, ``build_family``, series constructors and
``with_window``, ``DeckMapFamily``) and checks every operation's output,
including that each artifact ``ref-cli-scan`` writes reads back.  It is
loaded by file path, so the benchmark directory needs no package marker.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from _fixtures import lattice2_family

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / \
    "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = load_workloads().WORKLOADS


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
