"""The benchmark's workloads, one operation each, against their own checks.

``perfbench/workloads.py`` builds its inputs through the package's public
surfaces (problem files, ``build_family``, series constructors and
``with_window``, ``DeckMapFamily``) and checks every operation's output,
including that each artifact ``ref-cli-scan`` writes reads back.  It is
loaded by file path, so the benchmark directory needs no package marker.
"""

import importlib.util
from pathlib import Path

import pytest

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
