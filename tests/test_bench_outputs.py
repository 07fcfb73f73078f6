"""One untraced pass of each benchmark workload (``perfbench/workloads.py``,
loaded read-only) at seed 1, with the workload's own output checks: the
census digests, the suites' verdict counts and the classify-q laws. A change
that moves an output the benchmark pins fails here first. The traced passes
and the per-layer metrics are checked by ``perfbench/test_perfbench.py``."""

import importlib.util
import sys
from pathlib import Path

import pytest


def _load_workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_pass_passes_its_output_checks(name):
    ops = workloads.WORKLOADS[name](1, workloads.load_expected()).run_pass()
    assert ops
    assert [(op.kind, op.detail) for op in ops if not op.ok] == []
