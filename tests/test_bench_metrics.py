"""The per-layer metrics that the benchmark's self-test requires to be
nonzero (``EXERCISED`` in ``perfbench/test_perfbench.py``, loaded
read-only), checked on one traced pass of each workload at seed 1. A
library change that leaves a probed layer unreached, so that its metric
reads zero, fails here and not only when the benchmark's own tests run."""

import importlib.util
import sys
from pathlib import Path

import pytest


def _load_selftest():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "test_perfbench.py"
    spec = importlib.util.spec_from_file_location("perfbench_selftest", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


selftest = _load_selftest()


@pytest.mark.parametrize("name", sorted(selftest.EXERCISED))
def test_exercised_layer_metrics_are_nonzero(name):
    workload = selftest.WORKLOADS[name](1, selftest.load_expected())
    _, traced, metrics, missing = selftest.run.traced_run(workload, 0)
    assert missing == []
    assert selftest.run.check_passes(traced) == []
    zero = [m for m in selftest.EXERCISED[name] if not metrics[m] > 0]
    assert zero == [], f"{name}: zero per-layer metrics {zero}"
