"""Tests of the benchmark itself: tracer completeness, traced/untraced output
equality, the output checks, and a held-out seed.

    python3 -m pytest perfbench/test_perfbench.py -q

One traced and one untraced pass per workload; about a minute on two cores.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import incalg  # noqa: E402
import run  # noqa: E402
from reference import CAP, Reference  # noqa: E402
from tracer import PROBES, Tracer  # noqa: E402
from workloads import WORKLOADS, ClassifyQ, Suites, load_expected  # noqa: E402

HELD_OUT_SEED = 9973  # never used while the benchmark was tuned (seeds 1-10)

ALL = ["posets.build_ms", "run.wall_s", "run.reference_job_ms",
       "trace.overhead_ratio", "trace.coverage"]
CENSUS_FILTER = ["verify.census_self_s", "verify.matrices_visited",
                 "verify.filter_ns_per_matrix", "verify.survivors",
                 "verify.survivor_ratio"]
# The per-layer metrics each workload is meant to move (README.md).
EXERCISED = {
    "census-sparse": ALL + CENSUS_FILTER,
    "census-dense": ALL + CENSUS_FILTER + [
        "verify.cost_per_survivor_ms", "verify.classify_calls", "verify.classify_ms",
        "verify.classify_self_ms", "verify.report_json_ms",
        "preservers.apply_calls", "preservers.apply_us", "preservers.rank_calls",
        "preservers.rank_us", "preservers.strong_scan_calls",
        "preservers.strong_scan_ms", "preservers.nonpreserved_scan_ms",
        "endos.to_xor_endo_us", "fields.scalar_ops", "fields.field_eq_calls"],
    "classify-q": ALL + [
        "verify.classify_calls", "verify.classify_ms", "verify.classify_self_ms",
        "verify.analyze_map_ms", "preservers.apply_calls", "preservers.apply_us",
        "preservers.extract_subset_map_calls", "preservers.extract_subset_map_ms",
        "preservers.build_preserver_us", "preservers.jordan_scan_ms",
        "endos.is_separating_calls", "endos.is_separating_ms",
        "endos.is_boolean_endo_calls", "endos.is_boolean_endo_ms",
        "endos.to_partition_ms", "endos.table_us",
        "algebra.conv_calls", "algebra.conv_us", "algebra.elements_built",
        "fields.scalar_ops", "fields.field_eq_calls",
        "accept_ms_p50", "accept_ms_p90", "refute_ms_p50", "refute_ms_p90",
        "accept_samples", "refute_samples"],
    "suites": ALL + [
        "verify.lemma_suite_s", "verify.inverse_suite_s", "verify.verdicts",
        "preservers.rank_calls", "preservers.rank_us",
        "preservers.inverse_scan_ms", "preservers.idempotent_scan_ms",
        "preservers.jordan_scan_ms",
        "algebra.conv_calls", "algebra.conv_us", "algebra.inverse_calls",
        "algebra.inverse_us", "algebra.elements_built",
        "fields.scalar_ops", "fields.field_eq_calls"],
}


@pytest.fixture(scope="module")
def expected():
    return load_expected()


@pytest.fixture(scope="module")
def traced_runs(expected):
    """name -> (untraced passes, traced passes, per-layer metrics)."""
    cache = {}

    def get(name):
        if name not in cache:
            untraced, traced, metrics, _ = run.traced_run(WORKLOADS[name](1, expected), 0)
            cache[name] = untraced, traced, metrics
        return cache[name]

    return get


def per_layer_names() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in spec["per_layer"]]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_layer_metrics_nonzero_where_exercised(traced_runs, name):
    _, _, metrics = traced_runs(name)
    assert set(per_layer_names()) <= set(metrics)
    zero = [m for m in EXERCISED[name] if not metrics[m] > 0]
    assert not zero, f"{name}: zero per-layer metrics {zero}"


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_outputs_equal_untraced(traced_runs, name):
    untraced, traced, _ = traced_runs(name)
    assert run.check_passes(untraced + traced) == []
    assert untraced[0].digest == traced[0].digest


def test_tracer_replaces_and_restores_every_binding():
    modules = [m for n, m in sys.modules.items() if n.startswith("incalg")]
    functions = {}
    for probe in PROBES:
        module_name, _, qualname = probe.target.partition(":")
        if "." not in qualname:
            functions[probe.target] = getattr(sys.modules[module_name], qualname)
    apply = incalg.LinearMap.apply

    def bindings_of(fn):
        return [(m.__name__, k) for m in modules for k, v in vars(m).items() if v is fn]

    # verify binds these by name at import; the package re-exports them
    assert ("incalg.verify", "extract_subset_map") in bindings_of(
        functions["incalg.preservers:extract_subset_map"])
    assert ("incalg", "to_partition") in bindings_of(functions["incalg.endos:to_partition"])
    with Tracer() as tracer:
        assert tracer.missing == []
        for target, fn in functions.items():
            assert bindings_of(fn) == [], f"{target} still bound unwrapped"
        assert incalg.LinearMap.apply is not apply
    for fn in functions.values():
        assert bindings_of(fn)
    assert incalg.LinearMap.apply is apply
    assert incalg.verify.is_separating is functions["incalg.endos:is_separating"]


@pytest.mark.parametrize("name", ["census-sparse", "classify-q", "suites"])
def test_held_out_seed_passes_every_check(expected, name):
    workload = WORKLOADS[name](HELD_OUT_SEED, expected)
    ops = workload.run_pass()
    assert [op.detail for op in ops if not op.ok] == []
    assert ops


def test_checks_reject_wrong_outputs(expected):
    workload = ClassifyQ(2, expected)
    kind, spec, phi = next(m for m in workload.maps if m[0] == "accept")
    report = incalg.analyze_map(phi)
    assert ClassifyQ._check_report("accept", spec, report)[0]
    assert not ClassifyQ._check_report("late", spec, report)[0]
    other = next(m[1] for m in workload.maps
                 if m[0] == "accept" and m[1].poset == spec.poset and m[1] != spec)
    assert not ClassifyQ._check_report("accept", other, report)[0]

    suites = Suites(1, {"suites": {key: 0 for key in expected["suites"]}})
    assert not any(op.ok for op in suites.run_pass())


def test_fails_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "suites", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_reference_clock_leaves_out_jobs():
    ref = Reference()
    previous = signal.getsignal(signal.SIGALRM)
    t0, c0 = time.perf_counter(), ref.clock()
    with ref.sampling():
        while time.perf_counter() - t0 < 0.5:
            sum(range(1000))
    wall, lib = time.perf_counter() - t0, ref.clock() - c0
    jobs = sum(ref.samples[5:])
    assert len(ref.samples) > 5
    assert lib == pytest.approx(wall - jobs, abs=0.02)
    assert signal.getsignal(signal.SIGALRM) is previous


def test_reference_mean_caps_stretched_jobs():
    ref = Reference()
    ref.samples = [1.0] * 20 + [100.0]
    assert ref.mean() == pytest.approx((20 + CAP) / 21)
    assert ref.mean(20, 21) == CAP
    assert ref.mean(21, 21) == ref.mean()  # no job during a short pass
