"""incalg benchmark runner.

    python3 perfbench/run.py --workload census-sparse --seed 1 --seconds 28 --trace 0

Runs one workload in this process, single-threaded, as a closed loop (each
library call starts when the previous one returns), checks every output and
prints a human-readable report followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json from untraced
passes; ``--trace 1`` reports the per-layer metrics from a traced run (see
README.md). The times of the end-to-end metrics are normalised by a fixed
reference job run on a timer during the passes (reference.py), so that the
drifting speed of a shared core does not show as a change of the program.
The library is imported from ``src/`` of the checkout this file lives in;
without it the runner exits with status 1 and prints no result.
The exit status is also 1, after the result, when any output check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_PROBES = 9         # fresh processes per run; the median is reported
HASH_SEED = "0"          # fixed, so set and dict layouts repeat across runs
UNTRACED_SHARE = 0.4     # of --seconds, in a --trace 1 run


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def import_library():
    """Put this checkout's src/ first on the path and import incalg from it."""
    if not (SRC / "incalg" / "__init__.py").is_file():
        sys.exit(f"perfbench: no incalg sources at {SRC.relative_to(ROOT)}/incalg; "
                 "run from a full checkout")
    sys.path.insert(0, str(SRC))
    import incalg

    if Path(incalg.__file__).resolve().parent != SRC / "incalg":
        sys.exit(f"perfbench: imported incalg from {incalg.__file__}, not from {SRC}")


def machine_info(args) -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "nproc": os.cpu_count(), "cpu": model}


# set-up ----------------------------------------------------------------------

def make_workload(args):
    """Import the library and build the workload's seeded inputs."""
    import_library()
    from workloads import WORKLOADS, load_expected

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"known: {', '.join(WORKLOADS)}")
    return WORKLOADS[args.workload](args.seed, load_expected())


def setup_probe(args):
    """Child process: time import + posets + seeded inputs, print seconds."""
    t0 = time.perf_counter()
    make_workload(args)
    print(repr(time.perf_counter() - t0))


def measure_setup(args) -> list[float]:
    """Set-up seconds of fresh processes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
    times = []
    for k in range(SETUP_PROBES + 1):  # the first one may write bytecode caches
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if out.returncode:
            sys.exit(f"perfbench: set-up failed\n{out.stderr}")
        if k:
            times.append(float(out.stdout))
    return times


# passes ------------------------------------------------------------------------

class Pass:
    def __init__(self, ops, elapsed: float, jobs: tuple[int, int]):
        from workloads import digest

        self.ops = ops
        self.wall = sum(op.seconds for op in ops)   # library calls only
        self.elapsed = elapsed                      # including output checks
        self.jobs = jobs                            # reference samples meanwhile
        self.digest = digest([op.output for op in ops])
        for op in ops:  # so peak RSS does not grow with the number of passes
            op.output = None


def run_passes(workload, seconds: float, min_passes: int, reference=None) -> list[Pass]:
    """Closed loop of passes; stops before a pass would overrun ``seconds``.
    With a sampling ``reference``, each pass records the slice of its
    samples taken during the pass."""
    start = time.perf_counter()
    passes: list[Pass] = []
    while True:
        t0 = time.perf_counter()
        first = len(reference.samples) if reference else 0
        ops = workload.run_pass()
        jobs = (first, len(reference.samples) if reference else 0)
        passes.append(Pass(ops, time.perf_counter() - t0, jobs))
        typical = statistics.median(p.elapsed for p in passes)
        if len(passes) >= min_passes and time.perf_counter() - start + typical > seconds:
            return passes


def median_wall(passes: list[Pass]) -> float:
    return statistics.median(p.wall for p in passes)


def normalised_wall(passes: list[Pass], reference) -> float:
    """Median pass time, each pass scaled to the speed at which the
    reference job takes NOMINAL_JOB_S by the jobs run during it."""
    from reference import NOMINAL_JOB_S

    return statistics.median(p.wall * NOMINAL_JOB_S / reference.mean(*p.jobs)
                             for p in passes)


def measure_passes(workload, seconds: float, min_passes: int):
    """Untraced passes with the reference job running on a timer; returns
    the passes, timed without the job, and the reference."""
    from reference import Reference

    reference = Reference()
    workload.clock = reference.clock
    try:
        with reference.sampling():
            passes = run_passes(workload, seconds, min_passes, reference)
    finally:
        workload.clock = time.perf_counter
    return passes, reference


def latencies(passes: list[Pass], kind: str) -> list[float]:
    """Per-operation milliseconds."""
    return [op.seconds * 1e3 for p in passes for op in p.ops if op.kind == kind]


def percentiles(samples: list[float]) -> tuple[float, float]:
    """Median and p90; p90 needs at least 100 samples (ten beyond it)."""
    if len(samples) < 100:
        return 0.0, 0.0
    return statistics.median(samples), statistics.quantiles(samples, n=10)[-1]


# metrics -------------------------------------------------------------------------

def layer_metrics(tracer, traced: list[Pass], untraced: list[Pass], build_ms: float,
                  reference) -> dict:
    k = len(traced)
    g = tracer.group

    def calls(name):
        return g(name).calls / k

    def mean(name, scale, self_time=False):
        s = g(name)
        return (s.self_time if self_time else s.total) / s.calls * scale if s.calls else 0.0

    census = g("census")
    visited, survivors = tracer.matrices_visited, tracer.survivors
    accept_p50, accept_p90 = percentiles(latencies(untraced, "accept"))
    refute_p50, refute_p90 = percentiles(latencies(untraced, "refute"))
    return {
        "verify.census_self_s": census.self_time / k,
        "verify.matrices_visited": visited / k,
        "verify.filter_ns_per_matrix": census.self_time / visited * 1e9 if visited else 0.0,
        "verify.survivors": survivors / k,
        "verify.survivor_ratio": survivors / visited if visited else 0.0,
        "verify.cost_per_survivor_ms":
            (census.total - census.self_time) / survivors * 1e3 if survivors else 0.0,
        "verify.classify_calls": calls("classify"),
        "verify.classify_ms": mean("classify", 1e3),
        "verify.classify_self_ms": mean("classify", 1e3, self_time=True),
        "verify.analyze_map_ms": mean("analyze_map", 1e3),
        "verify.report_json_ms": mean("report_json", 1e3),
        "verify.lemma_suite_s": g("lemma_suite").total / k,
        "verify.inverse_suite_s": g("inverse_suite").total / k,
        "verify.verdicts": tracer.verdicts / k,
        "preservers.apply_calls": calls("apply"),
        "preservers.apply_us": mean("apply", 1e6),
        "preservers.rank_calls": calls("rank"),
        "preservers.rank_us": mean("rank", 1e6),
        "preservers.strong_scan_calls": calls("strong_scan"),
        "preservers.strong_scan_ms": mean("strong_scan", 1e3),
        "preservers.nonpreserved_scan_ms": mean("nonpreserved_scan", 1e3),
        "preservers.inverse_scan_ms": mean("inverse_scan", 1e3),
        "preservers.idempotent_scan_ms": mean("idempotent_scan", 1e3),
        "preservers.extract_subset_map_calls": calls("extract_subset_map"),
        "preservers.extract_subset_map_ms": mean("extract_subset_map", 1e3),
        "preservers.build_preserver_us": mean("build_preserver", 1e6),
        "preservers.jordan_scan_ms": mean("jordan_scan", 1e3),
        "endos.is_separating_calls": calls("is_separating"),
        "endos.is_separating_ms": mean("is_separating", 1e3),
        "endos.is_boolean_endo_calls": calls("is_boolean_endo"),
        "endos.is_boolean_endo_ms": mean("is_boolean_endo", 1e3),
        "endos.to_partition_ms": mean("to_partition", 1e3),
        "endos.table_us": mean("table", 1e6),
        "endos.to_xor_endo_us": mean("to_xor_endo", 1e6),
        "algebra.conv_calls": calls("conv"),
        "algebra.conv_us": mean("conv", 1e6),
        "algebra.inverse_calls": calls("inverse"),
        "algebra.inverse_us": mean("inverse", 1e6),
        "algebra.elements_built": calls("elements_built"),
        "fields.scalar_ops": calls("scalar_ops"),
        "fields.field_eq_calls": calls("field_eq"),
        "posets.build_ms": build_ms,
        "run.wall_s": median_wall(untraced),
        "run.reference_job_ms": reference.mean() * 1e3,
        "trace.overhead_ratio": median_wall(traced) / median_wall(untraced),
        "trace.coverage": tracer.top_level / sum(p.wall for p in traced),
        "accept_ms_p50": accept_p50,
        "accept_ms_p90": accept_p90,
        "refute_ms_p50": refute_p50,
        "refute_ms_p90": refute_p90,
        "accept_samples": len(latencies(untraced, "accept")),
        "refute_samples": len(latencies(untraced, "refute")),
    }


def traced_run(workload, seconds: float):
    """Untraced passes for a share of ``seconds``, then traced passes for the
    rest; returns both, the per-layer metrics and any probe targets that
    this library version lacks."""
    from tracer import Tracer
    from workloads import build_posets

    untraced, reference = measure_passes(workload, seconds * UNTRACED_SHARE, 1)
    with Tracer() as tracer:
        t0 = time.perf_counter()
        build_posets(workload.posets)
        build_ms = (time.perf_counter() - t0) * 1e3
        tracer.reset()
        remaining = seconds - sum(p.elapsed for p in untraced)
        traced = run_passes(workload, remaining, 1)
    metrics = layer_metrics(tracer, traced, untraced, build_ms, reference)
    return untraced, traced, metrics, tracer.missing


def load_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def peak_rss_mb() -> float:
    """Peak resident set of this process image. ``VmHWM`` belongs to the
    address space, which execve replaces; ``ru_maxrss`` would also carry the
    peak of whatever process this one was forked from."""
    try:
        with open("/proc/self/status", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def check_passes(passes: list[Pass]) -> list[str]:
    """Failed operations, and outputs that differ between passes."""
    problems = [f"{op.kind}: {op.detail}" for p in passes for op in p.ops if not op.ok]
    digests = {p.digest for p in passes}
    if len(digests) > 1:
        problems.append(f"pass outputs differ: {len(digests)} distinct digests")
    return problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    if args.setup_probe:
        setup_probe(args)
        return 0
    if args.trace == 0:
        # before this process imports anything, so that the first probe, not
        # this process, pays for compiling bytecode (it would raise peak RSS)
        setup = measure_setup(args)
    workload = make_workload(args)
    print("machine " + json.dumps(machine_info(args)), flush=True)

    if args.trace == 0:
        from reference import NOMINAL_JOB_S

        passes, reference = measure_passes(workload, args.seconds, 1)
        problems = check_passes(passes)
        metrics = {
            "norm_wall_s": normalised_wall(passes, reference),
            "setup_s": statistics.median(setup) * NOMINAL_JOB_S / reference.mean(),
            "peak_rss_mb": peak_rss_mb(),
        }
        notes = {"norm_wall_s": f"{len(passes)} passes, median pass "
                                f"{median_wall(passes):.4f} s as timed",
                 "setup_s": f"median of {len(setup)} fresh processes, "
                            f"{statistics.median(setup):.4f} s as timed"}
        print(f"  reference job: mean {reference.mean() * 1e3:.4f} ms "
              f"of {len(reference.samples)}")
        for kind in ("accept", "refute"):
            samples = latencies(passes, kind)
            if samples:
                p50, p90 = percentiles(samples)
                print(f"  {kind}_ms_p50 = {p50:.4f} ms  {kind}_ms_p90 = {p90:.4f} ms"
                      f"  (n = {len(samples)})")
    else:
        untraced, traced, metrics, missing = traced_run(workload, args.seconds)
        passes = untraced + traced
        problems = check_passes(passes)
        notes = {"trace": f"{len(traced)} traced passes, {len(untraced)} untraced; "
                          f"not wrapped: {missing or 'none'}"}
    attempted = sum(len(p.ops) for p in passes)
    failed = sum(1 for p in passes for op in p.ops if not op.ok)
    units = load_units()
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}  {notes.get(name, '')}".rstrip())
    print(f"  fail_ratio = {failed / attempted:.6g} ({failed} of {attempted} operations)")
    if "trace" in notes:
        print("  " + notes["trace"])
    for problem in problems[:20]:
        print("  FAIL " + problem)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": max(failed, 1) if problems else 0,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
