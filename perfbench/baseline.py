"""Reference figures for incalg: the micro figures of the ROADMAP baseline and
a full benchmark baseline.

    python3 perfbench/baseline.py           # print the ROADMAP figures (~1 min)
    python3 perfbench/baseline.py --write   # also run every workload, traced and
                                            # untraced, and write baseline.json

The ROADMAP figures are census walls (median of 3 runs) and per-call costs
of the core operations on diamond / F3 (d = 9, median of 7 repeats).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BASELINE_SEED = 1


def per_call(fn, repeats: int = 7, target: float = 0.05) -> float:
    """Median seconds per call over ``repeats`` batches of about ``target`` s."""
    t0 = time.perf_counter()
    fn()
    n = max(1, int(target / max(time.perf_counter() - t0, 1e-7)))
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        samples.append((time.perf_counter() - t0) / n)
    return statistics.median(samples)


def roadmap_figures() -> dict:
    from incalg import fields, posets, preservers, verify
    from incalg.algebra import FIElement

    out = {}
    for spec, p in (("chain:2", 3), ("chain:2", 5), ("antichain:4", 2)):
        poset, field = posets.builtin_poset(spec), fields.PrimeField(p)
        walls = []
        for _ in range(3):
            t0 = time.perf_counter()
            verify.enumerate_preservers(poset, field)
            walls.append(time.perf_counter() - t0)
        out[f"census_wall_s {spec}/Fp{p}"] = statistics.median(walls)

    poset, field = posets.builtin_poset("diamond"), fields.PrimeField(3)
    rng = random.Random(BASELINE_SEED)
    d, q = poset.dimension, field.p

    def element(unit: bool):
        vals = [rng.randrange(1 if unit and i < poset.n else 0, q) for i in range(d)]
        return FIElement.from_vector(poset, field, vals)

    a, b, u = element(False), element(False), element(True)
    raw_a = [c.value for c in a.coeffs]
    raw_b = [c.value for c in b.coeffs]
    plan = poset.convolution_plan
    phi = preservers.build_preserver(verify.random_preserver_spec(poset, field, rng))

    def raw_conv():
        return [sum(raw_a[i] * raw_b[j] for i, j in terms) % q for terms in plan]

    assert raw_conv() == [c.value for c in (a * b).coeffs]
    out["conv_us diamond/Fp3"] = per_call(lambda: a * b) * 1e6
    out["conv_raw_int_us diamond/Fp3"] = per_call(raw_conv) * 1e6
    out["inverse_us diamond/Fp3"] = per_call(u.inverse) * 1e6
    out["apply_us diamond/Fp3"] = per_call(lambda: phi.apply(a)) * 1e6
    out["rank_ms diamond/Fp3"] = per_call(phi.rank) * 1e3
    out["classify_ms diamond/Fp3"] = per_call(lambda: verify.classify(phi)) * 1e3
    out["is_strong_ms diamond/Fp3"] = per_call(lambda: preservers.is_strong(phi)) * 1e3
    return out


def run_workload(name: str, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
           "--seed", str(BASELINE_SEED), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=300, check=True)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{name}: output checks failed\n{out.stdout}")
    machine = json.loads(lines[0].split(" ", 1)[1])
    return {"machine": machine, "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def library_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "incalg").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--write", action="store_true",
                    help="run every workload and write perfbench/baseline.json")
    args = ap.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    figures = roadmap_figures()
    for name, value in figures.items():
        print(f"{name} = {value:.4g}")
    if not args.write:
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = {}
    for w in spec["workloads"]:
        untraced = run_workload(w["name"], spec["run_seconds"], 0)
        traced = run_workload(w["name"], spec["run_seconds"], 1)
        workloads[w["name"]] = {"end_to_end": untraced["metrics"],
                                "per_layer": traced["metrics"],
                                "attempted": untraced["attempted"] + traced["attempted"],
                                "failed": untraced["failed"] + traced["failed"]}
        machine = untraced["machine"]
        print(f"{w['name']}: " + json.dumps(untraced["metrics"]))
    doc = {"library_sha256": library_digest(), "seed": BASELINE_SEED,
           "run_seconds": spec["run_seconds"],
           "machine": {k: machine[k] for k in ("python", "nproc", "cpu")},
           "roadmap": figures, "workloads": workloads}
    (BENCH_DIR / "baseline.json").write_text(json.dumps(doc, indent=2) + "\n",
                                             encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
