"""Write a bench record, ``BENCH_<pr>.json``, for one or more checkouts.

    python3 tools/bench_record.py --pr 26 parent=../parent change=. \
        --seed 7 --seconds 10 --rounds 3

For each round, and for each checkout in turn (the order alternates from
round to round, so that a drift of the machine's speed does not fall on one
side), this runs, each in a fresh child process:

- ``perfbench/run.py`` on every workload of the checkout's BENCHMARK.json,
  untraced (``--trace 0``: the end-to-end metrics) and traced
  (``--trace 1``: the per-layer metrics);
- the walls that no workload covers: ``analyze_map`` (what ``incalg check``
  runs) on the identity maps of chain:12, chain:16 and antichain:16 over Q
  and of chain:6 over Fp 2, ``classify`` on the chain:16 identity over Q,
  and the census of v over Fp 2.

The children run with ``PYTHONDONTWRITEBYTECODE`` dropped and
``PYTHONPYCACHEPREFIX`` set to a temporary directory, so the first run of a
checkout writes its bytecode cache outside the checkout and every later
process loads it: the setup probes of run.py then time a cached import, as
perfbench/README.md describes. Standard library only; nothing under
``perfbench/`` is changed. The record holds the machine, the settings, and
per checkout every run's result and the median of each metric over rounds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

WALLS = r"""
import json, sys, time
sys.path.insert(0, "src")
from incalg import LinearMap, PrimeField, Rationals, analyze_map, builtin_poset
from incalg import classify, enumerate_preservers

def timed(call):
    t0 = time.perf_counter()
    call()
    return time.perf_counter() - t0

out = {}
for name, field in (("chain:12", Rationals()), ("chain:16", Rationals()),
                    ("antichain:16", Rationals()), ("chain:6", PrimeField(2))):
    phi = LinearMap.identity(builtin_poset(name), field)
    out[f"check {name}/{field} identity"] = timed(lambda: analyze_map(phi))
phi = LinearMap.identity(builtin_poset("chain:16"), Rationals())
out["classify chain:16/Q identity"] = timed(lambda: classify(phi))
out["census v/Fp 2"] = timed(lambda: enumerate_preservers(builtin_poset("v"), PrimeField(2)))
print(json.dumps(out))
"""


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("checkouts", nargs="+", metavar="NAME=PATH",
                    help="a label and the root of a checkout to measure")
    ap.add_argument("--pr", required=True, help="the number in BENCH_<pr>.json")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=10.0, help="per run.py run")
    ap.add_argument("--rounds", type=int, default=3)
    ap.add_argument("--out-dir", default=".", help="where BENCH_<pr>.json goes")
    return ap.parse_args(argv)


def machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {"cpu": model, "nproc": os.cpu_count(), "python": platform.python_version(),
            "system": platform.platform()}


def source_digest(root: Path) -> str:
    """sha256 over the library's source files, to name the code measured."""
    h = hashlib.sha256()
    for path in sorted((root / "src" / "incalg").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def last_json(stdout: str) -> dict | None:
    for line in reversed(stdout.splitlines()):
        if line.startswith("{"):
            return json.loads(line)
    return None


def run_child(argv: list[str], cwd: Path, env: dict) -> tuple[int, str, float]:
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True)
    return proc.returncode, proc.stdout, time.perf_counter() - t0


def measure(root: Path, args, env: dict) -> tuple[list[dict], dict]:
    """One round on one checkout: every workload untraced and traced, then
    the extra walls."""
    workloads = [w["name"] for w in
                 json.loads((root / "BENCHMARK.json").read_text())["workloads"]]
    runs = []
    for name in workloads:
        for trace in (0, 1):
            code, stdout, wall = run_child(
                [sys.executable, "perfbench/run.py", "--workload", name, "--seed",
                 str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)],
                root, env)
            result = last_json(stdout) or {}
            runs.append({"workload": name, "trace": trace, "exit": code,
                         "correct": result.get("correct"),
                         "attempted": result.get("attempted"),
                         "failed": result.get("failed"),
                         "metrics": {k: v["value"]
                                     for k, v in result.get("metrics", {}).items()},
                         "child_wall_s": round(wall, 3)})
            print(f"  {root.name or root}: {name} trace={trace} exit={code}", file=sys.stderr)
    code, stdout, _ = run_child([sys.executable, "-c", WALLS], root, env)
    walls = last_json(stdout) if code == 0 else {"error": stdout[-500:]}
    return runs, walls


def summary(runs: list[dict], walls: list[dict]) -> dict:
    """The median of every metric over rounds, per workload and trace mode."""
    out: dict = {}
    for run in runs:
        key = f"{run['workload']} trace={run['trace']}"
        for metric, value in run["metrics"].items():
            out.setdefault(key, {}).setdefault(metric, []).append(value)
    for wall in walls:
        for name, value in wall.items():
            if isinstance(value, float):
                out.setdefault("walls_s", {}).setdefault(name, []).append(value)
    return {key: {m: statistics.median(v) for m, v in metrics.items()}
            for key, metrics in out.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    checkouts = []
    for item in args.checkouts:
        label, sep, path = item.partition("=")
        root = Path(path).resolve()
        if not sep or not (root / "perfbench" / "run.py").is_file():
            sys.exit(f"bench_record: {item!r} is not NAME=PATH of a checkout")
        checkouts.append((label, root))
    record = {"pr": args.pr, "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
              "machine": machine(),
              "settings": {"seed": args.seed, "seconds": args.seconds,
                           "rounds": args.rounds, "order": "alternating by round",
                           "bytecode": "cached under a temporary PYTHONPYCACHEPREFIX"},
              "checkouts": {label: {"src_digest": source_digest(root), "rounds": []}
                            for label, root in checkouts}}
    with tempfile.TemporaryDirectory(prefix="bench-pycache-") as cache:
        env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        env["PYTHONPYCACHEPREFIX"] = cache
        for r in range(args.rounds):
            for label, root in (checkouts if r % 2 == 0 else checkouts[::-1]):
                print(f"round {r + 1}/{args.rounds}: {label}", file=sys.stderr)
                runs, walls = measure(root, args, env)
                record["checkouts"][label]["rounds"].append({"runs": runs, "walls_s": walls})
    for entry in record["checkouts"].values():
        entry["median"] = summary([run for rnd in entry["rounds"] for run in rnd["runs"]],
                                  [rnd["walls_s"] for rnd in entry["rounds"]])
    out = Path(args.out_dir) / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
