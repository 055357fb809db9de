"""Smoke test of the benchmark itself, at tiny input sizes.

    python3 benchmarks/smoke.py

Run from the root of a vrwifi checkout; takes about half a minute. For
every workload, untraced and traced, it checks that the run exits 0 with a
correct result, that every metric BENCHMARK.json names prints with its
unit, and that the traced run's self times plus other_s add up to its
wall time. It also checks that the benchmark refuses to run, printing no
result, in a directory without the program.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN = [sys.executable, str(HERE / "run.py")]


def run(workload: str, trace: int):
    return subprocess.run(
        RUN + ["--workload", workload, "--seed", "1", "--seconds", "1",
               "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=180)


def check_result(proc, wanted: list, label: str) -> list:
    if proc.returncode != 0:
        return [f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}"]
    result = json.loads(proc.stdout.splitlines()[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{label}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0
            and result["attempted"] >= 1):
        errors.append(f"{label}: not correct: {proc.stdout.splitlines()[-2]}")
    got = {n: m["unit"] for n, m in result["metrics"].items()}
    if got != {m["name"]: m["unit"] for m in wanted}:
        errors.append(f"{label}: metric names or units differ from "
                      "BENCHMARK.json")
    for name, m in result["metrics"].items():
        if not (isinstance(m["value"], (int, float))
                and math.isfinite(m["value"])):
            errors.append(f"{label}: {name} = {m['value']!r}")
    return errors


def check_sums(metrics: dict, label: str) -> list:
    """Layer self times + other_s == wall; for each layer that reports
    <layer>.other_s, its named self times + other_s == <layer>.self_s."""
    v = {n: m["value"] for n, m in metrics.items()}
    layers = [n[:-len(".self_s")] for n in v
              if n.endswith(".self_s") and n.count(".") == 1]
    errors = []
    total = sum(v[f"{l}.self_s"] for l in layers) + v["other_s"]
    if not math.isclose(total, v["trace.wall_s"], rel_tol=1e-9,
                        abs_tol=1e-9) or v["other_s"] < 0:
        errors.append(f"{label}: self times + other_s = {total}, "
                      f"wall {v['trace.wall_s']}")
    for layer in (l for l in layers if f"{l}.other_s" in v):
        named = [n for n in v if n.startswith(layer + ".")
                 and n.count(".") == 2 and n.endswith((".s", ".self_s"))]
        parts = sum(v[n] for n in named) + v[f"{layer}.other_s"]
        if not math.isclose(parts, v[f"{layer}.self_s"], rel_tol=1e-9,
                            abs_tol=1e-9):
            errors.append(f"{label}: {layer} parts {parts} != self_s "
                          f"{v[f'{layer}.self_s']}")
        if v[f"{layer}.other_s"] < -1e-9:
            errors.append(f"{label}: {layer}.other_s negative")
    return errors


def check_refuses_without_program(root: Path) -> list:
    bare = root / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(root / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(bare / HERE.name / "run.py"), "--workload",
         "analyze-capture", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return ["benchmark printed a result without the program"]
    return []


def main() -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    errors = []
    for wl in (w["name"] for w in spec["workloads"]):
        errs = check_result(run(wl, 0), spec["end_to_end"], f"{wl} e2e")
        traced = run(wl, 1)
        errs += (check_result(traced, spec["per_layer"], f"{wl} trace")
                 or check_sums(json.loads(traced.stdout.splitlines()[-1])
                               ["metrics"], f"{wl} trace"))
        print(f"smoke: {wl} {'ok' if not errs else 'FAILED'}")
        errors += errs
    errors += check_refuses_without_program(root)
    for e in errors:
        print(f"smoke: {e}")
    print(f"smoke: {len(errors)} failure(s)" if errors else "smoke: passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
