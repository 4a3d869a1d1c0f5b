"""Tiny-size self-test of every benchmark workload.

    python3 perfbench/selftest.py

Runs each workload at self-test size (``run.py --tiny``), untraced and
traced, and checks that the result line reports exactly the metrics
declared in ``BENCHMARK.json``, each with its declared unit and a
finite value, and that every correctness gate passed.  It also checks
that a copy holding only ``BENCHMARK.json`` and the benchmark files
exits non-zero without printing a result.  Exits 1 on any problem.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402

WORKDIR = ROOT / ".perfbench" / "selftest"


def check_run(workload: str, trace: int, declared: dict) -> list[str]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--tiny",
           "--trajectory", str(WORKDIR / "trajectory.jsonl")]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    where = f"{workload} --trace {trace}"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return [f"{where}: exit {proc.returncode}\n{proc.stdout}{proc.stderr[-2000:]}"]
    result = json.loads(lines[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: gates failed\n{proc.stdout}")
    expected = declared["per_layer" if trace else "end_to_end"]
    if set(result["metrics"]) != set(expected):
        problems.append(f"{where}: metrics {sorted(set(result['metrics']) ^ set(expected))} "
                        "missing or undeclared")
    for name, entry in result["metrics"].items():
        if entry.get("unit") != expected.get(name) or sorted(entry) != ["unit", "value"]:
            problems.append(f"{where}: {name} reported as {entry}")
        elif not isinstance(entry["value"], (int, float)) or not math.isfinite(entry["value"]):
            problems.append(f"{where}: {name} value {entry['value']!r} is not a finite number")
    return problems


def check_bare_copy() -> list[str]:
    """Without the program's sources the benchmark must refuse to run."""
    bare = WORKDIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, f"{HERE.name}/run.py", "--workload", "served-smoke",
           "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare copy: exit {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {kind: {m["name"]: m["unit"] for m in bench[kind]}
                for kind in ("end_to_end", "per_layer")}
    if sorted(w["name"] for w in bench["workloads"]) != sorted(WORKLOADS):
        print("BENCHMARK.json workloads differ from workloads.WORKLOADS")
        return 1
    WORKDIR.mkdir(parents=True, exist_ok=True)
    problems = check_bare_copy()
    for workload in WORKLOADS:
        for trace in (0, 1):
            found = check_run(workload, trace, declared)
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
