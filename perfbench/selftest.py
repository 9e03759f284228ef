"""Self-test of the benchmark at tiny sizes (N=3-4, a few steps and
trajectories): `python3 perfbench/run.py --selftest`.

For each workload it runs the tiny variant once untraced and once traced,
and asserts that every named metric appears with its unit, that spans nest
with non-negative self times, that counts agree with the workload's own
gate count, and that a corrupted output counts toward fail_frac. It also
checks that the benchmark refuses to run where the program is missing.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import tracing
import workloads


def _corrupt(outs: list[Path]) -> None:
    """Move one m_exact value of the first CSV that has one past the tolerance."""
    for path in sorted(p for out in outs for p in out.rglob("*.csv")):
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        if "m_exact" in rows[0]:
            col = rows[0].index("m_exact")
            rows[1][col] = repr(float(rows[1][col]) + 1e-6)
            with open(path, "w", newline="") as fh:
                csv.writer(fh, lineterminator="\n").writerows(rows)
            return
    raise AssertionError("no CSV with an m_exact column to corrupt")


def _metrics_ok(result: dict, expected: list[tuple[str, str]], positive: bool) -> list[str]:
    got = result["metrics"]
    problems = []
    if set(got) != {name for name, _ in expected}:
        problems.append(f"metric names {sorted(got)} != {sorted(n for n, _ in expected)}")
    for name, unit in expected:
        v = got.get(name, {})
        if v.get("unit") != unit:
            problems.append(f"{name}: unit {v.get('unit')!r} != {unit!r}")
        value = v.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r} is not a finite number")
        elif positive and value <= 0:
            problems.append(f"{name}: value {value} is not positive")
    return problems


def check_workload(workload: str) -> list[str]:
    problems = []
    plain = run.measure(workload, None, 0, trace=False, size="tiny")
    problems += _metrics_ok(plain["result"], run.END_TO_END, positive=True)
    traced = run.measure(workload, None, 0, trace=True, size="tiny")
    problems += _metrics_ok(traced["result"], tracing.PER_LAYER, positive=False)
    for m in (plain, traced):
        if not m["result"]["correct"] or m["fail_frac"] != 0:
            problems.append(f"trace={m['trace']}: outputs failed: {m['problems']}")

    rep = run.run_rep(workload, "tiny", None, trace=True)
    problems += tracing.nesting_errors(rep["spans"])
    if min(tracing.self_times(rep["spans"])) < 0:
        problems.append("a span has negative self time")
    layers = tracing.layer_metrics(rep["spans"])
    if workload == "noisy_n5" and layers["kernels.gate_apps"] != rep["gate_apps"]:
        problems.append(f"kernels.gate_apps {layers['kernels.gate_apps']} != "
                        f"workload gate applications {rep['gate_apps']}")

    other_seed = run.run_rep(workload, "tiny", 12345, trace=False)
    if other_seed["failed"]:
        problems.append(f"seed 12345 failed the seed-independent check: {other_seed['problems']}")

    corrupted = run.run_rep(workload, "tiny", None, trace=False, before_check=_corrupt)
    if corrupted["failed"] < 1:
        problems.append("a corrupted output was not counted as failed")
    return problems


def check_refuses_without_program() -> list[str]:
    """Only the benchmark's own files: it must fail without a result."""
    run.WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=run.WORK))
    try:
        shutil.copytree(run.HERE, tmp / run.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, str(tmp / run.HERE.name / "run.py"),
             "--workload", "grid_n5", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=tmp, timeout=120)
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            return ["the benchmark ran without the program's sources"]
        return []
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def check_benchmark_json() -> list[str]:
    """BENCHMARK.json must name exactly the workloads and metrics produced."""
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    for key, expected in (("workloads", [(w, None) for w in workloads.WORKLOADS]),
                          ("end_to_end", run.END_TO_END),
                          ("per_layer", tracing.PER_LAYER)):
        listed = [(e["name"], e.get("unit")) for e in spec[key]]
        if listed != list(expected):
            problems.append(f"BENCHMARK.json {key} {listed} != {list(expected)}")
    return problems


def main() -> int:
    failed = False
    checks = [("BENCHMARK.json", check_benchmark_json)]
    checks += [(w, lambda w=w: check_workload(w)) for w in workloads.WORKLOADS]
    checks.append(("no program", check_refuses_without_program))
    for name, fn in checks:
        problems = fn()
        failed |= bool(problems)
        print(f"{'FAIL' if problems else 'PASS'} {name}")
        for p in problems:
            print(f"    {p}")
    return 1 if failed else 0
