"""Correctness check of one command's output directory.

Outputs are compared with reference outputs recorded from the unmodified
program (see `run.py --record`) at the 1e-9 tolerance that the 12
significant digits of the output format promise; byte hashes would flag
last-digit changes from an equally exact eigensolver. `meta.json`'s
`wall_time` is not compared.

When the benchmark seed is not the one the reference was recorded with,
only seed-independent outputs are compared with the reference: `m_exact`,
the ideal-mode tables (`compare.csv`), the `scaling` slopes, and the gate
counts. Checks that need no reference run on every output: gate counts
against the Trotter step layout, dm = m_sim - m_exact, totals as site
means, |M| <= 1, and the RMSEs in meta.json and sweep.csv recomputed from
the series.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

from workloads import step_gate_counts

TOL = 1e-9

# Columns and meta.json fields that depend on the sampling seed.
SEEDED_COLUMNS = {
    "series.csv": {"m_sim", "dm"},
    "totals.csv": {"m_total_sim", "dm_total"},
    "sweep.csv": {"rmse_local", "rmse_total"},
}
SEEDED_META = {"rmse", "seed"}
# `out` echoes where the run wrote, which differs between runs.
UNCHECKED_META = {"wall_time", "out"}


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _close(a: str, b: str) -> bool:
    try:
        x, y = float(a), float(b)
    except ValueError:
        return a == b
    return math.isfinite(x) and abs(x - y) <= TOL


def _compare_csv(out: Path, ref: Path, skip: set) -> list[str]:
    got, want = _read_csv(out), _read_csv(ref)
    if not want or not got or list(got[0]) != list(want[0]) or len(got) != len(want):
        return [f"{out.name}: header or row count differs from the reference"]
    for k, (g, w) in enumerate(zip(got, want)):
        for col in w:
            if col not in skip and not _close(g[col], w[col]):
                return [f"{out.name} row {k} {col}: {g[col]} != reference {w[col]}"]
    return []


def _compare_json(got, want, skip: set, where: str) -> list[str]:
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) - skip != set(want) - skip:
            return [f"{where}: keys differ from the reference"]
        problems = []
        for key in want:
            if key not in skip:
                problems += _compare_json(got[key], want[key], skip, f"{where}.{key}")
        return problems
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: length differs from the reference"]
        return [p for g, w in zip(got, want) for p in _compare_json(g, w, skip, where)]
    if isinstance(want, float) or isinstance(got, float):
        ok = isinstance(got, (int, float)) and abs(got - want) <= TOL
    else:
        ok = got == want
    return [] if ok else [f"{where}: {got!r} != reference {want!r}"]


def _invariants(run_dir: Path) -> list[str]:
    """Reference-free checks of one run directory."""
    meta = json.loads((run_dir / "meta.json").read_text())
    cfg = meta["config"]
    step = step_gate_counts(cfg["n"], cfg["order"], cfg["periodic"])
    want = {k: v * cfg["steps"] for k, v in step.items()}
    problems = []
    if meta["gate_counts"]["total"] != want or meta["gate_counts"]["n_gates"] != sum(want.values()):
        problems.append(f"{run_dir.name}: gate counts {meta['gate_counts']['total']} != {want}")
    series = _read_csv(run_dir / "series.csv")
    totals = _read_csv(run_dir / "totals.csv")
    n = cfg["n"]
    if len(series) != n * len(totals) or len(totals) != cfg["steps"] + 1:
        return problems + [f"{run_dir.name}: series has the wrong shape"]
    sq_local = sq_total = 0.0
    for k, row in enumerate(totals):
        sites = series[k * n:(k + 1) * n]
        m_sim = [float(r["m_sim"]) for r in sites]
        if any(abs(m) > 1 + TOL for m in m_sim):
            problems.append(f"{run_dir.name}: |m_sim| > 1 at t={row['t']}")
        if any(abs(float(r["dm"]) - (float(r["m_sim"]) - float(r["m_exact"]))) > TOL
               for r in sites):
            problems.append(f"{run_dir.name}: dm != m_sim - m_exact at t={row['t']}")
        if abs(float(row["m_total_sim"]) - sum(m_sim) / n) > TOL:
            problems.append(f"{run_dir.name}: m_total_sim is not the site mean at t={row['t']}")
        if k > 0:
            sq_local += sum(float(r["dm"]) ** 2 for r in sites)
            sq_total += float(row["dm_total"]) ** 2
    steps = len(totals) - 1
    rmse_local = math.sqrt(sq_local / (steps * n))
    rmse_total = math.sqrt(sq_total / steps)
    if abs(rmse_local - meta["rmse"]["local"]) > TOL or abs(rmse_total - meta["rmse"]["total"]) > TOL:
        problems.append(f"{run_dir.name}: RMSEs in meta.json do not match the series")
    return problems


def check_command(out: Path, ref: Path, full: bool) -> list[str]:
    """Problems found in one command's output directory; empty when correct."""
    if not out.is_dir():
        return [f"{out.name}: no output directory"]
    got_files = sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file())
    want_files = sorted(p.relative_to(ref) for p in ref.rglob("*") if p.is_file())
    if got_files != want_files:
        return [f"{out.name}: files {[str(p) for p in got_files]} != reference"]
    problems = []
    for rel in want_files:
        o, r = out / rel, ref / rel
        if rel.suffix == ".csv":
            skip = set() if full else SEEDED_COLUMNS.get(rel.name, set())
            problems += _compare_csv(o, r, skip)
        else:
            skip = UNCHECKED_META | (set() if full else SEEDED_META)
            problems += _compare_json(json.loads(o.read_text()), json.loads(r.read_text()),
                                      skip, str(rel))
            problems += _invariants(o.parent)
    if (out / "sweep.csv").is_file():
        for row in _read_csv(out / "sweep.csv"):
            meta = json.loads((out / f"g_{row['g']}" / "meta.json").read_text())
            if not (_close(row["rmse_local"], str(meta["rmse"]["local"]))
                    and _close(row["rmse_total"], str(meta["rmse"]["total"]))):
                problems.append(f"sweep.csv g={row['g']}: RMSEs differ from g_{row['g']}/meta.json")
    return problems
