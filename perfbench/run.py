"""trotterbench benchmark: three CLI workloads, end-to-end metrics, and a
traced per-module breakdown.

    python3 perfbench/run.py --workload noisy_n5 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30 [--save FILE]
    python3 perfbench/run.py --steadiness --workload grid_n5 --runs 5
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --record

Run from the repository root. A single closed-loop client runs the
workload's commands through `trotterbench.cli.main`, each only after the
previous one finished, in one fresh interpreter per repetition; it repeats
the workload until `--seconds` have passed and reports medians over the
repetitions. Child processes import the package from `src/` and run BLAS
with at most `nproc` threads. Every command's outputs are checked against
the recorded reference (check.py); a command fails when it exits nonzero or
its outputs fail the check.

With `--trace 0` the last stdout line holds the end-to-end metrics; with
`--trace 1` traced and untraced repetitions alternate and it holds the
per-layer metrics of tracing.py plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import check
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference"

# (name, unit); what each one should move is listed in README.md.
END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("gate_apps_per_s", "1/s"),
]
WORKER_TIMEOUT_S = 150
WARMUP_S = 3.0


class BenchError(Exception):
    """The benchmark cannot run here (no program to measure, worker died)."""


# ------------------------------------------------------------------ workers

def preflight() -> None:
    """The program must be in this checkout; compile it once, as an
    installed package would be, so no repetition pays for byte-compiling."""
    if not (SRC / "trotterbench" / "cli.py").is_file():
        raise BenchError(f"no trotterbench sources under {SRC}")
    if not compileall.compile_dir(SRC / "trotterbench", quiet=1):
        raise BenchError("trotterbench sources do not compile")


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def run_worker(commands, outs, trace=False, machine=False) -> tuple[dict, float]:
    """One fresh interpreter; returns its record and its wall time."""
    spec = json.dumps({"commands": commands, "outs": [str(o) for o in outs],
                       "trace": trace, "machine": machine})
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), spec],
                              capture_output=True, text=True, env=worker_env(),
                              cwd=ROOT, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"worker exceeded {WORKER_TIMEOUT_S} s") from e
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    if machine:
        imported = Path(record["machine"]["trotterbench_file"]).resolve()
        if SRC not in imported.parents:
            raise BenchError(f"trotterbench was imported from {imported}, not {SRC}")
        record["machine"]["trotterbench_file"] = str(imported.relative_to(ROOT))
    return record, wall


def run_rep(workload, size, seed, trace, before_check=None) -> dict:
    """One repetition: run, check every command's outputs, clean up."""
    argvs = workloads.commands(workload, size, seed)
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=WORK))
    try:
        outs = [tmp / workloads.out_name(i, a) for i, a in enumerate(argvs)]
        record, wall = run_worker(argvs, outs, trace)
        if before_check is not None:
            before_check(outs)
        full = workloads.is_reference_seed(workload, seed)
        failed, problems, gate_apps = 0, [], 0
        per_command: dict[str, float] = {}
        for i, (argv, out, res) in enumerate(zip(argvs, outs, record["commands"])):
            ref = REFERENCE / size / workload / workloads.out_name(i, argv)
            try:
                found = ([f"exit code {res['code']}"] if res["code"] != 0
                         else check.check_command(out, ref, full))
                if not found:
                    gate_apps += workloads.gate_applications(argv, out)
            except (OSError, ValueError, KeyError, TypeError) as e:
                found = [f"unreadable output: {e!r}"]
            if found:
                failed += 1
                problems += [f"{argv[0]}: {p}" for p in found]
            per_command[argv[0]] = per_command.get(argv[0], 0.0) + res["wall_s"]
        return {
            "wall_s": wall,
            "setup_s": record["setup_s"],
            "peak_rss_mb": record["peak_rss_kb"] * 1024 / 1e6,
            "gate_apps": gate_apps,
            "per_command": per_command,
            "attempted": len(argvs),
            "failed": failed,
            "problems": problems,
            "spans": record["spans"],
        }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


# ---------------------------------------------------------------- measuring

def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def measure(workload, seed=None, seconds=30.0, trace=False, size="full") -> dict:
    """Repeat the workload for `seconds`; medians over the repetitions.

    Untraced: end-to-end metrics. Traced: traced and untraced repetitions
    alternate; per-layer metrics come from the traced ones, per-command
    times and the untraced side of the tracing overhead from the others.
    """
    preflight()
    machine = run_worker([], [], machine=True)[0]["machine"]
    # After the machine was idle, fresh interpreters start slower for a few
    # seconds; keep that transient out of the figures.
    warm_until = time.perf_counter() + WARMUP_S
    while time.perf_counter() < warm_until:
        run_worker([], [])
    probes, reps = [], []
    start = time.perf_counter()
    # Stop before a repetition would end past `seconds`, so that a run
    # takes about `seconds` whatever the repetition length.
    while (not reps or (trace and len(reps) < 2)
           or (time.perf_counter() - start) * (len(reps) + 1) / len(reps) <= seconds):
        if not trace:  # one more set-up sample per repetition, spread over the run
            probes.append(run_worker([], [])[0])
        reps.append(run_rep(workload, size, seed, trace and len(reps) % 2 == 0))
    traced = [r for r in reps if r["spans"] is not None]
    plain = [r for r in reps if r["spans"] is None]
    commands = sorted({c for r in reps for c in r["per_command"]})
    per_command = {f"{c}_s": _median([r["per_command"][c] for r in plain])
                   for c in commands} if plain else {}
    if trace:
        layers = [tracing.layer_metrics(r["spans"]) for r in traced]
        values = {name: _median([m[name] for m in layers]) for name, _ in tracing.PER_LAYER}
        for c in tracing.COMMANDS:
            values[f"cli.{c}_s"] = per_command.get(f"{c}_s", 0.0)
        values["trace.overhead_s"] = (_median([r["wall_s"] for r in traced])
                                      - _median([r["wall_s"] for r in plain]))
        units = dict(tracing.PER_LAYER)
    else:
        walls = [r["wall_s"] for r in reps]
        values = {
            "wall_s": _median(walls),
            "setup_s": _median([p["setup_s"] for p in probes] + [r["setup_s"] for r in reps]),
            "peak_rss_mb": _median([r["peak_rss_mb"] for r in reps]),
            "gate_apps_per_s": _median([r["gate_apps"] / r["wall_s"] for r in reps]),
        }
        units = dict(END_TO_END)
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "repetitions": len(reps),
        "traced_repetitions": len(traced),
        "setup_samples": len(probes) + len(reps),
        "per_command_s": per_command,
        "fail_frac": failed / attempted,
        "problems": sorted({p for r in reps for p in r["problems"]})[:20],
        "machine": {**machine, "git_commit": git_commit()},
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
        },
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git (a checkout
    without .git gives "unknown")."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def report(m: dict) -> None:
    """Human-readable lines: machine, metrics with units and sample counts."""
    print(f"machine {json.dumps(m['machine'], sort_keys=True)}")
    res = m["result"]
    samples = m["traced_repetitions"] if m["trace"] else m["repetitions"]
    for name, v in res["metrics"].items():
        n = m["setup_samples"] if name == "setup_s" else samples
        print(f"{m['workload']:10s} {name:26s} {v['value']:.6g} {v['unit']} (median of {n})")
    if not m["trace"]:  # the traced run lists them as cli.<command>_s
        for name, v in m["per_command_s"].items():
            print(f"{m['workload']:10s} {name:26s} {v:.6g} s (median of {samples})")
    print(f"{m['workload']:10s} {'fail_frac':26s} {m['fail_frac']:.6g} "
          f"({res['failed']} of {res['attempted']} commands)")
    for p in m["problems"]:
        print(f"{m['workload']:10s} FAILED {p}")


# ------------------------------------------------------------------- modes

def record_reference() -> None:
    """Store the current program's outputs at the default seeds as the
    reference. Only for a commit whose outputs are known to be right."""
    preflight()
    for size in ("full", "tiny"):
        for workload in workloads.WORKLOADS:
            argvs = workloads.commands(workload, size)
            dest = REFERENCE / size / workload
            shutil.rmtree(dest, ignore_errors=True)
            outs = [dest / workloads.out_name(i, a) for i, a in enumerate(argvs)]
            record, _ = run_worker(argvs, outs)
            if any(r["code"] != 0 for r in record["commands"]):
                raise BenchError(f"{size} {workload}: a command failed")
            for meta_path in dest.rglob("meta.json"):
                meta = json.loads(meta_path.read_text())
                del meta["wall_time"]
                meta["config"]["out"] = None
                meta_path.write_text(json.dumps(meta, indent=2) + "\n")
            print(f"recorded {dest.relative_to(ROOT)}")


def steadiness(names, runs, seconds) -> dict:
    """Run the benchmark command `runs` times per workload with seeds
    1..runs; per metric, the median and the quartile spread as a share of
    the median. A spread above a tenth, or above a third of the metric's
    bound in BENCHMARK.json, is flagged."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {e["name"]: e["bound"] for e in spec["end_to_end"]}
    summary = {}
    for workload in names:
        values: dict[str, list[float]] = {}
        for seed in range(1, runs + 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                capture_output=True, text=True, cwd=ROOT, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                raise BenchError(f"{workload} seed {seed}: outputs failed the check")
            for name, v in result["metrics"].items():
                values.setdefault(name, []).append(v["value"])
        summary[workload] = {}
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            summary[workload][name] = {"median": med, "spread": spread, "values": vals}
            flag = "  UNSTEADY" if spread > min(0.1, bounds[name] / 3) else ""
            print(f"{workload:10s} {name:18s} median {med:.6g} spread {spread:.4f} "
                  f"(bound {bounds[name]}){flag}")
    return summary


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all",
                   help=f"one of {', '.join(workloads.WORKLOADS)}, a comma list, or all")
    p.add_argument("--seed", type=int, default=None,
                   help="seed of the sampled commands (default: shots 7, noisy 3)")
    p.add_argument("--seconds", type=float, default=30.0, help="measuring time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--save", help="write the full record as JSON; with --save or "
                   "several workloads, each runs untraced and traced")
    p.add_argument("--steadiness", action="store_true",
                   help="repeat the benchmark per workload and report spreads")
    p.add_argument("--runs", type=int, default=10, help="runs per workload for --steadiness")
    p.add_argument("--selftest", action="store_true", help="tiny-size self-test")
    p.add_argument("--record", action="store_true",
                   help="record the reference outputs from the current program")
    args = p.parse_args(argv)
    names = (list(workloads.WORKLOADS) if args.workload == "all"
             else args.workload.split(","))
    unknown = set(names) - set(workloads.WORKLOADS)
    if unknown:
        p.error(f"unknown workload(s): {sorted(unknown)}")
    try:
        if args.selftest:
            import selftest

            return selftest.main()
        if args.record:
            record_reference()
            return 0
        if args.steadiness:
            print(json.dumps(steadiness(names, args.runs, args.seconds)))
            return 0
        if len(names) == 1 and args.save is None:
            m = measure(names[0], args.seed, args.seconds, bool(args.trace))
            report(m)
            print(json.dumps(m["result"]))
            return 0
        record = {}
        for name in names:
            record[name] = {}
            for trace in (False, True):
                m = measure(name, args.seed, args.seconds, trace)
                report(m)
                record[name]["traced" if trace else "untraced"] = m
        if args.save:
            Path(args.save).write_text(json.dumps(record, indent=2) + "\n")
        print(json.dumps({name: {k: v["result"] for k, v in r.items()}
                          for name, r in record.items()}))
        return 0
    except (BenchError, subprocess.CalledProcessError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()


if __name__ == "__main__":
    sys.exit(main())
