"""The names the benchmark's tracer (perfbench/tracing.py) wraps must exist
and must be the code the commands run.

The tracer patches package functions by name and raises AttributeError on a
missing one, so a deleted or renamed target would only show in a traced
benchmark run. A target nothing calls would show only as a layer that reads
0 while its work is counted elsewhere. These tests make both fail here.
"""

import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import trotterbench

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# Argument positions `tracing._extract` reads, by extractor name.
EXTRACTED = {
    "gates": {0: "amps", 2: "kinds"},
    "trajectories": {3: "trajectories"},
    "written_csv": {0: "path"},
    "written_run": {1: "out_dir"},
}


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing")


def test_every_traced_function_resolves(tracing):
    for module, attr, _, kind in tracing.TARGETS:
        fn = getattr(importlib.import_module(f"trotterbench.{module}"), attr, None)
        assert callable(fn), f"{module}.{attr}"
        if kind is not None:
            params = list(inspect.signature(fn).parameters)
            for position, name in EXTRACTED[kind].items():
                assert params[position] == name, f"{module}.{attr} argument {position}"


def test_every_traced_method_resolves(tracing):
    for module, cls_name, attr, _ in tracing.METHODS:
        cls = getattr(importlib.import_module(f"trotterbench.{module}"), cls_name)
        assert callable(getattr(cls, attr, None)), f"{module}.{cls_name}.{attr}"


def test_machine_line_backend_resolves():
    # perfbench/worker.py records trotterbench.active_backend() per run
    assert callable(trotterbench.active_backend)


# Installs the tracer, runs each command through the CLI with its own --out,
# and prints the exit codes and the names of the spans that occurred.
_TRACED_RUN = """
import contextlib, io, json, sys
import trotterbench.cli as cli
from tracing import Tracer

tracer = Tracer()
tracer.install()
codes = []
for i, argv in enumerate(json.loads(sys.argv[1])):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main([*argv, "--out", f"{sys.argv[2]}/{i}"]))
print(json.dumps({"codes": codes, "spans": sorted({s[0] for s in tracer.spans})}))
"""

# Every mode and command at a tiny size, periodic too (its reference is the
# only caller of the sector evolution).
_COMMANDS = [
    ["run", "--n", "3", "--steps", "2"],
    ["run", "--n", "3", "--steps", "2", "--mode", "shots", "--shots", "16"],
    ["run", "--n", "3", "--steps", "2", "--mode", "noisy", "--traj", "4"],
    ["run", "--n", "3", "--steps", "2", "--periodic"],
    ["compare", "--n", "3", "--steps", "2", "--g-list", "1"],
    ["sweep", "--n", "3", "--steps", "2", "--g-list", "1"],
    ["scaling", "--n", "3", "--g", "2", "--dt-list", "0.05,0.1,0.2"],
]

# The one traced name no command runs: the dense full-space H is the tests'
# reference, and the runtime builds only its sector blocks.
_TEST_ONLY = {"exact.hamiltonian"}


def test_every_traced_name_does_runtime_work(tracing, tmp_path):
    src = Path(trotterbench.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), str(PERFBENCH)])}
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED_RUN, json.dumps(_COMMANDS), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    traced = json.loads(proc.stdout)
    assert traced["codes"] == [0] * len(_COMMANDS), proc.stderr
    names = {name for _, _, name, _ in tracing.TARGETS} | {m[-1] for m in tracing.METHODS}
    assert names - _TEST_ONLY - set(traced["spans"]) == set()
