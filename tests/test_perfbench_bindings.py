"""The names the benchmark's tracer (perfbench/tracing.py) wraps must exist.

The tracer patches package functions by name and raises AttributeError on a
missing one, so a deleted or renamed target would only show in a traced
benchmark run. These tests make it fail here instead.
"""

import importlib
import inspect
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
