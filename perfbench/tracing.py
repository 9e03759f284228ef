"""Spans around the calls into each trotterbench module, recorded from the
benchmark's own code by wrapping the package's functions in place.

`runner` and `cli` bind their dependencies by name (`from .exact import
exact_series`), so a wrapper must replace every module-level binding of the
original function, not only the one in the defining module. `install`
does that by identity: it patches each `trotterbench.*` module attribute
that is the original object. Calls that resolve at call time are covered
by the same rule (`noise` calls `kernels.run_gates_noisy` as a module
attribute; `exact_series` reaches `build_hamiltonian` and `spectrum`
through `exact`'s globals).

Per-step <Z> readout runs inside `run_gates_record`, so it is part of
`kernels` time; separating it needs spans inside the program.
"""

from __future__ import annotations

import functools
import os
import sys
import time

# (defining module, attribute, span name, attribute extractor name)
TARGETS = [
    ("runner", "run_command", "runner.run_command", None),
    ("runner", "sweep_command", "runner.sweep_command", None),
    ("runner", "compare_command", "runner.compare_command", None),
    ("runner", "scaling_command", "runner.scaling_command", None),
    ("runner", "write_run", "runner.write", "written_run"),
    ("runner", "_write_csv", "runner.write", "written_csv"),
    ("trotter", "build_evolution_circuit", "trotter.build", None),
    ("trotter", "first_order_step", "trotter.build", None),
    ("trotter", "symmetric_step", "trotter.build", None),
    ("circuit", "encode", "circuit.encode", None),
    ("circuit", "gate_counts", "circuit.gate_counts", None),
    ("circuit", "circuit_unitary", "circuit.unitary", None),
    ("kernels", "run_gates", "kernels.run_gates", "gates"),
    ("kernels", "run_gates_record", "kernels.run_gates_record", "gates"),
    ("kernels", "run_gates_noisy", "kernels.run_gates_noisy", "gates"),
    ("kernels", "z_expectations", "kernels.z_expectations", None),
    ("statevector", "all_down_state", "statevector.all_down_state", None),
    ("statevector", "z_expectations", "statevector.z_expectations", None),
    ("statevector", "sample_bitstrings", "statevector.sample", None),
    ("noise", "noisy_execute", "noise.noisy_execute", "trajectories"),
    ("noise", "apply_readout_to_expectations", "noise.readout", None),
    ("observables", "error_series", "observables.error", None),
    ("observables", "local_magnetization_from_counts", "observables.counts", None),
    ("observables", "scaling_fit", "observables.scaling_fit", None),
    ("exact", "exact_series", "exact.exact_series", None),
    ("exact", "build_hamiltonian", "exact.hamiltonian", None),
    ("exact", "spectrum", "exact.spectrum", None),
]
# Methods of exact.Spectrum, patched on the class.
METHODS = [
    ("exact", "Spectrum", "evolve", "exact.evolve"),
    ("exact", "Spectrum", "propagator", "exact.propagator"),
]

COMMANDS = ("run", "compare", "sweep", "scaling")

PER_LAYER = [
    # (metric, unit)
    ("kernels.s", "s"),
    ("kernels.calls", "count"),
    ("kernels.gate_apps", "count"),
    ("kernels.bytes_computed", "B"),
    ("kernels.ns_per_amp", "ns"),
    ("noise.self_s", "s"),
    ("noise.trajectories", "count"),
    ("exact.eigh_s", "s"),
    ("exact.spectra", "count"),
    ("exact.hamiltonian_s", "s"),
    ("exact.evolve_s", "s"),
    ("exact.propagator_s", "s"),
    ("trotter.build_s", "s"),
    ("trotter.build_calls", "count"),
    ("circuit.encode_s", "s"),
    ("circuit.encode_calls", "count"),
    ("circuit.gate_counts_s", "s"),
    ("circuit.unitary_s", "s"),
    ("statevector.sample_s", "s"),
    ("statevector.sample_calls", "count"),
    ("observables.counts_s", "s"),
    ("observables.error_s", "s"),
    ("runner.write_s", "s"),
    ("runner.bytes_written", "B"),
    ("runner.self_s", "s"),
    ("cli.self_s", "s"),
    *((f"cli.{c}_s", "s") for c in COMMANDS),
    ("trace.overhead_s", "s"),
]


def _extract(kind, args):
    """Counts recorded on a span, read from the call's arguments."""
    if kind == "gates":  # (amps, n, kinds, ...): one application per gate
        return {"gates": int(args[2].shape[0]), "dim": int(args[0].shape[0])}
    if kind == "trajectories":  # (circuit, initial, noise, trajectories, seed)
        return {"trajectories": int(args[3])}
    if kind == "written_csv":  # (path, header, rows)
        return {"bytes": os.path.getsize(args[0])}
    if kind == "written_run":  # (result, out_dir); its CSVs are child spans
        return {"bytes": os.path.getsize(os.path.join(args[1], "meta.json"))}
    return None


class Tracer:
    """Spans kept in memory as [name, parent index, start, end, counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def span(self, name: str, fn, kind=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            record = [name, parent, time.perf_counter(), 0.0, None]
            self.spans.append(record)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                self._stack.pop()
            if kind is not None:
                record[4] = _extract(kind, args)
            return result
        return traced

    def install(self) -> None:
        """Wrap every binding of each target across the loaded package."""
        package = {name: mod for name, mod in sys.modules.items()
                   if name == "trotterbench" or name.startswith("trotterbench.")}
        for module, attr, name, kind in TARGETS:
            original = getattr(package[f"trotterbench.{module}"], attr)
            wrapped = self.span(name, original, kind)
            for mod in package.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
        for module, cls_name, attr, name in METHODS:
            cls = getattr(package[f"trotterbench.{module}"], cls_name)
            setattr(cls, attr, self.span(name, getattr(cls, attr)))


# ------------------------------------------------------------- aggregation

def self_times(spans) -> list[float]:
    """Duration of each span minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, _, start, end, _) in enumerate(spans)]


def nesting_errors(spans) -> list[str]:
    """Children must lie inside their parent and must not overlap each other."""
    errors = []
    last_end: dict[int, float] = {}
    for i, (name, parent, start, end, _) in enumerate(spans):
        if end < start:
            errors.append(f"span {i} {name} ends before it starts")
        if parent < 0:
            continue
        _, _, p_start, p_end, _ = spans[parent]
        if start < p_start or end > p_end:
            errors.append(f"span {i} {name} lies outside its parent {spans[parent][0]}")
        if start < last_end.get(parent, p_start):
            errors.append(f"span {i} {name} overlaps a sibling")
        last_end[parent] = end
    return errors


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer totals of one traced repetition (all but trace.overhead_s
    and the cli.<command>_s times, which the caller measures untraced)."""
    selfs = self_times(spans)
    m = {name: 0.0 for name, _ in PER_LAYER}

    def outermost(i: int, prefix: str) -> bool:
        parent = spans[i][1]
        while parent >= 0:
            if spans[parent][0].startswith(prefix):
                return False
            parent = spans[parent][1]
        return True

    amps = 0
    for i, (name, _, start, end, counts) in enumerate(spans):
        dur = end - start
        layer = name.split(".", 1)[0]
        if layer == "kernels":
            m["kernels.s"] += dur
            m["kernels.calls"] += 1
            if counts:
                m["kernels.gate_apps"] += counts["gates"]
                amps += counts["gates"] * counts["dim"]
        elif name == "noise.noisy_execute":
            m["noise.self_s"] += selfs[i]
            m["noise.trajectories"] += counts["trajectories"]
        elif name == "exact.spectrum":
            m["exact.eigh_s"] += dur
            m["exact.spectra"] += 1
        elif name in ("exact.hamiltonian", "exact.evolve", "exact.propagator"):
            m[f"{name}_s"] += dur
        elif name == "trotter.build":
            # build_evolution_circuit calls a step function; count the build once
            if outermost(i, "trotter.build"):
                m["trotter.build_s"] += dur
                m["trotter.build_calls"] += 1
        elif name == "circuit.encode":
            m["circuit.encode_s"] += dur
            m["circuit.encode_calls"] += 1
        elif name in ("circuit.gate_counts", "circuit.unitary"):
            m[f"{name}_s"] += dur
        elif name == "statevector.sample":
            m["statevector.sample_s"] += dur
            m["statevector.sample_calls"] += 1
        elif name in ("observables.counts", "observables.error"):
            m[f"{name}_s"] += dur
        elif name == "runner.write":
            m["runner.bytes_written"] += counts["bytes"]
            if outermost(i, "runner.write"):
                m["runner.write_s"] += dur
        elif layer == "runner":
            m["runner.self_s"] += selfs[i]
        elif layer == "cli":
            m["cli.self_s"] += selfs[i]
    m["kernels.bytes_computed"] = 2 * 16 * amps
    if amps:
        m["kernels.ns_per_amp"] = m["kernels.s"] * 1e9 / amps
    return m
