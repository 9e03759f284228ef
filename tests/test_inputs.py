"""Every scalar input of the library follows one of two rules,
`circuit.check_integer` and `circuit.check_real`: each entry point refuses
a wrong type or a non-finite real by the input's name and stores numpy
scalars as Python `int` and `float`. Source scans keep the range and
finiteness checks of scalar inputs in those two helpers, and the seeding
of every sampled stream in `statevector.sample_bitstrings`. Shot counts
are refused unless they are counts, and the Trotter orders have one list."""

import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest

import trotterbench
from trotterbench import (
    Circuit,
    NoiseParams,
    RunConfig,
    TfimParams,
    all_down_state,
    build_evolution_circuit,
    compare_command,
    init_basis_state,
    local_magnetization_from_counts,
    noisy_execute,
    sample_bitstrings,
    scaling_command,
    sweep_command,
)
from trotterbench.cli import build_parser
from trotterbench.noise import _seed_words
from trotterbench.trotter import LAYERS

_SMALL = RunConfig(n=2, steps=1)


def _nothing_stored(result):
    return None


def _noisy(**kwargs):
    args = {"trajectories": 2, "rng_seed": 0, **kwargs}
    circ = build_evolution_circuit(TfimParams(2), 1, "first")
    return _nothing_stored(noisy_execute(circ, all_down_state(2), NoiseParams(p1=0.1), **args))


# (entry point, input name, call, a valid value): the call passes the value
# to the input and returns what the library stores of it, or None.
INTEGER_INPUTS = [
    ("Circuit", "n_qubits", lambda v: Circuit(v).n_qubits, 3),
    ("Circuit.rx", "qubit", lambda v: Circuit(2).rx(v, 0.1).qa[0], 1),
    ("Circuit.cnot", "control", lambda v: Circuit(2).cnot(v, 0).qa[0], 1),
    ("Circuit.cnot", "target", lambda v: Circuit(2).cnot(0, v).qb[0], 1),
    ("init_basis_state", "n_qubits", lambda v: _nothing_stored(init_basis_state(v, [1, 0])), 2),
    ("init_basis_state", "bits", lambda v: _nothing_stored(init_basis_state(2, [v, 0])), 1),
    ("all_down_state", "n_qubits", lambda v: _nothing_stored(all_down_state(v)), 2),
    ("TfimParams", "n_spins", lambda v: TfimParams(v).n_spins, 3),
    ("build_evolution_circuit", "n_steps",
     lambda v: _nothing_stored(build_evolution_circuit(TfimParams(2), v, "first")), 2),
    ("sample_bitstrings", "shots",
     lambda v: _nothing_stored(sample_bitstrings(all_down_state(1), v, 0)), 4),
    ("sample_bitstrings", "rng_seed",
     lambda v: _nothing_stored(sample_bitstrings(all_down_state(1), 4, v)), 5),
    ("sample_bitstrings[(seed, k)]", "rng_seed",
     lambda v: _nothing_stored(sample_bitstrings(all_down_state(1), 4, (1, v))), 5),
    ("noisy_execute", "trajectories", lambda v: _noisy(trajectories=v), 2),
    ("noisy_execute", "rng_seed", lambda v: _noisy(rng_seed=v), 5),
    ("noise._seed_words", "seed", lambda v: _nothing_stored(_seed_words(v, range(2))), 5),
]

REAL_INPUTS = [
    ("Circuit.rx", "theta", lambda v: Circuit(1).rx(0, v).theta[0], 0.3),
    ("Circuit.rz", "theta", lambda v: Circuit(1).rz(0, v).theta[0], 0.3),
    ("TfimParams", "j", lambda v: TfimParams(3, coupling=v).coupling, 0.7),
    ("TfimParams", "g", lambda v: TfimParams(3, field=v).field, 1.3),
    ("TfimParams", "dt", lambda v: TfimParams(3, dt=v).dt, 0.1),
    *[("NoiseParams", rate, lambda v, rate=rate: getattr(NoiseParams(**{rate: v}), rate), 0.1)
      for rate in ("p1", "p2", "read01", "read10")],
    ("RunConfig", "g", lambda v: RunConfig(g=v).g, 1.3),
    ("RunConfig", "p1", lambda v: RunConfig(mode="noisy", p1=v).p1, 0.1),
    ("sweep_command", "g", lambda v: sweep_command(_SMALL, [v])[0].config.g, 1.3),
    ("compare_command", "g", lambda v: compare_command(_SMALL, [v])[0]["g"], 1.3),
    ("scaling_command", "dt",
     lambda v: _nothing_stored(scaling_command(RunConfig(n=2), [v, 0.2, 0.4])), 0.1),
]


def _ids(table):
    return [f"{entry}-{name}" for entry, name, _, _ in table]


def _refused(call, value, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(value)


@pytest.mark.parametrize("entry, name, call, valid", INTEGER_INPUTS, ids=_ids(INTEGER_INPUTS))
class TestIntegerInputs:
    @pytest.mark.parametrize("value", [True, False, "2", None, 2.0])
    def test_refused_by_name(self, entry, name, call, valid, value):
        _refused(call, value, f"{name} must be an integer, got {value!r}")

    @pytest.mark.parametrize("kind", [np.int64, np.int32])
    def test_numpy_integer_is_stored_as_int(self, entry, name, call, valid, kind):
        stored = call(kind(valid))
        assert stored is None or (type(stored) is int and stored == valid)


@pytest.mark.parametrize("entry, name, call, valid", REAL_INPUTS, ids=_ids(REAL_INPUTS))
class TestRealInputs:
    @pytest.mark.parametrize("value", [True, False, "0.1", None])
    def test_refused_by_name(self, entry, name, call, valid, value):
        _refused(call, value, f"{name} must be a real number, got {value!r}")

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float64(np.nan)])
    def test_non_finite_is_refused_by_name(self, entry, name, call, valid, value):
        _refused(call, value, f"{name} must be finite, got {float(value)}")

    @pytest.mark.parametrize("kind", [np.float32, np.float64, float])
    def test_numpy_real_is_stored_as_float(self, entry, name, call, valid, kind):
        stored = call(kind(valid))
        assert stored is None or (type(stored) is float and stored == float(kind(valid)))


@pytest.mark.parametrize("name, call", [
    ("steps", lambda v: RunConfig(steps=v).steps),
    ("seed", lambda v: RunConfig(mode="shots", seed=v).seed),
    ("shots", lambda v: RunConfig(mode="shots", shots=v).shots),
])
class TestConfigIntegerKeys:
    """A config key keeps the JSON rule of `runner._typed`: an integral
    number such as 4.0 converts; a bool, a string or None is refused."""

    @pytest.mark.parametrize("value", [True, "4", None])
    def test_refused_by_name(self, name, call, value):
        _refused(call, value, f"{name} must be an integral number, got {value!r}")

    @pytest.mark.parametrize("value", [np.int64(4), 4.0, np.float32(4.0)])
    def test_stored_as_int(self, name, call, value):
        stored = call(value)
        assert type(stored) is int and stored == 4


@pytest.mark.parametrize("seed", [-1, (1, -1), [0, -1]])
def test_negative_sample_seed_is_refused_by_name(seed):
    _refused(lambda v: sample_bitstrings(all_down_state(1), 4, v), seed,
             "rng_seed must be >= 0, got -1")


def test_sample_seed_sequence_reads_as_its_integers():
    """A tuple or list of numpy integers seeds the stream its ints seed."""
    state = np.full(8, 8**-0.5, dtype=np.complex128)
    want = sample_bitstrings(state, 64, (3, 5))
    for seed in ([3, 5], (np.int64(3), np.int32(5))):
        assert np.array_equal(sample_bitstrings(state, 64, seed), want)


@pytest.mark.parametrize("counts, message", [
    ([-1, 3, 0, 0], "counts must not be negative, got -1"),
    ([[2, 0], [1, -2]], "counts must not be negative, got -2"),
    ([1.5, 0, 0, 0.5], "counts must be integers, got dtype float64"),
    (np.array([4.0, 0.0]), "counts must be integers, got dtype float64"),
    ([True, False], "counts must be integers, got dtype bool"),
])
def test_counts_are_refused_unless_counts(counts, message):
    _refused(local_magnetization_from_counts, counts, message)


def test_float32_angle_is_built_from_the_stored_float():
    """A float32 dt and g give the angles of the float64 values they equal."""
    params = TfimParams(3, field=np.float32(1.3), dt=np.float32(0.1))
    twin = TfimParams(3, field=float(np.float32(1.3)), dt=float(np.float32(0.1)))
    assert params == twin and hash(params) == hash(twin)
    assert params != TfimParams(3, field=1.3, dt=0.1)
    got = build_evolution_circuit(params, 2, "sym2").theta
    assert [float.hex(t) for t in got] == [
        float.hex(t) for t in build_evolution_circuit(twin, 2, "sym2").theta]
    assert all(type(t) is float for t in got)


# ---------------------------------------------------------------- the guard

SOURCE = Path(trotterbench.__file__).parent

#: Raises outside circuit.py that may say "must be >=" or "must be finite",
#: by (module, function): each checks an array, not one scalar input. The
#: trajectory caps ("must be in [1, 2**32]") and the overflow checks of
#: products such as steps*dt ("gives a non-finite ...") do not match.
EXEMPT = {("exact.py", "exact_series")}


def _scalar_rule_raises(path: Path) -> set:
    """(module, function) of each `raise ValueError(...)` in `path` whose
    message says "must be >=" or "must be finite"."""
    found = set()
    for func in ast.walk(ast.parse(path.read_text())):
        if not isinstance(func, ast.FunctionDef):
            continue
        for node in ast.walk(func):
            if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                    and isinstance(node.exc.func, ast.Name)
                    and node.exc.func.id == "ValueError" and node.exc.args):
                continue
            text = "".join(part.value for part in ast.walk(node.exc.args[0])
                           if isinstance(part, ast.Constant) and isinstance(part.value, str))
            if "must be >=" in text or "must be finite" in text:
                found.add((path.name, func.name))
    return found


def test_scalar_bounds_are_checked_only_by_the_two_helpers():
    modules = sorted(SOURCE.glob("*.py"))
    assert len(modules) > 10
    found = set().union(*map(_scalar_rule_raises, modules))
    # the scan sees the helpers' own raises, so it would see a copy elsewhere
    assert {("circuit.py", "check_integer"), ("circuit.py", "check_real")} <= found
    assert {(m, f) for m, f in found if m != "circuit.py"} - EXEMPT == set()


def _names_numpy_random(path: Path) -> bool:
    """Whether `path` names `np.random` or `numpy.random`, imports from it,
    or calls a function named `default_rng`."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            names = [f"{node.value.id}.{node.attr}"]
        elif isinstance(node, ast.Call):
            names = [getattr(node.func, "attr", getattr(node.func, "id", None))]
        else:
            continue
        if any(name in ("np.random", "numpy.random", "default_rng")
               or str(name).startswith("numpy.random.") for name in names):
            return True
    return False


def test_only_the_sampler_seeds_a_numpy_generator():
    """`sample_bitstrings` checks its seed before `np.random.default_rng`,
    and it is the only user of numpy.random: noise streams are computed from
    `noise._seed_words`, which checks its own seed, without it."""
    assert [m.name for m in sorted(SOURCE.glob("*.py")) if _names_numpy_random(m)] == [
        "statevector.py"]


# ---------------------------------------------------------- one order list

def test_order_choices_are_the_layer_table():
    """The CLI's `--order` of every command and `RunConfig`'s `order` offer
    exactly the orders `trotter.LAYERS` builds, in its order."""
    commands = build_parser()._subparsers._group_actions[0].choices
    cli = {name: tuple(sub._option_string_actions["--order"].choices)
           for name, sub in commands.items()}
    config = RunConfig.__dataclass_fields__["order"].metadata["choices"]
    assert len(cli) == 4
    assert set(cli.values()) == {config} == {tuple(LAYERS)}
