"""Property tests: the run config survives the config-file path, chain and
noise parameters that compare equal hash equal, the ideal Trotter series
keeps the chain's symmetries and the g=0 limit, every step circuit's
dense unitary is unitary and equals the product of its Kronecker-built gate
matrices, every column of a block reads the <Z> bits it reads alone, and
noisy mode's fault streams are numpy's PCG64 draws.

Examples are derandomized with a fixed count, so every run checks the same
cases and the suite stays deterministic.
"""

import json
import math
import string

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from trotterbench import (
    Circuit,
    NoiseParams,
    RunConfig,
    TfimParams,
    circuit_unitary,
    first_order_step,
    run_command,
    symmetric_step,
)
from trotterbench import kernels
from trotterbench.circuit import encode
from trotterbench.cli import build_parser, merge_config
from trotterbench.noise import _draw_bits, _draw_states, _pcg_seed, _seed_words
from trotterbench.runner import MODE_KEYS, MODES
from trotterbench.trotter import LAYERS

from oracles import naive_circuit_unitary

PROPERTY = settings(derandomize=True, deadline=None, max_examples=40, database=None)

finite = st.floats(allow_nan=False, allow_infinity=False)
rate = st.floats(min_value=0.0, max_value=1.0)
orders = st.sampled_from(tuple(LAYERS))
# an explicit alphabet needs no Unicode table, which hypothesis would build
# on first use (seconds) and cache on disk
paths = st.text(alphabet=string.printable + "é€")


@st.composite
def valid_configs(draw):
    """Configs the CLI accepts from a file: shots only in shots mode, traj
    and nonzero noise rates only in noisy mode, seed only in those two, and
    a time grid and rotation angles that stay finite."""
    mode = draw(st.sampled_from(MODES))
    values = {
        "n": draw(st.integers(2, 12)),
        "j": draw(finite.filter(lambda v: v != 0)),
        "g": draw(finite),
        "dt": draw(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)),
        "steps": draw(st.integers(1, 10**6)),
        "order": draw(orders),
        "mode": mode,
        "periodic": draw(st.booleans()),
        "out": draw(st.none() | paths),
    }
    dt = values["dt"]
    assume(all(math.isfinite(x) for x in (values["steps"] * dt, 2.0 * abs(values["j"]) * dt,
                                          2.0 * abs(values["g"]) * dt)))
    if mode != "ideal":
        values["seed"] = draw(st.integers(0, 2**63))
    if mode == "shots":
        values["shots"] = draw(st.integers(1, 10**9))
    if mode == "noisy":
        values["traj"] = draw(st.integers(1, 10**6))
        for key in ("p1", "p2", "read01", "read10"):
            values[key] = draw(rate)
    return RunConfig(**values)


@PROPERTY
@given(cfg=valid_configs())
def test_config_survives_a_config_file(cfg, tmp_path_factory):
    d = cfg.to_dict()
    for key, modes in MODE_KEYS.items():  # the CLI refuses them even at their defaults
        if cfg.mode not in modes:
            del d[key]
    path = tmp_path_factory.mktemp("cfg") / "cfg.json"
    path.write_text(json.dumps(d))
    merged, extras = merge_config(build_parser().parse_args(["run", "--config", str(path)]))
    assert merged == cfg
    assert extras == {}


scalars = st.sampled_from([float, np.float32, np.float64])
integers = st.sampled_from([int, np.int64, np.int32])


@PROPERTY
@given(n=st.integers(2, 12), value=st.floats(1e-3, 10.0), kinds=st.tuples(integers, integers),
       wraps=st.tuples(scalars, scalars), key=st.sampled_from(["coupling", "field", "dt"]))
@example(n=3, value=0.1, kinds=(int, int), wraps=(np.float32, float), key="dt")
def test_equal_chain_params_hash_equal(n, value, kinds, wraps, key):
    a, b = (TfimParams(kind(n), **{key: wrap(value)}) for kind, wrap in zip(kinds, wraps))
    if a == b:
        assert hash(a) == hash(b)


@PROPERTY
@given(value=rate, wraps=st.tuples(scalars, scalars),
       key=st.sampled_from(["p1", "p2", "read01", "read10"]))
@example(value=0.02, wraps=(np.float32, float), key="p2")
def test_equal_noise_params_hash_equal(value, wraps, key):
    a, b = (NoiseParams(**{key: wrap(value)}) for wrap in wraps)
    if a == b:
        assert hash(a) == hash(b)


def ideal_series(n, j, g, dt, steps, order, periodic):
    cfg = RunConfig(n=n, j=j, g=g, dt=dt, steps=steps, order=order, periodic=periodic)
    return run_command(cfg).sim.local


chains = {
    "j": st.floats(0.2, 2.0) | st.floats(-2.0, -0.2),
    "g": st.floats(-3.0, 3.0),
    "dt": st.floats(0.01, 0.5),
    "steps": st.integers(1, 8),
    "order": orders,
}


@PROPERTY
@given(n=st.integers(2, 8), **chains)
def test_open_chain_mirror_symmetry(n, j, g, dt, steps, order):
    local = ideal_series(n, j, g, dt, steps, order, periodic=False)
    np.testing.assert_allclose(local, local[:, ::-1], rtol=0, atol=1e-12)


@PROPERTY
@given(n=st.integers(3, 8), **chains)
def test_periodic_sites_are_uniform(n, j, g, dt, steps, order):
    local = ideal_series(n, j, g, dt, steps, order, periodic=True)
    np.testing.assert_allclose(local, local[:, :1].repeat(n, axis=1), rtol=0, atol=1e-12)


@PROPERTY
@given(n=st.integers(2, 8), periodic=st.booleans(), j=chains["j"], dt=chains["dt"],
       steps=chains["steps"])
def test_zero_field_keeps_every_spin_down(n, j, dt, steps, periodic):
    for order in LAYERS:
        local = ideal_series(n, j, 0.0, dt, steps, order, periodic)
        np.testing.assert_allclose(local, -1.0, rtol=0, atol=1e-12)


@PROPERTY
@given(n=st.integers(2, 5), periodic=st.booleans(), **{k: chains[k] for k in ("j", "g", "dt")})
def test_step_unitary_is_the_dense_gate_product(n, periodic, j, g, dt):
    params = TfimParams(n, j, g, dt, periodic)
    for step in (first_order_step, symmetric_step):
        circ = step(params)
        u = circuit_unitary(circ)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(1 << n), rtol=0, atol=1e-12)
        np.testing.assert_allclose(u, naive_circuit_unitary(circ), rtol=0, atol=1e-12)


def readout_circuit(n, angles):
    """An RX on every qubit, a step mark, an Ising bond on every pair of
    neighbours (fused by the engine) and an RZ, and a second mark."""
    circ = Circuit(n)
    for q, angle in enumerate(angles):
        circ.rx(q, angle)
    circ.mark_step()
    for q, angle in enumerate(angles[1:]):
        circ.cnot(q, q + 1).rz(q + 1, angle).cnot(q, q + 1)
    return circ.rz(0, angles[0]).mark_step()


@PROPERTY
@given(n=st.integers(1, 12), columns=st.sampled_from([1, 2, 3, 44, 256]),
       seed=st.integers(0, 2**32 - 1))
@example(n=4, columns=44, seed=4)  # sizes at which a BLAS product of a block
@example(n=10, columns=2, seed=10)  # rounds otherwise than one of a column
@example(n=12, columns=256, seed=12)
def test_every_column_reads_its_z_bits_alone(n, columns, seed):
    rng = np.random.default_rng(seed)
    block = rng.standard_normal((2**n, columns)) + 1j * rng.standard_normal((2**n, columns))
    kinds, qa, qb, theta, marks = encode(readout_circuit(n, rng.uniform(-3.0, 3.0, n)))
    read = kernels.z_expectations(block, n)
    recorded = np.empty((columns, len(marks), n))
    kernels.run_gates_record(block.copy(), n, kinds, qa, qb, theta, marks, recorded)
    for c in range(columns):
        column = block[:, c].copy()
        assert kernels.z_expectations(column, n).tobytes() == read[c].tobytes()
        alone = np.empty((len(marks), n))
        kernels.run_gates_record(column, n, kinds, qa, qb, theta, marks, alone)
        assert alone.tobytes() == recorded[c].tobytes()


# the last doubling round of k draws is truncated unless k is a power of 2
draw_counts = st.integers(1, 1200) | st.sampled_from(
    [2**m + d for m in range(1, 11) for d in (-1, 1)])


@PROPERTY
@given(seed=st.integers(0, 2**130),
       first=st.integers(0, 20) | st.integers(2**32 - 20, 2**32 - 3),
       k=draw_counts)
def test_fault_streams_are_numpy_pcg64_draws(seed, first, k):
    """The first k doubles of each trajectory's stream, from the state array
    `noise._fault_codes` reads, are numpy's `Generator.random(k)`, bitwise."""
    block = range(first, first + 3)
    start, inc = _pcg_seed(_seed_words(seed, block))
    states = np.empty((2, k, len(block)), dtype=np.uint64)
    _draw_states(start, inc, states, np.empty((3, (k + 1) // 2, len(block)), dtype=np.uint64))
    got = _draw_bits(states) * 2.0**-53
    for column, t in enumerate(block):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, t))))
        assert got[:, column].tobytes() == rng.random(k).tobytes()
