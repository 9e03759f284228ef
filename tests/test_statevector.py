"""Statevector construction, gate application, expectations, and sampling."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from trotterbench import (
    TfimParams,
    all_down_state,
    build_evolution_circuit,
    circuit_unitary,
    execute,
    init_basis_state,
    local_magnetization_from_counts,
    sample_bitstrings,
)
from trotterbench import kernels
from trotterbench.circuit import Circuit, encode
from trotterbench.exact import build_hamiltonian, spectrum
from trotterbench.statevector import z_expectations


def apply_one(state, gate, *args):
    """Run one gate, named by its `Circuit` builder, on `state`."""
    circ = Circuit(state.shape[0].bit_length() - 1)
    return execute(getattr(circ, gate)(*args), state)


def normalized(raw):
    """`raw` as unit-norm complex128 amplitudes."""
    return np.asarray(raw, dtype=np.complex128) / np.linalg.norm(raw)


class TestInitBasisState:
    def test_single_qubit_zero(self):
        state = init_basis_state(1, [0])
        assert state.dtype == np.complex128 and state.flags.c_contiguous
        np.testing.assert_array_equal(state, [1.0, 0.0])

    def test_all_down_five_spins(self):
        state = init_basis_state(5, [1, 1, 1, 1, 1])
        assert state[31] == 1.0
        for j in range(5):
            assert z_expectations(state)[j] == pytest.approx(-1.0, abs=1e-15)

    def test_bit_encoding_qubit0_is_lsb(self):
        state = init_basis_state(2, [1, 0])
        assert state[1] == 1.0
        assert np.linalg.norm(state) == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            init_basis_state(3, [0, 1])

    def test_bad_bit_value(self):
        with pytest.raises(ValueError):
            init_basis_state(2, [0, 2])

    def test_zero_qubits(self):
        with pytest.raises(ValueError, match="n_qubits"):
            init_basis_state(0, [])


class TestApplyGate:
    def test_rx_pi_is_minus_i_x(self):
        state = init_basis_state(1, [0])
        apply_one(state, "rx", 0, math.pi)
        np.testing.assert_allclose(state, [0.0, -1j], atol=1e-15)

    def test_rz_phase_on_zero(self):
        theta = 0.713
        state = init_basis_state(1, [0])
        apply_one(state, "rz", 0, theta)
        np.testing.assert_allclose(state, [np.exp(-0.5j * theta), 0.0], atol=1e-15)

    def test_cnot_truth_table(self):
        state = init_basis_state(2, [1, 0])
        apply_one(state, "cnot", 0, 1)
        expected = init_basis_state(2, [1, 1])
        np.testing.assert_allclose(state, expected, atol=1e-15)

    def test_cnot_control_zero_does_nothing(self):
        state = init_basis_state(2, [0, 1])
        apply_one(state, "cnot", 0, 1)
        expected = init_basis_state(2, [0, 1])
        np.testing.assert_allclose(state, expected, atol=1e-15)

    def test_strided_amplitudes_are_refused(self):
        # the engine reshapes amplitudes in place, which a strided view
        # forbids; a copy would leave the caller's array as it was
        raw = np.zeros(8, dtype=complex)
        raw[2] = 1.0
        with pytest.raises(ValueError, match="C-contiguous"):
            apply_one(raw[::2], "cnot", 0, 1)  # |q0=1, q1=0>
        assert raw[2] == 1.0 and raw[6] == 0.0

    def test_execute_runs_in_place_and_returns_its_input(self):
        state = init_basis_state(2, [1, 0])
        assert apply_one(state, "cnot", 0, 1) is state
        np.testing.assert_array_equal(state, [0, 0, 0, 1])

    @pytest.mark.parametrize("amps", [
        np.array([1.0, 0.0, 0.0, 0.0]),  # float64
        np.array([1, 0, 0, 0], dtype=np.complex64),
        [1.0, 0.0, 0.0, 0.0],  # not an array
    ])
    def test_amplitudes_other_than_complex128_are_refused(self, amps):
        with pytest.raises(ValueError, match="complex128"):
            execute(Circuit(2).cnot(0, 1), amps)

    @pytest.mark.parametrize("shape", [(8,), (2,), (4, 2, 2), (3,), ()])
    def test_amplitudes_of_another_width_are_refused(self, shape):
        with pytest.raises(ValueError, match="amplitudes"):
            execute(Circuit(2).cnot(0, 1), np.zeros(shape, dtype=np.complex128))

    def test_block_runs_every_column(self):
        circ = build_evolution_circuit(TfimParams(n_spins=3), 2, "sym2")
        rng = np.random.default_rng(5)
        block = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
        columns = [execute(circ, block[:, c].copy()) for c in range(3)]
        execute(circ, block)
        np.testing.assert_allclose(block, np.column_stack(columns), atol=1e-14)
        np.testing.assert_allclose(z_expectations(block),
                                   [z_expectations(c) for c in columns], atol=1e-14)

    @pytest.mark.parametrize("per_pass", [1, 16, 40])
    def test_rx_passes_do_not_change_a_bit(self, per_pass, monkeypatch):
        # a block larger than one RX pass runs in slices of its pair view,
        # with the arithmetic of one pass per amplitude
        n, columns = 5, 3
        rng = np.random.default_rng(8)
        block = rng.standard_normal((2**n, columns)) + 1j * rng.standard_normal((2**n, columns))
        kinds, qa, qb, _, _ = encode(Circuit(n).rx(0, 0).rx(2, 0).rx(4, 0))
        theta = rng.uniform(-3.0, 3.0, (3, columns))  # one angle per column
        expected = block.copy()
        kernels.run_gates(expected, n, kinds, qa, qb, theta)
        monkeypatch.setattr(kernels, "_RX_AMPLITUDES", per_pass)
        kernels.run_gates(block, n, kinds, qa, qb, theta)
        assert block.tobytes() == expected.tobytes()

    def test_out_of_range_qubit(self):
        state = init_basis_state(2, [0, 0])
        with pytest.raises(ValueError):
            apply_one(state, "rx", 2, 0.1)

    def test_norm_preserved_per_gate(self):
        rng = np.random.default_rng(3)
        raw = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        state = normalized(raw)
        for gate in (("rx", 0, 0.3), ("rz", 1, -1.2), ("cnot", 2, 0)):
            apply_one(state, *gate)
            assert abs(np.linalg.norm(state) - 1.0) < 1e-12


class TestNormAndUnitarity:
    def test_norm_preserved_over_long_random_sequence(self):
        # 10^4 random gates on 10 qubits must not drift the norm
        rng = np.random.default_rng(42)
        n = 10
        state = init_basis_state(n, [0] * n)
        circ = Circuit(n)
        for _ in range(10_000):
            kind = rng.integers(3)
            if kind == 0:
                circ.rx(int(rng.integers(n)), float(rng.uniform(-3, 3)))
            elif kind == 1:
                circ.rz(int(rng.integers(n)), float(rng.uniform(-3, 3)))
            else:
                a, b = rng.choice(n, size=2, replace=False)
                circ.cnot(int(a), int(b))
        execute(circ, state)
        assert abs(np.linalg.norm(state) - 1.0) <= 1e-9

    @pytest.mark.parametrize("gate", [("rx", 0, 0.37), ("rz", 0, -2.2), ("cnot", 0, 1)])
    def test_gate_unitarity(self, gate):
        name, *args = gate
        u = circuit_unitary(getattr(Circuit(2), name)(*args))
        np.testing.assert_allclose(u.conj().T @ u, np.eye(4), atol=1e-12)


class TestExpectationZ:
    def test_plus_one_on_zero(self):
        assert z_expectations(init_basis_state(1, [0]))[0] == pytest.approx(1.0)

    def test_minus_one_on_all_down(self):
        state = all_down_state(5)
        for j in range(5):
            assert z_expectations(state)[j] == pytest.approx(-1.0)

    def test_zero_on_equal_superposition(self):
        state = normalized([1, 1])
        assert z_expectations(state)[0] == pytest.approx(0.0, abs=1e-15)

    def test_out_of_range(self):
        # one value per qubit, so qubit n has none
        assert z_expectations(init_basis_state(1, [0])).shape == (1,)
        with pytest.raises(IndexError):
            z_expectations(init_basis_state(1, [0]))[1]

    def test_z_expectations_matches_loop(self):
        rng = np.random.default_rng(7)
        raw = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        state = normalized(raw)
        via_all = z_expectations(state)
        probs = np.abs(raw / np.linalg.norm(raw)) ** 2
        via_one = [sum(p * (1 - 2 * ((i >> j) & 1)) for i, p in enumerate(probs))
                   for j in range(5)]
        np.testing.assert_allclose(via_all, via_one, atol=1e-12)

    def test_readout_is_exact_on_dyadic_amplitudes(self):
        # amplitudes k / 32 give probabilities m / 1024 and exact partial
        # sums, so each <Z_j> is the signed sum in whatever order it is added
        rng = np.random.default_rng(2)
        amps = (rng.integers(-3, 4, size=(2**6, 3)) + 1j * rng.integers(-3, 4, size=(2**6, 3))) / 32
        signs = 1.0 - 2.0 * ((np.arange(2**6)[:, None] >> np.arange(6)) & 1)
        expected = (amps.real**2 + amps.imag**2).T @ signs
        assert kernels.z_expectations(amps, 6).tobytes() == expected.tobytes()

    def test_readout_refuses_another_width(self):
        with pytest.raises(ValueError, match="not of 3 qubits"):
            kernels.z_expectations(all_down_state(4), 3)

    def test_kernels_hold_no_matrix_product(self):
        """<Z> is read by elementwise pair sums: a BLAS product would round
        each column by the size of its block."""
        names = {"dot", "matmul", "einsum", "tensordot", "inner", "vdot"}
        tree = ast.parse(Path(kernels.__file__).read_text())
        products = [ast.dump(node) for node in ast.walk(tree)
                    if isinstance(node, (ast.BinOp, ast.AugAssign))
                    and isinstance(node.op, ast.MatMult)
                    or isinstance(node, ast.Attribute) and node.attr in names
                    or isinstance(node, ast.Call) and getattr(node.func, "id", None) in names]
        assert products == []


def bit_tally(counts, n):
    """Per-qubit shot estimate from the counts, tallied bitstring by bitstring
    in Python integers: (n[bit_j = 0] - n[bit_j = 1]) / shots."""
    diff = [0] * n
    for index in np.flatnonzero(counts):
        for j in range(n):
            diff[j] += int(counts[index]) * (1 - 2 * ((int(index) >> j) & 1))
    return np.array(diff) / int(counts.sum())


class TestSampling:
    def test_basis_state_deterministic_outcome(self):
        state = init_basis_state(5, [1, 0, 1, 1, 0])
        counts = sample_bitstrings(state, 1024, 9)
        expected = np.zeros(32, dtype=np.int64)
        expected[0b01101] = 1024  # qubit j is bit j: qubits 0, 2 and 3 read 1
        np.testing.assert_array_equal(counts, expected)

    def test_superposition_counts_within_binomial_bound(self):
        state = normalized([1, 1])
        counts = sample_bitstrings(state, 1024, 123)
        assert abs(counts[0] - 512) <= 5 * 16  # 5 sigma, sigma = sqrt(1024/4)

    def test_determinism(self):
        state = normalized([1, 1])
        a = sample_bitstrings(state, 1024, 77)
        b = sample_bitstrings(state, 1024, 77)
        np.testing.assert_array_equal(a, b)

    def test_invalid_shots(self):
        with pytest.raises(ValueError):
            sample_bitstrings(init_basis_state(1, [0]), 0, 1)

    @pytest.mark.parametrize("shots", [10.5, 10.0, True])
    def test_shots_that_are_not_an_integer_are_refused_by_name(self, shots):
        # 10.5 drew 10 shots and True drew 1
        with pytest.raises(ValueError, match=f"^shots must be an integer, got {shots!r}$"):
            sample_bitstrings(all_down_state(3), shots, 1)

    def test_shots_are_bounded_by_exact_count_sums(self):
        # every partial sum of a count difference must be an exact float64
        state = normalized([1, 1])
        with pytest.raises(ValueError, match=r"^shots must be <= 2\*\*53, got 9007199254740993$"):
            sample_bitstrings(state, 2**53 + 1, 1)
        with pytest.raises(ValueError, match="shots must be <= 2"):
            sample_bitstrings(state, 2**63, 1)
        counts = sample_bitstrings(state, 2**53, 1)
        assert counts.sum() == 2**53 and counts.min() > 0
        assert abs(local_magnetization_from_counts(counts)[0]) < 1e-6

    def test_marginals_converge_over_seeds(self):
        # empirical per-bit frequency within 5 binomial sigma for >= 99% of
        # (seed, bit) pairs at 1024 shots
        params = TfimParams(n_spins=5)
        circ = build_evolution_circuit(params, 7, "first")
        state = all_down_state(5)
        execute(circ, state)
        exact = z_expectations(state)
        shots = 1024
        ok = 0
        total = 0
        for seed in range(100):
            est = bit_tally(sample_bitstrings(state, shots, seed), 5)
            sigma = np.sqrt((1.0 - exact**2) / shots)
            for j in range(5):
                total += 1
                if abs(est[j] - exact[j]) <= 5 * sigma[j] + 1e-15:
                    ok += 1
        assert ok / total >= 0.99

    def test_estimator_matches_expectation_at_large_shots(self):
        state = np.array([0.6, 0.0, 0.48, 0.64], dtype=np.complex128)
        est = bit_tally(sample_bitstrings(state, 10**6, 5), 2)
        for j in range(2):
            assert abs(est[j] - z_expectations(state)[j]) <= 0.01

    def test_count_readout_is_the_exact_count_difference(self):
        # every partial sum of the readout's pair sums is an integer, so it
        # equals the Python-integer tally bit for bit, alone and in a block
        rng = np.random.default_rng(11)
        for n in range(1, 13):
            raw = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
            state = normalized(raw)
            rows = []
            for seed in (0, 7, (3, 5), 2**40):
                for shots in (1, 64, 1024):
                    counts = sample_bitstrings(state, shots, seed)
                    assert counts.dtype == np.int64 and counts.shape == (2**n,)
                    assert counts.sum() == shots
                    rows.append((counts, bit_tally(counts, n)))
                    assert (local_magnetization_from_counts(counts).tobytes()
                            == rows[-1][1].tobytes()), (n, seed, shots)
            block = local_magnetization_from_counts(np.stack([c for c, _ in rows]))
            assert block.tobytes() == np.stack([t for _, t in rows]).tobytes(), n

    def test_count_readout_is_exact_at_two_to_the_53_shots(self):
        # MAX_SHOTS = 2^53 is the largest total whose partial sums are all
        # exact doubles
        rng = np.random.default_rng(4)
        for n in (1, 4, 9):
            cuts = np.sort(rng.integers(0, 2**53 + 1, size=2**n - 1))
            counts = np.diff(cuts, prepend=0, append=2**53)
            assert int(counts.sum()) == 2**53
            small = sample_bitstrings(init_basis_state(n, [1] * n), 5, 0)
            block = np.stack([counts, small])
            expected = np.stack([bit_tally(counts, n), bit_tally(small, n)])
            assert local_magnetization_from_counts(block).tobytes() == expected.tobytes()
            assert (local_magnetization_from_counts(counts).tobytes()
                    == expected[0].tobytes())

    def test_counts_invalid_input(self):
        with pytest.raises(ValueError):
            sample_bitstrings(np.array([1.0, 1.0], dtype=np.complex128), 8, 1)

    @pytest.mark.parametrize("amps, message", [
        (np.array([1.0, 0.0]), "^amplitudes must be a complex128 array, got float64$"),
        (np.array([1, 0, 0], dtype=np.complex128),
         r"^amplitudes must have shape \(2\^n,\) or \(2\^n, B\) with n >= 1, got \(3,\)$"),
        (np.full((2, 2, 2), 0.5, dtype=np.complex128),
         r"^amplitudes must have shape .* got \(2, 2, 2\)$"),
        (np.array([np.nan, 0], dtype=np.complex128), "^state is not normalized: .* sums to nan$"),
        (np.array([[1, 1], [np.inf, 0]], dtype=np.complex128), " sums to inf$"),
        (np.array([[1, np.nan], [0, 1]], dtype=np.complex128), " sums to nan$"),
    ], ids=["float64", "length-3", "3-d", "nan", "inf-column", "nan-column"])
    def test_what_cannot_be_sampled_is_refused_by_name(self, amps, message):
        with pytest.raises(ValueError, match=message):
            sample_bitstrings(amps, 8, 1)


class TestFidelity:
    def test_commuting_limit_trotter_equals_exact(self):
        # at zero transverse field every term commutes: no Trotter error
        params = TfimParams(n_spins=4, coupling=1.0, field=0.0, dt=0.3)
        circ = build_evolution_circuit(params, 5, "first")
        state = all_down_state(4)
        execute(circ, state)
        h = build_hamiltonian(params)
        psi = spectrum(h).propagator(5 * 0.3) @ all_down_state(4)
        assert abs(np.vdot(state, psi)) ** 2 == pytest.approx(1.0, abs=1e-10)
