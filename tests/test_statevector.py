"""Statevector construction, gate application, expectations, and sampling."""

import math

import numpy as np
import pytest

from trotterbench import (
    TfimParams,
    all_down_state,
    build_evolution_circuit,
    circuit_unitary,
    cnot,
    execute,
    init_basis_state,
    local_magnetization_from_counts,
    rx,
    rz,
    sample_bitstrings,
)
from trotterbench import kernels
from trotterbench.kernels import z_signs
from trotterbench.circuit import Circuit
from trotterbench.exact import build_hamiltonian, spectrum
from trotterbench.statevector import StateVector, z_expectations
from trotterbench.trotter import TrotterOrder


def apply_one(state, gate):
    """Run `gate` on `state` as a one-gate circuit."""
    return execute(Circuit(state.n_qubits).append(gate), state)


class TestInitBasisState:
    def test_single_qubit_zero(self):
        state = init_basis_state(1, [0])
        np.testing.assert_array_equal(state.amps, [1.0, 0.0])

    def test_all_down_five_spins(self):
        state = init_basis_state(5, [1, 1, 1, 1, 1])
        assert state.amps[31] == 1.0
        for j in range(5):
            assert z_expectations(state)[j] == pytest.approx(-1.0, abs=1e-15)

    def test_bit_encoding_qubit0_is_lsb(self):
        state = init_basis_state(2, [1, 0])
        assert state.amps[1] == 1.0
        assert state.norm() == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            init_basis_state(3, [0, 1])

    def test_bad_bit_value(self):
        with pytest.raises(ValueError):
            init_basis_state(2, [0, 2])


class TestApplyGate:
    def test_rx_pi_is_minus_i_x(self):
        state = init_basis_state(1, [0])
        apply_one(state, rx(0, math.pi))
        np.testing.assert_allclose(state.amps, [0.0, -1j], atol=1e-15)

    def test_rz_phase_on_zero(self):
        theta = 0.713
        state = init_basis_state(1, [0])
        apply_one(state, rz(0, theta))
        np.testing.assert_allclose(state.amps, [np.exp(-0.5j * theta), 0.0], atol=1e-15)

    def test_cnot_truth_table(self):
        state = init_basis_state(2, [1, 0])
        apply_one(state, cnot(0, 1))
        expected = init_basis_state(2, [1, 1])
        np.testing.assert_allclose(state.amps, expected.amps, atol=1e-15)

    def test_cnot_control_zero_does_nothing(self):
        state = init_basis_state(2, [0, 1])
        apply_one(state, cnot(0, 1))
        expected = init_basis_state(2, [0, 1])
        np.testing.assert_allclose(state.amps, expected.amps, atol=1e-15)

    def test_strided_amplitudes_are_stored_contiguously(self):
        # the engine reshapes amplitudes in place, which a strided view forbids
        raw = np.zeros(8, dtype=complex)
        raw[2] = 1.0
        state = StateVector(2, raw[::2])  # |q0=1, q1=0>
        apply_one(state, cnot(0, 1))
        np.testing.assert_array_equal(state.amps, [0, 0, 0, 1])

    def test_out_of_range_qubit(self):
        state = init_basis_state(2, [0, 0])
        with pytest.raises(ValueError):
            apply_one(state, rx(2, 0.1))

    def test_norm_preserved_per_gate(self):
        rng = np.random.default_rng(3)
        raw = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        state = StateVector(3, raw / np.linalg.norm(raw))
        for gate in (rx(0, 0.3), rz(1, -1.2), cnot(2, 0)):
            apply_one(state, gate)
            assert abs(state.norm() - 1.0) < 1e-12


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
                circ.append(rx(int(rng.integers(n)), float(rng.uniform(-3, 3))))
            elif kind == 1:
                circ.append(rz(int(rng.integers(n)), float(rng.uniform(-3, 3))))
            else:
                a, b = rng.choice(n, size=2, replace=False)
                circ.append(cnot(int(a), int(b)))
        execute(circ, state)
        assert abs(state.norm() - 1.0) <= 1e-9

    @pytest.mark.parametrize("gate", [rx(0, 0.37), rz(0, -2.2), cnot(0, 1)])
    def test_gate_unitarity(self, gate):
        circ = Circuit(2)
        circ.append(gate)
        u = circuit_unitary(circ)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(4), atol=1e-12)


class TestExpectationZ:
    def test_plus_one_on_zero(self):
        assert z_expectations(init_basis_state(1, [0]))[0] == pytest.approx(1.0)

    def test_minus_one_on_all_down(self):
        state = all_down_state(5)
        for j in range(5):
            assert z_expectations(state)[j] == pytest.approx(-1.0)

    def test_zero_on_equal_superposition(self):
        state = StateVector(1, np.array([1, 1]) / math.sqrt(2))
        assert z_expectations(state)[0] == pytest.approx(0.0, abs=1e-15)

    def test_out_of_range(self):
        # one value per qubit, so qubit n has none
        assert z_expectations(init_basis_state(1, [0])).shape == (1,)
        with pytest.raises(IndexError):
            z_expectations(init_basis_state(1, [0]))[1]

    def test_z_expectations_matches_loop(self):
        rng = np.random.default_rng(7)
        raw = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        state = StateVector(5, raw / np.linalg.norm(raw))
        via_all = z_expectations(state)
        probs = np.abs(raw / np.linalg.norm(raw)) ** 2
        via_one = [sum(p * (1 - 2 * ((i >> j) & 1)) for i, p in enumerate(probs))
                   for j in range(5)]
        np.testing.assert_allclose(via_all, via_one, atol=1e-12)

    @pytest.mark.parametrize("n", [4, 9])
    def test_batch_readout_rounds_as_one_row_per_state(self, n):
        # a (2^n, B) batch must read <Z> as the product of the row-major
        # (B, 2^n) probabilities, bit for bit; OpenBLAS rounds the product
        # of a transposed operand differently at these sizes
        rng = np.random.default_rng(n)
        amps = rng.standard_normal((2**n, 8)) + 1j * rng.standard_normal((2**n, 8))
        rows = np.ascontiguousarray(amps.T)
        expected = (rows.real * rows.real + rows.imag * rows.imag) @ z_signs(n)
        np.testing.assert_array_equal(kernels.z_expectations(amps, n), expected)


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
        counts = sample_bitstrings(state.amps, 1024, 9)
        expected = np.zeros(32, dtype=np.int64)
        expected[0b01101] = 1024  # qubit j is bit j: qubits 0, 2 and 3 read 1
        np.testing.assert_array_equal(counts, expected)

    def test_superposition_counts_within_binomial_bound(self):
        state = StateVector(1, np.array([1, 1]) / math.sqrt(2))
        counts = sample_bitstrings(state.amps, 1024, 123)
        assert abs(counts[0] - 512) <= 5 * 16  # 5 sigma, sigma = sqrt(1024/4)

    def test_determinism(self):
        state = StateVector(1, np.array([1, 1]) / math.sqrt(2))
        a = sample_bitstrings(state.amps, 1024, 77)
        b = sample_bitstrings(state.amps, 1024, 77)
        np.testing.assert_array_equal(a, b)

    def test_invalid_shots(self):
        with pytest.raises(ValueError):
            sample_bitstrings(init_basis_state(1, [0]).amps, 0, 1)

    def test_marginals_converge_over_seeds(self):
        # empirical per-bit frequency within 5 binomial sigma for >= 99% of
        # (seed, bit) pairs at 1024 shots
        params = TfimParams(n_spins=5)
        circ = build_evolution_circuit(params, 7, TrotterOrder.FIRST)
        state = all_down_state(5)
        execute(circ, state)
        exact = z_expectations(state)
        shots = 1024
        ok = 0
        total = 0
        for seed in range(100):
            est = bit_tally(sample_bitstrings(state.amps, shots, seed), 5)
            sigma = np.sqrt((1.0 - exact**2) / shots)
            for j in range(5):
                total += 1
                if abs(est[j] - exact[j]) <= 5 * sigma[j] + 1e-15:
                    ok += 1
        assert ok / total >= 0.99

    def test_estimator_matches_expectation_at_large_shots(self):
        state = StateVector(2, np.array([0.6, 0.0, 0.48, 0.64]))
        est = bit_tally(sample_bitstrings(state.amps, 10**6, 5), 2)
        for j in range(2):
            assert abs(est[j] - z_expectations(state)[j]) <= 0.01

    def test_count_readout_is_the_exact_count_difference(self):
        # every partial sum of counts @ z_signs is an integer, so the
        # readout equals the Python-integer tally bit for bit
        rng = np.random.default_rng(11)
        for n in range(1, 11):
            raw = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
            state = StateVector(n, raw / np.linalg.norm(raw))
            for seed in (0, 7, (3, 5), 2**40):
                for shots in (1, 64, 1024):
                    counts = sample_bitstrings(state.amps, shots, seed)
                    assert counts.dtype == np.int64 and counts.shape == (2**n,)
                    assert counts.sum() == shots
                    assert np.array_equal(local_magnetization_from_counts(counts),
                                          bit_tally(counts, n)), (n, seed, shots)

    def test_counts_invalid_input(self):
        with pytest.raises(ValueError):
            sample_bitstrings(StateVector(1, np.array([1.0, 1.0])).amps, 8, 1)


class TestFidelity:
    def test_commuting_limit_trotter_equals_exact(self):
        # at zero transverse field every term commutes: no Trotter error
        params = TfimParams(n_spins=4, coupling=1.0, field=0.0, dt=0.3)
        circ = build_evolution_circuit(params, 5, TrotterOrder.FIRST)
        state = all_down_state(4)
        execute(circ, state)
        h = build_hamiltonian(params)
        psi = spectrum(h).propagator(5 * 0.3) @ all_down_state(4).amps
        assert abs(np.vdot(state.amps, psi)) ** 2 == pytest.approx(1.0, abs=1e-10)
