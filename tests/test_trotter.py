"""Trotter-step synthesis: structure, angles, error order, and symmetry."""

import numpy as np
import pytest

from trotterbench import (
    TfimParams,
    TrotterOrder,
    build_evolution_circuit,
    circuit_unitary,
    first_order_step,
    gate_counts,
    symmetric_step,
)
from trotterbench.circuit import KIND_CNOT, KIND_RX, KIND_RZ
from trotterbench.trotter import even_bonds, odd_bonds

from oracles import circuit_of, expm_hermitian, gate_rows, naive_hamiltonian, negated_angles

DTS = [0.0125, 0.025, 0.05, 0.1, 0.2]


def step_error(n, field, dt, order):
    params = TfimParams(n_spins=n, coupling=1.0, field=field, dt=dt)
    step = first_order_step(params) if order == 1 else symmetric_step(params)
    exact = expm_hermitian(naive_hamiltonian(n, 1.0, field), dt)
    return float(np.linalg.norm(circuit_unitary(step) - exact, 2))


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            TfimParams(n_spins=1)
        with pytest.raises(ValueError):
            TfimParams(n_spins=3, dt=0.0)
        with pytest.raises(ValueError):
            TfimParams(n_spins=3, coupling=0.0)

    @pytest.mark.parametrize("key, value, message", [
        ("coupling", float("nan"), "j must be finite, got nan"),
        ("field", float("nan"), "g must be finite, got nan"),
        ("field", float("-inf"), "g must be finite, got -inf"),
        ("dt", float("inf"), "dt must be finite, got inf"),
    ])
    def test_non_finite_value_is_named(self, key, value, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            TfimParams(n_spins=3, **{key: value})

    @pytest.mark.parametrize("key, value", [
        ("periodic", "false"),  # a truthy string would build the periodic chain
        ("periodic", 1),
        ("n_spins", 4.5),
        ("n_spins", 4.0),
    ])
    def test_value_of_another_type_is_named(self, key, value):
        with pytest.raises(ValueError, match=f"^{key} must be"):
            TfimParams(**{"n_spins": 4, key: value})

    def test_bond_parity_n5(self):
        assert odd_bonds(5) == [(0, 1), (2, 3)]
        assert even_bonds(5) == [(1, 2), (3, 4)]

    def test_bond_parity_periodic(self):
        assert odd_bonds(4, periodic=True) == [(0, 1), (2, 3)]
        assert even_bonds(4, periodic=True) == [(1, 2), (3, 0)]


class TestFirstOrderStep:
    def test_n5_structure_and_angles(self):
        params = TfimParams(n_spins=5, coupling=1.0, field=1.0, dt=0.2)
        circ = first_order_step(params)
        assert len(circ) == 17
        assert circ.step_marks == [17]
        rx_angles = [t for k, t in zip(circ.kinds, circ.theta) if k == KIND_RX]
        rz_angles = [t for k, t in zip(circ.kinds, circ.theta) if k == KIND_RZ]
        assert rx_angles == pytest.approx([-0.4] * 5)
        assert rz_angles == pytest.approx([-0.4] * 4)

    def test_n2_structure(self):
        circ = first_order_step(TfimParams(n_spins=2))
        assert circ.kinds == [KIND_RX, KIND_RX, KIND_CNOT, KIND_RZ, KIND_CNOT]

    def test_zero_field_step_is_diagonal(self):
        params = TfimParams(n_spins=3, field=0.0, dt=0.7)
        u = circuit_unitary(first_order_step(params))
        off = u - np.diag(np.diag(u))
        assert np.max(np.abs(off)) < 1e-12

    def test_layer_order_x_then_odd_then_even(self):
        circ = first_order_step(TfimParams(n_spins=5))
        assert circ.kinds[:5] == [KIND_RX] * 5
        first_cnots = [(a, b) for k, a, b, _ in gate_rows(circ)[5:11] if k == KIND_CNOT]
        assert set(first_cnots) == {(0, 1), (2, 3)}


class TestSymmetricStep:
    def test_n5_structure_and_angles(self):
        params = TfimParams(n_spins=5, coupling=1.0, field=1.0, dt=0.2)
        circ = symmetric_step(params)
        assert len(circ) == 28
        rx_angles = [t for k, t in zip(circ.kinds, circ.theta) if k == KIND_RX]
        assert rx_angles == pytest.approx([-0.2] * 10)
        rz_angles = sorted(t for k, t in zip(circ.kinds, circ.theta) if k == KIND_RZ)
        # four half-step odd-bond rotations around two full-step even-bond ones
        assert rz_angles == pytest.approx([-0.4, -0.4, -0.2, -0.2, -0.2, -0.2])

    def test_exact_palindrome_small_chains(self):
        # single-bond middle layer: the gate list is its own mirror
        for n in (2, 3, 4):
            circ = symmetric_step(TfimParams(n_spins=n))
            seq = gate_rows(circ)
            assert seq == seq[::-1]

    def test_kind_and_angle_palindrome_n5(self):
        circ = symmetric_step(TfimParams(n_spins=5))
        assert circ.kinds == circ.kinds[::-1]
        assert circ.theta == circ.theta[::-1]

    def test_time_reversal_composes_to_identity(self):
        # palindromic formulas invert under angle negation
        params = TfimParams(n_spins=5, field=2.0, dt=0.2)
        forward = symmetric_step(params)
        u = circuit_unitary(negated_angles(forward)) @ circuit_unitary(forward)
        assert np.linalg.norm(u - np.eye(32), 2) <= 1e-10

    def test_first_order_is_not_time_reversal_symmetric(self):
        params = TfimParams(n_spins=5, field=2.0, dt=0.2)
        forward = first_order_step(params)
        u = circuit_unitary(negated_angles(forward)) @ circuit_unitary(forward)
        assert np.linalg.norm(u - np.eye(32), 2) > 1e-3


class TestBuildEvolution:
    def test_single_step_equals_step(self):
        params = TfimParams(n_spins=5)
        built = build_evolution_circuit(params, 1, TrotterOrder.FIRST)
        step = first_order_step(params)
        assert gate_rows(built) == gate_rows(step)
        assert built.step_marks == step.step_marks

    def test_twenty_first_order_steps(self):
        circ = build_evolution_circuit(TfimParams(n_spins=5), 20, TrotterOrder.FIRST)
        assert len(circ) == 340
        assert len(circ.step_marks) == 20
        assert circ.step_marks[-1] == 340

    @pytest.mark.parametrize("n_steps", [1, 3, 7])
    def test_symmetric_has_28n_gates(self, n_steps):
        circ = build_evolution_circuit(
            TfimParams(n_spins=5), n_steps, TrotterOrder.SYMMETRIC
        )
        assert len(circ) == 28 * n_steps

    def test_invalid_steps(self):
        with pytest.raises(ValueError):
            build_evolution_circuit(TfimParams(n_spins=5), 0, TrotterOrder.FIRST)


class TestStepCorrectness:
    """Operator-norm error against the exact propagator fixes every angle sign.

    The power-law order only shows while g dt stays small; at g = 6 the
    largest steps saturate the error, so that case fits over a grid scaled
    down by 4 to keep the window asymptotic.
    """

    CASES = [(1.0, 1.0), (2.0, 1.0), (6.0, 4.0)]

    @pytest.mark.parametrize("n", [2, 3, 5])
    @pytest.mark.parametrize("field,scale", CASES)
    def test_first_order_slope(self, n, field, scale):
        dts = [dt / scale for dt in DTS]
        errs = [step_error(n, field, dt, 1) for dt in dts]
        slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.1)

    @pytest.mark.parametrize("n", [2, 3, 5])
    @pytest.mark.parametrize("field,scale", CASES)
    def test_symmetric_slope(self, n, field, scale):
        dts = [dt / scale for dt in DTS]
        errs = [step_error(n, field, dt, 2) for dt in dts]
        slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert slope == pytest.approx(3.0, abs=0.15)

    @pytest.mark.parametrize("dt", [0.1, 0.5, 2.0])
    def test_commuting_limit_any_dt(self, dt):
        params = TfimParams(n_spins=4, field=0.0, dt=dt)
        exact = expm_hermitian(naive_hamiltonian(4, 1.0, 0.0), dt)
        for step in (first_order_step(params), symmetric_step(params)):
            assert np.linalg.norm(circuit_unitary(step) - exact, 2) <= 1e-10

    def test_periodic_chain_small_dt(self):
        params = TfimParams(n_spins=4, field=1.5, dt=0.001, periodic=True)
        exact = expm_hermitian(naive_hamiltonian(4, 1.0, 1.5, periodic=True), 0.001)
        u = circuit_unitary(first_order_step(params))
        assert np.linalg.norm(u - exact, 2) <= 1e-4


class TestLayerCommutation:
    def test_reordering_within_layers_preserves_unitary(self):
        params = TfimParams(n_spins=5, field=1.3, dt=0.2)
        base = first_order_step(params)
        u0 = circuit_unitary(base)

        # reverse the X layer
        rows = gate_rows(base)
        shuffled = circuit_of(5, rows[4::-1] + rows[5:])
        np.testing.assert_allclose(circuit_unitary(shuffled), u0, atol=1e-12)

        # swap the two odd-bond ZZ blocks (three gates each)
        swapped = circuit_of(5, rows[:5] + rows[8:11] + rows[5:8] + rows[11:])
        np.testing.assert_allclose(circuit_unitary(swapped), u0, atol=1e-12)
