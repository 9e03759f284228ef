"""Trotter-step synthesis: structure, angles, error order, and symmetry."""

import itertools
import re

import numpy as np
import pytest

from trotterbench import (
    Circuit,
    TfimParams,
    build_evolution_circuit,
    circuit_unitary,
    first_order_step,
    gate_counts,
    symmetric_step,
)
from trotterbench.circuit import KIND_CNOT, KIND_RX, KIND_RZ
from trotterbench.statevector import all_down_state, z_expectations
from trotterbench.trotter import _step

from oracles import (
    circuit_of,
    expm_hermitian,
    gate_rows,
    naive_hamiltonian,
    negated_angles,
    reference_first_order_step,
    reference_symmetric_step,
)

DTS = [0.0125, 0.025, 0.05, 0.1, 0.2]


def step_error(n, field, dt, order):
    params = TfimParams(n_spins=n, coupling=1.0, field=field, dt=dt)
    step = first_order_step(params) if order == 1 else symmetric_step(params)
    exact = expm_hermitian(naive_hamiltonian(n, 1.0, field), dt)
    return float(np.linalg.norm(circuit_unitary(step) - exact, 2))


def step_bonds(params):
    """The (control, target) pair of each bond of a first-order step, in gate
    order: the odd layer's bonds, then the even layer's."""
    circ = first_order_step(params)
    return [(a, b) for k, a, b in zip(circ.kinds, circ.qa, circ.qb) if k == KIND_CNOT][::2]


def circuit_bits(circ):
    """Every gate list and the step marks, each angle as its exact float.hex."""
    return circ.kinds, circ.qa, circ.qb, circ.step_marks, [float.hex(t) for t in circ.theta]


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            TfimParams(n_spins=1)
        with pytest.raises(ValueError):
            TfimParams(n_spins=3, dt=0.0)
        with pytest.raises(ValueError, match="^j must be nonzero, got 0.0$"):
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
        ("n_spins", True),
    ])
    def test_value_of_another_type_is_named(self, key, value):
        with pytest.raises(ValueError, match=f"^{key} must be"):
            TfimParams(**{"n_spins": 4, key: value})

    @pytest.mark.parametrize("key, name, value", [
        ("field", "g", "1"),  # raised a TypeError from the dt comparison
        ("coupling", "j", True),  # built a J=1 chain
        ("dt", "dt", None),
        ("coupling", "j", 1j),
    ])
    def test_real_value_of_another_type_is_named(self, key, name, value):
        with pytest.raises(ValueError,
                           match=f"^{name} must be a real number, got {re.escape(repr(value))}$"):
            TfimParams(n_spins=3, **{key: value})

    def test_bond_parity_n5(self):
        bonds = step_bonds(TfimParams(n_spins=5))
        assert bonds[:2] == [(0, 1), (2, 3)]  # odd layer
        assert bonds[2:] == [(1, 2), (3, 4)]  # even layer

    def test_bond_parity_periodic(self):
        bonds = step_bonds(TfimParams(n_spins=4, periodic=True))
        assert bonds[:2] == [(0, 1), (2, 3)]
        assert bonds[2:] == [(1, 2), (3, 0)]


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
        built = build_evolution_circuit(params, 1, "first")
        step = first_order_step(params)
        assert gate_rows(built) == gate_rows(step)
        assert built.step_marks == step.step_marks

    def test_twenty_first_order_steps(self):
        circ = build_evolution_circuit(TfimParams(n_spins=5), 20, "first")
        assert len(circ) == 340
        assert len(circ.step_marks) == 20
        assert circ.step_marks[-1] == 340

    @pytest.mark.parametrize("n_steps", [1, 3, 7])
    def test_symmetric_has_28n_gates(self, n_steps):
        circ = build_evolution_circuit(
            TfimParams(n_spins=5), n_steps, "sym2"
        )
        assert len(circ) == 28 * n_steps

    def test_invalid_steps(self):
        with pytest.raises(ValueError):
            build_evolution_circuit(TfimParams(n_spins=5), 0, "first")

    @pytest.mark.parametrize("n_steps", [2.5, 2.0, True])
    def test_steps_that_are_not_an_integer_are_refused_by_name(self, n_steps):
        # 2.5 raised a TypeError from range()
        with pytest.raises(ValueError, match=f"^n_steps must be an integer, got {n_steps!r}$"):
            build_evolution_circuit(TfimParams(n_spins=3), n_steps, "first")


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


class TestLayerTable:
    """One emitter, the orders as data: `_step` gives each order's gates,
    step marks and angle bits exactly as the hand-written builders of
    `oracles` do."""

    ORDERS = [(first_order_step, reference_first_order_step, "first"),
              (symmetric_step, reference_symmetric_step, "sym2")]

    @pytest.mark.parametrize("periodic", [False, True])
    @pytest.mark.parametrize("step, reference, order", ORDERS)
    def test_steps_match_the_reference_bit_for_bit(self, step, reference, order, periodic):
        for n, coupling, field, dt in itertools.product(
                range(2, 13), (1.0, -0.7), (0.0, 1.0, 2.5, -1.3), (0.2, 0.05, 0.013, 1.7)):
            params = TfimParams(n, coupling, field, dt, periodic)
            ref = reference(params)
            assert circuit_bits(step(params)) == circuit_bits(ref), params
            for n_steps in (1, 7):
                expected = Circuit(n)
                for _ in range(n_steps):
                    expected.extend(ref)
                built = build_evolution_circuit(params, n_steps, order)
                assert circuit_bits(built) == circuit_bits(expected), (params, n_steps)

    @pytest.mark.parametrize("order", ["third", ["x"], None, 2])
    def test_unknown_order_is_refused_by_name(self, order):
        with pytest.raises(ValueError, match=f"^unknown Trotter order {re.escape(repr(order))}$"):
            build_evolution_circuit(TfimParams(n_spins=3), 1, order)


class TestSplittingIdentities:
    """Two exact identities, on tables local to this test. With A the X layer
    and B the full ZZ layer, first order is U1 = B A and sym2 is
    U2 = A^(1/2) B A^(1/2), so U2^k = A^(1/2) U1^k A^(-1/2). And
    U1^k = B^(1/2) (B^(1/2) A B^(1/2))^k B^(-1/2): all-down is an eigenstate
    of B and Z_j commutes with B, so <Z_j> after k first-order steps equals
    <Z_j> after k steps of the ZZ-outer Strang splitting (D. Layden, PRL 128,
    210501 (2022))."""

    HALF_X = (("x", 0.5),)
    MINUS_HALF_X = (("x", -0.5),)
    ZZ_OUTER = (("odd", 0.5), ("even", 0.5), ("x", 1), ("even", 0.5), ("odd", 0.5))
    CHAINS = list(itertools.product((3, 4, 5), (0.7, 2.5, -1.3)))

    @pytest.mark.parametrize("periodic", [False, True])
    @pytest.mark.parametrize("coupling", [1.0, -0.7])
    def test_sym2_is_first_order_conjugated_by_half_an_x_layer(self, coupling, periodic):
        for n, field in self.CHAINS:
            params = TfimParams(n, coupling, field, 0.2, periodic)
            u1 = circuit_unitary(first_order_step(params))
            u2 = circuit_unitary(symmetric_step(params))
            half = circuit_unitary(_step(params, self.HALF_X))
            minus_half = circuit_unitary(_step(params, self.MINUS_HALF_X))
            power1 = power2 = np.eye(1 << n)
            for k in range(1, 16):
                power1, power2 = u1 @ power1, u2 @ power2
                deviation = np.linalg.norm(power2 - half @ power1 @ minus_half, 2)
                assert deviation <= 1e-12, (params, k)

    @pytest.mark.parametrize("periodic", [False, True])
    @pytest.mark.parametrize("coupling", [1.0, -0.7])
    def test_first_order_reads_out_as_the_zz_outer_splitting(self, coupling, periodic):
        for n, field in self.CHAINS:
            params = TfimParams(n, coupling, field, 0.2, periodic)
            u1 = circuit_unitary(first_order_step(params))
            u_zz = circuit_unitary(_step(params, self.ZZ_OUTER))
            first = zz_outer = all_down_state(n)
            for k in range(1, 16):
                first, zz_outer = u1 @ first, u_zz @ zz_outer
                deviation = np.abs(z_expectations(first) - z_expectations(zz_outer)).max()
                assert deviation <= 1e-12, (params, k)
