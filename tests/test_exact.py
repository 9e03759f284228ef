"""Exact Hamiltonian, spectral propagator, and continuous-time series."""

import numpy as np
import pytest

from trotterbench import (
    TfimParams,
    all_down_state,
    build_hamiltonian,
    exact_propagator,
    exact_series,
)
from trotterbench.exact import chain_spectrum, spectrum

from oracles import SX, expm_hermitian, naive_hamiltonian


class TestBuildHamiltonian:
    def test_two_spin_ising_diagonal(self):
        h = build_hamiltonian(TfimParams(n_spins=2, coupling=1.0, field=0.0))
        np.testing.assert_allclose(h, np.diag([-1, 1, 1, -1]), atol=1e-15)

    def test_transverse_part_eigenvalues(self):
        # the field part alone is -(sx x I + I x sx): spectrum {-2, 0, 0, 2}
        with_field = build_hamiltonian(TfimParams(n_spins=2, coupling=1.0, field=1.0))
        without = build_hamiltonian(TfimParams(n_spins=2, coupling=1.0, field=0.0))
        x_part = with_field - without
        np.testing.assert_allclose(np.linalg.eigvalsh(x_part), [-2, 0, 0, 2], atol=1e-12)

    @pytest.mark.parametrize("periodic", [False, True])
    @pytest.mark.parametrize("n,field", [(2, 1.0), (3, 2.5), (5, 1.0)])
    def test_matches_naive_kron_construction(self, n, field, periodic):
        params = TfimParams(n_spins=n, coupling=1.0, field=field)
        h = build_hamiltonian(params, periodic=periodic)
        assert h.dtype == np.float64  # real symmetric, so the real eigh applies
        np.testing.assert_allclose(
            h, naive_hamiltonian(n, 1.0, field, periodic), atol=1e-10
        )

    def test_ground_state_energy_matches_naive(self):
        params = TfimParams(n_spins=5, coupling=1.0, field=1.0)
        e_fast = np.linalg.eigvalsh(build_hamiltonian(params))[0]
        e_naive = np.linalg.eigvalsh(naive_hamiltonian(5, 1.0, 1.0))[0]
        assert e_fast == pytest.approx(e_naive, abs=1e-10)

    def test_hermitian(self):
        h = build_hamiltonian(TfimParams(n_spins=4, field=2.0))
        np.testing.assert_allclose(h, h.conj().T, atol=1e-12)

    def test_dense_bound(self):
        with pytest.raises(ValueError):
            build_hamiltonian(TfimParams(n_spins=13))


class TestSpectrum:
    def test_eigenvalues_ascending_and_reconstruction(self):
        h = build_hamiltonian(TfimParams(n_spins=4, field=1.7))
        spec = spectrum(h)
        assert np.all(np.diff(spec.eigenvalues) >= -1e-12)
        v = spec.eigenvectors
        np.testing.assert_allclose(v @ np.diag(spec.eigenvalues) @ v.conj().T, h,
                                   atol=1e-10)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            spectrum(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_chain_spectrum_is_read_only(self):
        spec = chain_spectrum(TfimParams(n_spins=3, field=1.3))
        with pytest.raises(ValueError, match="read-only"):
            spec.eigenvalues[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            spec.eigenvectors[0, 0] = 0.0

    def test_chain_spectrum_shared_across_dt(self):
        a = chain_spectrum(TfimParams(n_spins=3, field=1.3, dt=0.1), periodic=True)
        b = chain_spectrum(TfimParams(n_spins=3, field=1.3, dt=0.4), periodic=True)
        assert a is b
        assert chain_spectrum(TfimParams(n_spins=3, field=1.3, dt=0.1)) is not a


class TestExactPropagator:
    def test_zero_time_is_identity(self):
        h = build_hamiltonian(TfimParams(n_spins=3, field=1.0))
        np.testing.assert_allclose(exact_propagator(h, 0.0), np.eye(8), atol=1e-12)

    def test_group_law(self):
        h = build_hamiltonian(TfimParams(n_spins=3, field=2.0))
        u1 = exact_propagator(h, 0.37)
        u2 = exact_propagator(h, 1.11)
        u12 = exact_propagator(h, 1.48)
        assert np.linalg.norm(u1 @ u2 - u12, 2) <= 1e-10

    def test_unitary(self):
        h = build_hamiltonian(TfimParams(n_spins=4, field=1.0))
        u = exact_propagator(h, 2.5)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(16), atol=1e-10)

    def test_single_spin_rabi_rotation(self):
        # H = -g sx on one spin: exp(-iHt) = cos(gt) I + i sin(gt) sx
        g, t = 1.0, 0.83
        u = exact_propagator(-g * SX, t)
        expected = np.cos(g * t) * np.eye(2) + 1j * np.sin(g * t) * SX
        np.testing.assert_allclose(u, expected, atol=1e-12)

    @pytest.mark.parametrize("order", [1, 2])
    def test_tiny_step_consistency(self, order):
        from trotterbench import circuit_unitary, first_order_step, symmetric_step

        params = TfimParams(n_spins=5, field=1.0, dt=1e-3)
        step = first_order_step(params) if order == 1 else symmetric_step(params)
        u_exact = exact_propagator(build_hamiltonian(params), 1e-3)
        assert np.linalg.norm(circuit_unitary(step) - u_exact, 2) <= 1e-4


class TestExactSeries:
    def test_zero_field_frozen_dynamics(self):
        # the all-down state is then an eigenstate: M_j pinned at -1
        params = TfimParams(n_spins=5, field=0.0, dt=0.2)
        series = exact_series(params, all_down_state(5), 0.2 * np.arange(11))
        np.testing.assert_allclose(series.local, -1.0, atol=1e-12)

    def test_field_drives_oscillations_toward_zero(self):
        params = TfimParams(n_spins=5, coupling=1.0, field=1.0, dt=0.2)
        series = exact_series(params, all_down_state(5), 0.2 * np.arange(21))
        assert series.total[0] == pytest.approx(-1.0, abs=1e-12)
        assert series.total.max() > -0.1  # rises from -1 toward 0
        diffs = np.diff(series.total)
        assert np.sum(np.diff(np.sign(diffs)) != 0) >= 2  # oscillates

    def test_chain_reflection_symmetry(self):
        params = TfimParams(n_spins=5, field=1.0)
        series = exact_series(params, all_down_state(5), 0.2 * np.arange(21))
        np.testing.assert_allclose(series.local[:, 0], series.local[:, 4], atol=1e-10)
        np.testing.assert_allclose(series.local[:, 1], series.local[:, 3], atol=1e-10)

    def test_energy_and_norm_conserved(self):
        params = TfimParams(n_spins=4, field=2.0)
        h = build_hamiltonian(params)
        spec = spectrum(h)
        psi0 = all_down_state(4).amps
        e0 = np.real(psi0.conj() @ h @ psi0)
        for t in (0.5, 1.5, 4.0):
            psi = spec.evolve(psi0, t)
            assert abs(np.linalg.norm(psi) - 1.0) <= 1e-10
            assert abs(np.real(psi.conj() @ h @ psi) - e0) <= 1e-10

    def test_times_must_start_at_zero(self):
        params = TfimParams(n_spins=2)
        with pytest.raises(ValueError):
            exact_series(params, all_down_state(2), [0.2, 0.4])

    def test_times_must_ascend(self):
        params = TfimParams(n_spins=2)
        with pytest.raises(ValueError):
            exact_series(params, all_down_state(2), [0.0, 0.4, 0.2])

    def test_matches_independent_propagation(self):
        # the naive complex Hamiltonian and a complex eigh per time point
        # share no code with the real cached spectrum and its batched grid
        times = 0.2 * np.arange(21)
        for n in range(3, 8):
            idx = np.arange(2**n)
            signs = 1.0 - 2.0 * ((idx[:, None] >> np.arange(n)[None, :]) & 1)
            psi0 = all_down_state(n).amps
            for periodic in (False, True):
                for field in (0.0, 1.0, 2.5):
                    params = TfimParams(n_spins=n, field=field)
                    series = exact_series(params, all_down_state(n), times, periodic)
                    h = naive_hamiltonian(n, 1.0, field, periodic)
                    expected = np.array(
                        [(np.abs(expm_hermitian(h, t) @ psi0) ** 2) @ signs for t in times]
                    )
                    np.testing.assert_allclose(
                        series.local, expected, rtol=0, atol=1e-13,
                        err_msg=f"n={n} periodic={periodic} g={field}",
                    )
