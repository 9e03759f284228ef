"""Exact Hamiltonian, spectral propagator, and continuous-time series."""

import gc
import weakref

import numpy as np
import pytest

from trotterbench import (
    TfimParams,
    all_down_state,
    build_hamiltonian,
    circuit_unitary,
    exact_series,
    first_order_step,
    symmetric_step,
)
from trotterbench import exact, fermion
from trotterbench.exact import chain_spectrum, sector_series, spectrum

from oracles import (
    SX,
    SZ,
    evolve_hermitian,
    expm_hermitian,
    kron_at,
    naive_hamiltonian,
    sector_projection,
    spin_flip,
)


def z_oracle(n):
    """(2^n, n) diagonals of the kron-embedded Z_j."""
    return np.stack([np.diag(kron_at(SZ, j, n)).real for j in range(n)], axis=1)


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
        params = TfimParams(n_spins=n, coupling=1.0, field=field, periodic=periodic)
        h = build_hamiltonian(params)
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

    @pytest.mark.parametrize("h", [np.array([[0.0, 1j], [-1j, 0.0]]), np.eye(2, dtype=complex)])
    def test_rejects_complex_input(self, h):
        # Hermitian or not, and even with a zero imaginary part
        with pytest.raises(ValueError, match="complex"):
            spectrum(h)

    def test_rejects_nan(self):
        # eigh itself would return NaNs here without raising
        with pytest.raises(ValueError, match="not Hermitian"):
            spectrum(np.array([[0.0, np.nan], [np.nan, 0.0]]))

    def test_hermitian_tolerance(self):
        spectrum(np.array([[0.0, 1e-12], [0.0, 0.0]]))  # max |h - h^dagger| = 1e-12
        with pytest.raises(ValueError, match="not Hermitian"):
            spectrum(np.array([[0.0, 2e-12], [0.0, 0.0]]))

    def test_chain_spectrum_keeps_nothing_once_it_returns(self):
        spec = chain_spectrum(TfimParams(n_spins=3, field=1.3, periodic=True))
        even = weakref.ref(spec[0])
        del spec
        gc.collect()
        assert even() is None


class TestSectorSolveThreads:
    """The sector eigensolves run on one BLAS thread and leave the count as
    they found it."""

    @pytest.fixture
    def fake_blas(self, monkeypatch):
        threads = [4]
        monkeypatch.setattr(exact, "_blas_thread_control",
                            lambda: (lambda: threads[0], lambda k: threads.__setitem__(0, k)))
        return threads

    def test_solves_see_one_thread_and_count_is_restored(self, fake_blas, monkeypatch):
        seen = []
        original = exact.spectrum

        def recording(h):
            seen.append(fake_blas[0])
            return original(h)

        monkeypatch.setattr(exact, "spectrum", recording)
        chain_spectrum(TfimParams(n_spins=4, field=0.7))
        assert seen == [1, 1]
        assert fake_blas == [4]

    def test_count_is_restored_when_a_solve_fails(self, fake_blas, monkeypatch):
        def failing(h):
            raise ValueError("operator is not Hermitian")

        monkeypatch.setattr(exact, "spectrum", failing)
        with pytest.raises(ValueError):
            chain_spectrum(TfimParams(n_spins=4, field=0.7))
        assert fake_blas == [4]

    def test_finds_numpys_openblas(self, monkeypatch):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
        control = exact._blas_thread_control()
        assert (control is not None) == ("openblas" in blas)
        if control is not None:
            get, _ = control
            before, seen = get(), []
            original = exact.spectrum
            monkeypatch.setattr(exact, "spectrum", lambda h: (seen.append(get()), original(h))[1])
            chain_spectrum(TfimParams(n_spins=6, field=1.1))
            assert seen == [1, 1]
            assert get() == before


class TestSpinFlipParity:
    """P = prod_j X_j commutes with H and with both Trotter steps, which is
    what lets the exact side work in P's two sectors."""

    @pytest.mark.parametrize("periodic", [False, True])
    def test_commutes_with_hamiltonian_and_steps(self, periodic):
        for n in (2, 3, 4, 5):
            p = spin_flip(n)
            for field in (0.0, 1.0, 2.5):
                params = TfimParams(n_spins=n, field=field, dt=0.3, periodic=periodic)
                h = build_hamiltonian(params)
                np.testing.assert_allclose(p @ h, h @ p, rtol=0, atol=1e-13,
                                           err_msg=f"H n={n} g={field}")
                for step in (first_order_step, symmetric_step):
                    u = circuit_unitary(step(params))
                    np.testing.assert_allclose(p @ u, u @ p, rtol=0, atol=1e-13,
                                               err_msg=f"{step.__name__} n={n} g={field}")

    def test_sector_blocks_are_half_size(self):
        even, odd = chain_spectrum(TfimParams(n_spins=5, field=1.0))
        assert even.eigenvectors.shape == odd.eigenvectors.shape == (16, 16)
        full = np.linalg.eigvalsh(naive_hamiltonian(5, 1.0, 1.0))
        both = np.sort(np.concatenate([even.eigenvalues, odd.eigenvalues]))
        np.testing.assert_allclose(both, full, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    @pytest.mark.parametrize("periodic", [False, True])
    def test_chain_propagator_matches_oracle_and_is_unitary(self, n, periodic):
        # each sector's propagator is the kron oracle's exp(-iHt) projected
        # onto that sector with the kron-built P
        for field in (0.0, 1.0, 2.5):
            spec = chain_spectrum(TfimParams(n_spins=n, field=field, periodic=periodic))
            h = naive_hamiltonian(n, 1.0, field, periodic)
            for t in (0.0, 0.2, 1.7):
                u_full = expm_hermitian(h, t)
                for sign, sector in zip((1, -1), spec):
                    u = sector.propagator(t)
                    msg = f"g={field} t={t} P={sign}"
                    np.testing.assert_allclose(u, sector_projection(u_full, sign), rtol=0,
                                               atol=1e-13, err_msg=msg)
                    np.testing.assert_allclose(u.conj().T @ u, np.eye(2 ** (n - 1)), rtol=0,
                                               atol=1e-13, err_msg=msg)


class TestExactPropagator:
    def test_evolve_is_the_propagator_on_every_time(self):
        rng = np.random.default_rng(5)
        h = build_hamiltonian(TfimParams(n_spins=3, field=1.3))
        psi0 = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        psi0 /= np.linalg.norm(psi0)
        spec = spectrum(h)
        times = np.array([0.0, 0.4, 1.7])
        expected = np.stack([spec.propagator(t) @ psi0 for t in times], axis=1)
        np.testing.assert_allclose(spec.evolve(psi0, times), expected, rtol=0, atol=1e-12)

    def test_zero_time_is_identity(self):
        h = build_hamiltonian(TfimParams(n_spins=3, field=1.0))
        np.testing.assert_allclose(spectrum(h).propagator(0.0), np.eye(8), atol=1e-12)

    def test_group_law(self):
        h = build_hamiltonian(TfimParams(n_spins=3, field=2.0))
        u1 = spectrum(h).propagator(0.37)
        u2 = spectrum(h).propagator(1.11)
        u12 = spectrum(h).propagator(1.48)
        assert np.linalg.norm(u1 @ u2 - u12, 2) <= 1e-10

    def test_unitary(self):
        h = build_hamiltonian(TfimParams(n_spins=4, field=1.0))
        u = spectrum(h).propagator(2.5)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(16), atol=1e-10)

    def test_single_spin_rabi_rotation(self):
        # H = -g sx on one spin: exp(-iHt) = cos(gt) I + i sin(gt) sx
        g, t = 1.0, 0.83
        u = spectrum(-g * SX.real).propagator(t)
        expected = np.cos(g * t) * np.eye(2) + 1j * np.sin(g * t) * SX
        np.testing.assert_allclose(u, expected, atol=1e-12)

    @pytest.mark.parametrize("order", [1, 2])
    def test_tiny_step_consistency(self, order):
        from trotterbench import circuit_unitary, first_order_step, symmetric_step

        params = TfimParams(n_spins=5, field=1.0, dt=1e-3)
        step = first_order_step(params) if order == 1 else symmetric_step(params)
        u_exact = spectrum(build_hamiltonian(params)).propagator(1e-3)
        assert np.linalg.norm(circuit_unitary(step) - u_exact, 2) <= 1e-4


class TestExactSeries:
    def test_zero_field_frozen_dynamics(self):
        # the all-down state is then an eigenstate: M_j pinned at -1
        for n in range(2, 10):
            for periodic in (False, True):
                params = TfimParams(n_spins=n, field=0.0, dt=0.2, periodic=periodic)
                series = exact_series([params], 0.2 * np.arange(21))[0]
                np.testing.assert_allclose(series.local, -1.0, rtol=0, atol=1e-14,
                                           err_msg=f"n={n} periodic={periodic}")

    def test_field_drives_oscillations_toward_zero(self):
        params = TfimParams(n_spins=5, coupling=1.0, field=1.0, dt=0.2)
        series = exact_series([params], 0.2 * np.arange(21))[0]
        assert series.total[0] == pytest.approx(-1.0, abs=1e-12)
        assert series.total.max() > -0.1  # rises from -1 toward 0
        diffs = np.diff(series.total)
        assert np.sum(np.diff(np.sign(diffs)) != 0) >= 2  # oscillates

    def test_chain_reflection_symmetry(self):
        # the open chain is symmetric under site j -> n-1-j
        for n in range(2, 10):
            for field in (1.0, 2.5):
                params = TfimParams(n_spins=n, field=field)
                series = exact_series([params], 0.2 * np.arange(21))[0]
                np.testing.assert_allclose(series.local, series.local[:, ::-1], rtol=0,
                                           atol=1e-13, err_msg=f"n={n} g={field}")

    def test_periodic_chain_is_site_uniform(self):
        # the ring is translation invariant, and so is the all-down state
        for n in range(2, 10):
            params = TfimParams(n_spins=n, field=1.5, periodic=True)
            series = exact_series([params], 0.2 * np.arange(21))[0]
            np.testing.assert_allclose(series.local, series.local[:, :1] * np.ones(n),
                                       rtol=0, atol=1e-13, err_msg=f"n={n}")
            assert series.local.min() < -0.1 and series.local.max() > -0.9  # not frozen

    def test_energy_and_norm_conserved(self):
        params = TfimParams(n_spins=4, field=2.0)
        h = build_hamiltonian(params)
        spec = spectrum(h)
        psi0 = all_down_state(4)
        e0 = np.real(psi0.conj() @ h @ psi0)
        evolved = spec.evolve(psi0, np.array([0.5, 1.5, 4.0]))
        assert evolved.shape == (16, 3)
        for psi in evolved.T:
            assert abs(np.linalg.norm(psi) - 1.0) <= 1e-10
            assert abs(np.real(psi.conj() @ h @ psi) - e0) <= 1e-10

    @pytest.mark.parametrize("periodic", [False, True])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_times_are_refused(self, bad, periodic):
        # NaN fails every comparison, so the ascending check alone let it through
        params = TfimParams(n_spins=4, periodic=periodic)
        with pytest.raises(ValueError, match="times must be finite"):
            exact_series([params], [0.0, bad])

    def test_times_must_start_at_zero(self):
        params = TfimParams(n_spins=2)
        with pytest.raises(ValueError):
            exact_series([params], [0.2, 0.4])

    def test_times_must_ascend(self):
        params = TfimParams(n_spins=2)
        with pytest.raises(ValueError):
            exact_series([params], [0.0, 0.4, 0.2])

    def test_matches_independent_propagation(self):
        # the naive complex Hamiltonian and its complex full-space eigh
        # share no code with the free-fermion series (open chain) or the
        # sector spectra and their batched grid (periodic chain)
        times = 0.2 * np.arange(21)
        for n in range(2, 9):
            signs = z_oracle(n)
            psi0 = all_down_state(n)
            for periodic in (False, True):
                for field in (0.0, 1.0, 2.5):
                    params = TfimParams(n_spins=n, field=field, periodic=periodic)
                    h = naive_hamiltonian(n, 1.0, field, periodic)
                    series = exact_series([params], times)[0]
                    expected = np.abs(evolve_hermitian(h, psi0, times)) ** 2 @ signs
                    np.testing.assert_allclose(
                        series.local, expected, rtol=0, atol=1e-13,
                        err_msg=f"n={n} periodic={periodic} g={field}",
                    )

    def test_series_is_read_only(self):
        for periodic in (False, True):
            params = TfimParams(n_spins=4, field=1.3, periodic=periodic)
            series = exact_series([params, params], 0.2 * np.arange(6))
            for one in series:
                with pytest.raises(ValueError, match="read-only"):
                    one.local[0, 0] = 0.0
            np.testing.assert_array_equal(series[0].local, series[1].local)

    def test_refuses_an_empty_list_by_name(self):
        with pytest.raises(ValueError, match="params"):
            exact_series([], 0.2 * np.arange(6))

    def test_refuses_a_list_that_mixes_boundaries(self):
        chains = [TfimParams(n_spins=4), TfimParams(n_spins=4, periodic=True)]
        for params in (chains, chains[::-1]):
            with pytest.raises(ValueError, match="mixes open and periodic"):
                exact_series(params, 0.2 * np.arange(6))


class TestSectorBlocks:
    # the full grid to N=10 would take the Kronecker oracle ~9 s; N=9 and 10
    # take one nontrivial (g, J)
    CASES = [(n, g, j) for n in range(2, 9) for g in (0.0, 1.0, 2.5) for j in (1.0, -0.7)]
    CASES += [(9, 2.5, -0.7), (10, 2.5, -0.7)]

    @pytest.mark.parametrize("periodic", [False, True])
    def test_blocks_equal_the_slices_of_the_full_hamiltonian(self, periodic):
        for n, field, coupling in self.CASES:
            params = TfimParams(n_spins=n, coupling=coupling, field=field, periodic=periodic)
            h = naive_hamiltonian(n, coupling, field, periodic).real
            half = h.shape[0] // 2
            a, b = h[:half, :half], h[:half, :half - 1:-1]  # rbar = 2^n - 1 - r
            even, odd = exact.sector_blocks(build_hamiltonian(params))
            msg = f"n={n} g={field} J={coupling}"
            assert np.array_equal(even, a + b), msg
            assert np.array_equal(odd, a - b), msg

    @pytest.mark.parametrize("periodic", [False, True])
    def test_step_blocks_are_its_sector_projections(self, periodic):
        # the blocks of a complex unitary that commutes with P, against the
        # projections with the kron-built P
        for n in (2, 3, 5):
            params = TfimParams(n_spins=n, coupling=-0.7, field=1.3, dt=0.4, periodic=periodic)
            for step in (first_order_step, symmetric_step):
                u = circuit_unitary(step(params))
                for sign, block in zip((1, -1), exact.sector_blocks(u)):
                    np.testing.assert_allclose(block, sector_projection(u, sign), rtol=0,
                                               atol=1e-14, err_msg=f"n={n} {step.__name__}")

    def test_dense_bound(self):
        with pytest.raises(ValueError):
            chain_spectrum(TfimParams(n_spins=13))


GRID = 0.2 * np.arange(21)
FIELDS = (0.0, 1.0, 2.5, -1.3)
COUPLINGS = (1.0, -0.7)


class TestFreeFermionSeries:
    """The open chain's free-fermion series against the dense references."""

    @pytest.mark.parametrize("coupling", COUPLINGS)
    @pytest.mark.parametrize("field", FIELDS)
    def test_matches_dense_sector_series(self, field, coupling):
        for n in range(2, 11):
            params = TfimParams(n_spins=n, coupling=coupling, field=field)
            np.testing.assert_allclose(
                fermion.z_series([params], GRID)[0], sector_series(params, GRID),
                rtol=0, atol=1e-13, err_msg=f"n={n}",
            )

    def test_matches_dense_sector_series_at_twelve_spins(self):
        params = TfimParams(n_spins=12, coupling=-0.7, field=2.5)
        np.testing.assert_allclose(fermion.z_series([params], GRID)[0],
                                   sector_series(params, GRID), rtol=0, atol=1e-13)

    def test_refuses_a_periodic_chain(self):
        params = [TfimParams(n_spins=4), TfimParams(n_spins=4, periodic=True)]
        with pytest.raises(ValueError, match="only open chains"):
            fermion.z_series(params, GRID)

    @pytest.mark.parametrize("coupling", COUPLINGS)
    @pytest.mark.parametrize("field", FIELDS)
    def test_matches_kron_oracle(self, field, coupling):
        for n in range(2, 9):
            params = TfimParams(n_spins=n, coupling=coupling, field=field)
            h = naive_hamiltonian(n, coupling, field)
            psi = evolve_hermitian(h, all_down_state(n), GRID)
            np.testing.assert_allclose(
                fermion.z_series([params], GRID)[0], np.abs(psi) ** 2 @ z_oracle(n),
                rtol=0, atol=1e-13, err_msg=f"n={n}",
            )

    @pytest.mark.parametrize("field", FIELDS)
    def test_starts_at_minus_one_exactly(self, field):
        for n in range(2, 11):
            local = fermion.z_series([TfimParams(n_spins=n, field=field)], GRID)[0]
            assert np.all(local[0] == -1.0), f"n={n}"

    def test_beyond_the_dense_limit(self):
        times = np.array([0.0, 0.7, 3.1])
        local = fermion.z_series([TfimParams(n_spins=64, field=1.0)], times)[0]
        np.testing.assert_allclose(local, local[:, ::-1], rtol=0, atol=1e-13)
        assert np.abs(local).max() <= 1.0
        assert local[1:].max() > -0.9  # the field moves the chain
        frozen = fermion.z_series([TfimParams(n_spins=64, field=0.0)], times)[0]
        np.testing.assert_allclose(frozen, -1.0, rtol=0, atol=1e-13)

    def test_majorana_propagator_is_orthogonal(self):
        r = fermion.majorana_propagator(TfimParams(n_spins=6, field=1.7), GRID)
        np.testing.assert_array_equal(r[0], np.eye(12))
        np.testing.assert_allclose(r @ r.transpose(0, 2, 1), np.broadcast_to(np.eye(12), r.shape),
                                   rtol=0, atol=1e-13)

    def test_pfaffian_of_known_matrices(self):
        # Pf [[0, x], [-x, 0]] = x; Pf of a 4x4 is a01 a23 - a02 a13 + a03 a12
        rng = np.random.default_rng(7)
        raw = rng.standard_normal((5, 4, 4)) + 1j * rng.standard_normal((5, 4, 4))
        a = np.triu(raw, 1)
        a = a - a.transpose(0, 2, 1)
        expected = (a[:, 0, 1] * a[:, 2, 3] - a[:, 0, 2] * a[:, 1, 3]
                    + a[:, 0, 3] * a[:, 1, 2])
        np.testing.assert_allclose(fermion.pfaffian(a.copy()), expected, rtol=1e-13)
        # Pf^2 = det on a larger batch, pivots moving in some members only
        raw = rng.standard_normal((6, 10, 10)) + 1j * rng.standard_normal((6, 10, 10))
        b = np.triu(raw, 1)
        b = b - b.transpose(0, 2, 1)
        np.testing.assert_allclose(fermion.pfaffian(b.copy()) ** 2, np.linalg.det(b),
                                   rtol=1e-11)
        # a zero column leaves no pivot: Pf = 0, for that member only
        c = np.stack([a[0], a[0]])
        c[1, 0, :] = c[1, :, 0] = 0.0
        np.testing.assert_allclose(fermion.pfaffian(c), [expected[0], 0.0], rtol=1e-13)
