"""Magnetization estimators, error pooling, and power-law fits."""

import numpy as np
import pytest

from trotterbench import (
    MagnetizationSeries,
    all_down_state,
    error_series,
    init_basis_state,
    local_magnetization_from_counts,
    sample_bitstrings,
    scaling_fit,
)
from trotterbench.statevector import z_expectations

from oracles import kron_at, SZ


class TestLocalFromState:
    def test_all_down(self):
        np.testing.assert_allclose(
            z_expectations(all_down_state(5)), [-1] * 5
        )

    def test_all_up(self):
        np.testing.assert_allclose(
            z_expectations(init_basis_state(3, [0, 0, 0])), [1] * 3
        )

    def test_uniform_superposition(self):
        state = np.full(4, 0.5, dtype=np.complex128)
        np.testing.assert_allclose(
            z_expectations(state), [0, 0], atol=1e-15
        )

    def test_consistency_with_operator_mean(self):
        # site average of M_j equals <(1/N) sum sz_j> computed via kron matrices
        rng = np.random.default_rng(8)
        raw = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        state = raw / np.linalg.norm(raw)
        m = z_expectations(state)
        op = sum(kron_at(SZ, j, 4) for j in range(4)) / 4
        direct = np.real(state.conj() @ op @ state)
        assert m.mean() == pytest.approx(direct, abs=1e-12)


def count_array(tally):
    """(2^n,) counts from {bits: count}, bits[j] the outcome of qubit j,
    which is bit j of the basis index."""
    n = len(next(iter(tally)))
    counts = np.zeros(2**n, dtype=np.int64)
    for bits, c in tally.items():
        counts[sum(b << j for j, b in enumerate(bits))] = c
    return counts


class TestLocalFromCounts:
    def test_all_ones(self):
        m = local_magnetization_from_counts(count_array({(1, 1, 1, 1, 1): 1024}))
        np.testing.assert_allclose(m, [-1] * 5)

    def test_balanced(self):
        m = local_magnetization_from_counts(count_array({(0, 0): 512, (1, 1): 512}))
        np.testing.assert_allclose(m, [0, 0])

    def test_pins_bit_to_qubit_encoding(self):
        # 768 shots of qubit0=0 plus 256 of qubit0=1 -> M_0 = 0.5; qubit 1
        # always reads 0 -> M_1 = 1
        m = local_magnetization_from_counts(count_array({(0, 0): 768, (1, 0): 256}))
        np.testing.assert_allclose(m, [0.5, 1.0])
        np.testing.assert_array_equal(count_array({(0, 0): 768, (1, 0): 256}),
                                      [768, 256, 0, 0])

    def test_empty_counts(self):
        for counts in (np.zeros(4, dtype=np.int64), np.zeros(0, dtype=np.int64)):
            with pytest.raises(ValueError):
                local_magnetization_from_counts(counts)

    def test_counts_not_one_per_basis_state(self):
        for shape in (1, 6, (2, 4)):
            with pytest.raises(ValueError):
                local_magnetization_from_counts(np.ones(shape, dtype=np.int64))

    def test_unbiased_over_seeds(self):
        # mean of the shot estimator over 200 seeds stays within 3 standard
        # errors of the exact expectation
        rng = np.random.default_rng(4)
        raw = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        state = raw / np.linalg.norm(raw)
        exact = z_expectations(state)
        shots, seeds = 1024, 200
        estimates = np.empty((seeds, 5))
        for s in range(seeds):
            counts = sample_bitstrings(state, shots, s)
            estimates[s] = local_magnetization_from_counts(counts)
        sem = np.sqrt((1 - exact**2) / shots) / np.sqrt(seeds)
        assert np.all(np.abs(estimates.mean(axis=0) - exact) <= 3 * sem + 1e-12)


class TestMagnetizationSeries:
    def test_total_is_site_mean(self):
        series = MagnetizationSeries(np.array([0.0, 0.2]),
                                     np.array([[1.0, 0.0], [0.5, 0.1]]))
        np.testing.assert_allclose(series.total, [0.5, 0.3])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            MagnetizationSeries(np.array([0.0]), np.array([[1.5, 0.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1.5])
    def test_rejects_a_value_that_is_not_a_magnetization(self, bad):
        # NaN fails every comparison, so a bound written as `> 1` lets it through
        with pytest.raises(ValueError, match="local magnetization"):
            MagnetizationSeries(np.array([0.0, 0.2]), np.array([[1.0, 0.0], [bad, 0.1]]))

    def test_tail_drops_initial_row(self):
        series = MagnetizationSeries(np.array([0.0, 0.2, 0.4]),
                                     np.array([[0.0, 0.0], [0.1, 0.2], [0.3, 0.4]]))
        tail = series.tail(1)
        np.testing.assert_allclose(tail.times, [0.2, 0.4])
        assert tail.local.shape == (2, 2)
        np.testing.assert_array_equal(tail.total, series.total[1:])

    def test_total_is_not_an_argument(self):
        # the total is always the site mean, so none can disagree with `local`
        with pytest.raises(TypeError):
            MagnetizationSeries(np.array([0.0]), np.array([[0.5, 0.1]]), np.array([0.9]))


class TestErrorSeries:
    def _series(self, local):
        local = np.asarray(local, dtype=float)
        times = 0.2 * np.arange(1, local.shape[0] + 1)
        return MagnetizationSeries(times, local)

    def test_identical_series(self):
        s = self._series([[0.1, -0.2], [0.3, 0.0]])
        summary = error_series(s, s)
        assert summary.rmse_local == 0.0
        assert summary.rmse_total == 0.0
        np.testing.assert_array_equal(summary.delta_local, 0.0)

    def test_constant_offset(self):
        base = np.array([[0.1, -0.2], [0.3, 0.0]])
        summary = error_series(self._series(base + 0.1), self._series(base))
        assert summary.rmse_local == pytest.approx(0.1, abs=1e-12)
        assert summary.rmse_total == pytest.approx(0.1, abs=1e-12)

    def test_grid_mismatch(self):
        a = self._series([[0.1, 0.2]])
        b = MagnetizationSeries(np.array([0.4]), np.array([[0.1, 0.2]]))
        with pytest.raises(ValueError):
            error_series(a, b)

    def test_site_cancellation_hides_error_in_total(self):
        # opposite per-site deviations cancel in the site mean: the local RMSE
        # sees an error the total RMSE misses entirely
        base = np.array([[0.0, 0.0]])
        skew = np.array([[0.1, -0.1]])
        summary = error_series(self._series(skew), self._series(base))
        assert summary.rmse_local == pytest.approx(0.1, abs=1e-12)
        assert summary.rmse_total == pytest.approx(0.0, abs=1e-12)
        assert summary.rmse_local >= 0 and summary.rmse_total >= 0


class TestScalingFit:
    def test_exact_square_law(self):
        dts = np.array([0.0125, 0.025, 0.05, 0.1, 0.2])
        slope, _ = scaling_fit(dts, dts**2)
        assert slope == pytest.approx(2.0, abs=1e-9)

    def test_cubic_with_prefactor(self):
        dts = np.array([0.0125, 0.025, 0.05, 0.1])
        slope, intercept = scaling_fit(dts, 7.3 * dts**3)
        assert slope == pytest.approx(3.0, abs=1e-9)
        assert intercept == pytest.approx(np.log(7.3), abs=1e-9)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            scaling_fit([0.1, 0.2], [0.01, 0.04])

    def test_repeated_dt_rejected(self):
        for dts in ([0.1, 0.1, 0.1], [0.1, 0.2, 0.1, 0.2]):
            with pytest.raises(ValueError, match="distinct"):
                scaling_fit(dts, [0.01, 0.04, 0.02, 0.03][:len(dts)])

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            scaling_fit([0.1, 0.2, 0.3], [0.0, 0.04, 0.09])

    @pytest.mark.parametrize("dts, errs, name", [
        ([0.1, 0.2, 0.3], [0.01, np.nan, 0.09], "errs"),
        ([0.1, 0.2, 0.3], [0.01, np.inf, 0.09], "errs"),
        ([0.1, np.nan, 0.3], [0.01, 0.04, 0.09], "dts"),
        ([0.1, np.inf, 0.3], [0.01, 0.04, 0.09], "dts"),
    ])
    def test_non_finite_is_refused_by_name(self, dts, errs, name, capfd):
        # a NaN or inf dt used to reach LAPACK, which printed to stderr
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite"):
            scaling_fit(dts, errs)
        assert capfd.readouterr() == ("", "")
