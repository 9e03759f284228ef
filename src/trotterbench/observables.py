"""Magnetization observables, error maps, RMSE summaries, and power-law fits."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .kernels import basis_qubits, z_signs


@dataclass
class MagnetizationSeries:
    """Per-time, per-site magnetization M_j plus the site-averaged total M.

    `times` in units of 1/J; `local` has shape (n_times, n_sites); `total`
    is the row mean of `local`.
    """

    times: np.ndarray
    local: np.ndarray
    total: np.ndarray = field(init=False)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=np.float64)
        self.local = np.asarray(self.local, dtype=np.float64)
        if self.local.ndim != 2 or self.local.shape[0] != self.times.shape[0]:
            raise ValueError("local must be (n_times, n_sites)")
        self.total = self.local.mean(axis=1)
        # written so that NaN fails the bound; `total` is the site mean, so
        # it lies in the bound when `local` does
        if not (np.abs(self.local) <= 1 + 1e-9).all():
            raise ValueError("local magnetization must be a number in [-1, 1]")

    @property
    def n_sites(self) -> int:
        return self.local.shape[1]

    def tail(self, skip: int = 1) -> "MagnetizationSeries":
        """Drop the first `skip` time points (e.g. the t = 0 row)."""
        return MagnetizationSeries(self.times[skip:], self.local[skip:])


@dataclass
class ErrorSummary:
    """Deviations from the exact series and their pooled RMSEs."""

    delta_local: np.ndarray  # (n_times, n_sites)
    rmse_local: float
    rmse_total: float


def local_magnetization_from_counts(counts: np.ndarray) -> np.ndarray:
    """Shot estimate M_j = (n[bit_j = 0] - n[bit_j = 1]) / shots from the
    (2^n,) counts per basis index of `statevector.sample_bitstrings`. Every
    partial sum of `counts @ z_signs(n)` is an integer, so each M_j is the
    exact count difference over shots."""
    counts = np.asarray(counts)
    n = basis_qubits(counts, "counts", block=False)
    shots = counts.sum()
    if shots < 1:
        raise ValueError("counts must be nonempty")
    return counts @ z_signs(n) / shots


def error_series(sim: MagnetizationSeries, exact: MagnetizationSeries) -> ErrorSummary:
    """Pointwise deltas sim - exact on a shared time grid, pooled into RMSEs.

    rmse_local pools over all (time, site) pairs; rmse_total over times.
    """
    if sim.times.shape != exact.times.shape or not np.allclose(
        sim.times, exact.times, rtol=0, atol=1e-12
    ):
        raise ValueError("time grids differ")
    if sim.local.shape != exact.local.shape:
        raise ValueError("site grids differ")
    delta = sim.local - exact.local
    rmse_local = float(np.sqrt(np.mean(delta**2)))
    rmse_total = float(np.sqrt(np.mean((sim.total - exact.total) ** 2)))
    return ErrorSummary(delta, rmse_local, rmse_total)


def scaling_fit(dts, errs) -> tuple[float, float]:
    """Least-squares slope and intercept of log(err) vs log(dt).

    The slope is the empirical error order of a power law err ~ c dt^k.
    """
    dts = np.asarray(dts, dtype=np.float64)
    errs = np.asarray(errs, dtype=np.float64)
    if dts.shape != errs.shape or dts.ndim != 1:
        raise ValueError("dts and errs must be 1-d arrays of equal length")
    # not np.unique: its first call imports numpy.ma, 15 ms and 1.6 MB of RSS
    if len(set(dts.tolist())) < 3:
        raise ValueError("need at least 3 distinct dt values to fit a slope")
    # NaN passes a `<= 0` test, and a NaN or inf reaches LAPACK, which
    # prints to stderr before it raises
    for name, values in (("dts", dts), ("errs", errs)):
        if not (np.isfinite(values) & (values > 0)).all():
            raise ValueError(f"{name} must be positive and finite, got {values.tolist()}")
    slope, intercept = np.polyfit(np.log(dts), np.log(errs), 1)
    return float(slope), float(intercept)
