"""Exact transverse-field Ising reference: dense Hamiltonian, spectral
propagator, and continuous-time magnetization series (the Trotter-error-free
baseline the circuits are compared against)."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .observables import MagnetizationSeries
from .statevector import StateVector
from .trotter import TfimParams, chain_bonds

MAX_DENSE_SPINS = 12


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of a Hermitian operator, eigenvalues ascending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def propagator(self, t: float) -> np.ndarray:
        """exp(-i H t) = V diag(exp(-i E t)) V^dagger."""
        v = self.eigenvectors
        return (v * np.exp(-1j * self.eigenvalues * t)) @ v.conj().T

    def evolve(self, psi0: np.ndarray, t: float) -> np.ndarray:
        v = self.eigenvectors
        return v @ (np.exp(-1j * self.eigenvalues * t) * (v.conj().T @ psi0))


def build_hamiltonian(params: TfimParams, periodic: bool = False) -> np.ndarray:
    """H = -J sum_bonds sz sz - g sum_j sx as a dense real symmetric matrix.

    The ZZ part is diagonal in the computational basis; each sx_j couples
    basis states differing in bit j. Both are real, so H is float64. Built
    directly from bit arithmetic, O(4^N) memory.
    """
    n = params.n_spins
    if n > MAX_DENSE_SPINS:
        raise ValueError(f"dense Hamiltonian limited to {MAX_DENSE_SPINS} spins")
    dim = 1 << n
    idx = np.arange(dim)
    bits = (idx[:, None] >> np.arange(n)[None, :]) & 1  # (dim, n)
    z = 1.0 - 2.0 * bits
    diag = np.zeros(dim, dtype=np.float64)
    for a, b in chain_bonds(n, periodic):
        diag -= params.coupling * z[:, a] * z[:, b]
    h = np.diag(diag)
    for j in range(n):
        flipped = idx ^ (1 << j)
        h[flipped, idx] -= params.field
    return h


def spectrum(h: np.ndarray) -> Spectrum:
    if not np.allclose(h, h.conj().T, rtol=0, atol=1e-12):
        raise ValueError("operator is not Hermitian")
    evals, evecs = np.linalg.eigh(h)
    return Spectrum(evals, evecs)


@functools.lru_cache(maxsize=1)
def _chain_spectrum(n_spins: int, coupling: float, field: float, periodic: bool) -> Spectrum:
    params = TfimParams(n_spins=n_spins, coupling=coupling, field=field)
    # `spectrum` is looked up in this module at call time, so code that
    # rebinds exact.spectrum (a counter, a tracer) sees every solve
    spec = spectrum(build_hamiltonian(params, periodic))
    # every caller shares the cached arrays
    spec.eigenvalues.flags.writeable = False
    spec.eigenvectors.flags.writeable = False
    return spec


def chain_spectrum(params: TfimParams, periodic: bool = False) -> Spectrum:
    """Read-only spectrum of the chain's H, cached for the last chain asked.

    H depends on (n, J, g, periodic) but not on dt, so one eigensolve serves
    both Trotter orders, every step size and the whole time grid.
    """
    return _chain_spectrum(params.n_spins, params.coupling, params.field, bool(periodic))


def exact_propagator(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i H t) via full eigendecomposition; exactly unitary up to rounding."""
    return spectrum(h).propagator(t)


def exact_series(
    params: TfimParams,
    initial: StateVector,
    times,
    periodic: bool = False,
) -> MagnetizationSeries:
    """Exact M_j(t) and M(t) on the requested time grid.

    The chain's cached spectrum serves every time point at once. `times`
    must be ascending and start at 0.
    """
    times = np.asarray(times, dtype=np.float64)
    if times.ndim != 1 or times.shape[0] < 1:
        raise ValueError("times must be a nonempty 1-d array")
    if times[0] != 0.0 or np.any(np.diff(times) <= 0):
        raise ValueError("times must be ascending and start at 0")
    if initial.n_qubits != params.n_spins:
        raise ValueError("initial state width does not match n_spins")
    spec = chain_spectrum(params, periodic)
    v = spec.eigenvectors
    psi0 = initial.amps
    # real V: two real products per complex vector, no complex copy of V
    c = v.T @ psi0.real + 1j * (v.T @ psi0.imag)
    coeffs = c[:, None] * np.exp(-1j * np.outer(spec.eigenvalues, times))
    probs = (v @ coeffs.real) ** 2 + (v @ coeffs.imag) ** 2  # (2^n, times)
    n = params.n_spins
    idx = np.arange(1 << n)
    signs = 1.0 - 2.0 * ((idx[:, None] >> np.arange(n)[None, :]) & 1)
    local = probs.T @ signs
    # rounding can push |M| marginally past 1; the series type rejects that
    np.clip(local, -1.0, 1.0, out=local)
    return MagnetizationSeries(times, local)
