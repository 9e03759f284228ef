"""Exact transverse-field Ising reference: dense Hamiltonian, spectral
propagator, and continuous-time magnetization series (the Trotter-error-free
baseline the circuits are compared against). The open chain's series comes
from free fermions (`fermion`); the periodic chain's from the dense spin-flip
sectors, which also serve `scaling` and are the open chain's test oracle."""

from __future__ import annotations

import contextlib
import ctypes
import functools
from dataclasses import dataclass

import numpy as np

from . import fermion
from .circuit import MAX_DENSE_SPINS
from .kernels import z_signs
from .observables import MagnetizationSeries
from .statevector import all_down_state
from .trotter import TfimParams, chain_bonds


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of a Hermitian operator, eigenvalues ascending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def propagator(self, t: float) -> np.ndarray:
        """exp(-i H t) = V diag(exp(-i E t)) V^dagger."""
        v = self.eigenvectors
        return (v * np.exp(-1j * self.eigenvalues * t)) @ v.conj().T

    def evolve(self, psi0: np.ndarray, times: np.ndarray) -> np.ndarray:
        """exp(-i H t) psi0 for every t of `times`, shape (dim, times). A real
        V (every spectrum of a real H) takes real matrix products only."""
        v = self.eigenvectors
        phases = np.exp(-1j * np.outer(self.eigenvalues, times))
        if np.iscomplexobj(v):
            return v @ ((v.conj().T @ psi0)[:, None] * phases)
        c = v.T @ psi0.real + 1j * (v.T @ psi0.imag)
        coeffs = c[:, None] * phases
        psi = np.empty(coeffs.shape, dtype=np.complex128)
        psi.real = v @ coeffs.real
        psi.imag = v @ coeffs.imag
        return psi


def _check_dense(n: int) -> None:
    if n > MAX_DENSE_SPINS:
        raise ValueError(f"dense Hamiltonian limited to {MAX_DENSE_SPINS} spins")


def _ising_diagonal(params: TfimParams, periodic: bool, dim: int) -> np.ndarray:
    """-J sum_bonds z_a z_b on the basis states 0..dim-1."""
    z = z_signs(params.n_spins)[:dim]
    diag = np.zeros(dim, dtype=np.float64)
    for a, b in chain_bonds(params.n_spins, periodic):
        diag -= params.coupling * z[:, a] * z[:, b]
    return diag


def build_hamiltonian(params: TfimParams, periodic: bool = False) -> np.ndarray:
    """H = -J sum_bonds sz sz - g sum_j sx as a dense real symmetric matrix.

    The ZZ part is diagonal in the computational basis; each sx_j couples
    basis states differing in bit j. Both are real, so H is float64. Built
    directly from bit arithmetic, O(4^N) memory.
    """
    n = params.n_spins
    _check_dense(n)
    dim = 1 << n
    idx = np.arange(dim)
    h = np.diag(_ising_diagonal(params, periodic, dim))
    for j in range(n):
        flipped = idx ^ (1 << j)
        h[flipped, idx] -= params.field
    return h


def spectrum(h: np.ndarray) -> Spectrum:
    # max |h - h^dagger| <= 1e-12, and a NaN fails; one temporary, where
    # np.allclose would make several of the full size
    if not np.abs(h - h.conj().T).max() <= 1e-12:
        raise ValueError("operator is not Hermitian")
    evals, evecs = np.linalg.eigh(h)
    return Spectrum(evals, evecs)


@dataclass(frozen=True)
class ParitySpectrum:
    """Spectrum of a chain H that commutes with the global spin flip
    P = prod_j X_j, solved in P's two eigenspaces.

    P maps basis index x to x XOR (2^n - 1). Each r < 2^(n-1) (bit n-1
    clear) pairs with its flip rbar = 2^n - 1 - r, and the states
    (|r> +- |rbar>)/sqrt(2) span the P = +-1 sectors. In them H is block
    diagonal with blocks H+- = A +- B, where A = H[r, r] and B = H[r, rbar];
    `even` and `odd` are their spectra.
    """

    even: Spectrum
    odd: Spectrum

    def propagator(self, t: float) -> np.ndarray:
        """exp(-i H t) on the full space, assembled from the sector blocks:
        <r|U|r'> = <rbar|U|rbar'> = (U+ + U-)/2 and
        <r|U|rbar'> = <rbar|U|r'> = (U+ - U-)/2."""
        plus = self.even.propagator(t)
        minus = self.odd.propagator(t)
        same = (plus + minus) / 2
        cross = (plus - minus) / 2
        half = same.shape[0]
        u = np.empty((2 * half, 2 * half), dtype=np.complex128)
        # rbar runs over the upper half of the indices in reverse order
        u[:half, :half] = same
        u[:half, half:] = cross[:, ::-1]
        u[half:, :half] = cross[::-1]
        u[half:, half:] = same[::-1, ::-1]
        return u


@functools.cache
def _blas_thread_control():
    """(get, set) of the thread count of the OpenBLAS numpy's linalg calls,
    or None under another BLAS."""
    from numpy.linalg import _umath_linalg

    try:
        lib = ctypes.CDLL(_umath_linalg.__file__)  # dlsym searches its dependencies
    except OSError:
        return None
    for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
        get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
        set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
        if get is not None and set_ is not None:
            get.restype = ctypes.c_int
            set_.argtypes = [ctypes.c_int]
            return get, set_
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the enclosed BLAS calls on one thread, then restore the count.
    The count is process-wide, so BLAS calls of other Python threads in
    the meantime run on one thread too.

    The sector eigensolves are sequences of small synchronised BLAS calls.
    On two cores a second OpenBLAS thread makes a 512-row solve no faster,
    and while another process holds a core it makes it 1.5-2x slower, so
    the exact side's time would follow the machine's load. At 2048 rows
    (N=12) a second thread would save a third on an idle machine.

    It also fixes the periodic reference's rounding to one thread count, so
    outputs stay byte-identical: with two threads, periodic outputs move by
    roundoff from N = 9 on (README, "Exact reference").
    """
    control = _blas_thread_control()
    if control is None:
        yield
        return
    get, set_ = control
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def _read_only(spec: Spectrum) -> Spectrum:
    spec.eigenvalues.flags.writeable = False
    spec.eigenvectors.flags.writeable = False
    return spec


def _sector_blocks(params: TfimParams, periodic: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """The blocks H+- = A +- B of `ParitySpectrum`, built from bit arithmetic
    without the 2^n x 2^n H; they equal the slices of `build_hamiltonian`
    element for element.

    A = H[r, r] for r < 2^(n-1) is the ZZ diagonal plus -g on the flips of
    bits 0..n-2, which stay below 2^(n-1). Only the flip of bit n-1 leaves
    that half, so B = H[r, rbar] is -g times the permutation
    r -> r XOR (2^(n-1) - 1).
    """
    n = params.n_spins
    _check_dense(n)
    half = 1 << (n - 1)
    idx = np.arange(half)
    even = np.diag(_ising_diagonal(params, periodic, half))
    for j in range(n - 1):
        even[idx ^ (1 << j), idx] -= params.field
    odd = even.copy()
    # the same sums a + b and a - b as on the slices; b is 0.0 - g there,
    # so a zero field adds +0.0, not -0.0
    b = 0.0 - params.field
    even[idx, idx ^ (half - 1)] += b
    odd[idx, idx ^ (half - 1)] -= b
    return even, odd


@functools.lru_cache(maxsize=1)
def _chain_spectrum(n_spins: int, coupling: float, field: float, periodic: bool) -> ParitySpectrum:
    params = TfimParams(n_spins=n_spins, coupling=coupling, field=field)
    h_even, h_odd = _sector_blocks(params, periodic)
    # `spectrum` is looked up in this module at call time, so code that
    # rebinds exact.spectrum (a counter, a tracer) sees every solve.
    # Every caller shares the cached arrays.
    with _one_blas_thread():
        even = _read_only(spectrum(h_even))
        del h_even
        odd = _read_only(spectrum(h_odd))
    return ParitySpectrum(even, odd)


def chain_spectrum(params: TfimParams, periodic: bool = False) -> ParitySpectrum:
    """Read-only sector spectra of the chain's H, cached for the last chain
    asked.

    Every term of H, -J Z_a Z_b and -g X_j, commutes with the global spin
    flip, so H splits into two blocks of size 2^(n-1). H depends on
    (n, J, g, periodic) but not on dt, so one pair of eigensolves serves
    both Trotter orders, every step size and the whole time grid.
    """
    return _chain_spectrum(params.n_spins, params.coupling, params.field, bool(periodic))


def exact_series(params: TfimParams, times, periodic: bool = False) -> MagnetizationSeries:
    """Exact M_j(t) and M(t) from all-down on the requested time grid.

    The open chain is read from free fermions (`fermion.z_series`), the
    periodic chain from its cached sector spectra (`sector_series`); each
    serves every time point at once. `times` must be ascending and start
    at 0. The last series asked is cached, read-only, since both Trotter
    orders of a g compare with the same one.
    """
    times = np.asarray(times, dtype=np.float64)
    if times.ndim != 1 or times.shape[0] < 1:
        raise ValueError("times must be a nonempty 1-d array")
    if times[0] != 0.0 or np.any(np.diff(times) <= 0):
        raise ValueError("times must be ascending and start at 0")
    local = _series(params.n_spins, params.coupling, params.field, bool(periodic),
                    tuple(times.tolist()))
    return MagnetizationSeries(times, local)


@functools.lru_cache(maxsize=1)
def _series(n_spins: int, coupling: float, field: float, periodic: bool,
            times: tuple) -> np.ndarray:
    params = TfimParams(n_spins=n_spins, coupling=coupling, field=field)
    grid = np.array(times)
    local = sector_series(params, grid, periodic) if periodic else fermion.z_series(params, grid)
    # rounding can push |M| marginally past 1; the series type rejects that
    np.clip(local, -1.0, 1.0, out=local)
    local.flags.writeable = False
    return local


def sector_series(params: TfimParams, times: np.ndarray, periodic: bool = False) -> np.ndarray:
    """<Z_j(t)> from all-down through the chain's cached sector spectra,
    shape (times, n). It serves the periodic chain, and for the open chain
    it is the dense oracle of the free-fermion series."""
    spec = chain_spectrum(params, periodic)
    psi0 = all_down_state(params.n_spins).amps
    half = psi0.shape[0] // 2
    flipped = psi0[:half - 1:-1]  # amplitude of rbar = 2^n - 1 - r at r
    even = spec.even.evolve((psi0[:half] + flipped) / np.sqrt(2), times)
    odd = spec.odd.evolve((psi0[:half] - flipped) / np.sqrt(2), times)
    # psi(r) = (even + odd)/sqrt(2) and psi(rbar) = (even - odd)/sqrt(2), and
    # Z_j flips sign between r and rbar, so
    # <Z_j> = sum_r (p(r) - p(rbar)) s_j(r) with p(r) - p(rbar) = 2 Re(even odd*)
    diff = 2.0 * (even.real * odd.real + even.imag * odd.imag)  # (2^(n-1), times)
    return diff.T @ z_signs(params.n_spins)[:half]
