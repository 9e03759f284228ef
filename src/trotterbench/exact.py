"""Exact transverse-field Ising reference: dense Hamiltonian, spectral
propagator, and continuous-time magnetization series (the Trotter-error-free
baseline the circuits are compared against). The open chain's series comes
from free fermions (`fermion`); the periodic chain's from the dense spin-flip
sectors, which also serve `scaling` and are the open chain's test oracle.
`sector_blocks` is the one rule that slices a spin-flip-symmetric matrix,
the dense H or a Trotter step, into its two sector blocks."""

from __future__ import annotations

import contextlib
import ctypes
import functools
from dataclasses import dataclass

import numpy as np

from . import fermion
from .circuit import MAX_DENSE_SPINS
from .kernels import z_of_weights
from .observables import MagnetizationSeries
from .trotter import TfimParams, chain_bonds


# eq=False: compared and hashed by identity, as == over array fields raises
@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigendecomposition of a real symmetric operator, eigenvalues ascending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def propagator(self, t: float) -> np.ndarray:
        """exp(-i H t) = V diag(exp(-i E t)) V^dagger."""
        v = self.eigenvectors
        return (v * np.exp(-1j * self.eigenvalues * t)) @ v.conj().T

    def evolve(self, psi0: np.ndarray, times: np.ndarray) -> np.ndarray:
        """exp(-i H t) psi0 for every t of `times`, shape (dim, times). V is
        real (`spectrum` takes a real H), so only real matrix products run."""
        v = self.eigenvectors
        phases = np.exp(-1j * np.outer(self.eigenvalues, times))
        c = v.T @ psi0.real + 1j * (v.T @ psi0.imag)
        coeffs = c[:, None] * phases
        psi = np.empty(coeffs.shape, dtype=np.complex128)
        psi.real = v @ coeffs.real
        psi.imag = v @ coeffs.imag
        return psi


def build_hamiltonian(params: TfimParams) -> np.ndarray:
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
    diag = np.zeros(dim, dtype=np.float64)
    for a, b in chain_bonds(n, params.periodic):
        # Z_a Z_b = +1 where bits a and b agree, -1 where they differ
        diag -= params.coupling * (1 - 2 * ((idx >> a ^ idx >> b) & 1))
    h = np.diag(diag)
    for j in range(n):
        flipped = idx ^ (1 << j)
        h[flipped, idx] -= params.field
    return h


def spectrum(h: np.ndarray) -> Spectrum:
    """Spectrum of a real symmetric H; every H of the chain is real."""
    if np.iscomplexobj(h):
        raise ValueError(f"operator is complex ({h.dtype}); spectrum takes a real symmetric H")
    # max |h - h^T| <= 1e-12, and a NaN fails; one temporary, where
    # np.allclose would make several of the full size
    if not np.abs(h - h.T).max() <= 1e-12:
        raise ValueError("operator is not Hermitian")
    evals, evecs = np.linalg.eigh(h)
    return Spectrum(evals, evecs)


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


def sector_blocks(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The P = +1 and P = -1 blocks A + B and A - B of a 2^n x 2^n matrix M
    that commutes with the global spin flip P = prod_j X_j.

    P maps basis index x to x XOR (2^n - 1). Each r < 2^(n-1) (bit n-1
    clear) pairs with its flip rbar = 2^n - 1 - r, and the states
    (|r> +- |rbar>)/sqrt(2) span the P = +-1 sectors; the blocks are M in
    these bases, with A = M[r, r'] and B = M[r, r'bar] for r, r' < 2^(n-1).
    The rows rbar repeat them (M[rbar, r'bar] = A, M[rbar, r'] = B) and are
    not read."""
    half = m.shape[0] // 2
    a, b = m[:half, :half], m[:half, :half - 1:-1]  # rbar = 2^n - 1 - r
    return a + b, a - b


def chain_spectrum(params: TfimParams) -> tuple[Spectrum, Spectrum]:
    """Spectra of the chain's H in the P = +1 and P = -1 sectors, in the
    order and bases of `sector_blocks`. Nothing is kept once it returns.

    Every term of H, -J Z_a Z_b and -g X_j, commutes with the global spin
    flip, so H splits into two blocks of size 2^(n-1). H depends on
    (n, J, g, boundary) but not on dt, so one pair of eigensolves serves
    both Trotter orders, every step size and the whole time grid.
    """
    # the full H is freed when sector_blocks returns, before either solve
    h_even, h_odd = sector_blocks(build_hamiltonian(params))
    # `spectrum` is looked up in this module at call time, so code that
    # rebinds exact.spectrum (a counter, a tracer) sees every solve
    with _one_blas_thread():
        even = spectrum(h_even)
        del h_even
        return even, spectrum(h_odd)


def exact_series(params: list[TfimParams], times) -> list[MagnetizationSeries]:
    """Exact M_j(t) and M(t) from all-down on the requested time grid, one
    series per chain of `params`, which share N and the boundary.

    The open chains are read from free fermions in one `fermion.z_series`
    pass; each periodic chain from its sector spectra (`sector_series`).
    Each serves every time point at once. `times` must be ascending and
    start at 0. The series are read-only.
    """
    if not params:
        raise ValueError("params must list at least one chain")
    times = np.asarray(times, dtype=np.float64)
    if times.ndim != 1 or times.shape[0] < 1:
        raise ValueError("times must be a nonempty 1-d array")
    if not np.isfinite(times).all():
        raise ValueError(f"times must be finite, got {times.tolist()}")
    if times[0] != 0.0 or np.any(np.diff(times) <= 0):
        raise ValueError("times must be ascending and start at 0")
    periodic = params[0].periodic
    if any(p.periodic != periodic for p in params):
        raise ValueError("every chain of one series pass must have the same "
                         "boundary; the list mixes open and periodic chains")
    if any(p.n_spins != params[0].n_spins for p in params):
        raise ValueError("every chain of one series pass must have the same length")
    if periodic:
        local = np.stack([sector_series(p, times) for p in params])
    else:
        local = fermion.z_series(params, times)
    # rounding can push |M| marginally past 1; the series type rejects that
    np.clip(local, -1.0, 1.0, out=local)
    local.flags.writeable = False
    return [MagnetizationSeries(times, chain) for chain in local]


def sector_series(params: TfimParams, times: np.ndarray) -> np.ndarray:
    """<Z_j(t)> from all-down through the chain's sector spectra, shape
    (times, n). It serves the periodic chain, and for the open chain it is
    the dense oracle of the free-fermion series."""
    spec_even, spec_odd = chain_spectrum(params)
    # all-down |2^n - 1> is rbar for r = 0: +-1/sqrt(2) on r = 0 in the two sectors
    even_0, odd_0 = np.zeros((2, 1 << (params.n_spins - 1)))
    even_0[0], odd_0[0] = 1 / np.sqrt(2), -1 / np.sqrt(2)
    even = spec_even.evolve(even_0, times)
    odd = spec_odd.evolve(odd_0, times)
    # psi(r) = (even + odd)/sqrt(2) and psi(rbar) = (even - odd)/sqrt(2), and
    # Z_j flips sign between r and rbar, so
    # <Z_j> = sum_r (p(r) - p(rbar)) s_j(r) with p(r) - p(rbar) = 2 Re(even odd*):
    # the pair sums of these weights on r, with zero weight on the rbar half
    weights = np.zeros((2 * len(even), len(times)))
    weights[:len(even)] = 2.0 * (even.real * odd.real + even.imag * odd.imag)
    return z_of_weights(weights)
