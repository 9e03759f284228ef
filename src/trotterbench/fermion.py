"""Exact <Z_j(t)> of the open transverse-field Ising chain as a free-fermion
problem: 2N x 2N real matrices and Pfaffians in place of 2^N amplitudes.

Jordan-Wigner with the global spin flip as the parity: the Majoranas
a_j = (prod_{k<j} X_k) Z_j and b_j = (prod_{k<j} X_k) Y_j, ordered
gamma = (a_0, b_0, a_1, b_1, ...), give X_j = i a_j b_j and
Z_j Z_{j+1} = i b_j a_{j+1}. The open chain's H is then (i/4) gamma^T M gamma
with M real antisymmetric, M[a_j, b_j] = -2g and M[b_j, a_{j+1}] = -2J, and
the Heisenberg picture evolves gamma(t) = R(t) gamma with R = exp(M t).

All-down is (G+ - G-)/sqrt(2), where G+- = (|0...0> +- |1...1>)/sqrt(2) are
Gaussian: G+ is fixed by i b_j a_{j+1} = 1 and by the parity. Z_j is the odd
monomial i^j a_0 b_0 ... b_{j-1} a_j, so it maps G+ to G- and
<Z_j(t)> = -Re <G+| Z_0 Z_j(t) |G+>, with Z_0 = a_0. Wick's theorem makes
that a Pfaffian of the pair contractions of the 2j + 2 Majorana rows
e_{a_0}, R[a_0], R[b_0], ..., R[a_j].
"""

from __future__ import annotations

import numpy as np

from .trotter import TfimParams

_I_POWERS = (1, 1j, -1, -1j)


def majorana_propagator(params: TfimParams, times: np.ndarray) -> np.ndarray:
    """R(t) = exp(M t) for every t, shape (times, 2N, 2N), in real arithmetic.

    M couples a's only to b's, through the N x N block W[j, k] = M[a_j, b_k].
    With the real SVD W = P S Q^T, R has the blocks P (cos St) P^T,
    P (sin St) Q^T, -Q (sin St) P^T and Q (cos St) Q^T. cos - 1 is taken as
    -2 sin^2(St/2), so R(0) is the identity exactly.
    """
    n = params.n_spins
    w = -2.0 * params.field * np.eye(n)
    w[np.arange(1, n), np.arange(n - 1)] = 2.0 * params.coupling  # M[a_{j+1}, b_j]
    p, s, qt = np.linalg.svd(w)
    q = qt.T
    angle = times[:, None] * s  # (times, N)
    cos_m1 = -2.0 * np.sin(angle / 2) ** 2
    sin = np.sin(angle)
    r = np.zeros((times.shape[0], 2 * n, 2 * n))
    eye = np.eye(n)
    r[:, 0::2, 0::2] = eye + (p * cos_m1[:, None, :]) @ p.T
    r[:, 0::2, 1::2] = (p * sin[:, None, :]) @ qt
    r[:, 1::2, 0::2] = -(q * sin[:, None, :]) @ p.T
    r[:, 1::2, 1::2] = eye + (q * cos_m1[:, None, :]) @ qt
    return r


def _ghz_contractions(n: int) -> np.ndarray:
    """Im <G+| gamma_p gamma_q |G+> for p != q: <b_j a_{j+1}> = -i and
    <a_0 b_{N-1}> = -i, the transposed entries their negatives. The real
    part is the identity."""
    s = np.zeros((2 * n, 2 * n))
    b = np.arange(1, 2 * n - 1, 2)
    s[b, b + 1] = -1.0
    s[0, 2 * n - 1] = -1.0
    return s - s.T


def pfaffian(a: np.ndarray) -> np.ndarray:
    """Pfaffians of a batch of complex antisymmetric matrices (B, 2m, 2m) by
    the pivoted Parlett-Reid elimination of pfapack (Wimmer, ACM TOMS 38, 30
    (2012)). `a` is overwritten."""
    size = a.shape[1]
    pf = np.ones(a.shape[0], dtype=a.dtype)
    rows = np.arange(a.shape[0])
    for k in range(0, size - 1, 2):
        # bring the largest entry of column k below row k to row k + 1 on
        # every matrix; one whose pivot is already there swaps with itself
        p = k + 1 + np.abs(a[:, k + 1:, k]).argmax(axis=1)
        a[rows, k + 1], a[rows, p] = a[rows, p], a[rows, k + 1]
        a[rows, :, k + 1], a[rows, :, p] = a[rows, :, p], a[rows, :, k + 1]
        np.negative(pf, out=pf, where=p != k + 1)
        pivot = a[:, k, k + 1]
        pf *= pivot
        if k + 2 < size:
            # a zero pivot means a zero column and Pf = 0, which pf now holds
            tau = np.divide(a[:, k, k + 2:], pivot[:, None],
                            out=np.zeros_like(a[:, k, k + 2:]), where=pivot[:, None] != 0)
            col = a[:, k + 2:, k + 1]
            a[:, k + 2:, k + 2:] += (tau[:, :, None] * col[:, None, :]
                                     - col[:, :, None] * tau[:, None, :])
    return pf


def z_series(params: list[TfimParams], times: np.ndarray) -> np.ndarray:
    """<Z_j(t)> of open chains of one length N started from all-down, shape
    (len(params), times, N): one batched Pfaffian per site over the time
    grids of every chain at once."""
    n = params[0].n_spins
    if any(p.n_spins != n for p in params):
        raise ValueError("every chain of one series pass must have the same length")
    if any(p.periodic for p in params):
        raise ValueError("the free-fermion series serves only open chains; a periodic "
                         "chain's wrap bond is not one quadratic Majorana term")
    r = np.concatenate([majorana_propagator(p, times) for p in params])
    # rows e_{a_0}, R[a_0], R[b_0], ..., R[a_{N-1}]
    u = np.empty_like(r)
    u[:, 0] = 0.0
    u[:, 0, 0] = 1.0
    u[:, 1:] = r[:, :-1]
    ut = u.transpose(0, 2, 1)
    # K = U (I + iS) U^T from two real products; Wick's theorem reads only
    # the pairs above the diagonal
    k = np.triu(u @ ut + 1j * (u @ _ghz_contractions(n) @ ut), 1)
    k = k - k.transpose(0, 2, 1)
    local = np.empty((r.shape[0], n))
    for j in range(n):
        size = 2 * j + 2
        local[:, j] = -(_I_POWERS[j % 4] * pfaffian(k[:, :size, :size].copy())).real
    return local.reshape(len(params), times.shape[0], n)
