"""Amplitude-update engine: every gate, Pauli fault and <Z> readout, in numpy.

Amplitudes are a C-contiguous complex array of shape (B, 2^n), one state per
row, or (2^n,) for a single state. B=1 serves ideal and shots mode, B
trajectories serve noisy mode, and the 2^n basis states serve the dense
unitary of `circuit.circuit_unitary`. A gate on qubit q acts on the reshape
view (B, 2^n >> (q+1), 2, 2^q), whose axis 2 is bit q of the basis index, so
no gate builds index arrays and no full-matrix product ever happens. All
kernels mutate the amplitudes in place.

Gate encoding (see circuit.encode): kinds 0=RX, 1=RZ, 2=CNOT; `qa` is the
rotation qubit or CNOT control, `qb` the CNOT target. Pauli codes: 0=I, 1=X,
2=Y, 3=Z. A fault code (one int8 per gate and row) holds the Pauli applied
to `qa` after the gate in bits 2-3 and the Pauli applied to `qb` in bits 0-1.
"""

from __future__ import annotations

import math

import numpy as np


def active_backend() -> str:
    """Name of the gate engine, recorded by the benchmark's machine line."""
    return "numpy"


def _rows(amps: np.ndarray) -> np.ndarray:
    """(B, 2^n) view of one state or a batch of states; never a copy."""
    if not amps.flags.c_contiguous:
        raise ValueError("amplitudes must be C-contiguous")
    return amps.reshape(-1, amps.shape[-1])


def _pair(amps, q):
    """Views of the amplitudes of (B, 2^n) `amps` whose bit q is 0 and 1."""
    v = amps.reshape(amps.shape[0], amps.shape[1] >> (q + 1), 2, 1 << q)
    return v[:, :, 0], v[:, :, 1]


def _swap(x0, x1):
    tmp = x0.copy()
    x0[...] = x1
    x1[...] = tmp


def _rx(amps, q, theta):
    c = math.cos(theta / 2)
    s = math.sin(theta / 2)
    x0, x1 = _pair(amps, q)
    new0 = c * x0 - 1j * s * x1
    x1[...] = -1j * s * x0 + c * x1
    x0[...] = new0


def _rz(amps, q, theta):
    x0, x1 = _pair(amps, q)
    x0 *= np.exp(-0.5j * theta)
    x1 *= np.exp(0.5j * theta)


def _cnot(amps, control, target):
    hi, lo = max(control, target), min(control, target)
    v = amps.reshape(amps.shape[0], amps.shape[1] >> (hi + 1), 2,
                     1 << (hi - lo - 1), 2, 1 << lo)
    if control == hi:
        _swap(v[:, :, 1, :, 0], v[:, :, 1, :, 1])
    else:
        _swap(v[:, :, 0, :, 1], v[:, :, 1, :, 1])


def _pauli(amps, q, code):
    x0, x1 = _pair(amps, q)
    if code == 1:
        _swap(x0, x1)
    elif code == 2:
        new0 = -1j * x1
        x1[...] = 1j * x0
        x0[...] = new0
    elif code == 3:
        np.negative(x1, out=x1)


def _gate(amps, kind, a, b, theta):
    if kind == 0:
        _rx(amps, a, theta)
    elif kind == 1:
        _rz(amps, a, theta)
    else:
        _cnot(amps, a, b)


def _faults(amps, a, b, codes):
    """Pauli faults after one gate: codes[r] acts on row r of `amps`; only
    the affected rows are gathered, updated and written back."""
    for q, paulis in ((a, codes >> 2), (b, codes & 3)):
        for code in (1, 2, 3):
            rows = np.flatnonzero(paulis == code)
            if rows.size:
                sub = amps[rows]
                _pauli(sub, q, code)
                amps[rows] = sub


def z_signs(n_qubits):
    """(2^n, n) matrix of +1 where bit j of the basis index is 0, else -1:
    the sigma_z eigenvalue of qubit j on each basis state."""
    bits = (np.arange(1 << n_qubits)[:, None] >> np.arange(n_qubits)) & 1
    return 1.0 - 2.0 * bits


def _z(amps, signs):
    return (amps.real * amps.real + amps.imag * amps.imag) @ signs


def _run(amps, n_qubits, kinds, qa, qb, theta, marks, faults, out):
    """Apply every gate (and its faults) to all rows; after the gates up to
    each step mark, write per-row <sigma_z> into out[..., mark index, :]."""
    rows = _rows(amps)
    kinds, qa, qb, theta = kinds.tolist(), qa.tolist(), qb.tolist(), theta.tolist()
    hit = faults.any(axis=1).tolist() if faults is not None else [False] * len(kinds)
    signs = z_signs(n_qubits) if len(marks) else None
    start = 0
    for k, stop in enumerate([*marks, len(kinds)]):
        for i in range(start, stop):
            _gate(rows, kinds[i], qa[i], qb[i], theta[i])
            if hit[i]:
                _faults(rows, qa[i], qb[i], faults[i])
        if k < len(marks):
            out[..., k, :] = _z(rows, signs)
        start = stop


def run_gates(amps, n_qubits, kinds, qa, qb, theta):
    """All gates in order."""
    _run(amps, n_qubits, kinds, qa, qb, theta, [], None, None)


def run_gates_record(amps, n_qubits, kinds, qa, qb, theta, marks, out):
    """All gates, recording <sigma_z> at the step marks: `out` is
    (n_marks, n) for one state, (B, n_marks, n) for a batch."""
    _run(amps, n_qubits, kinds, qa, qb, theta, marks, None, out)


def run_gates_noisy(amps, n_qubits, kinds, qa, qb, theta, marks, faults, out):
    """As `run_gates_record` on a (B, 2^n) batch, with the Pauli faults given
    by the int8 codes `faults` of shape (n_gates, B)."""
    _run(amps, n_qubits, kinds, qa, qb, theta, marks, faults, out)


def z_expectations(amps: np.ndarray, n_qubits: int) -> np.ndarray:
    """Per-qubit <sigma_z> of normalized amplitudes: shape (n,) for one
    state, (B, n) for a batch."""
    return _z(amps, z_signs(n_qubits))
