"""Amplitude-update engine: every gate, Pauli fault and <Z> readout, in numpy.

Amplitudes are a C-contiguous complex array of shape (2^n, B), one state per
column, or (2^n,) for a single state. B=1 serves ideal and shots mode, B
trajectories serve noisy mode, and the 2^n basis states serve the dense
unitary of `circuit.circuit_unitary`. A gate on qubit q acts on the reshape
view (2^n >> (q+1), 2, 2^q B), whose axis 1 is bit q of the basis index, so
every view has a contiguous inner run of at least B amplitudes and no
rotation or CNOT builds index arrays. All kernels mutate the amplitudes in
place.

Each Ising bond CNOT(a,b) RZ(b,theta) CNOT(a,b) runs as one multiply by a
cached (2^n,) diagonal: exp(-i theta/2) where bits a and b agree and
exp(+i theta/2) where they differ, the factor RZ gives each amplitude between
the two CNOTs. Any other gate sequence runs gate by gate.

Gate encoding (see circuit.encode): kinds 0=RX, 1=RZ, 2=CNOT; `qa` is the
rotation qubit or CNOT control, `qb` the CNOT target. Pauli codes: 0=I, 1=X,
2=Y, 3=Z. A fault code (one int8 per gate and trajectory) holds the Pauli
applied to `qa` after the gate in bits 2-3 and the Pauli applied to `qb` in
bits 0-1. Faults are sparse events: each one permutes the amplitudes of its
own trajectory and multiplies them by a unit phase (+-1, +-i). Inside a fused
bond, a fault after the first CNOT or after the RZ is conjugated by the CNOT
and applied before or after the phase respectively, so every amplitude meets
its unit phases and its RZ factor in the order of the gate list; a fault
after the second CNOT is applied as it is.
"""

from __future__ import annotations

import functools
import math

import numpy as np


def active_backend() -> str:
    """Name of the gate engine, recorded by the benchmark's machine line."""
    return "numpy"


def _batch(amps: np.ndarray) -> np.ndarray:
    """(2^n, B) view of one state or a batch of states; never a copy."""
    if not amps.flags.c_contiguous:
        raise ValueError("amplitudes must be C-contiguous")
    return amps.reshape(amps.shape[0], -1)


def _pair(amps, q):
    """Views of the amplitudes of (2^n, B) `amps` whose bit q is 0 and 1."""
    v = amps.reshape(amps.shape[0] >> (q + 1), 2, -1)
    return v[:, 0], v[:, 1]


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
    v = amps.reshape(amps.shape[0] >> (hi + 1), 2, 1 << (hi - lo - 1), 2, -1)
    if control == hi:
        _swap(v[:, 1, :, 0], v[:, 1, :, 1])
    else:
        _swap(v[:, 0, :, 1], v[:, 1, :, 1])


def _gate(amps, kind, a, b, theta):
    if kind == 0:
        _rx(amps, a, theta)
    elif kind == 1:
        _rz(amps, a, theta)
    else:
        _cnot(amps, a, b)


# Both caches hold read-only arrays of 16 or 24 bytes per basis state: at
# most 0.25 MB at n = 5 and 29 MB at the dense cap n = 12.
@functools.lru_cache(maxsize=64)
def _zz_phase(n_qubits, a, b, theta):
    """(2^n, 1) read-only diagonal of CNOT(a,b) RZ(b,theta) CNOT(a,b), with
    the very factors `_rz` multiplies by."""
    k = np.arange(1 << n_qubits)
    differ = ((k >> a) ^ (k >> b)) & 1
    phase = np.where(differ == 1, np.exp(0.5j * theta), np.exp(-0.5j * theta))
    phase.flags.writeable = False
    return phase[:, None]


@functools.lru_cache(maxsize=256)
def _pauli_map(n_qubits, a, b, code, conj):
    """Read-only (src, phase) of the fault `code` on qubits (a, b),
    conjugated by CNOT(*conj) when `conj` is given: the faulted state
    becomes phase * state[src], with every phase one of +-1, +-i."""
    k = np.arange(1 << n_qubits)

    def cnot(x):
        return x if conj is None else x ^ (((x >> conj[0]) & 1) << conj[1])

    paulis = [(q, pauli) for q, pauli in ((a, code >> 2), (b, code & 3)) if pauli]
    flip = sum(1 << q for q, pauli in paulis if pauli != 3)  # X or Y
    # A CNOT is linear in the bits of the basis index, so the fault takes
    # |k> to |k ^ cnot(flip)>, with the factor its Paulis give the bits
    # cnot(k); for the gather, those are the bits cnot(j) ^ flip of j's source.
    bits = cnot(k) ^ flip
    phase = np.ones(1 << n_qubits, dtype=np.complex128)
    for q, pauli in paulis:
        one = ((bits >> q) & 1) == 1
        if pauli == 2:  # Y|0> = i|1>, Y|1> = -i|0>
            phase *= np.where(one, -1j, 1j)
        elif pauli == 3:
            phase *= np.where(one, -1.0, 1.0)
    src = k ^ cnot(flip)
    src.flags.writeable = phase.flags.writeable = False
    return src, phase


def _is_zz(kinds, qa, qb, i, stop):
    """Whether gates i, i+1, i+2 (all before `stop`) are CNOT(a,b) RZ(b)
    CNOT(a,b)."""
    return (i + 2 < stop and kinds[i] == 2 and kinds[i + 1] == 1
            and kinds[i + 2] == 2 and qa[i + 1] == qb[i]
            and qa[i + 2] == qa[i] and qb[i + 2] == qb[i])


@functools.lru_cache(maxsize=16)
def z_signs(n_qubits):
    """(2^n, n) read-only matrix of +1 where bit j of the basis index is 0,
    else -1: the sigma_z eigenvalue of qubit j on each basis state."""
    bits = (np.arange(1 << n_qubits)[:, None] >> np.arange(n_qubits)) & 1
    signs = 1.0 - 2.0 * bits
    signs.flags.writeable = False
    return signs


def _z(amps, signs):
    """Per-qubit <sigma_z>: (n,) for one state, (B, n) for (2^n, B). The
    probabilities go to BLAS as a C-contiguous (B, 2^n) copy, because
    OpenBLAS rounds a product with a transposed operand differently at some
    sizes (n = 4, 9 and 10 among them)."""
    probs = amps.real * amps.real + amps.imag * amps.imag
    return np.ascontiguousarray(probs.T) @ signs


def _run(amps, n_qubits, kinds, qa, qb, theta, marks, faults, out):
    """Apply every gate (and its faults) to all columns; after the gates up
    to each step mark, write per-column <sigma_z> into out[..., mark index, :]."""
    batch = _batch(amps)
    kinds, qa, qb, theta = kinds.tolist(), qa.tolist(), qb.tolist(), theta.tolist()
    if faults is None:
        first = [0] * (len(kinds) + 1)
    else:  # events sorted by gate; those of gate i are first[i]:first[i + 1]
        gate, col = np.nonzero(faults)
        codes, col = faults[gate, col].tolist(), col.tolist()
        first = np.searchsorted(gate, np.arange(len(kinds) + 1)).tolist()

    def apply_faults(i, conj=None):
        for e in range(first[i], first[i + 1]):
            src, phase = _pauli_map(n_qubits, qa[i], qb[i], codes[e], conj)
            column = batch[:, col[e]]
            np.multiply(phase, column[src], out=column)

    signs = z_signs(n_qubits) if len(marks) else None
    start = 0
    for k, stop in enumerate([*marks, len(kinds)]):
        i = start
        while i < stop:
            if _is_zz(kinds, qa, qb, i, stop):
                bond = (qa[i], qb[i])
                apply_faults(i, bond)
                batch *= _zz_phase(n_qubits, *bond, theta[i + 1])
                apply_faults(i + 1, bond)
                apply_faults(i + 2)
                i += 3
            else:
                _gate(batch, kinds[i], qa[i], qb[i], theta[i])
                apply_faults(i)
                i += 1
        if k < len(marks):
            out[..., k, :] = _z(batch, signs)
        start = stop


def run_gates(amps, n_qubits, kinds, qa, qb, theta):
    """All gates in order."""
    _run(amps, n_qubits, kinds, qa, qb, theta, [], None, None)


def run_gates_record(amps, n_qubits, kinds, qa, qb, theta, marks, out):
    """All gates, recording <sigma_z> at the step marks: `out` is
    (n_marks, n) for one state, (B, n_marks, n) for a (2^n, B) batch."""
    _run(amps, n_qubits, kinds, qa, qb, theta, marks, None, out)


def run_gates_noisy(amps, n_qubits, kinds, qa, qb, theta, marks, faults, out):
    """As `run_gates_record` on a (2^n, B) batch, with the Pauli faults given
    by the int8 codes `faults` of shape (n_gates, B)."""
    _run(amps, n_qubits, kinds, qa, qb, theta, marks, faults, out)


def z_expectations(amps: np.ndarray, n_qubits: int) -> np.ndarray:
    """Per-qubit <sigma_z> of normalized amplitudes: shape (n,) for one
    state, (B, n) for a (2^n, B) batch."""
    return _z(amps, z_signs(n_qubits))
