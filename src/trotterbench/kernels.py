"""Amplitude-update engine: every gate, Pauli fault and <Z> readout, in numpy.

Amplitudes are a C-contiguous complex array of shape (2^n, B), one state per
column, or (2^n,) for a single state. The columns of a block are one of two
things. Independent runs: the g values of a `sweep` or `compare` in ideal
and shots mode (one column for a single run), each with its own RX angles.
Trajectories: the B trajectories of noisy mode. The 2^n basis states of
`circuit.circuit_unitary` are a block too. Every kernel and the <Z> readout
(`_z`: pair sums, no BLAS product) are elementwise over the columns, so a
column's bits do not depend on its block. A gate on qubit q acts on the
reshape view (2^n >> (q+1), 2, 2^q, B), whose axis 1 is bit q of the basis
index, so every view has a contiguous inner run of at least B amplitudes
and no rotation or CNOT builds index arrays. All kernels mutate the
amplitudes in place.

Each Ising bond CNOT(a,b) RZ(b,theta) CNOT(a,b) runs as one multiply by a
cached (2^n,) diagonal: exp(-i theta/2) where bits a and b agree and
exp(+i theta/2) where they differ, the factor RZ gives each amplitude between
the two CNOTs. Any other gate sequence runs gate by gate.

Gate encoding (see circuit.encode): kinds KIND_RX=0, KIND_RZ=1, KIND_CNOT=2;
`qa` is the rotation qubit or CNOT control, `qb` the CNOT target. Pauli
codes: 0=I, 1=X, 2=Y, 3=Z. A fault code (one int8 per gate and trajectory) holds the Pauli
applied to `qa` after the gate in bits 2-3 and the Pauli applied to `qb` in
bits 0-1. Faults are sparse events: each one permutes the amplitudes of its
own trajectory and multiplies them by a unit phase (+-1, +-i), both read by
fault code from one table per qubit pair (`_pauli_table`). Inside a fused
bond, a fault after the first CNOT or after the RZ is conjugated by the CNOT
and applied before or after the phase respectively, so every amplitude meets
its unit phases and its RZ factor in the order of the gate list; a fault
after the second CNOT is applied as it is.
"""

from __future__ import annotations

import functools
import math

import numpy as np

KIND_RX = 0
KIND_RZ = 1
KIND_CNOT = 2


def active_backend() -> str:
    """Name of the gate engine, recorded by the benchmark's machine line."""
    return "numpy"


def basis_qubits(a: np.ndarray, what: str = "amplitudes", block: bool = True) -> int:
    """n of `a`, read from its basis-indexed leading axis of length 2^n
    (n >= 1): `a` is (2^n,), or (2^n, B) when `block`. Any other shape
    raises a ValueError naming `what`."""
    shape = np.shape(a)
    n = shape[0].bit_length() - 1 if len(shape) in ((1, 2) if block else (1,)) else 0
    if n < 1 or shape[0] != 1 << n:
        form = "(2^n,) or (2^n, B)" if block else "(2^n,)"
        raise ValueError(f"{what} must have shape {form} with n >= 1, got {shape}")
    return n


def _batch(amps: np.ndarray) -> np.ndarray:
    """(2^n, B) view of one state or a batch of states; never a copy."""
    if not amps.flags.c_contiguous:
        raise ValueError("amplitudes must be C-contiguous")
    return amps.reshape(amps.shape[0], -1)


def _pair(amps, q):
    """View (2^n >> (q+1), 2, 2^q, B) of (2^n, B) `amps` whose axis 1 is
    bit q of the basis index."""
    return amps.reshape(amps.shape[0] >> (q + 1), 2, 1 << q, amps.shape[1])


def _swap(x0, x1):
    tmp = x0.copy()
    x0[...] = x1
    x1[...] = tmp


def _rx_factors(theta):
    """(c, -i s) with c, s = cos, sin(theta / 2): the factors RX(theta)
    multiplies by."""
    c = math.cos(theta / 2)
    s = math.sin(theta / 2)
    return c, -1j * s


#: Amplitudes an RX updates per pass (16 MB): a larger block, such as the
#: 2^n columns of `circuit.circuit_unitary`, runs in contiguous slices, so
#: that its partner temporary stays this small.
_RX_AMPLITUDES = 1 << 20


def _rx(amps, q, factors):
    """RX by `_rx_factors` (scalars for every column, or (B,) arrays with
    one angle per column) in partner form: each amplitude becomes
    c * itself + (-i s) * its partner across bit q."""
    c, minus_i_s = factors
    pair = _pair(amps, q)
    outer, _, inner, width = pair.shape
    # slices of the outer axis, and of the inner one where a single outer
    # index holds more than _RX_AMPLITUDES
    step_in = min(inner, max(1, _RX_AMPLITUDES // (2 * width)))
    step_out = max(1, _RX_AMPLITUDES // (2 * step_in * width))
    for a in range(0, outer, step_out):
        for b in range(0, inner, step_in):
            v = pair[a:a + step_out, :, b:b + step_in]
            partner = minus_i_s * v[:, ::-1]
            v *= c
            v += partner


def _rz(amps, q, theta):
    """RZ as one multiply by both factors: numpy rounds a complex product in
    a loop of one element (a lone column at n = 1) unlike in a longer one."""
    v = _pair(amps, q)
    v *= np.array([np.exp(-0.5j * theta), np.exp(0.5j * theta)])[:, None, None]


def _cnot(amps, control, target):
    hi, lo = max(control, target), min(control, target)
    v = amps.reshape(amps.shape[0] >> (hi + 1), 2, 1 << (hi - lo - 1), 2, -1)
    if control == hi:
        _swap(v[:, 1, :, 0], v[:, 1, :, 1])
    else:
        _swap(v[:, 0, :, 1], v[:, 1, :, 1])


def _gate(amps, kind, a, b, angle):
    if kind == KIND_RX:
        _rx(amps, a, angle)
    elif kind == KIND_RZ:
        _rz(amps, a, angle)
    else:
        _cnot(amps, a, b)


def _angles(kinds, theta, columns):
    """Per gate, what its kernel takes: an RX's `_rx_factors`, any other
    gate's angle. `theta` is (n_gates,), or (n_gates, columns) with one RX
    angle per column; every other angle must then agree across the columns,
    so that RZ gates and fused bonds keep one (cached) phase."""
    block = theta[:, None] if theta.ndim == 1 else theta
    if block.shape[1] not in (1, columns):
        raise ValueError(f"theta has {block.shape[1]} columns, the amplitudes {columns}")
    uniform = (block == block[:, :1]).all(axis=1).tolist()
    factors = {}  # per RX angle, or per row of RX angles where the columns differ
    angles = []
    for i, (kind, first, same) in enumerate(zip(kinds, block[:, 0].tolist(), uniform)):
        if kind != KIND_RX:
            if not same:
                raise ValueError("only RX angles may differ between the columns of a block")
            angles.append(first)
            continue
        key = first if same else tuple(block[i].tolist())
        if key not in factors:
            factors[key] = (_rx_factors(first) if same
                            else tuple(map(np.array, zip(*map(_rx_factors, key)))))
        angles.append(factors[key])
    return angles


# A phase diagonal takes 16 bytes per basis state: the cache holds at most
# 0.03 MB at n = 5 and 4.2 MB at the dense cap n = 12.
@functools.lru_cache(maxsize=64)
def _zz_phase(n_qubits, a, b, theta):
    """(2^n, 1) read-only diagonal of CNOT(a,b) RZ(b,theta) CNOT(a,b), with
    the very factors `_rz` multiplies by."""
    k = np.arange(1 << n_qubits)
    differ = ((k >> a) ^ (k >> b)) & 1
    phase = np.where(differ == 1, np.exp(0.5j * theta), np.exp(-0.5j * theta))
    phase.flags.writeable = False
    return phase[:, None]


def _pauli_table(n_qubits, a, b, conj):
    """(src, phase), each (16, 2^n): row `code` is the fault
    `code` on qubits (a, b), conjugated by CNOT(*conj) when `conj` is
    given. The faulted state is phase[code] * state[src[code]], with every
    phase one of +-1, +-i. For a rotation b is -1 and only the rows of
    codes with bits 0-1 clear are meaningful."""
    k = np.arange(1 << n_qubits)
    code = np.arange(16)[:, None]
    paulis = [(q, pauli) for q, pauli in ((a, code >> 2), (b, code & 3)) if q >= 0]

    def cnot(x):
        return x if conj is None else x ^ (((x >> conj[0]) & 1) << conj[1])

    flip = sum(((pauli == 1) | (pauli == 2)) << q for q, pauli in paulis)  # X or Y
    # A CNOT is linear in the bits of the basis index, so the fault takes
    # |k> to |k ^ cnot(flip)>, with the factor its Paulis give the bits
    # cnot(k); for the gather, those are the bits cnot(j) ^ flip of j's source.
    bits = cnot(k) ^ flip
    phase = np.ones((16, 1 << n_qubits), dtype=np.complex128)
    for q, pauli in paulis:
        one = ((bits >> q) & 1) == 1
        # Y|0> = i|1>, Y|1> = -i|0>; Z|1> = -|1>; I and X multiply by 1
        phase *= np.where(pauli == 2, np.where(one, -1j, 1j),
                          np.where((pauli == 3) & one, -1.0, 1.0))
    return k ^ cnot(flip), phase


def _is_zz(kinds, qa, qb, i, stop):
    """Whether gates i, i+1, i+2 (all before `stop`) are CNOT(a,b) RZ(b)
    CNOT(a,b)."""
    return (i + 2 < stop and kinds[i] == KIND_CNOT and kinds[i + 1] == KIND_RZ
            and kinds[i + 2] == KIND_CNOT and qa[i + 1] == qb[i]
            and qa[i + 2] == qa[i] and qb[i + 2] == qb[i])


@functools.lru_cache(maxsize=16)
def z_signs(n_qubits):
    """(2^n, n) read-only matrix of +1 where bit j of the basis index is 0,
    else -1: the sigma_z eigenvalue of qubit j on each basis state."""
    bits = (np.arange(1 << n_qubits)[:, None] >> np.arange(n_qubits)) & 1
    signs = 1.0 - 2.0 * bits
    signs.flags.writeable = False
    return signs


def _z(batch):
    """(B, n) <sigma_z> of each column of a (2^n, B) block. For each bit from
    the top down: the bit-0 half minus the bit-1 half of the probabilities,
    summed by halving (d = d[:h] + d[h:]); the two halves are then added to
    sum over that bit. Row 0 of `sums` holds the probabilities summed so
    far, the rows below it the halvings in flight."""
    sums = (batch.real * batch.real + batch.imag * batch.imag)[None]
    for q in range(batch.shape[0].bit_length() - 1):
        h = sums.shape[1] // 2
        halved = np.empty((q + 2, h, batch.shape[1]))
        np.add(sums[:, :h], sums[:, h:], out=halved[:-1])
        np.subtract(sums[0, :h], sums[0, h:], out=halved[-1])
        sums = halved
    return sums[:0:-1, 0].T


def _run(amps, n_qubits, kinds, qa, qb, theta, marks, faults, out, tables):
    """Apply every gate (and its faults) to all columns; after the gates up
    to each step mark, write per-column <sigma_z> into out[..., mark index, :].
    `tables` is a cached `_pauli_table`, read only when `faults` is given."""
    batch = _batch(amps)
    kinds, qa, qb = kinds.tolist(), qa.tolist(), qb.tolist()
    theta = _angles(kinds, np.asarray(theta, dtype=np.float64), batch.shape[1])
    if faults is None:
        first = [0] * (len(kinds) + 1)
    else:  # events sorted by gate; those of gate i are first[i]:first[i + 1]
        gate, col = np.nonzero(faults)
        codes, col = faults[gate, col].tolist(), col.tolist()
        first = np.searchsorted(gate, np.arange(len(kinds) + 1)).tolist()

    def apply_faults(i, conj=None):
        if first[i] == first[i + 1]:
            return
        src, phase = tables(n_qubits, qa[i], qb[i], conj)
        for e in range(first[i], first[i + 1]):
            column = batch[:, col[e]]
            np.multiply(phase[codes[e]], column[src[codes[e]]], out=column)

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
            out[..., k, :] = _z(batch)
        start = stop


def run_gates(amps, n_qubits, kinds, qa, qb, theta):
    """All gates in order. `theta` is (n_gates,), or (n_gates, B) for a
    (2^n, B) block of independent runs whose RX angles differ."""
    _run(amps, n_qubits, kinds, qa, qb, theta, [], None, None, None)


def run_gates_record(amps, n_qubits, kinds, qa, qb, theta, marks, out):
    """As `run_gates`, recording <sigma_z> of each column at the step
    marks: `out` is (n_marks, n) for one state, (B, n_marks, n) for a
    (2^n, B) block."""
    _run(amps, n_qubits, kinds, qa, qb, theta, marks, None, out, None)


def run_gates_noisy(amps, n_qubits, kinds, qa, qb, theta, marks, faults, out, tables):
    """As `run_gates_record` on a (2^n, B) block of trajectories, with the
    Pauli faults given by the int8 codes `faults` of shape (n_gates, B).
    `theta` is (n_gates,). `tables` is a `functools.cache` of
    `_pauli_table`; calls that pass the same one share its tables."""
    _run(amps, n_qubits, kinds, qa, qb, theta, marks, faults, out, tables)


def z_expectations(amps: np.ndarray, n_qubits: int) -> np.ndarray:
    """Per-qubit <sigma_z> of normalized amplitudes: shape (n,) for one
    state, (B, n) for a (2^n, B) batch."""
    if basis_qubits(amps) != n_qubits:
        raise ValueError(f"amplitudes of shape {amps.shape} are not of {n_qubits} qubits")
    z = _z(amps.reshape(amps.shape[0], -1))
    return z if amps.ndim == 2 else z[0]
