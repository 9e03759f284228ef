"""Independent brute-force constructions used to cross-check the package.

Everything here builds full 2^n x 2^n matrices from explicit Kronecker
products and multiplies them out; none of it shares code with the strided
kernels or the bit-arithmetic Hamiltonian builder it verifies.
"""

import numpy as np

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)
PAULIS = [I2, SX, SY, SZ]


def kron_at(op, qubit, n):
    """Embed a 2x2 operator on one qubit; qubit 0 is the least-significant bit."""
    mats = [I2] * n
    mats[qubit] = op
    out = mats[-1]
    for m in reversed(mats[:-1]):
        out = np.kron(out, m)
    return out


def naive_hamiltonian(n, coupling, field, periodic=False):
    """-J sum sz sz - g sum sx assembled term by term from kron products."""
    dim = 2**n
    h = np.zeros((dim, dim), dtype=complex)
    bonds = [(i, i + 1) for i in range(n - 1)]
    if periodic:
        bonds.append((n - 1, 0))
    for a, b in bonds:
        h -= coupling * (kron_at(SZ, a, n) @ kron_at(SZ, b, n))
    for j in range(n):
        h -= field * kron_at(SX, j, n)
    return h


def expm_hermitian(h, t):
    """exp(-i h t) via eigendecomposition of a Hermitian matrix."""
    evals, evecs = np.linalg.eigh(h)
    return (evecs * np.exp(-1j * evals * t)) @ evecs.conj().T


def evolve_hermitian(h, psi0, times):
    """exp(-i h t) psi0 for every t, rows indexed by t: one complex eigh of
    the full matrix serves the whole grid."""
    evals, evecs = np.linalg.eigh(h)
    c = evecs.conj().T @ psi0
    return (np.exp(-1j * np.outer(times, evals)) * c) @ evecs.T


def rx_matrix(theta):
    return expm_hermitian(SX, theta / 2)


def rz_matrix(theta):
    return expm_hermitian(SZ, theta / 2)


def cnot_matrix(control, target, n):
    """Permutation matrix of the CNOT truth table on an n-qubit register."""
    dim = 2**n
    m = np.zeros((dim, dim), dtype=complex)
    for b in range(dim):
        if (b >> control) & 1:
            m[b ^ (1 << target), b] = 1.0
        else:
            m[b, b] = 1.0
    return m


def gate_full_matrix(gate, n):
    if gate.name == "RX":
        return kron_at(rx_matrix(gate.theta), gate.q0, n)
    if gate.name == "RZ":
        return kron_at(rz_matrix(gate.theta), gate.q0, n)
    return cnot_matrix(gate.q0, gate.q1, n)


def naive_circuit_unitary(circuit):
    """Multiply embedded gate matrices in application order (last gate leftmost)."""
    dim = 2**circuit.n_qubits
    u = np.eye(dim, dtype=complex)
    for g in circuit.gates:
        u = gate_full_matrix(g, circuit.n_qubits) @ u
    return u


def two_qubit_pauli(a, b, qa, qb, n):
    """Pauli indices a, b in 0..3 (I, X, Y, Z) on qubits qa, qb."""
    return kron_at(PAULIS[a], qa, n) @ kron_at(PAULIS[b], qb, n)
