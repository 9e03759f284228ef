"""Independent brute-force constructions used to cross-check the package.

Everything here builds full 2^n x 2^n matrices from explicit Kronecker
products and multiplies them out; none of it shares code with the strided
kernels or the bit-arithmetic Hamiltonian builder it verifies.
"""

import numpy as np

from trotterbench.circuit import Circuit

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)
PAULIS = [I2, SX, SY, SZ]


def kron_at(op, qubit, n):
    """Embed a 2x2 operator on one qubit; qubit 0 is the least-significant bit."""
    return kron_sites({qubit: op}, n)


def kron_sites(ops, n):
    """Embed 2x2 operators on several qubits, given as {qubit: op}, with the
    identity elsewhere; qubit 0 is the least-significant bit."""
    out = ops.get(n - 1, I2)
    for q in range(n - 2, -1, -1):
        out = np.kron(out, ops.get(q, I2))
    return out


def naive_hamiltonian(n, coupling, field, periodic=False):
    """-J sum sz sz - g sum sx assembled term by term from kron products."""
    dim = 2**n
    h = np.zeros((dim, dim), dtype=complex)
    bonds = [(i, i + 1) for i in range(n - 1)]
    if periodic:
        bonds.append((n - 1, 0))
    for a, b in bonds:
        h -= coupling * kron_sites({a: SZ, b: SZ}, n)
    for j in range(n):
        h -= field * kron_at(SX, j, n)
    return h


def spin_flip(n):
    """P = prod_j X_j from kron products, independent of the index trick."""
    return kron_sites({j: SX for j in range(n)}, n)


def sector_projection(m, sign):
    """Q^dagger M Q for the P = sign sector: the columns of Q are
    (I + sign P) e_r / sqrt(2) = (|r> + sign P|r>)/sqrt(2) for r < 2^(n-1),
    with P from `spin_flip`."""
    dim = m.shape[0]
    q = (np.eye(dim) + sign * spin_flip(dim.bit_length() - 1))[:, :dim // 2] / np.sqrt(2)
    return q.conj().T @ m @ q


def naive_trotter_step(n, coupling, field, dt, order, periodic=False):
    """One Trotter step from the exact exponentials of its layers, each a
    sum of commuting terms: "first" applies the X layer, then the odd
    bonds, then the even bonds (1-based bond index, wrap bond last); "sym2"
    applies X/2, odd/2, even, odd/2, X/2. An X layer is the kron product of
    exp(i g tau X); a bond layer is diagonal, exp(i J tau sum Z_a Z_b)."""
    bonds = [(i, i + 1) for i in range(n - 1)] + ([(n - 1, 0)] if periodic else [])

    def x_layer(tau):
        return kron_sites({j: expm_hermitian(-field * SX, tau) for j in range(n)}, n)

    def bond_phases(layer, tau):  # the diagonal of the bond layer, as a column
        zz = np.zeros(2**n)
        for a, b in layer:
            zz += np.diag(kron_sites({a: SZ, b: SZ}, n)).real
        return np.exp(1j * coupling * tau * zz)[:, None]

    odd, even = bonds[0::2], bonds[1::2]
    if order == "first":
        return bond_phases(even, dt) * (bond_phases(odd, dt) * x_layer(dt))
    half_x, half_odd = x_layer(dt / 2), bond_phases(odd, dt / 2)
    return half_x @ (half_odd * (bond_phases(even, dt) * (half_odd * half_x)))


def naive_step_errors(n, coupling, field, dts, periodic=False):
    """{order: [||U_step - exp(-i H dt)||_2 for dt in dts]} on the full 2^n
    space, with U_step from `naive_trotter_step` and H from
    `naive_hamiltonian`."""
    h = naive_hamiltonian(n, coupling, field, periodic)
    exact = [expm_hermitian(h, dt) for dt in dts]
    return {order: [np.linalg.norm(naive_trotter_step(n, coupling, field, dt, order, periodic)
                                   - u, 2) for dt, u in zip(dts, exact)]
            for order in ("first", "sym2")}


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


def gate_full_matrix(kind, qa, qb, theta, n):
    """One gate, given as a circuit stores it (kind 0=RX, 1=RZ, 2=CNOT), as a
    2^n x 2^n matrix."""
    if kind == 0:
        return kron_at(rx_matrix(theta), qa, n)
    if kind == 1:
        return kron_at(rz_matrix(theta), qa, n)
    return cnot_matrix(qa, qb, n)


def gate_rows(circuit):
    """The gates of `circuit` as (kind, qa, qb, theta) rows in temporal order."""
    return list(zip(circuit.kinds, circuit.qa, circuit.qb, circuit.theta))


def circuit_of(n, rows):
    """An n-qubit circuit of (kind, qa, qb, theta) rows, built through the
    `Circuit` builder methods."""
    circ = Circuit(n)
    for kind, a, b, theta in rows:
        if kind == 2:
            circ.cnot(a, b)
        else:
            (circ.rx if kind == 0 else circ.rz)(a, theta)
    return circ


def negated_angles(circ):
    """`circ` with every rotation angle negated."""
    return circuit_of(circ.n_qubits, [(k, a, b, -t) for k, a, b, t in gate_rows(circ)])


def naive_circuit_unitary(circuit):
    """Multiply embedded gate matrices in application order (last gate leftmost)."""
    dim = 2**circuit.n_qubits
    u = np.eye(dim, dtype=complex)
    for row in gate_rows(circuit):
        u = gate_full_matrix(*row, circuit.n_qubits) @ u
    return u


def two_qubit_pauli(a, b, qa, qb, n):
    """Pauli indices a, b in 0..3 (I, X, Y, Z) on qubits qa, qb."""
    return kron_at(PAULIS[a], qa, n) @ kron_at(PAULIS[b], qb, n)


def fault_codes_per_trajectory(kinds, p1, p2, rng_seed, block):
    """Fault codes (n_gates, len(block)) drawn one trajectory at a time:
    trajectory t builds np.random.default_rng((rng_seed, t)) and draws u and
    choice, one uniform each per gate. A rotation faults when u < p1 with
    Pauli int(choice * 3) + 1 in bits 2-3; a CNOT (kind 2) faults when
    u < p2 with the two-qubit Pauli int(choice * 15) + 1."""
    cnot = kinds == 2
    prob = np.where(cnot, p2, p1)
    n_paulis = np.where(cnot, 15.0, 3.0)
    shift = np.where(cnot, 0, 2)
    codes = np.empty((len(kinds), len(block)), dtype=np.int8)
    for col, t in enumerate(block):
        rng = np.random.default_rng((rng_seed, t))
        u, choice = rng.random((2, len(kinds)))
        code = ((choice * n_paulis).astype(np.int8) + 1) << shift
        codes[:, col] = np.where(u < prob, code, 0)
    return codes
