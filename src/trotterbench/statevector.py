"""Dense statevector over 2^n complex amplitudes and its gate/measurement ops.

Basis-index convention: qubit j occupies bit j of the basis index, so
qubit 0 is the least-significant bit. Spin mapping: |1> is spin-down
(<sigma_z> = -1), |0> is spin-up (+1).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from . import kernels
from .circuit import Circuit, Gate, encode

BitString = tuple[int, ...]


class StateVector:
    """Complex amplitudes of an n-qubit pure state; owned by a single run."""

    __slots__ = ("n_qubits", "amps")

    def __init__(self, n_qubits: int, amps: np.ndarray | None = None):
        if n_qubits < 1:
            raise ValueError(f"n_qubits must be >= 1, got {n_qubits}")
        dim = 1 << n_qubits
        if amps is None:
            amps = np.zeros(dim, dtype=np.complex128)
            amps[0] = 1.0
        else:
            amps = np.ascontiguousarray(amps, dtype=np.complex128)
            if amps.shape != (dim,):
                raise ValueError(f"expected {dim} amplitudes, got {amps.shape}")
        self.n_qubits = n_qubits
        self.amps = amps

    def copy(self) -> "StateVector":
        return StateVector(self.n_qubits, self.amps.copy())

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def probabilities(self) -> np.ndarray:
        return self.amps.real**2 + self.amps.imag**2


def init_basis_state(n_qubits: int, bits: Sequence[int]) -> StateVector:
    """Computational basis state with qubit j set to bits[j]."""
    if len(bits) != n_qubits:
        raise ValueError(f"expected {n_qubits} bits, got {len(bits)}")
    index = 0
    for j, b in enumerate(bits):
        if b not in (0, 1):
            raise ValueError(f"bits must be 0 or 1, got {b}")
        index |= b << j
    state = StateVector(n_qubits)
    state.amps[0] = 0.0
    state.amps[index] = 1.0
    return state


def all_down_state(n_qubits: int) -> StateVector:
    """All spins down: every <sigma_z> = -1."""
    return init_basis_state(n_qubits, [1] * n_qubits)


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    """Apply one gate in place over strided amplitude pairs; returns `state`."""
    for q in gate.qubits():
        if q >= state.n_qubits:
            raise ValueError(f"qubit {q} out of range")
    kernels.apply_gate_encoded(
        state.amps, np.int8(gate.kind), gate.q0, gate.q1, gate.theta
    )
    return state


def execute(circuit: Circuit, state: StateVector) -> StateVector:
    """Run all gates of `circuit` on `state` in place; returns `state`."""
    if circuit.n_qubits != state.n_qubits:
        raise ValueError("circuit and state widths differ")
    kinds, qa, qb, theta, _ = encode(circuit)
    kernels.run_gates(state.amps, state.n_qubits, kinds, qa, qb, theta)
    return state


def execute_recording(circuit: Circuit, state: StateVector) -> np.ndarray:
    """Run `circuit` on `state`, recording per-qubit <sigma_z> at each step mark.

    Returns an array of shape (n_steps, n_qubits); the state is left at the
    end of the circuit.
    """
    if circuit.n_qubits != state.n_qubits:
        raise ValueError("circuit and state widths differ")
    kinds, qa, qb, theta, marks = encode(circuit)
    out = np.empty((len(marks), state.n_qubits), dtype=np.float64)
    kernels.run_gates_record(state.amps, state.n_qubits, kinds, qa, qb, theta, marks, out)
    return out


def expectation_z(state: StateVector, qubit: int) -> float:
    """<sigma_z> of one qubit: +1 for |0>, -1 for |1>."""
    if not 0 <= qubit < state.n_qubits:
        raise ValueError(f"qubit {qubit} out of range")
    probs = state.probabilities()
    idx = np.arange(probs.shape[0])
    signs = 1.0 - 2.0 * ((idx >> qubit) & 1)
    return float(probs @ signs)


def z_expectations(state: StateVector) -> np.ndarray:
    """All per-qubit <sigma_z> at once."""
    return kernels.z_expectations(state.amps, state.n_qubits)


def sample_bitstrings(
    state: StateVector, shots: int, rng_seed
) -> dict[BitString, int]:
    """Draw `shots` independent full-register measurements from |amp|^2.

    Deterministic for a fixed `rng_seed` (any numpy SeedSequence entropy).
    Returns counts keyed by bit tuples with bits[j] = outcome of qubit j.
    """
    if shots <= 0:
        raise ValueError(f"shots must be >= 1, got {shots}")
    probs = state.probabilities()
    total = probs.sum()
    if abs(total - 1.0) > 1e-9:
        raise ValueError("state is not normalized")
    rng = np.random.default_rng(rng_seed)
    draws = rng.multinomial(shots, probs / total)
    n = state.n_qubits
    counts: dict[BitString, int] = {}
    for index in np.flatnonzero(draws):
        bits = tuple((int(index) >> j) & 1 for j in range(n))
        counts[bits] = int(draws[index])
    return counts


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2."""
    if a.n_qubits != b.n_qubits:
        raise ValueError("qubit counts differ")
    return float(abs(np.vdot(a.amps, b.amps)) ** 2)
