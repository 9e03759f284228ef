"""Dense statevector over 2^n complex amplitudes and its gate/measurement ops.

Basis-index convention: qubit j occupies bit j of the basis index, so
qubit 0 is the least-significant bit. Spin mapping: |1> is spin-down
(<sigma_z> = -1), |0> is spin-up (+1).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from . import kernels
from .circuit import Circuit, encode


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


def execute(circuit: Circuit, state: StateVector) -> StateVector:
    """Run all gates of `circuit` on `state` in place; returns `state`."""
    if circuit.n_qubits != state.n_qubits:
        raise ValueError("circuit and state widths differ")
    kinds, qa, qb, theta, _ = encode(circuit)
    kernels.run_gates(state.amps, state.n_qubits, kinds, qa, qb, theta)
    return state


def z_expectations(state: StateVector) -> np.ndarray:
    """All per-qubit <sigma_z> at once."""
    return kernels.z_expectations(state.amps, state.n_qubits)


def sample_bitstrings(state: StateVector, shots: int, rng_seed) -> np.ndarray:
    """Draw `shots` independent full-register measurements from |amp|^2.

    Deterministic for a fixed `rng_seed` (any numpy SeedSequence entropy).
    Returns int64 counts per bitstring, shape (2^n,), indexed by basis index:
    bit j of the index is the outcome of qubit j.
    """
    if shots <= 0:
        raise ValueError(f"shots must be >= 1, got {shots}")
    probs = state.probabilities()
    total = probs.sum()
    if abs(total - 1.0) > 1e-9:
        raise ValueError("state is not normalized")
    rng = np.random.default_rng(rng_seed)
    return rng.multinomial(shots, probs / total)
