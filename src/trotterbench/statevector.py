"""Dense statevector ops: basis states, gate execution, <Z> readout and
sampling.

A state is a C-contiguous complex128 array of shape (2^n,), its amplitudes;
a block of B states is (2^n, B), one state per column. Basis-index
convention: qubit j occupies bit j of the basis index, so qubit 0 is the
least-significant bit. Spin mapping: |1> is spin-down (<sigma_z> = -1), |0>
is spin-up (+1).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from . import kernels
from .circuit import Circuit, check_integer, encode


def check_state(amps: np.ndarray, n_qubits: int | None = None, block: bool = True) -> None:
    """Refuse `amps` unless it is a complex128 state of `n_qubits` qubits
    (of any n >= 1 when None), or a (2^n, B) block of them when `block`."""
    if getattr(amps, "dtype", None) != np.complex128:
        raise ValueError("amplitudes must be a complex128 array, got "
                         f"{getattr(amps, 'dtype', type(amps).__name__)}")
    n = kernels.basis_qubits(amps, block=block)
    if n_qubits is not None and n != n_qubits:
        raise ValueError(f"circuit and state widths differ: {n_qubits} qubits, "
                         f"amplitudes of shape {amps.shape}")


def init_basis_state(n_qubits: int, bits: Sequence[int]) -> np.ndarray:
    """Computational basis state with qubit j set to bits[j]."""
    n_qubits = check_integer("n_qubits", n_qubits, 1)
    if len(bits) != n_qubits:
        raise ValueError(f"expected {n_qubits} bits, got {len(bits)}")
    index = 0
    for j, b in enumerate(bits):
        b = check_integer("bits", b)
        if b not in (0, 1):
            raise ValueError(f"bits must be 0 or 1, got {b}")
        index |= b << j
    amps = np.zeros(1 << n_qubits, dtype=np.complex128)
    amps[index] = 1.0
    return amps


def all_down_state(n_qubits: int) -> np.ndarray:
    """All spins down: every <sigma_z> = -1."""
    return init_basis_state(n_qubits, [1] * check_integer("n_qubits", n_qubits, 1))


def execute(circuit: Circuit, amps: np.ndarray) -> np.ndarray:
    """Run all gates of `circuit` in place on a (2^n,) state or on every
    column of a (2^n, B) block; returns `amps`."""
    check_state(amps, circuit.n_qubits)
    kinds, qa, qb, theta, _ = encode(circuit)
    kernels.run_gates(amps, circuit.n_qubits, kinds, qa, qb, theta)
    return amps


def z_expectations(amps: np.ndarray) -> np.ndarray:
    """All per-qubit <sigma_z> at once: (n,) for a state, (B, n) for a block."""
    return kernels.z_expectations(amps, kernels.basis_qubits(amps))


def sample_bitstrings(amps: np.ndarray, shots: int, rng_seed) -> np.ndarray:
    """Draw `shots` independent full-register measurements from |amp|^2 of
    one state (2^n,) or of each column of a (2^n, B) block.

    Deterministic for a fixed `rng_seed`, an int >= 0 or a tuple or list of
    them (numpy SeedSequence entropy): every column draws from the same
    stream, the one a single state with that seed draws from. Returns int64
    counts per bitstring, shape (2^n,) or (B, 2^n), indexed by basis index:
    bit j of the index is the outcome of qubit j.
    """
    check_state(amps)
    shots = check_integer("shots", shots, 1)
    seed = rng_seed if isinstance(rng_seed, (tuple, list)) else [rng_seed]
    seed = [check_integer("rng_seed", v, 0) for v in seed]  # [s] seeds as s does
    # |amp|^2 of each column as one C-contiguous row, summed pairwise
    probs = np.ascontiguousarray((amps.real * amps.real + amps.imag * amps.imag).T)
    rows = probs.reshape(-1, probs.shape[-1])
    totals = rows.sum(axis=1)
    bad = totals[~(np.abs(totals - 1.0) <= 1e-9)]  # so that NaN is refused too
    if bad.size:
        raise ValueError(f"state is not normalized: |amp|^2 sums to {bad[0]}")
    rng = np.random.default_rng(seed)
    start = rng.bit_generator.state
    counts = np.empty(rows.shape, dtype=np.int64)
    for row, p, total in zip(counts, rows, totals.tolist()):
        rng.bit_generator.state = start
        row[...] = rng.multinomial(shots, p / total)
    return counts.reshape(probs.shape)
