"""Stochastic Pauli fault emulation and classical readout errors.

Gate noise is modelled as at most one fault per gate: after every
single-qubit gate a uniformly random X/Y/Z hits its qubit with probability
p1, and after every CNOT one of the 15 non-identity two-qubit Paulis hits
the gate's pair with probability p2. Averaging exact per-step expectations
over many such trajectories reproduces the depolarizing-channel values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .circuit import KIND_CNOT, Circuit, encode
from .statevector import StateVector


@dataclass(frozen=True)
class NoiseParams:
    """Fault probabilities per gate plus classical readout flip rates."""

    p1: float = 0.0  # depolarizing fault after a single-qubit gate
    p2: float = 0.0  # depolarizing fault after a CNOT
    read01: float = 0.0  # measured 0 flips to 1
    read10: float = 0.0  # measured 1 flips to 0

    def __post_init__(self):
        for name in ("p1", "p2", "read01", "read10"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")

    def is_zero(self) -> bool:
        return self.p1 == self.p2 == self.read01 == self.read10 == 0.0


#: Calibration used for device-like runs; chosen so that gate faults dominate
#: the Trotter error at moderate fields. Plain config defaults, not measured
#: properties of any hardware.
DEVICE_LIKE = NoiseParams(p1=0.002, p2=0.02, read01=0.02, read10=0.02)


#: Trajectories simulated together as one (block, 2^n) batch; memory is
#: bounded by this many states whatever the trajectory count.
TRAJECTORY_BLOCK = 256


def noisy_execute(
    circuit: Circuit,
    initial: StateVector,
    noise: NoiseParams,
    trajectories: int,
    rng_seed: int,
) -> np.ndarray:
    """Trajectory-averaged per-qubit <sigma_z> at every step mark.

    Each trajectory replays the circuit with independently drawn faults and
    records exact expectations at the step marks; the return value has shape
    (n_steps, n_qubits). Trajectory t draws from a stream seeded by
    (rng_seed, t), so results do not depend on how trajectories are batched.
    Trajectories run in blocks of TRAJECTORY_BLOCK and are summed in order.
    """
    if trajectories < 1:
        raise ValueError(f"trajectories must be >= 1, got {trajectories}")
    if circuit.n_qubits != initial.n_qubits:
        raise ValueError("circuit and state widths differ")
    kinds, qa, qb, theta, marks = encode(circuit)
    n = circuit.n_qubits
    if noise.p1 == 0.0 and noise.p2 == 0.0:
        # identity channel: every trajectory is the ideal run, so return it
        # as-is instead of averaging T identical values (which would round)
        out = np.empty((len(marks), n), dtype=np.float64)
        kernels.run_gates_record(initial.amps.copy(), n, kinds, qa, qb, theta, marks, out)
        return out
    acc = np.zeros((len(marks), n), dtype=np.float64)
    for first in range(0, trajectories, TRAJECTORY_BLOCK):
        block = range(first, min(first + TRAJECTORY_BLOCK, trajectories))
        faults = _fault_codes(kinds, noise, rng_seed, block)
        amps = np.repeat(initial.amps[None, :], len(block), axis=0)
        out = np.empty((len(block), len(marks), n), dtype=np.float64)
        kernels.run_gates_noisy(amps, n, kinds, qa, qb, theta, marks, faults, out)
        for row in out:  # one trajectory after another, as a running sum
            acc += row
    acc /= trajectories
    return acc


def _fault_codes(kinds, noise: NoiseParams, rng_seed: int, block: range) -> np.ndarray:
    """int8 fault codes of shape (n_gates, len(block)) in the kernels' layout
    (Pauli on the first qubit in bits 2-3, on the CNOT target in bits 0-1).

    Trajectory t draws u and choice, one uniform each per gate, from the
    stream (rng_seed, t). A rotation faults when u < p1, with X, Y or Z by
    choice; a CNOT faults when u < p2, with one of the 15 non-identity
    two-qubit Paulis by choice.
    """
    cnot = kinds == KIND_CNOT
    prob = np.where(cnot, noise.p2, noise.p1)
    n_paulis = np.where(cnot, 15.0, 3.0)
    shift = np.where(cnot, 0, 2)
    codes = np.empty((len(kinds), len(block)), dtype=np.int8)
    for col, t in enumerate(block):
        rng = np.random.default_rng((rng_seed, t))
        u, choice = rng.random((2, len(kinds)))
        code = ((choice * n_paulis).astype(np.int8) + 1) << shift
        codes[:, col] = np.where(u < prob, code, 0)
    return codes


def apply_readout_to_expectations(values: np.ndarray, noise: NoiseParams) -> np.ndarray:
    """Infinite-shot readout map on <sigma_z> values:
    M -> M (1 - read01 - read10) + (read10 - read01)."""
    scale = 1.0 - noise.read01 - noise.read10
    offset = noise.read10 - noise.read01
    return values * scale + offset
