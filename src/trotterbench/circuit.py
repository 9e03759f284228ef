"""Gate-list circuit representation shared by synthesis, execution, and verification.

A circuit is an ordered list of RX / RZ / CNOT gates plus step marks that
record where each Trotter step ends. Gates are stored in temporal order:
the last gate in the list is the leftmost factor of the corresponding
operator product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels

KIND_RX = 0
KIND_RZ = 1
KIND_CNOT = 2

_KIND_NAMES = {KIND_RX: "RX", KIND_RZ: "RZ", KIND_CNOT: "CNOT"}

#: Widest chain of every dense path: the 2^n x 2^n circuit unitary here and
#: the Hamiltonian and sector blocks of `exact`. `RunConfig` applies it to
#: every run.
MAX_DENSE_SPINS = 12



@dataclass(frozen=True)
class Gate:
    """One gate: RX(qubit, theta), RZ(qubit, theta) or CNOT(control, target).

    For RX/RZ `q0` is the target qubit and `q1` is unused (-1). For CNOT
    `q0` is the control and `q1` the target.
    """

    kind: int
    q0: int
    q1: int = -1
    theta: float = 0.0

    def __post_init__(self):
        if self.kind not in _KIND_NAMES:
            raise ValueError(f"unknown gate kind {self.kind}")
        if self.q0 < 0:
            raise ValueError(f"negative qubit index {self.q0}")
        if self.kind == KIND_CNOT:
            if self.q1 < 0:
                raise ValueError(f"negative qubit index {self.q1}")
            if self.q0 == self.q1:
                raise ValueError("CNOT control and target must differ")
        elif not math.isfinite(self.theta):
            raise ValueError(f"non-finite rotation angle {self.theta}")

    @property
    def name(self) -> str:
        return _KIND_NAMES[self.kind]

    def qubits(self) -> tuple[int, ...]:
        if self.kind == KIND_CNOT:
            return (self.q0, self.q1)
        return (self.q0,)


def rx(qubit: int, theta: float) -> Gate:
    return Gate(KIND_RX, qubit, theta=theta)


def rz(qubit: int, theta: float) -> Gate:
    return Gate(KIND_RZ, qubit, theta=theta)


def cnot(control: int, target: int) -> Gate:
    return Gate(KIND_CNOT, control, target)


class Circuit:
    """Ordered gate list over `n_qubits` qubits with Trotter-step end marks.

    Synthesis builds a circuit with `append` / `mark_step`; afterwards it is
    treated as an immutable value (execution never mutates a circuit).
    """

    def __init__(self, n_qubits: int):
        if n_qubits < 1:
            raise ValueError(f"n_qubits must be >= 1, got {n_qubits}")
        self.n_qubits = n_qubits
        self.gates: list[Gate] = []
        self.step_marks: list[int] = []

    def __len__(self) -> int:
        return len(self.gates)

    def append(self, gate: Gate) -> "Circuit":
        for q in gate.qubits():
            if q >= self.n_qubits:
                raise ValueError(
                    f"qubit {q} out of range for {self.n_qubits}-qubit circuit"
                )
        self.gates.append(gate)
        return self

    def mark_step(self) -> "Circuit":
        """Record the end of a Trotter step at the current gate count."""
        n = len(self.gates)
        if self.step_marks and self.step_marks[-1] >= n:
            raise ValueError("step mark must advance past the previous one")
        self.step_marks.append(n)
        return self

    def extend(self, other: "Circuit") -> "Circuit":
        """Append all gates and step marks of `other` (same width) in order."""
        if other.n_qubits != self.n_qubits:
            raise ValueError("circuit widths differ")
        base = len(self.gates)
        self.gates.extend(other.gates)
        self.step_marks.extend(base + m for m in other.step_marks)
        return self

    def n_steps(self) -> int:
        return len(self.step_marks)


def encode(circuit: Circuit):
    """Pack the gate list into flat arrays for the execution kernels.

    Returns (kinds, qa, qb, theta, marks) where qa is the rotation qubit or
    CNOT control, qb the CNOT target (-1 for rotations).
    """
    gates = circuit.gates
    return (np.array([g.kind for g in gates], dtype=np.int8),
            np.array([g.q0 for g in gates], dtype=np.int64),
            np.array([g.q1 for g in gates], dtype=np.int64),
            np.array([g.theta for g in gates], dtype=np.float64),
            np.asarray(circuit.step_marks, dtype=np.int64))


def gate_counts(circuit: Circuit) -> dict:
    """Tally gates per kind, total and per Trotter step.

    Returns {"total": {...}, "per_step": [{...}, ...], "n_gates": int}.
    Gates after the last step mark (if any) are counted in the total only.
    """
    kinds = [g.kind for g in circuit.gates]

    def tally(part):
        return {name: part.count(kind) for kind, name in _KIND_NAMES.items()}

    bounds = [0, *circuit.step_marks]
    return {"total": tally(kinds),
            "per_step": [tally(kinds[a:b]) for a, b in zip(bounds, bounds[1:])],
            "n_gates": len(kinds)}


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Dense unitary of the whole circuit (earlier gates act first).

    Verification path only: runs the circuit on all 2^n basis states at once
    as a (2^n, 2^n) batch, so column k ends as U|k> and the batch is U.
    """
    n = circuit.n_qubits
    if n > MAX_DENSE_SPINS:
        raise ValueError(f"dense unitary limited to {MAX_DENSE_SPINS} qubits")
    states = np.eye(1 << n, dtype=np.complex128)
    kinds, qa, qb, theta, _ = encode(circuit)
    kernels.run_gates(states, n, kinds, qa, qb, theta)
    return states
