"""Gate-list circuit representation shared by synthesis, execution, and verification.

A circuit holds its gates as the kernels read them: parallel lists `kinds`,
`qa`, `qb` and `theta`, one entry per gate, plus step marks that record
where each Trotter step ends. `qa` is the rotation qubit or CNOT control,
`qb` the CNOT target (-1 for rotations), and `theta` the rotation angle (0.0
for CNOT). Gates are added with `rx`, `rz` and `cnot` and stored in temporal
order: the last gate is the leftmost factor of the corresponding operator
product.
"""

from __future__ import annotations

import math

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


class Circuit:
    """Gates over `n_qubits` qubits, as parallel lists, with Trotter-step end marks.

    Synthesis builds a circuit with `rx` / `rz` / `cnot` / `mark_step`;
    afterwards it is treated as an immutable value (execution never mutates
    a circuit).
    """

    def __init__(self, n_qubits: int):
        if n_qubits < 1:
            raise ValueError(f"n_qubits must be >= 1, got {n_qubits}")
        self.n_qubits = n_qubits
        self.kinds: list[int] = []
        self.qa: list[int] = []
        self.qb: list[int] = []
        self.theta: list[float] = []
        self.step_marks: list[int] = []

    def __len__(self) -> int:
        return len(self.kinds)

    def _qubit(self, q: int) -> int:
        if not 0 <= q < self.n_qubits:
            raise ValueError(f"qubit {q} out of range for {self.n_qubits}-qubit circuit")
        return q

    def _add(self, kind: int, a: int, b: int, theta: float) -> "Circuit":
        self.kinds.append(kind)
        self.qa.append(a)
        self.qb.append(b)
        self.theta.append(theta)
        return self

    def _rotation(self, kind: int, qubit: int, theta: float) -> "Circuit":
        if not math.isfinite(theta):
            raise ValueError(f"non-finite rotation angle {theta}")
        return self._add(kind, self._qubit(qubit), -1, theta)

    def rx(self, qubit: int, theta: float) -> "Circuit":
        """Append RX(theta) = exp(-i theta/2 X) on `qubit`."""
        return self._rotation(KIND_RX, qubit, theta)

    def rz(self, qubit: int, theta: float) -> "Circuit":
        """Append RZ(theta) = exp(-i theta/2 Z) on `qubit`."""
        return self._rotation(KIND_RZ, qubit, theta)

    def cnot(self, control: int, target: int) -> "Circuit":
        """Append CNOT with the given control and target."""
        if control == target:
            raise ValueError("CNOT control and target must differ")
        return self._add(KIND_CNOT, self._qubit(control), self._qubit(target), 0.0)

    def mark_step(self) -> "Circuit":
        """Record the end of a Trotter step at the current gate count."""
        n = len(self)
        if self.step_marks and self.step_marks[-1] >= n:
            raise ValueError("step mark must advance past the previous one")
        self.step_marks.append(n)
        return self

    def extend(self, other: "Circuit") -> "Circuit":
        """Append all gates and step marks of `other` (same width) in order."""
        if other.n_qubits != self.n_qubits:
            raise ValueError("circuit widths differ")
        marks = [len(self) + m for m in other.step_marks]
        self.kinds.extend(other.kinds)
        self.qa.extend(other.qa)
        self.qb.extend(other.qb)
        self.theta.extend(other.theta)
        self.step_marks.extend(marks)
        return self

    def n_steps(self) -> int:
        return len(self.step_marks)


def encode(circuit: Circuit):
    """The gate lists as flat arrays for the execution kernels.

    Returns (kinds, qa, qb, theta, marks).
    """
    return (np.array(circuit.kinds, dtype=np.int8),
            np.array(circuit.qa, dtype=np.int64),
            np.array(circuit.qb, dtype=np.int64),
            np.array(circuit.theta, dtype=np.float64),
            np.array(circuit.step_marks, dtype=np.int64))


def gate_counts(circuit: Circuit) -> dict:
    """Tally gates per kind, total and per Trotter step.

    Returns {"total": {...}, "per_step": [{...}, ...], "n_gates": int}.
    Gates after the last step mark (if any) are counted in the total only.
    """
    kinds = circuit.kinds

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
