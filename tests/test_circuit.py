"""Circuit IR: construction rules, dense unitaries, and counts."""

import numpy as np
import pytest

from trotterbench import (
    Circuit,
    TfimParams,
    circuit_unitary,
    execute,
    first_order_step,
    gate_counts,
    symmetric_step,
)
from trotterbench import kernels
from trotterbench.circuit import encode

from oracles import naive_circuit_unitary


def random_circuit(n_qubits, n_gates, seed):
    rng = np.random.default_rng(seed)
    circ = Circuit(n_qubits)
    for _ in range(n_gates):
        kind = rng.integers(3)
        if kind == 0:
            circ.rx(int(rng.integers(n_qubits)), float(rng.uniform(-3, 3)))
        elif kind == 1:
            circ.rz(int(rng.integers(n_qubits)), float(rng.uniform(-3, 3)))
        else:
            a, b = rng.choice(n_qubits, size=2, replace=False)
            circ.cnot(int(a), int(b))
    return circ


class TestConstruction:
    def test_append(self):
        circ = Circuit(5)
        circ.rx(0, 0.4)
        assert len(circ) == 1
        assert circ.rz(1, 0.1) is circ
        assert circ.cnot(0, 1) is circ
        assert len(circ) == 3

    def test_cnot_control_equals_target(self):
        with pytest.raises(ValueError):
            Circuit(5).cnot(2, 2)

    def test_qubit_out_of_range(self):
        with pytest.raises(ValueError):
            Circuit(5).rx(7, 0.1)

    def test_negative_index(self):
        with pytest.raises(ValueError):
            Circuit(5).rx(-1, 0.1)

    def test_nonfinite_angle(self):
        with pytest.raises(ValueError):
            Circuit(5).rz(0, float("nan"))

    @pytest.mark.parametrize("gate, args", [
        ("rx", (5, 0.1)), ("rz", (-1, 0.1)), ("cnot", (0, 5)), ("cnot", (-1, 0)),
        ("rx", (0, float("inf"))), ("rz", (0, float("-inf"))),
    ])
    def test_refused_gate_is_not_added(self, gate, args):
        circ = Circuit(5)
        with pytest.raises(ValueError, match="out of range|non-finite"):
            getattr(circ, gate)(*args)
        assert len(circ) == 0
        assert (circ.kinds, circ.qa, circ.qb, circ.theta) == ([], [], [], [])

    def test_step_marks_strictly_increase(self):
        circ = Circuit(2)
        circ.rx(0, 0.1).mark_step()
        with pytest.raises(ValueError):
            circ.mark_step()

    def test_extend_offsets_marks(self):
        a = Circuit(2)
        a.rx(0, 0.1).mark_step()
        b = Circuit(2)
        b.rz(1, 0.2).cnot(0, 1).mark_step()
        a.extend(b)
        assert a.step_marks == [1, 3]
        assert len(a) == 3

    def test_extend_by_itself_doubles_gates_and_marks(self):
        circ = Circuit(2).rx(0, 0.1).mark_step().cnot(1, 0)
        assert circ.extend(circ) is circ
        assert circ.kinds == [0, 2, 0, 2]
        assert circ.qa == [0, 1, 0, 1]
        assert circ.qb == [-1, 0, -1, 0]
        assert circ.theta == [0.1, 0.0, 0.1, 0.0]
        assert circ.step_marks == [1, 3]


class TestCircuitUnitary:
    def test_empty_is_identity(self):
        np.testing.assert_array_equal(circuit_unitary(Circuit(2)), np.eye(4))

    def test_rx_pi_single_qubit(self):
        circ = Circuit(1)
        circ.rx(0, np.pi)
        expected = -1j * np.array([[0, 1], [1, 0]])
        np.testing.assert_allclose(circuit_unitary(circ), expected, atol=1e-15)

    def test_cnot_rz_cnot_is_zz_rotation(self):
        # the CNOT-conjugated RZ must equal the two-qubit ZZ phase rotation
        theta = -0.4
        circ = Circuit(2)
        circ.cnot(0, 1).rz(1, theta).cnot(0, 1)
        phases = []
        for b in range(4):
            parity = ((b & 1) ^ ((b >> 1) & 1))
            phases.append(np.exp(-0.5j * theta * (1 - 2 * parity)))
        np.testing.assert_allclose(circuit_unitary(circ), np.diag(phases), atol=1e-12)

    @pytest.mark.parametrize("gates, fused", [
        ([("cnot", 0, 1), ("rz", 1, 0.7), ("cnot", 0, 1)], 1),
        ([("cnot", 2, 0), ("rz", 0, 0.7), ("cnot", 2, 0)], 1),  # a wrap bond: control above target
        ([("cnot", 0, 1), ("rz", 0, 0.7), ("cnot", 0, 1)], 0),  # RZ on the control
        ([("cnot", 0, 1), ("rz", 1, 0.7), ("cnot", 1, 0)], 0),  # second CNOT reversed
        ([("cnot", 0, 1), ("rz", 1, 0.7), ("cnot", 2, 1)], 0),  # second CNOT from another control
    ])
    def test_only_cnot_rz_cnot_on_one_pair_is_fused(self, gates, fused, monkeypatch):
        # a broken pattern runs gate by gate; every case equals the dense product
        calls = []
        phase, gate = kernels._zz_phase, kernels._gate
        monkeypatch.setattr(kernels, "_zz_phase", lambda *a: calls.append("phase") or phase(*a))
        monkeypatch.setattr(kernels, "_gate", lambda *a: calls.append("gate") or gate(*a))
        circ = Circuit(3)
        circ.rx(0, 0.3).rx(1, -1.1).rx(2, 0.4)
        for name, *args in gates:
            getattr(circ, name)(*args)
        np.testing.assert_allclose(
            circuit_unitary(circ), naive_circuit_unitary(circ), rtol=0, atol=1e-12
        )
        assert calls.count("phase") == fused
        assert calls.count("gate") == 3 + 3 * (1 - fused)

    def test_dense_bound(self):
        with pytest.raises(ValueError):
            circuit_unitary(Circuit(13))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_naive_kron_product(self, seed):
        circ = random_circuit(4, 60, seed)
        np.testing.assert_allclose(
            circuit_unitary(circ), naive_circuit_unitary(circ), atol=1e-10
        )

    @pytest.mark.parametrize("seed", [10, 11, 12, 13])
    def test_round_trip_execution_vs_matrix(self, seed):
        # gate-by-gate execution equals one dense matrix product
        circ = random_circuit(6, 200, seed)
        rng = np.random.default_rng(seed + 100)
        raw = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        raw /= np.linalg.norm(raw)
        state = execute(circ, raw.copy())
        expected = circuit_unitary(circ) @ raw
        assert np.linalg.norm(state - expected) <= 1e-10

    def test_composition(self):
        c1 = random_circuit(3, 40, 5)
        c2 = random_circuit(3, 40, 6)
        combined = Circuit(3).extend(c1).extend(c2)
        np.testing.assert_allclose(
            circuit_unitary(combined),
            circuit_unitary(c2) @ circuit_unitary(c1),
            atol=1e-10,
        )


class TestGateCounts:
    def test_first_order_step_n5(self):
        counts = gate_counts(first_order_step(TfimParams(n_spins=5)))
        assert counts["total"] == {"RX": 5, "RZ": 4, "CNOT": 8}
        assert counts["n_gates"] == 17

    def test_symmetric_step_n5(self):
        counts = gate_counts(symmetric_step(TfimParams(n_spins=5)))
        assert counts["total"] == {"RX": 10, "RZ": 6, "CNOT": 12}
        assert counts["n_gates"] == 28

    def test_empty(self):
        counts = gate_counts(Circuit(3))
        assert counts["total"] == {"RX": 0, "RZ": 0, "CNOT": 0}
        assert counts["per_step"] == []

    def test_per_step_sums_to_total(self):
        circ = first_order_step(TfimParams(n_spins=5))
        circ.extend(first_order_step(TfimParams(n_spins=5)))
        counts = gate_counts(circ)
        assert len(counts["per_step"]) == 2
        for kind in ("RX", "RZ", "CNOT"):
            assert sum(s[kind] for s in counts["per_step"]) == counts["total"][kind]

    def test_trailing_gates_count_in_total_only_in_kind_order(self):
        circ = Circuit(3)
        circ.cnot(0, 1).rx(2, 0.1).mark_step()
        circ.rz(1, 0.2).rz(0, 0.3).mark_step()
        circ.rx(0, 0.4)
        counts = gate_counts(circ)
        assert list(counts) == ["total", "per_step", "n_gates"]
        assert list(counts["total"].items()) == [("RX", 2), ("RZ", 2), ("CNOT", 1)]
        assert counts["per_step"] == [{"RX": 1, "RZ": 0, "CNOT": 1},
                                      {"RX": 0, "RZ": 2, "CNOT": 0}]
        assert all(list(step) == ["RX", "RZ", "CNOT"] for step in counts["per_step"])
        assert counts["n_gates"] == 5


class TestEncode:
    def test_fields_and_dtypes(self):
        circ = Circuit(3)
        circ.rx(2, -0.7).cnot(0, 1).mark_step().rz(1, 1e-300).mark_step()
        kinds, qa, qb, theta, marks = encode(circ)
        assert [a.dtype for a in (kinds, qa, qb, theta, marks)] == [
            np.int8, np.int64, np.int64, np.float64, np.int64]
        assert kinds.tolist() == [0, 2, 1]
        assert qa.tolist() == [2, 0, 1]
        assert qb.tolist() == [-1, 1, -1]
        assert theta.tolist() == [-0.7, 0.0, 1e-300]
        assert marks.tolist() == [2, 3]

    def test_empty(self):
        encoded = encode(Circuit(2))
        assert [a.shape for a in encoded] == [(0,)] * 5
        assert [a.dtype for a in encoded] == [np.int8, np.int64, np.int64, np.float64, np.int64]
