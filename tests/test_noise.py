"""Stochastic Pauli fault channel and classical readout errors."""

import numpy as np
import pytest

from trotterbench import (
    NoiseParams,
    RunConfig,
    TfimParams,
    TrotterOrder,
    all_down_state,
    build_evolution_circuit,
    init_basis_state,
    noisy_execute,
    run_command,
)
from trotterbench.circuit import Circuit, cnot, encode, rx
from trotterbench.kernels import run_gates_record
from trotterbench.noise import TRAJECTORY_BLOCK, apply_readout_to_expectations

from oracles import PAULIS, gate_full_matrix, kron_at, two_qubit_pauli


class TestNoiseParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseParams(p1=-0.1)
        with pytest.raises(ValueError):
            NoiseParams(p2=1.5)

    def test_zero_is_identity_flag(self):
        assert NoiseParams().is_zero()
        assert not NoiseParams(read01=0.01).is_zero()


class TestNoisyExecute:
    def test_zero_noise_equals_ideal_bit_exact(self):
        params = TfimParams(n_spins=5, field=1.0, dt=0.2)
        circ = build_evolution_circuit(params, 10, TrotterOrder.SYMMETRIC)
        noisy = noisy_execute(circ, all_down_state(5), NoiseParams(), 3, 42)
        kinds, qa, qb, theta, marks = encode(circ)
        ideal = np.empty((len(marks), 5))
        run_gates_record(all_down_state(5).amps, 5, kinds, qa, qb, theta, marks, ideal)
        np.testing.assert_array_equal(noisy, ideal)

    def test_determinism(self):
        params = TfimParams(n_spins=4, field=1.0)
        circ = build_evolution_circuit(params, 5, TrotterOrder.FIRST)
        noise = NoiseParams(p1=0.01, p2=0.05)
        a = noisy_execute(circ, all_down_state(4), noise, 20, 7)
        b = noisy_execute(circ, all_down_state(4), noise, 20, 7)
        np.testing.assert_array_equal(a, b)

    def test_certain_cnot_fault_matches_branch_enumeration(self):
        # one CNOT on |00>, fault probability 1: the trajectory average must
        # converge on the uniform mean over the 15 non-identity Pauli branches
        circ = Circuit(2)
        circ.append(cnot(0, 1)).mark_step()
        psi = np.zeros(4, dtype=complex)
        psi[0] = 1.0  # CNOT leaves |00> unchanged
        branch_sum = np.zeros(2)
        for a in range(4):
            for b in range(4):
                if a == 0 and b == 0:
                    continue
                faulted = two_qubit_pauli(a, b, 0, 1, 2) @ psi
                probs = np.abs(faulted) ** 2
                idx = np.arange(4)
                for j in range(2):
                    branch_sum[j] += probs @ (1.0 - 2.0 * ((idx >> j) & 1))
        expected = branch_sum / 15.0
        np.testing.assert_allclose(expected, [-1 / 15, -1 / 15], atol=1e-12)

        trajectories = 60_000
        noise = NoiseParams(p2=1.0)
        avg = noisy_execute(circ, init_basis_state(2, [0, 0]), noise,
                            trajectories, 31)[0]
        sigma = np.sqrt((1 - expected**2) / trajectories)
        assert np.all(np.abs(avg - expected) <= 5 * sigma)

    def test_partial_fault_probability_weighting(self):
        # p2 = 0.4 mixes the ideal branch with the fault average
        circ = Circuit(2)
        circ.append(cnot(0, 1)).mark_step()
        p2 = 0.4
        expected = (1 - p2) * np.array([1.0, 1.0]) + p2 * np.array([-1 / 15, -1 / 15])
        avg = noisy_execute(circ, init_basis_state(2, [0, 0]),
                            NoiseParams(p2=p2), 60_000, 5)[0]
        assert np.all(np.abs(avg - expected) <= 0.02)

    def test_single_qubit_fault_on_rotation(self):
        # identity RX on |0> with p1 = 1: X and Y branches give <sz> = -1,
        # the Z branch +1, so the uniform average is -1/3
        circ = Circuit(1)
        circ.append(rx(0, 0.0)).mark_step()
        avg = noisy_execute(circ, init_basis_state(1, [0]),
                            NoiseParams(p1=1.0), 60_000, 9)[0]
        assert abs(avg[0] - (-1 / 3)) <= 0.02

    def test_matches_dense_replay_of_each_trajectory(self):
        # every trajectory's faults are redrawn from its own (seed, t) stream
        # and applied with dense matrices; T crosses a block boundary, so a
        # fault on the wrong qubit or Pauli, a gate's faults on the wrong
        # rows, or a block that drops or repeats a trajectory moves the mean
        # far beyond 1e-12
        params = TfimParams(n_spins=3, field=1.5, dt=0.3)
        circ = build_evolution_circuit(params, 3, TrotterOrder.SYMMETRIC, periodic=True)
        noise = NoiseParams(p1=0.5, p2=0.5)
        trajectories, seed, n = TRAJECTORY_BLOCK + 3, 17, 3
        psi0 = all_down_state(n).amps
        gates = [gate_full_matrix(g, n) for g in circ.gates]
        idx = np.arange(2**n)
        signs = np.stack([1.0 - 2.0 * ((idx >> j) & 1) for j in range(n)], axis=1)
        total = np.zeros((circ.n_steps(), n))
        for t in range(trajectories):
            rng = np.random.default_rng((seed, t))
            u = rng.random(len(circ))
            choice = rng.random(len(circ))
            psi, rows = psi0, []
            for i, (g, m) in enumerate(zip(circ.gates, gates)):
                psi = m @ psi
                if g.name == "CNOT" and u[i] < noise.p2:
                    f = int(choice[i] * 15.0) + 1
                    psi = two_qubit_pauli(f >> 2, f & 3, g.q0, g.q1, n) @ psi
                elif g.name != "CNOT" and u[i] < noise.p1:
                    psi = kron_at(PAULIS[int(choice[i] * 3.0) + 1], g.q0, n) @ psi
                if i + 1 in circ.step_marks:
                    rows.append(np.abs(psi) ** 2 @ signs)
            total += np.array(rows)
        got = noisy_execute(circ, all_down_state(n), noise, trajectories, seed)
        np.testing.assert_allclose(got, total / trajectories, rtol=0, atol=1e-12)

    def test_invalid_trajectories(self):
        circ = Circuit(2)
        circ.append(cnot(0, 1)).mark_step()
        with pytest.raises(ValueError):
            noisy_execute(circ, all_down_state(2), NoiseParams(), 0, 1)


class TestReadoutError:
    def test_expectation_map(self):
        noise = NoiseParams(read01=0.02, read10=0.02)
        np.testing.assert_allclose(
            apply_readout_to_expectations(np.array([1.0, -1.0, 0.0]), noise),
            [0.96, -0.96, 0.0],
        )
        asym = NoiseParams(read01=0.1, read10=0.0)
        # M' = M (1 - r01 - r10) + (r10 - r01)
        np.testing.assert_allclose(
            apply_readout_to_expectations(np.array([0.5]), asym), [0.35]
        )


class TestChannelProperties:
    def test_rmse_degrades_monotonically_in_p2(self):
        means = []
        for p2 in (0.0, 0.01, 0.02, 0.04):
            vals = []
            for seed in range(20):
                cfg = RunConfig().replace(mode="noisy", traj=128, seed=seed, p2=p2)
                vals.append(run_command(cfg, write=False).errors.rmse_local)
            means.append(float(np.mean(vals)))
        assert all(b >= a for a, b in zip(means, means[1:]))

    def test_trajectory_average_converges_as_inverse_sqrt(self):
        params = TfimParams(n_spins=5, field=1.0, dt=0.2)
        circ = build_evolution_circuit(params, 10, TrotterOrder.FIRST)
        noise = NoiseParams(p1=0.01, p2=0.05)
        sizes = (25, 100, 400)
        spreads = []
        for t in sizes:
            finals = [
                noisy_execute(circ, all_down_state(5), noise, t, 1000 + r)[-1].mean()
                for r in range(100)
            ]
            spreads.append(float(np.std(finals)))
        slope = np.polyfit(np.log(sizes), np.log(spreads), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.15)
