"""Stochastic Pauli fault channel and classical readout errors."""

import numpy as np
import pytest

from trotterbench import (
    NoiseParams,
    RunConfig,
    TfimParams,
    all_down_state,
    build_evolution_circuit,
    init_basis_state,
    noisy_execute,
    run_command,
)
from trotterbench.circuit import KIND_CNOT, Circuit, encode
from trotterbench.cli import main
from trotterbench.kernels import run_gates_noisy, run_gates_record
from trotterbench import kernels
from trotterbench import noise as noise_module
from trotterbench.noise import (
    DEVICE_LIKE,
    TRAJECTORY_BLOCK,
    _fault_codes,
    _seed_words,
    apply_readout_to_expectations,
)

from oracles import (
    PAULIS,
    fault_codes_per_trajectory,
    gate_full_matrix,
    gate_rows,
    kron_at,
    two_qubit_pauli,
)


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
        circ = build_evolution_circuit(params, 10, "sym2")
        noisy = noisy_execute(circ, all_down_state(5), NoiseParams(), 3, 42)
        kinds, qa, qb, theta, marks = encode(circ)
        ideal = np.empty((len(marks), 5))
        run_gates_record(all_down_state(5), 5, kinds, qa, qb, theta, marks, ideal)
        np.testing.assert_array_equal(noisy, ideal)

    def test_determinism(self):
        params = TfimParams(n_spins=4, field=1.0)
        circ = build_evolution_circuit(params, 5, "first")
        noise = NoiseParams(p1=0.01, p2=0.05)
        a = noisy_execute(circ, all_down_state(4), noise, 20, 7)
        b = noisy_execute(circ, all_down_state(4), noise, 20, 7)
        np.testing.assert_array_equal(a, b)

    def test_certain_cnot_fault_matches_branch_enumeration(self):
        # one CNOT on |00>, fault probability 1: the trajectory average must
        # converge on the uniform mean over the 15 non-identity Pauli branches
        circ = Circuit(2)
        circ.cnot(0, 1).mark_step()
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
        circ.cnot(0, 1).mark_step()
        p2 = 0.4
        expected = (1 - p2) * np.array([1.0, 1.0]) + p2 * np.array([-1 / 15, -1 / 15])
        avg = noisy_execute(circ, init_basis_state(2, [0, 0]),
                            NoiseParams(p2=p2), 60_000, 5)[0]
        assert np.all(np.abs(avg - expected) <= 0.02)

    def test_single_qubit_fault_on_rotation(self):
        # identity RX on |0> with p1 = 1: X and Y branches give <sz> = -1,
        # the Z branch +1, so the uniform average is -1/3
        circ = Circuit(1)
        circ.rx(0, 0.0).mark_step()
        avg = noisy_execute(circ, init_basis_state(1, [0]),
                            NoiseParams(p1=1.0), 60_000, 9)[0]
        assert abs(avg[0] - (-1 / 3)) <= 0.02

    def test_matches_dense_replay_of_each_trajectory(self):
        # every trajectory's faults are redrawn from its own (seed, t) stream
        # and applied with dense matrices; T crosses a block boundary, so a
        # fault on the wrong qubit or Pauli, a gate's faults on the wrong
        # rows, or a block that drops or repeats a trajectory moves the mean
        # far beyond 1e-12
        params = TfimParams(n_spins=3, field=1.5, dt=0.3, periodic=True)
        circ = build_evolution_circuit(params, 3, "sym2")
        noise = NoiseParams(p1=0.5, p2=0.5)
        trajectories, seed, n = TRAJECTORY_BLOCK + 3, 17, 3
        psi0 = all_down_state(n)
        rows = gate_rows(circ)
        gates = [gate_full_matrix(*row, n) for row in rows]
        idx = np.arange(2**n)
        signs = np.stack([1.0 - 2.0 * ((idx >> j) & 1) for j in range(n)], axis=1)
        total = np.zeros((circ.n_steps(), n))
        for t in range(trajectories):
            rng = np.random.default_rng((seed, t))
            u = rng.random(len(circ))
            choice = rng.random(len(circ))
            psi, zs = psi0, []
            for i, ((kind, a, b, _), m) in enumerate(zip(rows, gates)):
                psi = m @ psi
                if kind == KIND_CNOT and u[i] < noise.p2:
                    f = int(choice[i] * 15.0) + 1
                    psi = two_qubit_pauli(f >> 2, f & 3, a, b, n) @ psi
                elif kind != KIND_CNOT and u[i] < noise.p1:
                    psi = kron_at(PAULIS[int(choice[i] * 3.0) + 1], a, n) @ psi
                if i + 1 in circ.step_marks:
                    zs.append(np.abs(psi) ** 2 @ signs)
            total += np.array(zs)
        got = noisy_execute(circ, all_down_state(n), noise, trajectories, seed)
        np.testing.assert_allclose(got, total / trajectories, rtol=0, atol=1e-12)

    def test_each_fault_slot_matches_dense_replay_amplitudes(self):
        # one column per (gate, Pauli) with that single fault, then columns
        # with random faults on every gate; the final amplitudes, phases
        # included, must equal dense replay, so a fault inside a fused
        # CNOT-RZ-CNOT conjugated or placed wrongly shows here
        n = 3
        circ = Circuit(n)
        for q, theta in enumerate((0.3, -1.1, 0.4)):
            circ.rx(q, theta)
        for a, b, theta in ((0, 1, 0.7), (2, 0, -0.5)):  # (2, 0): a wrap bond
            circ.cnot(a, b).rz(b, theta).cnot(a, b)
        circ.rx(1, 0.9).mark_step()
        kinds, qa, qb, theta, marks = encode(circ)
        columns = [
            [code if j == i else 0 for j in range(len(circ))]
            for i, kind in enumerate(circ.kinds)
            for code in (range(1, 16) if kind == KIND_CNOT else (4, 8, 12))
        ]
        rng = np.random.default_rng(3)
        for _ in range(40):
            columns.append([int(rng.integers(1, 16)) if kind == KIND_CNOT
                            else 4 * int(rng.integers(0, 4)) for kind in circ.kinds])
        faults = np.array(columns, dtype=np.int8).T
        psi0 = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
        psi0 /= np.linalg.norm(psi0)
        amps = np.repeat(psi0[:, None], len(columns), axis=1)
        out = np.empty((len(columns), 1, n))
        run_gates_noisy(amps, n, kinds, qa, qb, theta, marks, faults, out)
        for col, codes in enumerate(columns):
            psi = psi0
            for (kind, a, b, t), code in zip(gate_rows(circ), codes):
                psi = gate_full_matrix(kind, a, b, t, n) @ psi
                if kind == KIND_CNOT:
                    psi = two_qubit_pauli(code >> 2, code & 3, a, b, n) @ psi
                else:
                    psi = kron_at(PAULIS[code >> 2], a, n) @ psi
            np.testing.assert_allclose(amps[:, col], psi, rtol=0, atol=1e-13)

    def test_invalid_trajectories(self):
        circ = Circuit(2)
        circ.cnot(0, 1).mark_step()
        with pytest.raises(ValueError):
            noisy_execute(circ, all_down_state(2), NoiseParams(), 0, 1)

    @pytest.mark.parametrize("noise", [NoiseParams(), DEVICE_LIKE])
    @pytest.mark.parametrize("key, value", [
        ("trajectories", 2.5), ("trajectories", 2.0), ("trajectories", True),
        ("rng_seed", 1.5), ("rng_seed", True),
    ])
    def test_counts_that_are_not_an_integer_are_refused_by_name(self, noise, key, value):
        # a float raised a TypeError from range() or operator.index, and
        # the zero-noise path took any rng_seed
        circ = Circuit(2)
        circ.cnot(0, 1).mark_step()
        args = {"trajectories": 4, "rng_seed": 1, key: value}
        with pytest.raises(ValueError, match=f"^{key} must be an integer, got {value!r}$"):
            noisy_execute(circ, all_down_state(2), noise, **args)

    @pytest.mark.parametrize("noise", [NoiseParams(), DEVICE_LIKE])
    def test_negative_seed_is_refused_whatever_the_noise(self, noise):
        # the zero-noise path draws nothing, and took a negative rng_seed
        circ = Circuit(2)
        circ.cnot(0, 1).mark_step()
        with pytest.raises(ValueError, match="^rng_seed must be >= 0, got -1$"):
            noisy_execute(circ, all_down_state(2), noise, 4, -1)

    @pytest.mark.parametrize("initial, message", [
        (np.array([0.0, 0.0, 0.0, 1.0]), "complex128"),
        (all_down_state(3), "widths differ"),
        (np.repeat(all_down_state(2)[:, None], 2, axis=1), "shape"),
    ])
    def test_invalid_initial_state(self, initial, message):
        circ = Circuit(2)
        circ.cnot(0, 1).mark_step()
        for noise in (NoiseParams(), DEVICE_LIKE):
            with pytest.raises(ValueError, match=message):
                noisy_execute(circ, initial, noise, 4, 1)

    def test_initial_state_is_left_as_it_is(self):
        circ = build_evolution_circuit(TfimParams(n_spins=3), 2, "first")
        initial = all_down_state(3)
        for noise in (NoiseParams(), DEVICE_LIKE):
            noisy_execute(circ, initial, noise, 4, 1)
            np.testing.assert_array_equal(initial, all_down_state(3))

    @pytest.mark.parametrize("periodic", [False, True])
    def test_each_fault_table_is_built_once_per_block(self, periodic, monkeypatch):
        # at N = 10 a block reads 4N - 3 (open) or 4N (periodic) tables,
        # more than a process-wide cache of 32 would keep across one step
        calls = []

        def counted(*key):
            calls.append(key)
            return table(*key)

        table = kernels._pauli_table
        monkeypatch.setattr(kernels, "_pauli_table", counted)
        params = TfimParams(n_spins=10, field=2.0, periodic=periodic)
        circ = build_evolution_circuit(params, 3, "first")
        noisy_execute(circ, all_down_state(10), NoiseParams(p1=0.05, p2=0.2), 64, 3)
        assert len(set(calls)) == (40 if periodic else 37)
        assert len(calls) == len(set(calls))

    @pytest.mark.parametrize("noise", [NoiseParams(), DEVICE_LIKE], ids=["zero", "device"])
    def test_g_block_equals_one_call_per_circuit(self, noise):
        circuits = [build_evolution_circuit(TfimParams(n_spins=4, field=g), 5, "sym2")
                    for g in (0.5, 1.5, 2.5)]
        together = noisy_execute(circuits, all_down_state(4), noise, 300, 9)
        assert together.shape == (3, 5, 4)
        for got, circ in zip(together, circuits):
            alone = noisy_execute(circ, all_down_state(4), noise, 300, 9)
            assert got.tobytes() == alone.tobytes()

    @pytest.mark.parametrize("other", [
        build_evolution_circuit(TfimParams(n_spins=3), 2, "sym2"),
        build_evolution_circuit(TfimParams(n_spins=3), 3, "first"),
        build_evolution_circuit(TfimParams(n_spins=4), 2, "first"),
    ], ids=["order", "steps", "width"])
    def test_circuits_with_other_gate_lists_are_refused(self, other):
        circ = build_evolution_circuit(TfimParams(n_spins=3), 2, "first")
        with pytest.raises(ValueError, match="one gate list"):
            noisy_execute([circ, other], all_down_state(3), DEVICE_LIKE, 4, 1)
        with pytest.raises(ValueError, match="nonempty"):
            noisy_execute([], all_down_state(3), DEVICE_LIKE, 4, 1)

    def test_noisy_compare_draws_each_block_once_for_every_g(self, tmp_path, monkeypatch):
        # 300 trajectories are 2 blocks; compare runs 2 orders, each a block of 3 g
        calls = []

        def counted(*args):
            calls.append(args[3])
            return draw(*args)

        draw = noise_module._fault_codes
        monkeypatch.setattr(noise_module, "_fault_codes", counted)
        assert main(["compare", "--g-list", "1,2,3", "--mode", "noisy", "--traj", "300",
                     "--out", str(tmp_path)]) == 0
        assert calls == [range(0, 256), range(256, 300)] * 2


class TestFaultStreams:
    """Every block's fault codes are those of the per-trajectory streams
    np.random.default_rng((seed, t)), drawn with the SeedSequence hash of
    the whole block precomputed."""

    @pytest.mark.parametrize("seed", [0, 3, 2**32, 2**64 + 7, 2**200 + 12345])
    @pytest.mark.parametrize("block", [range(0, 256), range(256, 300), range(5, 6),
                                       range(2**32 - 3, 2**32)])
    def test_seed_words_are_seed_sequence_state(self, seed, block):
        words = _seed_words(seed, block)
        expected = np.array([np.random.SeedSequence((seed, t)).generate_state(4, np.uint64)
                             for t in block])
        assert words.dtype == np.uint64
        assert words.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("noise", [NoiseParams(), DEVICE_LIKE, NoiseParams(p1=1.0, p2=1.0)],
                             ids=["zero", "device", "one"])
    @pytest.mark.parametrize("n_gates", [1, 2, 3, 340, 513, 560])
    def test_codes_equal_per_trajectory_streams(self, noise, n_gates):
        # at p = 1 every gate draws a choice; 2, 3 and 513 = 2^9 + 1 states
        # end in a truncated doubling round
        if n_gates in (340, 560):
            order = "first" if n_gates == 340 else "sym2"
            circ = build_evolution_circuit(TfimParams(n_spins=5, field=2.0), 20, order)
            kinds = encode(circ)[0]
        else:
            kinds = np.resize(np.array([2, 0, 1], dtype=np.int8), n_gates)
        assert len(kinds) == n_gates
        for seed, block in ((3, range(0, 256)), (2**70, range(256, 300))):
            got = _fault_codes(kinds, noise, seed, block)
            expected = fault_codes_per_trajectory(kinds, noise.p1, noise.p2, seed, block)
            assert got.dtype == np.int8
            assert got.tobytes() == expected.tobytes()

    def test_single_rotation_codes(self):
        kinds = np.array([0], dtype=np.int8)
        got = _fault_codes(kinds, NoiseParams(p1=1.0), 9, range(40))
        np.testing.assert_array_equal(got, fault_codes_per_trajectory(kinds, 1.0, 0.0, 9, range(40)))
        assert set(got.ravel().tolist()) == {4, 8, 12}

    def test_negative_seed_is_refused_like_seed_sequence(self):
        with pytest.raises(ValueError):
            np.random.SeedSequence((-1, 0))
        with pytest.raises(ValueError):
            _seed_words(-1, range(3))
        with pytest.raises(ValueError):
            _seed_words(-(2**40), range(3))

    def test_trajectory_index_beyond_one_word_is_refused_before_any_draw(self, monkeypatch):
        with pytest.raises(ValueError):
            _seed_words(3, range(2**32 - 1, 2**32 + 1))

        def draw(*args):
            raise AssertionError("drew faults before refusing the trajectory count")

        monkeypatch.setattr(noise_module, "_fault_codes", draw)
        circ = Circuit(2)
        circ.cnot(0, 1).mark_step()
        with pytest.raises(ValueError, match=r"2\*\*32"):
            noisy_execute(circ, all_down_state(2), DEVICE_LIKE, 2**32 + 1, 3)


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
                vals.append(run_command(cfg).errors.rmse_local)
            means.append(float(np.mean(vals)))
        assert all(b >= a for a, b in zip(means, means[1:]))

    def test_trajectory_average_converges_as_inverse_sqrt(self):
        params = TfimParams(n_spins=5, field=1.0, dt=0.2)
        circ = build_evolution_circuit(params, 10, "first")
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
