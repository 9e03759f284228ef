"""A g-list runs as one block: `sweep` and `compare` evolve every g as a
column of one (2^n, G) amplitude array, and the open chain's exact series
of every g comes from one Pfaffian pass. Each column must give the bytes
of the one-g run, and a return to per-g loops must show in the call counts.
"""

import numpy as np
import pytest

from trotterbench import RunConfig, compare_command, exact, fermion, runner, sweep_command
from trotterbench.circuit import encode
from trotterbench.kernels import run_gates, run_gates_record
from trotterbench.observables import local_magnetization_from_counts
from trotterbench.statevector import all_down_state, sample_bitstrings, z_expectations
from trotterbench.trotter import TfimParams, build_evolution_circuit

SIZES = (2, 3, 5, 9, 10)
COUPLINGS = (1.0, -0.7)
# 0, negative values, a repeated value; and a single g
G_LISTS = ((0.0, -1.3, 2.5, 1.0, 2.5), (1.7,))


def _one_state_local(config: RunConfig) -> np.ndarray:
    """The loop the block replaced: one (2^n,) state and one angle per
    gate, a fresh generator (seed, k) per step in shots mode."""
    circuit = build_evolution_circuit(config.tfim, config.steps, config.order)
    kinds, qa, qb, theta, marks = encode(circuit)
    state = all_down_state(config.n)
    local = np.empty((config.steps + 1, config.n))
    if config.mode == "ideal":
        local[0] = z_expectations(state)
        run_gates_record(state, config.n, kinds, qa, qb, theta, marks, local[1:])
        return local
    local[0] = local_magnetization_from_counts(
        sample_bitstrings(state, config.shots, (config.seed, 0)))
    prev = 0
    for k, mark in enumerate(marks, start=1):
        run_gates(state, config.n, kinds[prev:mark], qa[prev:mark], qb[prev:mark],
                  theta[prev:mark])
        local[k] = local_magnetization_from_counts(
            sample_bitstrings(state, config.shots, (config.seed, k)))
        prev = mark
    return local


def _block_local(configs: list[RunConfig]) -> np.ndarray:
    circuits = [build_evolution_circuit(c.tfim, c.steps, c.order) for c in configs]
    return runner._simulate_local(configs, circuits)


@pytest.mark.parametrize("order", ["first", "sym2"])
@pytest.mark.parametrize("periodic", [False, True])
@pytest.mark.parametrize("mode", ["ideal", "shots"])
def test_each_column_is_the_one_g_run_bit_for_bit(mode, periodic, order):
    for n in SIZES:
        for coupling in COUPLINGS:
            base = RunConfig().replace(n=n, j=coupling, steps=3, mode=mode, order=order,
                                       periodic=periodic,
                                       **({"shots": 64, "seed": 5} if mode == "shots" else {}))
            for g_list in G_LISTS:
                configs = [base.replace(g=g) for g in g_list]
                block = _block_local(configs)
                for config, column in zip(configs, block):
                    msg = f"n={n} J={coupling} g={config.g}"
                    assert column.tobytes() == _one_state_local(config).tobytes(), msg
                    assert column.tobytes() == _block_local([config])[0].tobytes(), msg


@pytest.mark.parametrize("mode", ["ideal", "shots"])
@pytest.mark.parametrize("periodic", [False, True])
def test_sweep_results_are_the_one_config_runs(mode, periodic):
    base = RunConfig().replace(n=5, j=-0.7, steps=4, mode=mode, periodic=periodic,
                               order="sym2",
                               **({"shots": 64, "seed": 3} if mode == "shots" else {}))
    g_list = G_LISTS[0]
    swept = sweep_command(base, g_list)
    for g, result in zip(g_list, swept):
        single = runner.run_command(base.replace(g=g))
        assert result.sim.local.tobytes() == single.sim.local.tobytes(), g
        assert result.exact.local.tobytes() == single.exact.local.tobytes(), g
        assert result.errors.rmse_local == single.errors.rmse_local
        assert result.errors.rmse_total == single.errors.rmse_total
        assert result.counts == single.counts


@pytest.mark.parametrize("mode", ["ideal", "shots", "noisy"])
@pytest.mark.parametrize("periodic", [False, True])
@pytest.mark.parametrize("order", ["first", "sym2"])
def test_every_result_of_a_block_reports_its_single_runs_counts(mode, periodic, order):
    # a block tallies its one gate list once and hands it to every result
    extra = {"shots": {"shots": 16, "seed": 3},
             "noisy": {"traj": 4, "p2": 0.05, "seed": 3}}.get(mode, {})
    base = RunConfig().replace(n=4, steps=3, mode=mode, periodic=periodic, order=order,
                               **extra)
    single = runner.run_command(base.replace(g=0.5)).counts
    assert single["n_gates"] > 0 and len(single["per_step"]) == 3
    for result in sweep_command(base, G_LISTS[0]):
        assert result.counts == single, result.config.g


def test_block_refuses_other_angles_than_rx_per_column():
    # a J (or dt) per column would need one ZZ phase per column
    circuits = [build_evolution_circuit(TfimParams(n_spins=3, coupling=j), 2, "first")
                for j in (1.0, 2.0)]
    kinds, qa, qb, _, marks = encode(circuits[0])
    theta = np.column_stack([encode(c)[3] for c in circuits])
    amps = np.repeat(all_down_state(3)[:, None], 2, axis=1)
    with pytest.raises(ValueError, match="only RX angles"):
        run_gates(amps, 3, kinds, qa, qb, theta)
    with pytest.raises(ValueError, match="columns"):
        run_gates(amps, 3, kinds, qa, qb, np.column_stack([theta, theta]))


def test_batched_open_chain_series_is_the_per_g_series_bit_for_bit():
    times = 0.2 * np.arange(21)
    for n in range(2, 21):
        for coupling in COUPLINGS:
            params = [TfimParams(n_spins=n, coupling=coupling, field=g) for g in G_LISTS[0]]
            batched = fermion.z_series(params, times)
            series = exact.exact_series(params, times)
            for p, local, one in zip(params, batched, series):
                single = fermion.z_series([p], times)[0]
                msg = f"n={n} J={coupling} g={p.field}"
                assert local.tobytes() == single.tobytes(), msg
                assert one.local.tobytes() == np.clip(single, -1.0, 1.0).tobytes(), msg


@pytest.mark.parametrize("periodic", [False, True])
def test_series_pass_refuses_chains_of_different_lengths(periodic):
    # the periodic pass raised numpy's unnamed "all input arrays must have the same shape"
    params = [TfimParams(n_spins=3, periodic=periodic), TfimParams(n_spins=4, periodic=periodic)]
    message = "^every chain of one series pass must have the same length$"
    with pytest.raises(ValueError, match=message):
        exact.exact_series(params, np.zeros(1))


class TestOneBlockPerList:
    """Call counts: a g-list must not fall back to one run per g."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"run_gates": 0, "run_gates_record": 0, "sample_bitstrings": 0, "z_series": 0,
                  "gate_counts": 0}

        def counting(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        for name in ("run_gates", "run_gates_record", "sample_bitstrings", "gate_counts"):
            counting(runner, name)
        counting(fermion, "z_series")
        return counts

    def test_compare_runs_one_block_per_order_and_one_series_pass(self, calls):
        compare_command(RunConfig(), [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        # both orders compare with the same exact series
        assert calls == {"run_gates": 0, "run_gates_record": 2, "sample_bitstrings": 0,
                         "z_series": 1, "gate_counts": 2}

    @pytest.mark.parametrize("g_count", [1, 6])
    def test_shots_sweep_runs_each_step_once_whatever_the_g_count(self, calls, g_count):
        base = RunConfig().replace(mode="shots", shots=64, steps=7)
        sweep_command(base, [1.0 + g for g in range(g_count)])
        assert calls == {"run_gates": 7, "run_gates_record": 0, "sample_bitstrings": 8,
                         "z_series": 1, "gate_counts": 1}
