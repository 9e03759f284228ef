"""Run orchestration, file output determinism, and the CLI contract."""

import ast
import dataclasses
import errno
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import trotterbench
from trotterbench import (
    DEVICE_LIKE,
    NoiseParams,
    RunConfig,
    active_backend,
    cli,
    compare_command,
    exact,
    run_command,
    runner,
    scaling_command,
    sweep_command,
)
from trotterbench.cli import build_parser, main

from oracles import naive_step_errors, per_cell_run_rows


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.tfim.n_spins == 5
        assert cfg.tfim.dt == 0.2
        assert cfg.steps == 20
        assert cfg.shots == 1024

    def test_round_trip(self):
        cfg = RunConfig().replace(g=3.0, mode="noisy", traj=64, p2=0.05, seed=9)
        assert RunConfig.from_dict(cfg.to_dict()) == cfg

    def test_config_keys_are_the_dict_keys(self):
        assert tuple(RunConfig().to_dict()) == runner.CONFIG_KEYS

    def test_rejects_unknown_keys(self):
        with pytest.raises(ValueError):
            RunConfig.from_dict({"banana": 1})

    def test_validation(self):
        with pytest.raises(ValueError):
            RunConfig().replace(steps=0)
        with pytest.raises(ValueError):
            RunConfig().replace(mode="magic")
        with pytest.raises(ValueError):
            RunConfig().replace(seed=-1)
        with pytest.raises(ValueError, match="12"):
            RunConfig().replace(n=13)

    def test_values_are_converted_to_the_field_types(self):
        cfg = RunConfig(n=4.0, g=2, order="sym2")
        assert type(cfg.n) is int and cfg.n == 4
        assert type(cfg.g) is float and cfg.g == 2.0
        assert cfg.order == "sym2"
        assert cfg.to_dict()["order"] == "sym2"

    @pytest.mark.parametrize("key, value", [
        ("periodic", "false"), ("periodic", 1), ("n", 3.7), ("n", True),
        ("seed", None), ("g", True), ("g", "2"), ("order", 2), ("out", 5),
    ])
    def test_refuses_a_value_the_conversion_would_change(self, key, value):
        with pytest.raises(ValueError, match=key):
            RunConfig(**{key: value})

    def test_missing_keys_take_the_field_defaults(self):
        assert RunConfig.from_dict({}) == RunConfig()
        assert RunConfig.from_dict({"g": 2}) == RunConfig().replace(g=2.0)

    @pytest.mark.parametrize("mode", ["ideal", "shots"])
    def test_noise_refused_outside_noisy_mode(self, mode):
        for key in ("p1", "p2", "read01", "read10"):
            with pytest.raises(ValueError, match="noisy"):
                RunConfig().replace(mode=mode, **{key: 0.1})
        # zero rates are the noiseless channel the mode runs anyway
        assert RunConfig().replace(mode=mode, p1=0.0).noise.is_zero()

    @pytest.mark.parametrize("mode, values, key", [
        ("ideal", {"shots": 64, "traj": 9}, "shots"),
        ("ideal", {"traj": 9}, "traj"),
        ("noisy", {"shots": 64}, "shots"),
        ("shots", {"traj": 9}, "traj"),
        ("ideal", {"seed": 5}, "seed"),
    ])
    def test_mode_key_refused_outside_its_mode_with_the_cli_message(
        self, mode, values, key, capsys
    ):
        with pytest.raises(ValueError) as refused:
            RunConfig(mode=mode, **values)
        assert main(["run", "--mode", mode, f"--{key}", str(values[key])]) == 2
        assert capsys.readouterr().err == f"error: {refused.value}\n"
        assert str(refused.value).startswith(f"{key} applies only in")

    @pytest.mark.parametrize("values", [
        {}, {"mode": "shots", "shots": 64}, {"mode": "noisy", "traj": 9, "p2": 0.1},
    ])
    def test_dict_round_trip_in_every_mode(self, values):
        # the defaults of the keys a mode ignores pass, as to_dict writes them
        cfg = RunConfig(**values)
        assert RunConfig.from_dict(cfg.to_dict()) == cfg


class TestRunCommand:
    def test_ideal_low_field_small_error(self):
        result = run_command(RunConfig())
        assert result.errors.rmse_local <= 0.05

    def test_zero_field_commuting_limit(self):
        for order in ("first", "sym2"):
            cfg = RunConfig().replace(g=0.0, order=order)
            assert run_command(cfg).errors.rmse_local <= 1e-9

    def test_series_grids_match_and_start_at_zero(self):
        result = run_command(RunConfig())
        assert result.sim.times[0] == 0.0
        assert result.sim.times.shape == (21,)
        np.testing.assert_allclose(result.sim.times, result.exact.times)
        assert result.errors.delta_local.shape == (20, 5)

    def test_shots_mode_estimates_track_exact(self):
        cfg = RunConfig().replace(mode="shots", seed=3)
        result = run_command(cfg)
        # 1024-shot noise on top of a small Trotter error stays modest
        assert result.errors.rmse_local <= 0.08

    def test_noisy_zero_noise_matches_ideal_exactly(self):
        ideal = run_command(RunConfig())
        cfg = RunConfig().replace(mode="noisy", traj=1, p1=0.0, p2=0.0,
                                  read01=0.0, read10=0.0)
        noisy = run_command(cfg)
        np.testing.assert_array_equal(noisy.sim.local, ideal.sim.local)

    def test_gate_counts_echoed(self):
        result = run_command(RunConfig())
        assert result.counts["total"] == {"RX": 100, "RZ": 80, "CNOT": 160}

    def test_circuit_built_once_per_run(self, monkeypatch):
        builds = []
        original = runner.build_evolution_circuit

        def counting(*args):
            builds.append(args)
            return original(*args)

        monkeypatch.setattr(runner, "build_evolution_circuit", counting)
        for mode in ("ideal", "shots", "noisy"):
            run_command(RunConfig().replace(n=3, steps=4, mode=mode,
                                            **({"traj": 4} if mode == "noisy" else {})))
        assert len(builds) == 3


class TestExactSolves:
    """The open chain's exact series needs no eigensolve. The periodic chain
    and `scaling` make two sector eigensolves of size 2^(n-1) per chain
    (n, J, g, periodic), whatever the order or dt."""

    @pytest.fixture
    def solves(self, monkeypatch):
        calls = []
        original = exact.spectrum

        def counting(h):
            calls.append(h.shape)
            return original(h)

        monkeypatch.setattr(exact, "spectrum", counting)
        return calls

    def test_compare_solves_once_per_g(self, solves):
        # a repeated g solves again: nothing is kept between chains
        for g_list in ([1.0, 2.0], [2.0, 2.0]):
            solves.clear()
            compare_command(RunConfig().replace(n=3, steps=4, periodic=True), g_list)
            assert solves == [(4, 4)] * 4, g_list

    def test_scaling_solves_once_for_every_dt(self, solves):
        scaling_command(RunConfig().replace(n=3, g=2.0),
                        [0.0125, 0.025, 0.05, 0.1, 0.2])
        assert solves == [(4, 4)] * 2

    def test_sweep_solves_once_per_g(self, solves):
        # one pair of solves per g
        sweep_command(RunConfig().replace(n=3, steps=4, periodic=True), [1.0, 2.0, 3.0])
        assert solves == [(4, 4)] * 6

    def test_open_chain_makes_no_solves(self, solves):
        compare_command(RunConfig().replace(n=3, steps=4), [1.0, 2.0])
        sweep_command(RunConfig().replace(n=3, steps=4), [1.0, 2.0, 3.0])
        assert solves == []


class TestOutputs:
    def test_files_written_and_deterministic(self, tmp_path):
        cfg = RunConfig().replace(mode="shots", seed=5, out=str(tmp_path))
        run_command(cfg)
        first = {
            name: (tmp_path / name).read_bytes()
            for name in ("series.csv", "totals.csv", "meta.json")
        }
        run_command(cfg)
        for name in ("series.csv", "totals.csv"):
            assert (tmp_path / name).read_bytes() == first[name]
        meta_a = json.loads(first["meta.json"])
        meta_b = json.loads((tmp_path / "meta.json").read_text())
        meta_a.pop("wall_time")
        meta_b.pop("wall_time")
        assert meta_a == meta_b

    def test_csv_headers(self, tmp_path):
        run_command(RunConfig().replace(out=str(tmp_path)))
        series = (tmp_path / "series.csv").read_text().splitlines()
        assert series[0] == "t,site,m_sim,m_exact,dm"
        assert len(series) == 1 + 21 * 5
        totals = (tmp_path / "totals.csv").read_text().splitlines()
        assert totals[0] == "t,m_total_sim,m_total_exact,dm_total"
        assert len(totals) == 1 + 21

    def test_meta_config_round_trip(self, tmp_path):
        cfg = RunConfig().replace(g=2.0, out=str(tmp_path))
        run_command(cfg)
        meta = json.loads((tmp_path / "meta.json").read_text())
        assert RunConfig.from_dict(meta["config"]) == cfg
        assert meta["tool"] == "trotterbench"
        assert "version" in meta
        assert meta["rmse"]["local"] >= 0

    @pytest.mark.parametrize("shape", ["n2_one_step", "ideal_block_member", "shots",
                                       "noisy", "zero_dm"])
    def test_csv_bytes_are_the_per_cell_rows(self, shape, tmp_path):
        small = RunConfig().replace(n=3, steps=3, j=-0.7)
        if shape == "n2_one_step":
            result = run_command(RunConfig().replace(n=2, steps=1))
        elif shape == "ideal_block_member":
            result = sweep_command(small, [0.5, 1.5, 2.5])[1]
        elif shape == "shots":
            result = run_command(small.replace(mode="shots", shots=64, seed=5))
        elif shape == "noisy":
            result = run_command(small.replace(mode="noisy", traj=16, p1=0.01, p2=0.05,
                                               read01=0.02, seed=2, periodic=True))
        else:  # a run whose simulated series is its exact series
            ran = run_command(small)
            result = dataclasses.replace(ran, sim=ran.exact)
            assert not (result.sim.local - result.exact.local).any()
        runner.write_run(result, tmp_path)
        series, totals = per_cell_run_rows(result)
        assert (tmp_path / "series.csv").read_text() == runner.csv_text(
            ["t", "site", "m_sim", "m_exact", "dm"], series)
        assert (tmp_path / "totals.csv").read_text() == runner.csv_text(
            ["t", "m_total_sim", "m_total_exact", "dm_total"], totals)

    def test_meta_rounds_each_float_of_the_config_to_12_digits(self, tmp_path):
        run_command(RunConfig().replace(n=3, steps=2, dt=0.1 + 0.2, g=1 / 3, out=str(tmp_path)))
        meta = json.loads((tmp_path / "meta.json").read_text())
        assert meta["config"]["dt"] == 0.3
        assert meta["config"]["g"] == 0.333333333333
        assert meta["config"]["n"] == 3 and meta["config"]["periodic"] is False
        assert meta["config"]["order"] == "first" and meta["config"]["out"] == str(tmp_path)
        assert all(isinstance(v, float) and v == float(f"{v:.12g}")
                   for v in meta["rmse"].values())


class TestSweepCompareScaling:
    def test_singleton_sweep_equals_run(self):
        swept = sweep_command(RunConfig(), [2.0])[0]
        single = run_command(RunConfig(g=2.0))
        assert swept.errors.rmse_local == single.errors.rmse_local

    # a base that differs from the defaults in the key, and in the mode that
    # reads it where only some modes do
    UNREAD_VALUES = {
        "g": {"g": 7.0}, "order": {"order": "sym2"}, "dt": {"dt": 0.3}, "steps": {"steps": 3},
        "mode": {"mode": "shots"}, "shots": {"mode": "shots", "shots": 8},
        "traj": {"mode": "noisy", "traj": 9}, "seed": {"mode": "noisy", "seed": 4},
        **{k: {"mode": "noisy", k: 0.1} for k in ("p1", "p2", "read01", "read10")},
    }

    @pytest.mark.parametrize("command, key", [
        (command, key) for command, keys in runner.UNREAD_KEYS.items() for key in keys
    ])
    def test_library_command_refuses_a_key_it_never_reads(
        self, command, key, tmp_path, monkeypatch
    ):
        def simulate(*args):
            raise AssertionError("simulated before refusing an unread key")

        for name in ("_simulate_local", "chain_spectrum", "circuit_unitary"):
            monkeypatch.setattr(runner, name, simulate)
        run = {"sweep": sweep_command, "compare": compare_command,
               "scaling": scaling_command}[command]
        values = [0.05, 0.1, 0.2] if command == "scaling" else [1.0]
        out = tmp_path / "out"
        base = RunConfig(**self.UNREAD_VALUES[key], out=str(out))
        with pytest.raises(ValueError) as refused:
            run(base, values)
        assert str(refused.value) == f"{command} would ignore {key}"
        assert not out.exists()

    def test_empty_g_list(self):
        with pytest.raises(ValueError):
            sweep_command(RunConfig(), [])

    def test_sweep_writes_per_g_and_table(self, tmp_path):
        base = RunConfig().replace(out=str(tmp_path))
        sweep_command(base, [1.0, 2.0])
        table = (tmp_path / "sweep.csv").read_text().splitlines()
        assert table[0] == "g,rmse_local,rmse_total"
        assert len(table) == 3
        assert (tmp_path / "g_1" / "series.csv").exists()
        assert (tmp_path / "g_2" / "meta.json").exists()

    def test_compare_zero_field_reports_na(self):
        rows = compare_command(RunConfig(), [0.0])
        assert rows[0]["ratio_local"] == "NA"
        assert rows[0]["ratio_total"] == "NA"

    def test_compare_table_written(self, tmp_path):
        base = RunConfig().replace(out=str(tmp_path))
        compare_command(base, [1.0, 3.0])
        lines = (tmp_path / "compare.csv").read_text().splitlines()
        assert lines[0] == ("g,rmse_local_first,rmse_local_sym2,ratio_local,"
                            "rmse_total_first,rmse_total_sym2,ratio_total")
        assert len(lines) == 3
        first_row = lines[1].split(",")
        assert float(first_row[3]) > 1.0  # symmetric error exceeds first order

    def test_scaling_slopes(self):
        rows = scaling_command(RunConfig().replace(g=2.0),
                               [0.0125, 0.025, 0.05, 0.1, 0.2])
        by_order = {r["order"]: r["slope"] for r in rows}
        assert by_order["first"] == pytest.approx(2.0, abs=0.1)
        assert by_order["sym2"] == pytest.approx(3.0, abs=0.15)

    def test_scaling_degenerate_at_zero_field(self):
        rows = scaling_command(RunConfig().replace(g=0.0), [0.05, 0.1, 0.2])
        assert all(r["slope"] == "degenerate" for r in rows)

    def test_scaling_degenerate_when_the_smallest_error_is_roundoff(self):
        # the rule is min(errors) < 1e-14, not that every error vanishes:
        # dt = 1e-9 sits at the roundoff floor while dt = 0.1 and 0.2 do not
        rows = scaling_command(RunConfig().replace(g=2.0), [1e-9, 0.1, 0.2])
        for row in rows:
            assert row["slope"] == "degenerate"
            assert row["errors"][0] < 1e-14
            assert min(row["errors"][1:]) > 1e-3

    @pytest.mark.parametrize("periodic", [False, True])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_scaling_errors_are_the_full_space_norms(self, n, periodic):
        # the larger sector norm against the kron oracle's full-space norm
        dts = [0.001, 0.05, 0.7]
        for field in (0.0, 1.0, 2.5, -1.3):
            for coupling in (1.0, -0.7):
                base = RunConfig().replace(n=n, j=coupling, g=field, periodic=periodic)
                expected = naive_step_errors(n, coupling, field, dts, periodic)
                for row in scaling_command(base, dts):
                    np.testing.assert_allclose(
                        row["errors"], expected[row["order"]], rtol=0, atol=1e-13,
                        err_msg=f"g={field} J={coupling} {row['order']}")

    def test_scaling_needs_three_points(self):
        with pytest.raises(ValueError):
            scaling_command(RunConfig(), [0.1, 0.2])


class TestCli:
    def test_run_writes_outputs(self, tmp_path, capsys):
        code = main(["run", "--g", "2", "--steps", "5", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "series.csv").exists()
        assert "rmse_local=" in capsys.readouterr().out

    def test_usage_error_exit_2(self, capsys):
        code = main(["run", "--mode", "noisy", "--traj", "0"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_too_many_spins_exit_2_before_any_work(self, tmp_path, monkeypatch, capsys):
        def simulate(config):
            raise AssertionError("simulated before validating N")

        monkeypatch.setattr(runner, "_simulate_local", simulate)
        out = tmp_path / "out"
        code = main(["run", "--n", "13", "--mode", "noisy", "--out", str(out)])
        assert code == 2
        assert "12" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, file_values, key", [
        (["run", "--mode", "shots", "--p1", "0.5", "--read01", "0.3"], None, "p1"),
        (["run", "--mode", "ideal", "--shots", "64"], None, "shots"),
        (["run", "--mode", "shots", "--traj", "8"], None, "traj"),
        (["sweep", "--g-list", "1", "--mode", "noisy", "--shots", "8"], None, "shots"),
        (["run", "--mode", "shots"], {"read10": 0.1}, "read10"),
        (["run"], {"shots": 64}, "shots"),
        (["run"], {"mode": "shots", "traj": 8}, "traj"),
        (["compare", "--g-list", "1"], {"traj": 8}, "traj"),
        (["sweep", "--g-list", "1", "--g", "9"], None, "g"),
        (["compare", "--g-list", "1"], {"g": 9}, "g"),
        (["compare", "--g-list", "1", "--order", "sym2"], None, "order"),
        (["scaling", "--dt-list", "0.05,0.1,0.2", "--steps", "7"], None, "steps"),
        (["scaling", "--dt-list", "0.05,0.1,0.2", "--dt", "0.1"], None, "dt"),
        (["scaling", "--dt-list", "0.05,0.1,0.2", "--order", "sym2"], None, "order"),
        (["scaling", "--dt-list", "0.05,0.1,0.2", "--mode", "noisy"], None, "mode"),
        (["scaling", "--dt-list", "0.05,0.1,0.2", "--shots", "8"], None, "shots"),
        (["scaling", "--dt-list", "0.05,0.1,0.2", "--traj", "8"], None, "traj"),
        (["scaling", "--dt-list", "0.05,0.1,0.2", "--p1", "0"], None, "p1"),
        (["scaling", "--dt-list", "0.05,0.1,0.2"], {"p2": 0.1}, "p2"),
        (["scaling", "--dt-list", "0.05,0.1,0.2"], {"read01": 0.1}, "read01"),
        (["scaling", "--dt-list", "0.05,0.1,0.2", "--read10", "0.1"], None, "read10"),
        (["scaling", "--dt-list", "0.05,0.1,0.2"], {"seed": 4}, "seed"),
        # config-file keys the command never reads
        (["run"], {"g_list": [1, 2], "bannana": 3}, "bannana"),
        (["run"], {"g_list": [1, 2], "steps": 2}, "g_list"),
        (["run"], {"dt_list": [0.1, 0.2, 0.3]}, "dt_list"),
        (["sweep", "--g-list", "1"], {"dt_list": [0.1, 0.2, 0.3]}, "dt_list"),
        (["compare"], {"g_list": [1], "G": 2}, "G"),
        (["scaling"], {"dt_list": [0.1, 0.2, 0.3], "g_list": [1]}, "g_list"),
        (["scaling", "--dt-list", "0.05,0.1,0.2"], {"config": "other.json"}, "config"),
        # a bad list value after good ones is refused before the first run or solve
        (["sweep", "--g-list", "1,nan"], None, "g"),
        (["compare", "--g-list", "1,inf"], None, "g"),
        (["scaling", "--dt-list", "0.1,0.2,-0.3"], None, "dt"),
        (["run", "--j", "nan"], None, "j"),
        # finite values whose times or rotation angles overflow
        (["run", "--n", "3", "--steps", "2", "--dt", "1e308"], None, "dt"),
        (["scaling", "--dt-list", "1e308,1e307,1e306"], None, "dt"),
        (["run", "--g", "0", "--dt", "1e308", "--steps", "1"], None, "dt"),
        (["run", "--g", "1e308", "--steps", "1"], None, "g"),
        (["run", "--steps", "20", "--dt", "1e307"], None, "steps"),
        (["run", "--mode", "noisy", "--traj", str(2**32 + 1)], None, "traj"),
        # two g whose g_<fmt(g)> output directories collide
        (["sweep", "--g-list", "1,1.0000000000001"], None, "g_1"),
        # a seed only shots and noisy mode read
        (["run", "--seed", "5"], None, "seed"),
        # an empty list entry, in a flag or a config file's string
        (["sweep", "--g-list", "1,,2"], None, "--g-list"),
        (["sweep", "--g-list", "1,2,"], None, "--g-list"),
        (["scaling"], {"dt_list": "0.05,0.1,0.2,"}, "--dt-list"),
    ])
    def test_value_the_mode_ignores_exit_2_before_any_work(
        self, argv, file_values, key, tmp_path, monkeypatch, capsys
    ):
        def simulate(*args):
            raise AssertionError("simulated before refusing an ignored value")

        monkeypatch.setattr(runner, "_simulate_local", simulate)
        monkeypatch.setattr(runner, "chain_spectrum", simulate)
        if file_values is not None:
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps(file_values))
            argv = [*argv, "--config", str(cfg_path)]
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, file_values, key", [
        (["run"], {"periodic": "false"}, "periodic"),
        (["run"], {"n": 3.7}, "n"),
        (["run"], {"steps": 2.9}, "steps"),
        (["run", "--mode", "shots"], {"seed": None}, "seed"),
        (["run"], {"g": [1, 2]}, "g"),
        (["run"], {"j": True}, "j"),
        (["run", "--mode", "noisy"], {"p1": "0.1"}, "p1"),
        (["run", "--mode", "shots"], {"shots": 64.5}, "shots"),
        (["sweep"], {"g_list": 5}, "g_list"),
        (["compare"], {"g_list": [1, True]}, "g_list"),
        (["scaling"], {"dt_list": [0.05, "0.1", 0.2]}, "dt_list"),
    ])
    def test_config_value_of_another_type_exit_2_before_any_work(
        self, argv, file_values, key, tmp_path, monkeypatch, capsys
    ):
        def simulate(*args):
            raise AssertionError("simulated before refusing a mistyped value")

        monkeypatch.setattr(runner, "_simulate_local", simulate)
        monkeypatch.setattr(runner, "chain_spectrum", simulate)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(file_values))
        out = tmp_path / "out"
        assert main([*argv, "--config", str(cfg_path), "--out", str(out)]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, table", [
        (["sweep", "--g-list", "1,2", "--steps", "3", "--mode", "shots"], "sweep.csv"),
        (["compare", "--g-list", "0,1", "--steps", "3"], "compare.csv"),
        (["scaling", "--g", "0", "--dt-list", "0.05,0.1,0.2"], "scaling.csv"),
        (["scaling", "--g", "2", "--dt-list", "0.05,0.1,0.2"], "scaling.csv"),
    ])
    def test_stdout_is_the_written_table(self, argv, table, tmp_path, capsys):
        assert main([*argv, "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out.encode() == (tmp_path / table).read_bytes()

    @pytest.mark.parametrize("command", ["run", "sweep", "compare", "scaling"])
    def test_every_config_key_is_a_flag_with_its_default(self, command, capsys):
        texts = {bool: None, int: "7", float: "0.5", str: "x"}
        choices = {f.name: f.metadata["choices"] for f in fields(RunConfig)}
        device = dataclasses.asdict(DEVICE_LIKE)
        for f in fields(RunConfig):
            kind = str if f.default is None or choices[f.name] else f.type
            text = choices[f.name][-1] if choices[f.name] else texts[kind]
            argv = [command, f"--{f.name}"] + ([text] if text is not None else [])
            value = getattr(build_parser().parse_args(argv), f.name)
            assert type(value) is kind, f.name
            assert value == (True if kind is bool else kind(text)), f.name
        with pytest.raises(SystemExit):
            main([command, "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        defaults = RunConfig().to_dict()
        for f in fields(RunConfig):
            default = defaults[f.name]
            if f.name in device:
                note = f" (noisy mode default: device-like {device[f.name]})"
            elif default is None:
                note = ""
            else:
                note = f" (default {runner.fmt(default) if type(default) is float else default})"
            assert f"{f.metadata['help']}{note}" in help_text, f.name
        assert "(default 0.0)" not in help_text

    def test_parser_built_once_and_no_flag_leaks_into_the_next_call(self, tmp_path, capsys):
        argvs = [["run", "--n", "3", "--steps", "2", "--periodic", "--g", "2"],
                 ["run", "--n", "3", "--steps", "2"]]

        def outputs(out):
            series = (out / "series.csv").read_bytes()
            meta = json.loads((out / "meta.json").read_text())
            meta.pop("wall_time")
            meta["config"].pop("out")
            stdout = capsys.readouterr().out.rsplit(" wall_time=", 1)[0]
            return series, meta, stdout

        fresh = []
        for i, argv in enumerate(argvs):
            build_parser.cache_clear()
            assert main([*argv, "--out", str(tmp_path / f"fresh{i}")]) == 0
            fresh.append(outputs(tmp_path / f"fresh{i}"))
        parser = build_parser()
        for i, argv in enumerate(argvs):
            assert main([*argv, "--out", str(tmp_path / f"reused{i}")]) == 0
            assert outputs(tmp_path / f"reused{i}") == fresh[i], argv
        assert build_parser() is parser
        assert fresh[1][1]["config"]["periodic"] is False
        assert fresh[1][1]["config"]["g"] == 1.0

    def test_sweep_requires_g_list(self, capsys):
        code = main(["sweep"])
        assert code == 2

    @pytest.mark.parametrize("command, key", [
        ("sweep", "g_list"), ("compare", "g_list"), ("scaling", "dt_list"),
    ])
    def test_empty_config_list_is_refused_by_name(self, command, key, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({key: []}))
        assert main([command, "--config", str(cfg_path)]) == 2
        assert f"{key} must be a string or a nonempty list" in capsys.readouterr().err

    def test_argparse_rejects_bad_choice(self):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--order", "third"])
        assert exc.value.code == 2

    def test_missing_config_file(self, capsys):
        assert main(["run", "--config", "/nonexistent/cfg.json"]) == 2

    def test_config_path_is_a_directory_exit_2_naming_it(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "--config", str(tmp_path), "--out", str(out)]) == 2
        assert f"cannot read config file {tmp_path}" in capsys.readouterr().err
        assert not out.exists()

    def test_unreadable_config_file_exit_2_naming_it(self, tmp_path, monkeypatch, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("{}")
        cfg_path.chmod(0)
        if os.access(cfg_path, os.R_OK):  # root reads it anyway; refuse as for a user
            def refuse(path, *args, **kwargs):
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)

            monkeypatch.setattr(cli, "open", refuse, raising=False)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert f"cannot read config file {cfg_path}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("dt_list", ["0.1,0.1,0.1", "0.1,0.2,0.1", "0.05,0.1"])
    def test_scaling_without_three_distinct_dt_exit_2_before_any_solve(
        self, dt_list, tmp_path, monkeypatch, capsys
    ):
        def solve(*args):
            raise AssertionError("solved before refusing the dt list")

        monkeypatch.setattr(runner, "chain_spectrum", solve)
        monkeypatch.setattr(runner, "circuit_unitary", solve)
        out = tmp_path / "out"
        assert main(["scaling", "--dt-list", dt_list, "--out", str(out)]) == 2
        assert "3 distinct dt values" in capsys.readouterr().err
        assert not out.exists()

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"g": 3.0, "steps": 5, "order": "sym2"}))
        out = tmp_path / "out"
        code = main(["run", "--config", str(cfg_path), "--g", "1", "--out", str(out)])
        assert code == 0
        meta = json.loads((out / "meta.json").read_text())
        assert meta["config"]["g"] == 1.0  # flag wins
        assert meta["config"]["steps"] == 5  # file value kept
        assert meta["config"]["order"] == "sym2"

    def test_noisy_mode_defaults_to_device_calibration(self, tmp_path):
        out = tmp_path / "out"
        code = main(["run", "--mode", "noisy", "--traj", "8", "--steps", "2",
                     "--out", str(out)])
        assert code == 0
        meta = json.loads((out / "meta.json").read_text())
        assert meta["config"]["p1"] == 0.002
        assert meta["config"]["p2"] == 0.02
        assert meta["config"]["read01"] == 0.02

    def test_noisy_flags_override_calibration(self, tmp_path):
        out = tmp_path / "out"
        code = main(["run", "--mode", "noisy", "--traj", "8", "--steps", "2",
                     "--p2", "0", "--out", str(out)])
        assert code == 0
        meta = json.loads((out / "meta.json").read_text())
        assert meta["config"]["p2"] == 0.0
        assert meta["config"]["p1"] == 0.002

    def test_scaling_stdout(self, capsys):
        code = main(["scaling", "--g", "2", "--dt-list", "0.05,0.1,0.2"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("order,slope")
        assert "first," in out and "sym2," in out

    def test_compare_stdout_lists_g_rows(self, capsys):
        code = main(["compare", "--g-list", "1,3", "--steps", "5"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3

    def test_g_list_from_config_file(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"g_list": [1.0, 2.0], "steps": 5}))
        code = main(["sweep", "--config", str(cfg_path)])
        assert code == 0
        assert len(capsys.readouterr().out.splitlines()) == 3


def test_active_backend_is_the_numpy_engine():
    assert active_backend() == "numpy"


def test_cli_setup_imports_only_stdlib_numpy_and_the_package():
    # every module a CLI process imports before its command runs adds to
    # setup_s; numpy.random (15-21 ms, 6 MB of RSS) waits for the first
    # shots or noisy draw, and scipy, though installed, is never imported
    src = Path(trotterbench.__file__).resolve().parents[1]
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import trotterbench.cli\n"
            "trotterbench.cli.build_parser()\n"
            "print(*sorted(set(sys.modules) - before))\n")
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    added = proc.stdout.split()
    assert "trotterbench.cli" in added and "numpy" in added
    roots = {name.partition(".")[0] for name in added}
    assert roots - sys.stdlib_module_names == {"numpy", "trotterbench"}
    assert [name for name in added if name.startswith("numpy.random")] == []


def test_all_lists_exactly_the_public_names_init_binds():
    tree = ast.parse(Path(trotterbench.__file__).read_text())
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            bound |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Assign):
            bound |= {target.id for target in node.targets}
    public = {name for name in bound - {"__all__"}
              if not name.startswith("_") or name.startswith("__")}
    assert sorted(trotterbench.__all__) == sorted(public)
    for name in trotterbench.__all__:
        assert getattr(trotterbench, name) is not None, name
