"""Experiment orchestration: configured runs, parameter sweeps, order
comparisons, step-size scaling, and deterministic file output."""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .circuit import MAX_DENSE_SPINS, Circuit, circuit_unitary, encode, gate_counts
from .exact import chain_spectrum, exact_series
from .kernels import run_gates, run_gates_record, z_signs
from .noise import (
    NoiseParams,
    apply_readout_to_expectations,
    noisy_execute,
)
from .observables import (
    ErrorSummary,
    MagnetizationSeries,
    error_series,
    scaling_fit,
)
from .statevector import all_down_state, sample_counts, z_expectations
from .trotter import (
    TfimParams,
    TrotterOrder,
    build_evolution_circuit,
    first_order_step,
    symmetric_step,
)

MODES = ("ideal", "shots", "noisy")

#: The flat config keys: RunConfig.to_dict/from_dict, JSON config files and
#: the CLI flags of the same names.
CONFIG_KEYS = (
    "n", "j", "g", "dt", "steps", "order", "mode", "shots", "traj",
    "p1", "p2", "read01", "read10", "periodic", "seed", "out",
)

#: Denominators below this are reported as the "NA" ratio sentinel.
ZERO_RMSE = 1e-12


@dataclass(frozen=True)
class RunConfig:
    """One simulation run: chain parameters, circuit choice, and execution mode.

    Defaults mirror the benchmark setup: a 5-spin chain at J = 1 with
    dt = 0.2/J, 20 Trotter steps, and 1024 shots where sampling applies.
    """

    tfim: TfimParams = TfimParams(n_spins=5, coupling=1.0, field=1.0, dt=0.2)
    steps: int = 20
    order: TrotterOrder = TrotterOrder.FIRST
    mode: str = "ideal"
    shots: int = 1024
    trajectories: int = 256
    noise: NoiseParams = NoiseParams()
    periodic: bool = False
    seed: int = 0
    out: str | None = None

    def __post_init__(self):
        # one cap for every run, refused before any simulation allocates
        # 2^n amplitudes: the periodic reference and `scaling` need dense
        # 2^n x 2^n matrices. The open chain's free-fermion reference does
        # not, but its runs keep the cap until ideal mode is free-fermion too.
        if self.tfim.n_spins > MAX_DENSE_SPINS:
            raise ValueError(
                f"n must be <= {MAX_DENSE_SPINS}, the size limit of the dense "
                f"matrices of the periodic reference and scaling, got {self.tfim.n_spins}"
            )
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.mode != "noisy" and not self.noise.is_zero():
            raise ValueError(
                "p1, p2, read01 and read10 apply only in noisy mode; "
                f"{self.mode} mode would ignore them"
            )
        if self.mode == "shots" and self.shots < 1:
            raise ValueError(f"shots must be >= 1, got {self.shots}")
        if self.mode == "noisy" and self.trajectories < 1:
            raise ValueError(f"trajectories must be >= 1, got {self.trajectories}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    def replace(self, **kw) -> "RunConfig":
        state = self.to_dict()
        state.update(kw)
        return RunConfig.from_dict(state)

    def to_dict(self) -> dict:
        return {
            "n": self.tfim.n_spins,
            "j": self.tfim.coupling,
            "g": self.tfim.field,
            "dt": self.tfim.dt,
            "steps": self.steps,
            "order": self.order.value,
            "mode": self.mode,
            "shots": self.shots,
            "traj": self.trajectories,
            "p1": self.noise.p1,
            "p2": self.noise.p2,
            "read01": self.noise.read01,
            "read10": self.noise.read10,
            "periodic": self.periodic,
            "seed": self.seed,
            "out": self.out,
        }

    @staticmethod
    def from_dict(d: dict) -> "RunConfig":
        unknown = set(d) - set(CONFIG_KEYS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        d = {**RunConfig().to_dict(), **d}  # missing keys take the field defaults
        return RunConfig(
            tfim=TfimParams(
                n_spins=int(d["n"]),
                coupling=float(d["j"]),
                field=float(d["g"]),
                dt=float(d["dt"]),
            ),
            steps=int(d["steps"]),
            order=TrotterOrder(d["order"]),
            mode=str(d["mode"]),
            shots=int(d["shots"]),
            trajectories=int(d["traj"]),
            noise=NoiseParams(
                p1=float(d["p1"]),
                p2=float(d["p2"]),
                read01=float(d["read01"]),
                read10=float(d["read10"]),
            ),
            periodic=bool(d["periodic"]),
            seed=int(d["seed"]),
            out=d["out"],
        )


@dataclass
class RunResult:
    """Everything one run produces; sim and exact share the time grid
    t_k = k dt for k = 0..steps, while the RMSE summary pools k = 1..steps."""

    config: RunConfig
    sim: MagnetizationSeries
    exact: MagnetizationSeries
    errors: ErrorSummary
    counts: dict = field(default_factory=dict)
    wall_time: float = 0.0


def _simulate_local(config: RunConfig, circuit: Circuit) -> np.ndarray:
    """Per-step local magnetization of the config's evolution circuit in the
    configured mode, rows k = 0..steps."""
    n = config.tfim.n_spins
    local = np.empty((config.steps + 1, n), dtype=np.float64)

    if config.mode == "ideal":
        state = all_down_state(n)
        local[0] = z_expectations(state)
        kinds, qa, qb, theta, marks = encode(circuit)
        run_gates_record(state.amps, n, kinds, qa, qb, theta, marks, local[1:])
        return local

    if config.mode == "shots":
        # every partial sum of counts @ signs is an integer, so each row is
        # the exact count difference over shots
        state = all_down_state(n)
        signs = z_signs(n)
        local[0] = sample_counts(state, config.shots, (config.seed, 0)) @ signs
        kinds, qa, qb, theta, marks = encode(circuit)
        prev = 0
        for k, mark in enumerate(marks, start=1):
            run_gates(state.amps, n, kinds[prev:mark], qa[prev:mark],
                      qb[prev:mark], theta[prev:mark])
            local[k] = sample_counts(state, config.shots, (config.seed, k)) @ signs
            prev = mark
        return local / config.shots

    # noisy: trajectory-averaged expectations, then the readout map
    state = all_down_state(n)
    local[0] = z_expectations(state)
    local[1:] = noisy_execute(
        circuit, state, config.noise, config.trajectories, config.seed
    )
    return apply_readout_to_expectations(local, config.noise)


def run_command(config: RunConfig, write: bool = True) -> RunResult:
    """Execute one configured run against the exact reference."""
    start = time.perf_counter()
    params = config.tfim
    times = params.dt * np.arange(config.steps + 1)
    circuit = build_evolution_circuit(params, config.steps, config.order, config.periodic)
    local = _simulate_local(config, circuit)
    sim = MagnetizationSeries(times, local)
    exact = exact_series(params, times, config.periodic)
    errors = error_series(sim.tail(1), exact.tail(1))
    result = RunResult(
        config=config,
        sim=sim,
        exact=exact,
        errors=errors,
        counts=gate_counts(circuit),
        wall_time=time.perf_counter() - start,
    )
    if write and config.out is not None:
        write_run(result, Path(config.out))
    return result


def sweep_command(base: RunConfig, g_values) -> list[RunResult]:
    """One run per transverse-field value, everything else shared."""
    g_values = list(g_values)
    if not g_values:
        raise ValueError("g_values must be nonempty")
    results = []
    for g in g_values:
        sub = base.replace(g=float(g), out=None)
        result = run_command(sub)
        if base.out is not None:
            write_run(result, Path(base.out) / f"g_{fmt(g)}")
        results.append(result)
    if base.out is not None:
        _write_csv(
            Path(base.out) / "sweep.csv",
            ["g", "rmse_local", "rmse_total"],
            [
                [fmt(g), fmt(r.errors.rmse_local), fmt(r.errors.rmse_total)]
                for g, r in zip(g_values, results)
            ],
        )
    return results


def compare_command(base: RunConfig, g_values) -> list[dict]:
    """Both Trotter orders per g with a shared seed; rows mirror the RMSE
    comparison table (ratio = symmetric / first, "NA" on a ~0 denominator)."""
    g_values = list(g_values)
    if not g_values:
        raise ValueError("g_values must be nonempty")
    rows = []
    for g in g_values:
        per_order = {}
        for order in (TrotterOrder.FIRST, TrotterOrder.SYMMETRIC):
            cfg = base.replace(g=float(g), order=order.value, out=None)
            per_order[order] = run_command(cfg).errors
        first = per_order[TrotterOrder.FIRST]
        sym = per_order[TrotterOrder.SYMMETRIC]
        rows.append(
            {
                "g": float(g),
                "rmse_local_first": first.rmse_local,
                "rmse_local_sym2": sym.rmse_local,
                "ratio_local": _ratio(sym.rmse_local, first.rmse_local),
                "rmse_total_first": first.rmse_total,
                "rmse_total_sym2": sym.rmse_total,
                "ratio_total": _ratio(sym.rmse_total, first.rmse_total),
            }
        )
    if base.out is not None:
        header = [
            "g", "rmse_local_first", "rmse_local_sym2", "ratio_local",
            "rmse_total_first", "rmse_total_sym2", "ratio_total",
        ]
        _write_csv(
            Path(base.out) / "compare.csv",
            header,
            [[_cell(row[h]) for h in header] for row in rows],
        )
    return rows


def scaling_command(base: RunConfig, dt_values) -> list[dict]:
    """Single-step operator-norm error vs the exact propagator per order,
    fitted to a log-log slope; "degenerate" when the errors vanish."""
    dt_values = [float(dt) for dt in dt_values]
    if len(dt_values) < 3:
        raise ValueError("need at least 3 dt values for a slope fit")
    spec = chain_spectrum(base.tfim, base.periodic)
    rows = []
    for order in (TrotterOrder.FIRST, TrotterOrder.SYMMETRIC):
        step_fn = first_order_step if order == TrotterOrder.FIRST else symmetric_step
        errs = []
        for dt in dt_values:
            params = dataclasses.replace(base.tfim, dt=dt)
            u_step = circuit_unitary(step_fn(params, base.periodic))
            u_exact = spec.propagator(dt)
            errs.append(float(np.linalg.norm(u_step - u_exact, 2)))
        if min(errs) < 1e-14:
            rows.append({"order": order.value, "slope": "degenerate", "errors": errs})
        else:
            slope, _ = scaling_fit(dt_values, errs)
            rows.append({"order": order.value, "slope": slope, "errors": errs})
    if base.out is not None:
        _write_csv(
            Path(base.out) / "scaling.csv",
            ["order", "slope"],
            [[row["order"], _cell(row["slope"])] for row in rows],
        )
    return rows


# ------------------------------------------------------------------ output

def fmt(x: float) -> str:
    """12 significant digits; enough for 1e-9 tolerances, stable bytes."""
    return f"{x:.12g}"


def _cell(v) -> str:
    if isinstance(v, str):
        return v
    return fmt(v)


def _ratio(num: float, den: float):
    if den < ZERO_RMSE:
        return "NA"
    return num / den


def _round12(x):
    if isinstance(x, float):
        return float(fmt(x))
    if isinstance(x, dict):
        return {k: _round12(v) for k, v in x.items()}
    if isinstance(x, list):
        return [_round12(v) for v in x]
    return x


def _write_csv(path: Path, header: list[str], rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def write_run(result: RunResult, out_dir: Path) -> None:
    """series.csv + totals.csv + meta.json; bytes depend only on (config, seed)
    except for the wall_time field."""
    out_dir = Path(out_dir)
    sim, exact = result.sim, result.exact
    rows = []
    for k, t in enumerate(sim.times):
        for j in range(sim.n_sites):
            rows.append(
                [
                    fmt(t),
                    str(j),
                    fmt(sim.local[k, j]),
                    fmt(exact.local[k, j]),
                    fmt(sim.local[k, j] - exact.local[k, j]),
                ]
            )
    _write_csv(out_dir / "series.csv", ["t", "site", "m_sim", "m_exact", "dm"], rows)
    _write_csv(
        out_dir / "totals.csv",
        ["t", "m_total_sim", "m_total_exact", "dm_total"],
        [
            [fmt(t), fmt(sim.total[k]), fmt(exact.total[k]),
             fmt(sim.total[k] - exact.total[k])]
            for k, t in enumerate(sim.times)
        ],
    )
    meta = {
        "tool": "trotterbench",
        "version": __version__,
        "config": _round12(result.config.to_dict()),
        "gate_counts": result.counts,
        "rmse": {
            "local": _round12(result.errors.rmse_local),
            "total": _round12(result.errors.rmse_total),
        },
        "wall_time": result.wall_time,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "meta.json").write_text(json.dumps(meta, indent=2) + "\n")
