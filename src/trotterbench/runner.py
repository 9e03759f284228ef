"""Experiment orchestration: configured runs, parameter sweeps, order
comparisons, step-size scaling, and deterministic file output."""

# No `from __future__ import annotations`: RunConfig's field types are read at run time.

import dataclasses
import json
import math
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__
from .circuit import (MAX_DENSE_SPINS, Circuit, check_integer, check_real, circuit_unitary,
                      encode, gate_counts, is_number)
from .exact import Spectrum, chain_spectrum, exact_series, sector_blocks
from .kernels import run_gates, run_gates_record
from .noise import (
    MAX_TRAJECTORIES,
    NoiseParams,
    apply_readout_to_expectations,
    noisy_execute,
)
from .observables import (
    ErrorSummary,
    MagnetizationSeries,
    error_series,
    local_magnetization_from_counts,
    scaling_fit,
)
from .statevector import all_down_state, sample_bitstrings, z_expectations
from .trotter import LAYERS, TfimParams, build_evolution_circuit

MODES = ("ideal", "shots", "noisy")

#: Denominators below this are reported as the "NA" ratio sentinel.
ZERO_RMSE = 1e-12

#: Config keys that only some modes read, and those modes. The noise rates
#: are not here: a zero rate is the noiseless channel every mode runs.
MODE_KEYS = {"shots": ("shots",), "traj": ("noisy",), "seed": ("shots", "noisy")}

#: Config keys a command never reads; `mode` last, so that a key only some
#: modes read is named before the mode that reads it.
UNREAD_KEYS = {
    "sweep": ("g",),
    "compare": ("g", "order"),
    "scaling": ("dt", "steps", "order", "shots", "traj",
                "p1", "p2", "read01", "read10", "seed", "mode"),
}


def check_mode_keys(keys, mode: str) -> None:
    """Refuse a key of `keys` that `mode` does not read (`MODE_KEYS`)."""
    for key, needs in MODE_KEYS.items():
        if key in keys and mode not in needs:
            raise ValueError(f"{key} applies only in {' or '.join(needs)} mode; "
                             f"{mode} mode would ignore it")


def check_unread_keys(keys, command: str) -> None:
    """Refuse a key of `keys` that `command` never reads (`UNREAD_KEYS`)."""
    for key in UNREAD_KEYS.get(command, ()):
        if key in keys:
            raise ValueError(f"{command} would ignore {key}")


def _key(default, help: str, choices: tuple | None = None):
    """A config key's default, --help text and, for a string key, choices."""
    return field(default=default, metadata={"help": help, "choices": choices})


@dataclass(frozen=True)
class RunConfig:
    """One simulation run: chain parameters, circuit choice, and execution mode.

    Each field is a config key: of `to_dict`/`from_dict`, of JSON config
    files, and the CLI flag of the same name. Defaults mirror the benchmark
    setup: a 5-spin chain at J = 1 with dt = 0.2/J, 20 Trotter steps, and
    1024 shots where sampling applies.
    """

    n: int = _key(5, "number of spins")
    j: float = _key(1.0, "Ising coupling J")
    g: float = _key(1.0, "transverse field g")
    dt: float = _key(0.2, "Trotter step size")
    steps: int = _key(20, "number of Trotter steps")
    order: str = _key("first", "Trotter order", tuple(LAYERS))
    mode: str = _key("ideal", "execution mode", MODES)
    shots: int = _key(1024, "shots per time point")
    traj: int = _key(256, "noise trajectories per run")
    p1: float = _key(0.0, "fault probability after single-qubit gates")
    p2: float = _key(0.0, "fault probability after CNOTs")
    read01: float = _key(0.0, "readout 0->1 flip probability")
    read10: float = _key(0.0, "readout 1->0 flip probability")
    periodic: bool = _key(False, "periodic chain, not open")
    seed: int = _key(0, "base RNG seed")
    out: str | None = _key(None, "output directory")

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, _typed(f, getattr(self, f.name)))
        params, noise = self.tfim, self.noise  # each checks its own ranges
        # one cap for every run, refused before any simulation allocates
        # 2^n amplitudes: the periodic reference and `scaling` need dense
        # 2^n x 2^n matrices. The open chain's free-fermion reference does
        # not, but its runs keep the cap until ideal mode is free-fermion too.
        if params.n_spins > MAX_DENSE_SPINS:
            raise ValueError(
                f"n must be <= {MAX_DENSE_SPINS}, the size limit of the dense "
                f"matrices of the periodic reference and scaling, got {params.n_spins}"
            )
        check_integer("steps", self.steps, 1)
        if not math.isfinite(self.steps * self.dt):
            raise ValueError(f"dt={self.dt} with steps={self.steps} gives a "
                             "non-finite time steps*dt")
        check_integer("seed", self.seed, 0)
        if self.mode != "noisy" and not noise.is_zero():
            raise ValueError(
                "p1, p2, read01 and read10 apply only in noisy mode; "
                f"{self.mode} mode would ignore them"
            )
        check_mode_keys(self.changed_keys(), self.mode)
        if self.mode == "shots":
            check_integer("shots", self.shots, 1)
        if self.mode == "noisy" and not 1 <= self.traj <= MAX_TRAJECTORIES:
            raise ValueError(f"traj must be in [1, 2**32], got {self.traj}")

    def changed_keys(self) -> set:
        """The config keys whose values differ from their defaults."""
        return {f.name for f in fields(self) if getattr(self, f.name) != f.default}

    @property
    def tfim(self) -> TfimParams:
        return TfimParams(n_spins=self.n, coupling=self.j, field=self.g, dt=self.dt,
                          periodic=self.periodic)

    @property
    def noise(self) -> NoiseParams:
        return NoiseParams(p1=self.p1, p2=self.p2, read01=self.read01, read10=self.read10)

    replace = dataclasses.replace
    to_dict = asdict

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        """Missing keys take the field defaults; unknown keys are refused."""
        unknown = set(d) - set(CONFIG_KEYS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**d)


#: The flat config keys, in order: RunConfig's fields.
CONFIG_KEYS = tuple(f.name for f in fields(RunConfig))


def _typed(f: dataclasses.Field, value):
    """`value` as the type of config field `f`. A value that converting
    would change, such as 3.7 for an int key or "false" for a bool key, or
    one outside the field's choices, raises a ValueError naming the key."""
    if value is None and f.default is None:
        return None
    if f.type is bool:
        ok, what = isinstance(value, bool), "true or false"
    elif f.type is int:
        ok, what = is_number(value) and value % 1 == 0, "an integral number"
    elif f.type is float:
        ok, what = is_number(value), "a real number"
    else:  # order, mode and out
        ok, what = isinstance(value, str), "a string or null" if f.default is None else "a string"
    if not ok:
        raise ValueError(f"{f.name} must be {what}, got {value!r}")
    choices = f.metadata["choices"]
    if choices is not None and value not in choices:
        raise ValueError(f"{f.name} must be one of {choices}, got {value!r}")
    return value if f.default is None else f.type(value)


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


def _simulate_local(configs: list[RunConfig], circuits: list[Circuit]) -> np.ndarray:
    """Per-step local magnetization of each config's evolution circuit in
    the configured mode, shape (configs, steps + 1, n). The configs differ
    only in g. Ideal and shots mode evolve them as the columns of one
    (2^n, G) block; noisy mode runs one trajectory block per config."""
    base = configs[0]
    n = base.n
    local = np.empty((len(configs), base.steps + 1, n), dtype=np.float64)
    state = all_down_state(n)

    if base.mode == "noisy":
        # trajectory-averaged expectations, then the readout map
        for run, config, circuit in zip(local, configs, circuits):
            run[0] = z_expectations(state)
            run[1:] = noisy_execute(circuit, state, config.noise, config.traj, config.seed)
            run[...] = apply_readout_to_expectations(run, config.noise)
        return local

    encoded = [encode(circuit) for circuit in circuits]
    kinds, qa, qb, _, marks = encoded[0]
    theta = np.column_stack([e[3] for e in encoded])
    amps = np.repeat(state[:, None], len(configs), axis=1)

    if base.mode == "ideal":
        local[:, 0] = z_expectations(state)
        run_gates_record(amps, n, kinds, qa, qb, theta, marks, local[:, 1:])
        return local

    # shots: every g samples step k from the stream (seed, k)
    def sample(k):
        counts = sample_bitstrings(amps, base.shots, (base.seed, k))
        return local_magnetization_from_counts(counts)

    local[:, 0] = sample(0)
    prev = 0
    for k, mark in enumerate(marks, start=1):
        run_gates(amps, n, kinds[prev:mark], qa[prev:mark], qb[prev:mark], theta[prev:mark])
        local[:, k] = sample(k)
        prev = mark
    return local


def _run_block(configs: list[RunConfig],
               exact: list[MagnetizationSeries] | None = None) -> list[RunResult]:
    """Runs of configs that differ only in g, simulated as one block against
    the exact reference; every result's wall_time and gate counts (one
    shared tally) are the block's. `exact` passes the series of these g
    when the caller already has them."""
    start = time.perf_counter()
    base = configs[0]
    times = base.dt * np.arange(base.steps + 1)
    circuits = [build_evolution_circuit(c.tfim, c.steps, c.order) for c in configs]
    local = _simulate_local(configs, circuits)
    if exact is None:
        exact = exact_series([c.tfim for c in configs], times)
    counts = gate_counts(circuits[0])  # every g runs one gate list
    results = []
    for config, run, reference in zip(configs, local, exact):
        sim = MagnetizationSeries(times, run)
        results.append(RunResult(config=config, sim=sim, exact=reference,
                                 errors=error_series(sim.tail(1), reference.tail(1)),
                                 counts=counts))
    wall_time = time.perf_counter() - start
    for result in results:
        result.wall_time = wall_time
    return results


def run_command(config: RunConfig) -> RunResult:
    """Execute one configured run against the exact reference; write its
    files when the config names an output directory."""
    result = _run_block([config])[0]
    if config.out is not None:
        write_run(result, Path(config.out))
    return result


def _g_configs(base: RunConfig, g_values, command: str) -> list[RunConfig]:
    """One config per g, everything else shared. A key of `base` that
    `command` never reads, and every g, are checked here, before any run."""
    check_unread_keys(base.changed_keys(), command)
    g_values = list(g_values)
    if not g_values:
        raise ValueError("g_values must be nonempty")
    return [base.replace(g=check_real("g", g), out=None) for g in g_values]


def sweep_command(base: RunConfig, g_values) -> list[RunResult]:
    """One run per transverse-field value, everything else shared, all g
    simulated as one block. Before the first run every g is checked, and
    with `out` two g that would share a `g_<g>` directory are refused."""
    g_values = list(g_values)
    configs = _g_configs(base, g_values, "sweep")
    names = [f"g_{fmt(c.g)}" for c in configs]
    if base.out is not None and len(set(names)) < len(names):
        raise ValueError(f"g values {g_values} would share output directories {names}")
    results = _run_block(configs)
    if base.out is not None:
        for name, result in zip(names, results):
            write_run(result, Path(base.out) / name)
        _write_csv(Path(base.out) / "sweep.csv", *sweep_table(g_values, results))
    return results


def compare_command(base: RunConfig, g_values) -> list[dict]:
    """Both Trotter orders per g with a shared seed; rows mirror the RMSE
    comparison table (ratio = symmetric / first, "NA" on a ~0 denominator).
    Each order runs all g as one block, and both compare with one exact
    series per g. Every g is checked before the first run."""
    configs = _g_configs(base, g_values, "compare")
    firsts = _run_block([c.replace(order="first") for c in configs])
    syms = _run_block([c.replace(order="sym2") for c in configs],
                      [r.exact for r in firsts])
    rows = []
    for config, first_run, sym_run in zip(configs, firsts, syms):
        first, sym = first_run.errors, sym_run.errors
        rows.append(
            {
                "g": config.g,
                "rmse_local_first": first.rmse_local,
                "rmse_local_sym2": sym.rmse_local,
                "ratio_local": _ratio(sym.rmse_local, first.rmse_local),
                "rmse_total_first": first.rmse_total,
                "rmse_total_sym2": sym.rmse_total,
                "ratio_total": _ratio(sym.rmse_total, first.rmse_total),
            }
        )
    if base.out is not None:
        _write_csv(Path(base.out) / "compare.csv", *compare_table(rows))
    return rows


def scaling_command(base: RunConfig, dt_values) -> list[dict]:
    """Single-step operator-norm error vs the exact propagator per order,
    fitted to a log-log slope; "degenerate" when the smallest error is below
    1e-14, as a fit through a point at the roundoff floor reads roundoff,
    not the order. Every dt is checked before the eigensolves."""
    check_unread_keys(base.changed_keys(), "scaling")
    dt_values = [check_real("dt", dt) for dt in dt_values]
    if len(set(dt_values)) < 3:
        raise ValueError(f"need at least 3 distinct dt values for a slope fit, got {dt_values}")
    step_params = [dataclasses.replace(base.tfim, dt=dt) for dt in dt_values]
    spec = chain_spectrum(base.tfim)
    rows = []
    for order in ("first", "sym2"):
        errs = [_step_error(spec, params, order) for params in step_params]
        slope = "degenerate" if min(errs) < 1e-14 else scaling_fit(dt_values, errs)[0]
        rows.append({"order": order, "slope": slope, "errors": errs})
    if base.out is not None:
        _write_csv(Path(base.out) / "scaling.csv", *scaling_table(rows))
    return rows


def _step_error(spec: tuple[Spectrum, Spectrum], params: TfimParams, order: str):
    """||U_step - exp(-iH dt)||_2 of one Trotter step, from the sector
    spectra of `chain_spectrum`. Both unitaries commute with the spin flip,
    so it is the larger norm of the two sector blocks of their difference.
    The full U_step is freed before the norms."""
    blocks = sector_blocks(circuit_unitary(build_evolution_circuit(params, 1, order)))
    return max(float(np.linalg.norm(block - sector.propagator(params.dt), 2))
               for block, sector in zip(blocks, spec))


# ------------------------------------------------------------------ output

def fmt(x: float) -> str:
    """12 significant digits; enough for 1e-9 tolerances, stable bytes."""
    return f"{x:.12g}"


def _ratio(num: float, den: float):
    if den < ZERO_RMSE:
        return "NA"
    return num / den


def sweep_table(g_values, results: list[RunResult]) -> tuple[list[str], list[list]]:
    """(header, rows) of sweep.csv: the RMSEs per g."""
    return ["g", "rmse_local", "rmse_total"], [
        [g, r.errors.rmse_local, r.errors.rmse_total] for g, r in zip(g_values, results)
    ]


def compare_table(rows: list[dict]) -> tuple[list[str], list[list]]:
    """(header, rows) of compare.csv: the keys and values of `compare_command`'s rows."""
    return list(rows[0]), [list(row.values()) for row in rows]


def scaling_table(rows: list[dict]) -> tuple[list[str], list[list]]:
    """(header, rows) of scaling.csv: the fitted slope per order."""
    return ["order", "slope"], [[row["order"], row["slope"]] for row in rows]


def csv_text(header: list[str], rows) -> str:
    """The bytes of every CSV table, written or printed: numbers with 12
    significant digits, strings as they are."""
    lines = [",".join(header)]
    lines.extend(",".join([v if isinstance(v, str) else fmt(v) for v in row]) for row in rows)
    return "\n".join(lines) + "\n"


def _write_csv(path: Path, header: list[str], rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(csv_text(header, rows))


def write_run(result: RunResult, out_dir: Path) -> None:
    """series.csv + totals.csv + meta.json; bytes depend only on (config, seed)
    except for the wall_time field."""
    out_dir = Path(out_dir)
    sim, exact = result.sim, result.exact
    n_times, n_sites = sim.local.shape
    m_sim, m_exact = sim.local.ravel(), exact.local.ravel()
    series = [np.repeat(sim.times, n_sites), np.tile(np.arange(n_sites), n_times),
              m_sim, m_exact, m_sim - m_exact]
    _write_csv(out_dir / "series.csv", ["t", "site", "m_sim", "m_exact", "dm"],
               zip(*[column.tolist() for column in series]))
    totals = [sim.times, sim.total, exact.total, sim.total - exact.total]
    _write_csv(out_dir / "totals.csv", ["t", "m_total_sim", "m_total_exact", "dm_total"],
               zip(*[column.tolist() for column in totals]))
    meta = {
        "tool": "trotterbench",
        "version": __version__,
        "config": {k: float(fmt(v)) if isinstance(v, float) else v
                   for k, v in result.config.to_dict().items()},
        "gate_counts": result.counts,
        "rmse": {
            "local": float(fmt(result.errors.rmse_local)),
            "total": float(fmt(result.errors.rmse_total)),
        },
        "wall_time": result.wall_time,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "meta.json").write_text(json.dumps(meta, indent=2) + "\n")
