"""Workload definitions: the CLI commands each workload runs, and the count of
logical gate applications they perform.

Every workload is a fixed list of `trotterbench` command lines. The seed of
the sampled commands (shots and noisy mode) comes from the benchmark's
`--seed`; without one, the README's values are used (shots 7, noisy 3), and
those are the seeds the reference outputs were recorded with.
"""

from __future__ import annotations

import json
from pathlib import Path

NOISY_SEED = 3
SHOTS_SEED = 7

WORKLOADS = ("noisy_n5", "exact_n10", "grid_n5")


# Sizes: "full" is what the benchmark measures, "tiny" is what the self-test
# runs. Each entry: (command, flags); the seed and --out are added later.
_SIZES = {
    "full": {
        "noisy_n5": [
            ("run", "--n 5 --g 2 --dt 0.2 --steps 20 --mode noisy --traj 256 --order first"),
            ("run", "--n 5 --g 2 --dt 0.2 --steps 20 --mode noisy --traj 256 --order sym2"),
        ],
        "exact_n10": [
            ("compare", "--n 10 --g-list 2"),
            ("run", "--n 10 --g 2 --order sym2 --mode shots --shots 1024"),
        ],
        "grid_n5": [
            ("compare", "--g-list 1,2,3,4,5,6"),
            ("sweep", "--g-list 1,2,3,4,5,6 --mode shots"),
            ("scaling", "--g 2 --dt-list 0.0125,0.025,0.05,0.1,0.2"),
        ],
    },
    "tiny": {
        "noisy_n5": [
            ("run", "--n 3 --g 2 --steps 4 --mode noisy --traj 8 --order first"),
            ("run", "--n 3 --g 2 --steps 4 --mode noisy --traj 8 --order sym2"),
        ],
        "exact_n10": [
            ("compare", "--n 4 --g-list 2 --steps 4"),
            ("run", "--n 4 --g 2 --steps 4 --order sym2 --mode shots --shots 64"),
        ],
        "grid_n5": [
            ("compare", "--n 3 --steps 4 --g-list 1,2"),
            ("sweep", "--n 3 --steps 4 --g-list 1,2 --mode shots --shots 64"),
            ("scaling", "--n 3 --g 2 --dt-list 0.05,0.1,0.2"),
        ],
    },
}


def commands(workload: str, size: str = "full", seed: int | None = None) -> list[list[str]]:
    """Argument lists for `trotterbench.cli.main`, without `--out`.

    Each command writes into its own directory named by `out_name(i, argv)`.
    """
    argvs = []
    for command, flags in _SIZES[size][workload]:
        argv = [command, *flags.split()]
        mode = _flag(argv, "--mode", "ideal")
        if mode != "ideal":
            default = NOISY_SEED if mode == "noisy" else SHOTS_SEED
            argv += ["--seed", str(default if seed is None else seed)]
        argvs.append(argv)
    return argvs


def out_name(index: int, argv: list[str]) -> str:
    return f"{index}_{argv[0]}"


def is_reference_seed(workload: str, seed: int | None) -> bool:
    """Whether the recorded reference applies to every output, not only the
    seed-independent ones."""
    if seed is None:
        return True
    modes = {_flag(a, "--mode", "ideal") for a in commands(workload)}
    return all(seed == (NOISY_SEED if m == "noisy" else SHOTS_SEED)
               for m in modes if m != "ideal")


def _flag(argv: list[str], name: str, default: str) -> str:
    return argv[argv.index(name) + 1] if name in argv else default


# ------------------------------------------------------------ gate counting

def bond_split(n: int, periodic: bool) -> tuple[int, int]:
    """(odd, even) bond counts of the chain, 1-based bond index parity."""
    bonds = n if periodic else n - 1
    return (bonds + 1) // 2, bonds // 2


def step_gate_counts(n: int, order: str, periodic: bool = False) -> dict:
    """Gates per Trotter step by kind, derived from the TFIM step layout:
    each ZZ term is CNOT, RZ, CNOT."""
    odd, even = bond_split(n, periodic)
    if order == "first":
        rx_count, zz = n, odd + even
    else:
        rx_count, zz = 2 * n, 2 * odd + even
    return {"RX": rx_count, "RZ": zz, "CNOT": 2 * zz}


def _config_args(argv: list[str]) -> dict:
    return {
        "n": int(_flag(argv, "--n", "5")),
        "steps": int(_flag(argv, "--steps", "20")),
        "order": _flag(argv, "--order", "first"),
        "mode": _flag(argv, "--mode", "ideal"),
        "traj": int(_flag(argv, "--traj", "256")),
        "periodic": "--periodic" in argv,
    }


def _batch(cfg: dict) -> int:
    return cfg["traj"] if cfg["mode"] == "noisy" else 1


def _meta_gates(run_dir: Path) -> int:
    return json.loads((run_dir / "meta.json").read_text())["gate_counts"]["n_gates"]


def gate_applications(argv: list[str], out_dir: Path) -> int:
    """Logical gate applications of one command: n_gates x batch, where batch
    is the trajectory count in noisy mode, 1 in ideal and shots mode, and
    2^n for the dense step unitaries of `scaling`. Gate counts come from
    meta.json where the command writes one, else from the step layout."""
    cfg = _config_args(argv)
    n, steps = cfg["n"], cfg["steps"]
    command = argv[0]
    if command == "run":
        return _meta_gates(out_dir) * _batch(cfg)
    if command == "sweep":
        return sum(_meta_gates(d) for d in sorted(out_dir.glob("g_*"))) * _batch(cfg)
    if command == "compare":
        g_count = len(_flag(argv, "--g-list", "").split(","))
        per_g = sum(sum(step_gate_counts(n, o, cfg["periodic"]).values()) * steps
                    for o in ("first", "sym2"))
        return g_count * per_g * _batch(cfg)
    if command == "scaling":
        dt_count = len(_flag(argv, "--dt-list", "").split(","))
        per_dt = sum(sum(step_gate_counts(n, o, cfg["periodic"]).values())
                     for o in ("first", "sym2"))
        return dt_count * per_dt * (1 << n)
    raise ValueError(f"unknown command {command!r}")
