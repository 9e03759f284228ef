"""Command-line harness: run | sweep | compare | scaling.

Any flag may also come from a JSON config file (--config); explicit flags
override file values, which override built-in defaults. In noisy mode the
noise probabilities default to the device-like calibration unless set. A
value the mode would ignore is refused with exit 2 before any work:
shots outside shots mode, traj or nonzero noise rates outside noisy mode.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .noise import DEVICE_LIKE
from .runner import (
    CONFIG_KEYS,
    RunConfig,
    compare_command,
    fmt,
    run_command,
    scaling_command,
    sweep_command,
)

#: Config keys that only one mode reads, and that mode.
_MODE_KEYS = {"shots": "shots", "traj": "noisy"}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON file supplying any flag")
    common.add_argument("--n", type=int, help="number of spins (default 5)")
    common.add_argument("--j", type=float, help="Ising coupling J (default 1)")
    common.add_argument("--g", type=float, help="transverse field g (default 1)")
    common.add_argument("--dt", type=float, help="Trotter step size (default 0.2)")
    common.add_argument("--steps", type=int, help="number of Trotter steps (default 20)")
    common.add_argument("--order", choices=["first", "sym2"],
                        help="Trotter order (default first)")
    common.add_argument("--mode", choices=["ideal", "shots", "noisy"],
                        help="execution mode (default ideal)")
    common.add_argument("--shots", type=int, help="shots per time point (default 1024)")
    common.add_argument("--traj", type=int,
                        help="noise trajectories per run (default 256)")
    common.add_argument("--p1", type=float,
                        help="fault probability after single-qubit gates")
    common.add_argument("--p2", type=float, help="fault probability after CNOTs")
    common.add_argument("--read01", type=float, help="readout 0->1 flip probability")
    common.add_argument("--read10", type=float, help="readout 1->0 flip probability")
    common.add_argument("--periodic", action=argparse.BooleanOptionalAction,
                        help="periodic chain (default open)")
    common.add_argument("--seed", type=int, help="base RNG seed (default 0)")
    common.add_argument("--out", help="output directory")

    parser = argparse.ArgumentParser(
        prog="trotterbench",
        description="Trotterized transverse-field Ising dynamics vs the exact propagator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("run", parents=[common],
                   help="one run; writes series.csv, totals.csv, meta.json")
    p_sweep = sub.add_parser("sweep", parents=[common],
                             help="one run per g value plus a combined RMSE table")
    p_sweep.add_argument("--g-list", help="comma-separated g values, e.g. 1,2,3")
    p_cmp = sub.add_parser("compare", parents=[common],
                           help="both Trotter orders per g value, shared seed")
    p_cmp.add_argument("--g-list", help="comma-separated g values")
    p_scal = sub.add_parser("scaling", parents=[common],
                            help="single-step error vs dt, log-log slope per order")
    p_scal.add_argument("--dt-list", help="comma-separated dt values (>= 3)")
    return parser


def _parse_list(text: str, flag: str) -> list[float]:
    try:
        values = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as e:
        raise ValueError(f"{flag}: {e}") from None
    if not values:
        raise ValueError(f"{flag} must list at least one value")
    return values


def merge_config(args: argparse.Namespace) -> tuple[RunConfig, dict]:
    """defaults < config file < explicit flags; returns (config, file extras)."""
    file_values: dict = {}
    if args.config:
        with open(args.config) as fh:
            file_values = json.load(fh)
        if not isinstance(file_values, dict):
            raise ValueError("config file must hold a JSON object")
    merged = {k: file_values[k] for k in CONFIG_KEYS if k in file_values}
    for key in CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
    mode = merged.get("mode", RunConfig.mode)
    for key, needs in _MODE_KEYS.items():
        if key in merged and mode != needs:
            raise ValueError(f"{key} applies only in {needs} mode; "
                             f"{mode} mode would ignore it")
    if mode == "noisy":
        for key, value in dataclasses.asdict(DEVICE_LIKE).items():
            merged.setdefault(key, value)
    extras = {k: v for k, v in file_values.items() if k not in CONFIG_KEYS}
    return RunConfig.from_dict(merged), extras


def _text(v) -> str:
    return v if isinstance(v, str) else fmt(v)


def _value_list(args, extras: dict, key: str, flag: str) -> list[float]:
    text = getattr(args, key, None)
    if text is not None:
        return _parse_list(text, flag)
    if key in extras:
        raw = extras[key]
        if isinstance(raw, str):
            return _parse_list(raw, flag)
        return [float(v) for v in raw]
    raise ValueError(f"{flag} is required")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config, extras = merge_config(args)
        if args.command == "run":
            result = run_command(config)
            print(f"rmse_local={fmt(result.errors.rmse_local)} "
                  f"rmse_total={fmt(result.errors.rmse_total)} "
                  f"gates={result.counts['n_gates']} "
                  f"wall_time={result.wall_time:.3f}s")
        elif args.command == "sweep":
            g_values = _value_list(args, extras, "g_list", "--g-list")
            results = sweep_command(config, g_values)
            print("g,rmse_local,rmse_total")
            for g, r in zip(g_values, results):
                print(f"{fmt(g)},{fmt(r.errors.rmse_local)},{fmt(r.errors.rmse_total)}")
        elif args.command == "compare":
            g_values = _value_list(args, extras, "g_list", "--g-list")
            rows = compare_command(config, g_values)
            header = ["g", "rmse_local_first", "rmse_local_sym2", "ratio_local",
                      "rmse_total_first", "rmse_total_sym2", "ratio_total"]
            print(",".join(header))
            for row in rows:
                print(",".join(_text(row[h]) for h in header))
        elif args.command == "scaling":
            dt_values = _value_list(args, extras, "dt_list", "--dt-list")
            rows = scaling_command(config, dt_values)
            print("order,slope")
            for row in rows:
                print(f"{row['order']},{_text(row['slope'])}")
    except (ValueError, json.JSONDecodeError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # noqa: BLE001 - runtime failures exit 1 by contract
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
