"""Command-line harness: run | sweep | compare | scaling.

Any flag may also come from a JSON config file (--config); explicit flags
override file values, which override built-in defaults. In noisy mode the
noise probabilities default to the device-like calibration unless set. A
value the mode or command would ignore is refused with exit 2 before any
work: a key of `runner.MODE_KEYS` outside its modes, nonzero noise rates
outside noisy mode, a key of `runner.UNREAD_KEYS` given to its command, and
a config file key that is neither a config key nor the command's own list
key.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

from .circuit import is_number
from .noise import DEVICE_LIKE
from .runner import (
    CONFIG_KEYS,
    RunConfig,
    check_mode_keys,
    check_unread_keys,
    compare_command,
    compare_table,
    csv_text,
    fmt,
    run_command,
    scaling_command,
    scaling_table,
    sweep_command,
    sweep_table,
)

#: The noise rates' defaults in noisy mode: the device-like calibration.
_NOISY_DEFAULTS = dataclasses.asdict(DEVICE_LIKE)

#: The value list a command reads besides the config keys.
_LIST_KEYS = {"sweep": "g_list", "compare": "g_list", "scaling": "dt_list"}


def _help(f: dataclasses.Field, default) -> str:
    """The field's help text and default; a noise rate's is its noisy-mode one."""
    if f.name in _NOISY_DEFAULTS:
        noisy = fmt(_NOISY_DEFAULTS[f.name])
        return f"{f.metadata['help']} (noisy mode default: device-like {noisy})"
    if default is None:
        return f.metadata["help"]
    return f"{f.metadata['help']} (default {fmt(default) if type(default) is float else default})"


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing leaves it as it
    was, and every call returns a fresh namespace."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON file supplying any flag")
    defaults = RunConfig().to_dict()
    for f in dataclasses.fields(RunConfig):
        if f.type is bool:
            kind = {"action": argparse.BooleanOptionalAction}
        elif f.type in (int, float):
            kind = {"type": f.type}
        else:  # order, mode and out: a string, from the choices if any
            kind = {"choices": f.metadata["choices"]}
        common.add_argument(f"--{f.name}", help=_help(f, defaults[f.name]), **kind)

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
    """Comma-separated numbers; an empty entry is refused, not skipped."""
    entries = text.split(",")
    if any(v.strip() == "" for v in entries):
        raise ValueError(f"{flag} has an empty entry: {text!r}")
    try:
        return [float(v) for v in entries]
    except ValueError as e:
        raise ValueError(f"{flag}: {e}") from None


def merge_config(args: argparse.Namespace) -> tuple[RunConfig, dict]:
    """defaults < config file < explicit flags; returns (config, file extras)."""
    file_values: dict = {}
    if args.config:
        try:
            with open(args.config) as fh:
                file_values = json.load(fh)
        except OSError as e:
            raise ValueError(f"cannot read config file {args.config}: {e.strerror}") from None
        except ValueError as e:  # not UTF-8 text, or not JSON
            raise ValueError(f"config file {args.config}: {e}") from None
        if not isinstance(file_values, dict):
            raise ValueError("config file must hold a JSON object")
    unknown = set(file_values) - {*CONFIG_KEYS, _LIST_KEYS.get(args.command)}
    if unknown:
        raise ValueError(f"{args.command} reads no config keys {sorted(unknown)}")
    merged = {k: file_values[k] for k in CONFIG_KEYS if k in file_values}
    for key in CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
    check_unread_keys(merged, args.command)  # a key given even at its default
    mode = merged.get("mode", RunConfig.mode)
    check_mode_keys(merged, mode)  # a mode's key, given even at its default
    if mode == "noisy":
        for key, value in _NOISY_DEFAULTS.items():
            merged.setdefault(key, value)
    extras = {k: v for k, v in file_values.items() if k not in CONFIG_KEYS}
    return RunConfig.from_dict(merged), extras


def _value_list(args, extras: dict) -> list[float]:
    """The command's list (`_LIST_KEYS`) from its flag, else from the config
    file: a string or a list of numbers."""
    key = _LIST_KEYS[args.command]
    flag = "--" + key.replace("_", "-")
    raw = getattr(args, key, None)
    if raw is None:
        raw = extras.get(key)
    if raw is None:
        raise ValueError(f"{flag} is required")
    if isinstance(raw, str):
        return _parse_list(raw, flag)
    if isinstance(raw, list) and raw and all(map(is_number, raw)):
        return [float(v) for v in raw]
    raise ValueError(f"{key} must be a string or a nonempty list of numbers, got {raw!r}")


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
            g_values = _value_list(args, extras)
            results = sweep_command(config, g_values)
            print(csv_text(*sweep_table(g_values, results)), end="")
        elif args.command == "compare":
            g_values = _value_list(args, extras)
            rows = compare_command(config, g_values)
            print(csv_text(*compare_table(rows)), end="")
        elif args.command == "scaling":
            dt_values = _value_list(args, extras)
            rows = scaling_command(config, dt_values)
            print(csv_text(*scaling_table(rows)), end="")
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # noqa: BLE001 - runtime failures exit 1 by contract
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
