"""Capacity bounds and decoding experiments for interval ISI channels.

Commands:

    bounds    per-power bound table (CSV)
    figure1   radius sweep of the closed-form gap terms (CSV)
    figure2   capacity/saturation sweep (CSV)
    simulate  decoder error-rate experiments (CSV)
    verify    randomized matrix-fact certificates (JSON)

A JSON config file supplies the channel and sweep parameters; flags, which
may come before or after the command, override the config.  Outputs are
deterministic byte-for-byte for a fixed config and seed.  Exit codes: 0
success, 2 unusable config or arguments, 3 no applicable rows, 4
verification found violations.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, DimensionMismatch, IsicapError
from .spectrum import DEFAULT_GRID, ChannelSpec, check_grid_size, compute_profile
from .waterfill import bound_grid, bound_report, dbw_to_watts, pillow_grid, watts_to_dbw
from .channel_sim import ChannelLaw, _shared_draws, check_law, codebook_size
from .decoder import run_error_experiment
from .verify import verify_report

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_EMPTY = 3
EXIT_VIOLATION = 4

FLAG_NEAR_PSAT = "near_psat"
FLAG_INAPPLICABLE = "bound_inapplicable"
NEAR_PSAT_DBW = 0.5
MAX_GRID_POINTS = 10**6  # a start:stop:count grid past this is refused before np.linspace

_DEFAULTS = {
    "channel": {"k": 2, "c": [1.0, 0.5, 0.5], "r": [1e-3, 1e-3, 1e-3]},
    "grid_size": DEFAULT_GRID,
    "bounds": {"p_dbw": "0:60:61"},
    "figure1": {"rs_log10": "-4:0:33", "p_dbw": [10.0, 30.0, 50.0]},
    "figure2": {"p_dbw": "20:56:73"},
    "simulate": {
        "n_list": [64, 128, 256],
        "p_dbw": -10.0,
        "rate_fraction": 0.25,
        "rate_bits": None,
        "trials": 500,
        "law": {"kind": "iid_uniform"},
    },
    "verify": {"samples": 200, "n_max": 64},
}


@dataclass
class RunConfig:
    command: str
    spec: ChannelSpec
    grid_size: int
    seed: int
    threads: int
    out: Optional[str]
    grid: Optional[str]  # --grid, for the three sweeps only
    sections: dict


def parse_grid(text: str) -> list[float]:
    """Either ``start:stop:count`` (inclusive linspace, at most
    ``MAX_GRID_POINTS`` points) or a comma list."""
    text = text.strip()
    try:
        if ":" in text:
            start_s, stop_s, count_s = text.split(":")
            count = int(count_s)
            if count < 1:
                raise ValueError
            if count > MAX_GRID_POINTS:
                raise ConfigError(f"grid {text!r} has {count} points, over the cap of {MAX_GRID_POINTS}")
            return [float(v) for v in np.linspace(float(start_s), float(stop_s), count)]
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"cannot parse grid {text!r}; want start:stop:count or a comma list") from exc


def _number(value, field: str, integer: bool = False):
    """A config number as a float, or as an int when ``integer``.  A null,
    a non-number (a bool or a string too) or a fractional integer raises
    ``ConfigError`` naming ``field``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{field} must be a number, got {json.dumps(value)}")
    if not integer:
        return float(value)
    if isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{field} must be an integer, got {value!r}")
    return int(value)


def _numbers(value, field: str, integer: bool = False) -> list:
    """A config list of numbers, each checked by ``_number`` as
    ``field[i]``; anything but a list raises ``ConfigError`` naming
    ``field``."""
    if not isinstance(value, list):
        raise ConfigError(f"{field} must be a list, got {json.dumps(value)}")
    return [_number(v, f"{field}[{i}]", integer) for i, v in enumerate(value)]


def _object(value, field: str) -> dict:
    """A config section, which must be a JSON object; anything else raises
    ``ConfigError`` naming ``field``."""
    if not isinstance(value, dict):
        raise ConfigError(f"{field} must be a JSON object, got {json.dumps(value)}")
    return value


def _known(obj: dict, known, prefix: str) -> None:
    """Refuse, naming it as ``prefix + key``, the first key of ``obj`` not
    among the keys ``known``: a misspelt key would otherwise leave its
    default in force without a word."""
    for key in obj:
        if key not in known:
            raise ConfigError(f"unknown config key {prefix}{key}; known: {', '.join(known)}")


def _grid_from(value, field: str) -> list[float]:
    if isinstance(value, str):
        return parse_grid(value)
    return _numbers(value, field)


def _law_from(obj: dict, spec: ChannelSpec) -> ChannelLaw:
    _known(obj, ("kind", "offset", "block_len"), "simulate.law.")
    offset = obj.get("offset")
    try:
        law = ChannelLaw(
            kind=obj.get("kind", "iid_uniform"),
            offset=None if offset is None else _numbers(offset, "simulate.law.offset"),
            block_len=_number(obj.get("block_len", 1), "simulate.law.block_len", integer=True),
        )
        check_law(spec, law)
    except (ValueError, TypeError, DimensionMismatch) as exc:
        raise ConfigError(f"bad channel law in simulate.law: {exc}") from exc
    return law


def load_config(args: argparse.Namespace) -> RunConfig:
    if args.grid is not None and args.command in ("simulate", "verify"):
        raise ConfigError(f"--grid applies to bounds, figure1 and figure2, not {args.command}")
    merged = json.loads(json.dumps(_DEFAULTS))  # deep copy
    if args.config is not None:
        try:
            with open(args.config) as fh:
                user = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {args.config} is not valid JSON: {exc}") from exc
        if not isinstance(user, dict):
            raise ConfigError("config root must be a JSON object")
        _known(user, _DEFAULTS, "")
        for key, value in user.items():
            if isinstance(value, dict) and isinstance(merged.get(key), dict):
                merged[key].update(value)
            else:
                merged[key] = value
    # The channel and the command's own section are checked, keys and all;
    # the other commands' sections are not read by this one.
    channel, section = (_object(merged[name], name) for name in ("channel", args.command))
    _known(channel, _DEFAULTS["channel"], "channel.")
    _known(section, _DEFAULTS[args.command], f"{args.command}.")
    k = _number(channel["k"], "channel.k", integer=True)
    c, r = (_numbers(channel[key], f"channel.{key}") for key in ("c", "r"))
    try:
        spec = ChannelSpec(k=k, c=tuple(c), r=tuple(r))
    except ValueError as exc:
        raise ConfigError(f"bad channel block: {exc}") from exc
    grid_size = check_grid_size(_number(merged.get("grid_size", DEFAULT_GRID), "grid_size", integer=True))
    if args.seed < 0:
        raise ConfigError(f"--seed must be a non-negative integer, got {args.seed}")
    if args.threads < 1:
        raise ConfigError(f"--threads must be a positive integer, got {args.threads}")
    return RunConfig(
        command=args.command,
        spec=spec,
        grid_size=grid_size,
        seed=int(args.seed),
        threads=int(args.threads),
        out=args.out,
        grid=args.grid,
        sections=merged,
    )


def _cells(values, ok=None) -> list:
    """One CSV column from a list or array of numbers, strings or None:
    ``repr`` of each number (a float's shortest round-trip digits), a string
    as it is, and ``""`` for None and wherever the mask ``ok`` is False.  A
    column that holds one number (or None) on every row is given as that
    scalar with its mask, and formatted once."""
    values = np.asarray(values).tolist()
    if not isinstance(values, list):
        cell = "" if values is None else repr(values)
        return [cell if k else "" for k in ok.tolist()]
    keep = [True] * len(values) if ok is None else ok.tolist()
    return ["" if v is None or not k else v if isinstance(v, str) else repr(v)
            for v, k in zip(values, keep)]


def _emit(out: Optional[str], text: str) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as fh:
            fh.write(text)


def _write_csv(cfg: RunConfig, header: Sequence[str], columns) -> None:
    lines = [f"#schema=isicap.{cfg.command}.v1", ",".join(header)]
    lines.extend(",".join(row) for row in zip(*columns))
    _emit(cfg.out, "\n".join(lines) + "\n")


BOUNDS_HEADER = (
    "P_dBW",
    "C0",
    "C_LB1",
    "C_LB2",
    "delta1",
    "delta2",
    "Psat_dBW",
    "gap_cor1",
    "gap_cor2",
    "P_W",
    "Psat_W",
    "flag",
)


def _flag_exit(ok: np.ndarray) -> int:
    """EXIT_EMPTY when every row is inapplicable (``ok`` all False); a
    stderr note (rows are still written, flagged) when only some are."""
    hit = int(np.count_nonzero(~ok))
    if hit == len(ok):
        return EXIT_EMPTY
    if hit:
        print(
            f"warning: refined bounds inapplicable at {hit} of {len(ok)} grid points"
            " (rows flagged, lower-bound columns left empty)",
            file=sys.stderr,
        )
    return EXIT_OK


def _power_sweep(cfg: RunConfig, header) -> int:
    """``bounds`` or ``figure2``: the ``header`` columns over the power grid
    (dBW) from one ``bound_grid`` pass.  A flagged row keeps only its
    powers and ``C0``."""
    grid = _grid_from(cfg.grid or cfg.sections[cfg.command]["p_dbw"], f"{cfg.command}.p_dbw")
    if not grid:
        raise ConfigError("empty power grid")
    p_w = np.array([dbw_to_watts(p) for p in grid])
    g = bound_grid(cfg.spec, p_w, cfg.grid_size)
    ok = g.ok
    psat_dbw = watts_to_dbw(g.P_sat) if g.P_sat is not None and g.P_sat > 0.0 else None
    near = [psat_dbw is not None and abs(p - psat_dbw) <= NEAR_PSAT_DBW for p in grid]
    flags = np.where(ok, np.where(near, FLAG_NEAR_PSAT, ""), FLAG_INAPPLICABLE)
    columns = {
        "P_dBW": (grid, None),
        "C0": (g.C0, None),
        "C_LB1": (g.C_LB1, ok),
        "C_LB2": (g.C_LB2, ok & g.sat),
        "delta1": (g.delta1, ok),
        "delta2": (g.delta2, ok & g.sat),
        "Psat_dBW": (psat_dbw, ok),
        "gap_cor1": (g.gap_cor1, ok),
        "gap_cor2": (g.gap_cor2, ok),
        "P_W": (p_w, None),
        "Psat_W": (g.P_sat, ok),
        "flag": (flags, None),
    }
    _write_csv(cfg, header, [_cells(*columns[name]) for name in header])
    return _flag_exit(ok)


FIGURE1_HEADER = ("r_s", "P_dBW", "bound", "term1", "term2", "term3", "P_W", "flag")


def _radius_sum(v: float, field: str) -> float:
    """``10^v`` for a log10 radius sum; one that is not a finite float (NaN,
    or past about 308) raises ``ConfigError`` naming ``field``."""
    try:
        rs = 10.0 ** v
    except OverflowError:
        rs = math.inf
    if not math.isfinite(rs):
        raise ConfigError(f"{field}: log10 radius sum {v!r} is non-finite as a radius sum")
    return rs


def cmd_figure1(cfg: RunConfig) -> int:
    section = cfg.sections["figure1"]
    if cfg.grid:
        field, logs = "--grid", parse_grid(cfg.grid)
    else:
        field, logs = "figure1.rs_log10", _grid_from(section["rs_log10"], "figure1.rs_log10")
    rs_values = [_radius_sum(v, field) for v in logs]
    p_list = _grid_from(section["p_dbw"], "figure1.p_dbw")
    if not rs_values or not p_list:
        raise ConfigError("empty sweep")
    rs = np.array(rs_values)
    p_w = [dbw_to_watts(p) for p in p_list]
    # one pillow_grid pass, its rows power-major, each power's in radius-sum order
    t1, t2, t3, ok = pillow_grid(compute_profile(cfg.spec, cfg.grid_size), cfg.spec, p_w, rs)
    each = len(rs_values)
    columns = [
        (np.tile(rs, len(p_w)), None), (np.repeat(p_list, each), None), (t1 + t2 + t3, ok),
        (t1, ok), (t2, ok), (t3, ok), (np.repeat(p_w, each), None),
        (np.where(ok, "", FLAG_INAPPLICABLE), None),
    ]
    _write_csv(cfg, FIGURE1_HEADER, [_cells(*c) for c in columns])
    return _flag_exit(ok)


FIGURE2_HEADER = ("P_dBW", "C0", "C_LB1", "C_LB2", "P_W", "flag")


SIMULATE_HEADER = (
    "n",
    "R_bits",
    "P_dBW",
    "trials",
    "type1",
    "type2",
    "success",
    "wilson_lo",
    "wilson_hi",
    "P_W",
)


def cmd_simulate(cfg: RunConfig) -> int:
    section = cfg.sections["simulate"]
    n_list = _numbers(section["n_list"], "simulate.n_list", integer=True)
    if not n_list:
        raise ConfigError("empty n_list")
    p_dbw = _number(section["p_dbw"], "simulate.p_dbw")
    p_w = dbw_to_watts(p_dbw)
    trials = _number(section["trials"], "simulate.trials", integer=True)
    law = _law_from(_object(section.get("law", {}), "simulate.law"), cfg.spec)
    if section.get("rate_bits") is not None:
        rate = _number(section["rate_bits"], "simulate.rate_bits") + 0.0  # + 0.0: no -0.0 in R_bits
    else:
        fraction = _number(section.get("rate_fraction", 0.25), "simulate.rate_fraction")
        c_lb1 = bound_report(cfg.spec, p_w, cfg.grid_size).C_LB1
        if c_lb1 is None:
            raise ConfigError(f"C_LB1 is undefined at {p_dbw} dBW; give rate_bits")
        rate = fraction * c_lb1
        if rate <= 0.0:
            raise ConfigError(
                f"derived rate {rate:.4g} is not positive at {p_dbw} dBW; give rate_bits"
            )
    # Each entry's codebook refusal, in n_list order, before any run does
    # work (a run refuses trials <= 0 first); then each distinct length runs
    # once, the widest first, and the rest copy its draws (_shared_draws).
    for n in n_list if trials > 0 else ():
        codebook_size(n, rate, trials, cfg.spec.k)
    rows = {}
    with _shared_draws(n_list) as lengths:
        for n in lengths:
            res = run_error_experiment(
                cfg.spec,
                n=n,
                R=rate,
                P=p_w,
                trials=trials,
                master_seed=cfg.seed,
                law=law,
                threads=cfg.threads,
            )
            rows[n] = (n, rate, p_dbw, trials, res.type1, res.type2, res.success,
                       res.wilson_lo, res.wilson_hi, p_w)
    _write_csv(cfg, SIMULATE_HEADER, [_cells(col) for col in zip(*map(rows.get, n_list))])
    return EXIT_OK


def cmd_verify(cfg: RunConfig) -> int:
    section = cfg.sections["verify"]
    report = verify_report(
        samples=_number(section["samples"], "verify.samples", integer=True),
        master_seed=cfg.seed,
        n_max=_number(section["n_max"], "verify.n_max", integer=True),
    )
    _emit(cfg.out, json.dumps(report, indent=2, sort_keys=True) + "\n")
    if report["violations_total"] > 0:
        return EXIT_VIOLATION
    return EXIT_OK


_COMMANDS = {
    "bounds": lambda cfg: _power_sweep(cfg, BOUNDS_HEADER),
    "figure1": cmd_figure1,
    "figure2": lambda cfg: _power_sweep(cfg, FIGURE2_HEADER),
    "simulate": cmd_simulate,
    "verify": cmd_verify,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isicap", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("command", choices=_COMMANDS, metavar="command")
    parser.add_argument("--config", default=None, help="JSON config file")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    parser.add_argument(
        "--threads",
        type=int,
        default=os.cpu_count() or 1,
        help="worker threads for simulate (default: all cores); the other "
        "commands accept it and run on one thread",
    )
    parser.add_argument(
        "--grid",
        default=None,
        help="sweep override for bounds, figure1 and figure2: start:stop:count "
        "or comma list (dBW; log10 radius sum for figure1)",
    )
    return parser


# One parser per process: building it costs several times what parsing does,
# and parse_args leaves it unchanged, so successive calls share it.
_parser = lru_cache(maxsize=1)(build_parser)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](load_config(args))
    except (IsicapError, ValueError, OSError) as exc:
        print(f"isicap: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
