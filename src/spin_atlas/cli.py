"""Command-line interface: catalog browsing, sweeps, feature detection,
temperature-shift curves, and trace fitting with reproducible outputs."""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import secrets
import stat
import sys

from . import __version__
from .catalog import get_system, list_systems
from .sweep import (
    T_REF,
    SweepConfig,
    features_to_json,
    find_features,
    sweep,
    temperature_shift,
)
from .system import SpecError, SpinSystem
from .thermal import ThermalZfsModel
from .traces import fit_dips, fit_report, load_trace

__all__ = ["main"]

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2

# Largest temperature grid `tshift` accepts; each point costs a gap search.
MAX_TEMPERATURES = 10_000
# Largest field grid accepted, 4x the largest catalog default; each point
# costs an eigensolve and, at d = 648, 10 kB of results.
MAX_POINTS = 16_384


class DomainError(Exception):
    """User-facing error (exit code 1); ``main`` reports a ValueError the same way."""


# ---------------------------------------------------------------------------
# Option resolution: flag > config file > catalog entry > built-in default
# ---------------------------------------------------------------------------

_DEFAULTS = {
    "bmin": 0.5,
    "bmax": 1100.0,          # also the upper bound of tshift's --feature
    "points": 2048,          # catalog entries supply their own
    "temp": 300.0,
    "tmin": 4.0,
    "tmax": 300.0,
    "tstep": 8.0,
}


# Every key a config file may hold: a config shared by several commands
# may carry keys that only some of them read.
_CONFIG_KEYS = (frozenset(_DEFAULTS) | {"thermal_model"}
                | {f.name for f in dataclasses.fields(SweepConfig)})


def _is_number(value) -> bool:
    """A JSON number: not a string, a boolean, null or a container."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise DomainError(f"cannot read config file {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DomainError(f"malformed config file {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise DomainError(f"config file {path} must contain a JSON object")
    unknown = sorted(set(cfg) - _CONFIG_KEYS)
    if unknown:
        raise DomainError(f"config file {path}: unknown key {unknown[0]!r}; "
                          f"known keys are {', '.join(sorted(_CONFIG_KEYS))}")
    return cfg


def _resolve(name: str, args: argparse.Namespace, cfg: dict, entry_value=None):
    """flag > config file > catalog entry's ``entry_value`` > built-in default."""
    value = getattr(args, name, None)
    if value is not None:
        return value
    if name in cfg:
        return cfg[name]
    return _DEFAULTS[name] if entry_value is None else entry_value


def _resolve_float(name: str, args: argparse.Namespace, cfg: dict, entry_value=None) -> float:
    value = _resolve(name, args, cfg, entry_value)
    try:
        if not _is_number(value):
            raise TypeError
        return float(value)
    except (TypeError, OverflowError) as exc:
        raise DomainError(f"invalid {name} value {value!r}: expected a number") from exc


def _thermal_model(cfg: dict) -> ThermalZfsModel:
    overrides = cfg.get("thermal_model", {})
    if not isinstance(overrides, dict):
        raise DomainError(f"thermal_model must be a JSON object, got {overrides!r}")
    try:
        return ThermalZfsModel.from_dict(overrides)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"invalid thermal_model: {exc}") from exc


def _entry_and_system(args: argparse.Namespace):
    """Resolve --system/--spec into (catalog entry or None, SpinSystem)."""
    if getattr(args, "spec", None):
        try:
            with open(args.spec, encoding="utf-8") as fh:
                system = SpinSystem.from_json(fh.read())
        except OSError as exc:
            raise DomainError(f"cannot read spec file {args.spec}: {exc}") from exc
        except (SpecError, ValueError) as exc:
            raise DomainError(f"invalid spec file {args.spec}: {exc}") from exc
        return None, system
    try:
        entry = get_system(args.system)
    except KeyError as exc:
        raise DomainError(str(exc.args[0])) from exc
    return entry, entry.system


def _points(entry, args, cfg) -> int:
    """Grid points, a whole number from 2 to MAX_POINTS."""
    value = _resolve("points", args, cfg, entry and entry.sweep_points)
    try:
        if not _is_number(value) or int(value) != value:
            raise ValueError(f"points must be a whole number, got {value!r}")
        points = int(value)
    except (ValueError, OverflowError) as exc:
        raise DomainError(f"invalid detection settings: {exc}") from exc
    if points < 2:
        raise DomainError(f"grid of {points} points is too small; use at least 2")
    if points > MAX_POINTS:
        raise DomainError(f"grid of {points} points exceeds the cap of {MAX_POINTS}; use fewer points")
    return points


def _detection_config(entry, args, cfg) -> SweepConfig:
    base = entry.config if entry is not None else SweepConfig()
    settings = {f.name: _resolve_float(f.name, args, cfg, getattr(base, f.name))
                for f in dataclasses.fields(SweepConfig)}
    try:
        return SweepConfig(**settings)
    except ValueError as exc:
        raise DomainError(f"invalid detection settings: {exc}") from exc


def _write_atomic(path: str | None, write) -> None:
    """Write output atomically (temp file + rename); '-'/None means stdout.

    ``write`` is the output text, or a function that streams it to the
    text file it is given. A failed write leaves no temp file behind.
    """
    if isinstance(write, str):
        text = write
        write = lambda fh: fh.write(text)  # noqa: E731
    if path in (None, "-"):
        write(sys.stdout)
        return
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        # Created 0o666 as open() creates files, so the kernel applies the umask.
        name = os.path.join(directory, f".spin-atlas-{secrets.token_hex(8)}")
        fd = os.open(name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        tmp = name
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            write(fh)
        with contextlib.suppress(FileNotFoundError):  # an overwritten file keeps its mode
            os.chmod(tmp, stat.S_IMODE(os.stat(path).st_mode))
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.remove(tmp)
        if isinstance(exc, OSError):
            raise DomainError(f"cannot write output file {path}: {exc}") from exc
        raise


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_catalog(args: argparse.Namespace) -> int:
    entries = list_systems()
    if args.format == "json":
        text = json.dumps(
            [{"id": i, "description": d} for i, d in entries], indent=2
        ) + "\n"
    else:
        width = max(len(i) for i, _ in entries)
        text = "".join(f"{i:<{width}}  {d}\n" for i, d in entries)
    _write_atomic(args.out, text)
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    entry, system = _entry_and_system(args)
    points = _points(entry, args, cfg)
    bmin = _resolve_float("bmin", args, cfg)
    bmax = _resolve_float("bmax", args, cfg)
    temp = _resolve_float("temp", args, cfg)
    result = sweep(system, bmin, bmax, points, temperature=temp, model=_thermal_model(cfg))
    if args.format == "json":
        output = json.dumps(
            {
                "temperature_K": result.temperature,
                "d_zfs_MHz": round(result.d_zfs, 4),
                "field_G": [round(x, 2) for x in result.field],
                "eigenvalues_MHz": [
                    [round(x, 4) for x in row] for row in result.eigenvalues
                ],
                "projections": [
                    [round(x, 6) for x in row] for row in result.projections
                ],
            }
        ) + "\n"
    else:
        output = result.to_csv  # streamed row by row, never held whole
    _write_atomic(args.out, output)
    return EXIT_OK


def _cmd_features(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    entry, system = _entry_and_system(args)
    points = _points(entry, args, cfg)
    sweep_cfg = _detection_config(entry, args, cfg)
    bmin = _resolve_float("bmin", args, cfg)
    bmax = _resolve_float("bmax", args, cfg)
    temp = _resolve_float("temp", args, cfg)
    feats = find_features(system, bmin, bmax, points, temperature=temp,
                          model=_thermal_model(cfg), config=sweep_cfg)
    if args.format == "csv":
        lines = ["center_G,span_lo_G,span_hi_G,kind,min_gap_MHz,n_lines"]
        for f in feats:
            lines.append(
                f"{f.center:.2f},{f.span[0]:.2f},{f.span[1]:.2f},"
                f"{f.kind},{f.min_gap:.4f},{len(f.lines)}"
            )
        text = "\n".join(lines) + "\n"
    else:
        text = features_to_json(feats) + "\n"
    _write_atomic(args.out, text)
    return EXIT_OK


def _cmd_tshift(args: argparse.Namespace) -> int:
    target = args.feature
    if not 0.0 <= target <= _DEFAULTS["bmax"]:
        raise DomainError(f"--feature must be a field within 0-{_DEFAULTS['bmax']:g} G, got {target}")
    cfg = _load_config(args.config)
    entry, system = _entry_and_system(args)
    sweep_cfg = _detection_config(entry, args, cfg)
    tmin = _resolve_float("tmin", args, cfg)
    tmax = _resolve_float("tmax", args, cfg)
    tstep = _resolve_float("tstep", args, cfg)
    if not (math.isfinite(tmax) and 0 < tmin <= tmax and 0 < tstep):
        raise DomainError(
            f"invalid temperature grid: tmin={tmin}, tmax={tmax}, tstep={tstep}"
        )
    steps = (tmax - tmin) / tstep  # inf when tstep is subnormal
    if not steps < MAX_TEMPERATURES:
        raise DomainError(
            f"temperature grid from {tmin} to {tmax} K in steps of {tstep} K exceeds "
            f"the cap of {MAX_TEMPERATURES} points; use a larger --tstep"
        )
    # The grid's temperatures are rounded to 0.01 K, the resolution T_K is
    # printed at: each must stay above 0 and above the one before it, which
    # also stops a step that does not move t.
    if round(tmin, 2) <= 0:
        raise DomainError(f"--tmin {tmin} rounds to 0 K at the grid's 0.01 K resolution; use a larger --tmin")
    temps = []
    t = tmin
    while t <= tmax + 1e-9:
        if temps and round(t, 2) == temps[-1]:
            raise DomainError(f"--tstep {tstep} is below the grid's resolution at {t} K "
                              f"(0.01 K, or the float spacing there); use a larger --tstep")
        temps.append(round(t, 2))
        t += tstep
    if T_REF not in temps:
        temps.append(T_REF)
        temps.sort()
    model = _thermal_model(cfg)
    for t in temps:  # every D(T) must be valid before anything is solved
        model.zfs_at(t)
    window = 25.0
    bmin = max(0.0, target - window)
    bmax = min(_DEFAULTS["bmax"], target + window)
    # The locate grid follows the system's sweep grid, not a --points.
    sweep_points = _DEFAULTS["points"] if entry is None else entry.sweep_points
    feats = find_features(system, bmin, bmax, max(sweep_points // 4, 512),
                          temperature=T_REF, model=model, config=sweep_cfg)
    if not feats:
        raise DomainError(f"no feature found within {window} G of {target} G")
    feature = min(feats, key=lambda f: abs(f.center - target))
    try:
        shift = temperature_shift(system, feature, temps, model=model)
    except RuntimeError as exc:
        raise DomainError(str(exc)) from exc
    lines = ["T_K,center_G,delta_B_G"]
    for t, center, delta in zip(shift.temperatures, shift.centers, shift.delta_b):
        if abs(delta) < 5e-3:
            delta = 0.0
        lines.append(f"{t:.2f},{center:.2f},{delta:.2f}")
    lines.append(f"# slope_300K_G_per_K = {shift.slope_at_ref:.4f}")
    if shift.lost:
        lines.append("# warning: feature lost at some temperatures; "
                      "partial results")
    _write_atomic(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_fit_trace(args: argparse.Namespace) -> int:
    if args.central is not None and not math.isfinite(args.central):
        raise DomainError(f"--central must be finite, got {args.central}")
    seeds = None
    if args.seeds:
        try:
            seeds = [float(s) for s in args.seeds.split(",") if s.strip()]
        except ValueError:
            raise DomainError(f"malformed --seeds value {args.seeds!r}")
    fit = fit_dips(load_trace(args.trace), seeds)
    _write_atomic(args.out, fit_report(fit, args.central) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_system_args(p: argparse.ArgumentParser) -> None:
    """--system/--spec and --config: what every solving command takes."""
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--system", help="catalog system id")
    group.add_argument("--spec", help="path to a JSON spin-system spec file")
    p.add_argument("--config", help="JSON config file overriding defaults")


def _add_range_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--points", type=int, help="grid points")
    p.add_argument("--bmin", type=float, help="scan start, gauss")
    p.add_argument("--bmax", type=float, help="scan end, gauss")
    p.add_argument("--temp", type=float, help="temperature, kelvin")


def _add_detection_args(p: argparse.ArgumentParser) -> None:
    for f in dataclasses.fields(SweepConfig):
        p.add_argument("--" + f.name.replace("_", "-"), dest=f.name, type=float)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spin-atlas",
        description="Cross-relaxation feature prediction for NV-center "
                    "multi-spin systems.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="list preset systems")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("sweep", help="compute eigenvalues/projections vs field")
    _add_system_args(p)
    _add_range_args(p)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("features", help="detect and classify crossing features")
    _add_system_args(p)
    _add_range_args(p)
    _add_detection_args(p)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=_cmd_features)

    p = sub.add_parser("tshift", help="temperature shift of one feature")
    _add_system_args(p)
    _add_detection_args(p)
    p.add_argument("--feature", type=float, required=True,
                   help="approximate feature center at 300 K, gauss")
    p.add_argument("--tmin", type=float)
    p.add_argument("--tmax", type=float)
    p.add_argument("--tstep", type=float)
    p.set_defaults(func=_cmd_tshift)

    p = sub.add_parser("fit-trace", help="fit Lorentzian dips to a PL trace")
    p.add_argument("trace", help="CSV trace file (B_gauss,pl)")
    p.add_argument("--seeds", help="comma-separated dip seed fields, gauss")
    p.add_argument("--central", type=float,
                   help="central dip field for side-peak separations")
    p.set_defaults(func=_cmd_fit_trace)

    for p in sub.choices.values():
        p.add_argument("--out", help="output file (default stdout)")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, ValueError) as exc:
        print(f"spin-atlas: error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
