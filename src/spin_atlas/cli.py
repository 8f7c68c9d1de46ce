"""Command-line interface: catalog browsing, sweeps, feature detection,
temperature-shift curves, and trace fitting with reproducible outputs."""

from __future__ import annotations

import argparse
import dataclasses
import io
import json
import math
import os
import sys
import tempfile

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


class DomainError(Exception):
    """User-facing error (exit code 1); ``main`` reports a ValueError the same way."""


# ---------------------------------------------------------------------------
# Option resolution: flag > config file > built-in default
# ---------------------------------------------------------------------------

_DEFAULTS = {
    "bmin": 0.5,
    "bmax": 1100.0,
    "points": None,          # per-catalog-entry default when None
    "temp": 300.0,
    "tmin": 4.0,
    "tmax": 300.0,
    "tstep": 8.0,
    "jump_threshold": None,
    "gap_ceiling": None,
    "gap_true": None,
    "cluster_radius": None,
}


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
    return cfg


def _resolve(name: str, args: argparse.Namespace, cfg: dict):
    value = getattr(args, name, None)
    if value is not None:
        return value
    if name in cfg:
        return cfg[name]
    return _DEFAULTS.get(name)


def _resolve_float(name: str, args: argparse.Namespace, cfg: dict) -> float:
    value = _resolve(name, args, cfg)
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"invalid {name} value {value!r}: expected a number") from exc


def _thermal_model(cfg: dict) -> ThermalZfsModel:
    overrides = cfg.get("thermal_model", {})
    if not overrides:
        return ThermalZfsModel()
    if not isinstance(overrides, dict):
        raise DomainError(f"thermal_model must be a JSON object, got {overrides!r}")
    try:
        return ThermalZfsModel.from_dict(overrides)
    except (TypeError, ValueError) as exc:
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


def _sweep_settings(entry, args, cfg):
    """Grid points and detection settings: flag > config > entry > default."""
    points = _resolve("points", args, cfg)
    if points is None:
        points = entry.sweep_points if entry is not None else 2048
    base = entry.sweep_config() if entry is not None else SweepConfig()
    try:
        overrides = {}
        for key in ("jump_threshold", "gap_ceiling", "gap_true", "cluster_radius"):
            value = _resolve(key, args, cfg)
            if value is not None:
                overrides[key] = float(value)
        return int(points), dataclasses.replace(base, **overrides)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"invalid detection settings: {exc}") from exc


def _write_atomic(path: str | None, text: str) -> None:
    """Write output atomically (temp file + rename); '-'/None means stdout."""
    if path in (None, "-"):
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".spin-atlas-")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise DomainError(f"cannot write output file {path}: {exc}") from exc


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
    points, _ = _sweep_settings(entry, args, cfg)
    bmin = _resolve_float("bmin", args, cfg)
    bmax = _resolve_float("bmax", args, cfg)
    temp = _resolve_float("temp", args, cfg)
    result = sweep(system, bmin, bmax, points, temperature=temp, model=_thermal_model(cfg))
    if args.format == "json":
        text = json.dumps(
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
        buf = io.StringIO()
        result.to_csv(buf)
        text = buf.getvalue()
    _write_atomic(args.out, text)
    return EXIT_OK


def _cmd_features(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    entry, system = _entry_and_system(args)
    points, sweep_cfg = _sweep_settings(entry, args, cfg)
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
    cfg = _load_config(args.config)
    entry, system = _entry_and_system(args)
    points, sweep_cfg = _sweep_settings(entry, args, cfg)
    tmin = _resolve_float("tmin", args, cfg)
    tmax = _resolve_float("tmax", args, cfg)
    tstep = _resolve_float("tstep", args, cfg)
    if not (math.isfinite(tmax) and 0 < tmin <= tmax and 0 < tstep):
        raise DomainError(
            f"invalid temperature grid: tmin={tmin}, tmax={tmax}, tstep={tstep}"
        )
    n_temps = int((tmax - tmin) / tstep) + 1
    if n_temps > MAX_TEMPERATURES:
        raise DomainError(
            f"temperature grid of {n_temps} points exceeds the cap of "
            f"{MAX_TEMPERATURES}; use a larger --tstep"
        )
    temps = []
    t = tmin
    while t <= tmax + 1e-9:
        temps.append(round(t, 6))
        t += tstep
    if T_REF not in temps:
        temps.append(T_REF)
        temps.sort()
    model = _thermal_model(cfg)
    target = float(args.feature)
    window = 25.0
    bmin = max(0.0, target - window)
    bmax = min(1100.0, target + window)
    feats = find_features(system, bmin, bmax, max(points // 4, 512),
                          temperature=300.0, model=model, config=sweep_cfg)
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
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--system", help="catalog system id")
    group.add_argument("--spec", help="path to a JSON spin-system spec file")


def _add_sweep_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--bmin", type=float, help="scan start, gauss")
    p.add_argument("--bmax", type=float, help="scan end, gauss")
    p.add_argument("--points", type=int, help="grid points")
    p.add_argument("--temp", type=float, help="temperature, kelvin")
    p.add_argument("--jump-threshold", dest="jump_threshold", type=float)
    p.add_argument("--gap-ceiling", dest="gap_ceiling", type=float)
    p.add_argument("--gap-true", dest="gap_true", type=float)
    p.add_argument("--cluster-radius", dest="cluster_radius", type=float)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file overriding defaults")
    p.add_argument("--out", help="output file (default stdout)")


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
    _add_common(p)
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("sweep", help="compute eigenvalues/projections vs field")
    _add_system_args(p)
    _add_sweep_args(p)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    _add_common(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("features", help="detect and classify crossing features")
    _add_system_args(p)
    _add_sweep_args(p)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    _add_common(p)
    p.set_defaults(func=_cmd_features)

    p = sub.add_parser("tshift", help="temperature shift of one feature")
    _add_system_args(p)
    _add_sweep_args(p)
    p.add_argument("--feature", type=float, required=True,
                   help="approximate feature center at 300 K, gauss")
    p.add_argument("--tmin", type=float)
    p.add_argument("--tmax", type=float)
    p.add_argument("--tstep", type=float)
    _add_common(p)
    p.set_defaults(func=_cmd_tshift)

    p = sub.add_parser("fit-trace", help="fit Lorentzian dips to a PL trace")
    p.add_argument("trace", help="CSV trace file (B_gauss,pl)")
    p.add_argument("--seeds", help="comma-separated dip seed fields, gauss")
    p.add_argument("--central", type=float,
                   help="central dip field for side-peak separations")
    _add_common(p)
    p.set_defaults(func=_cmd_fit_trace)

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
