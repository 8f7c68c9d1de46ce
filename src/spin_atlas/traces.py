"""Fitting of photoluminescence-versus-field traces.

A trace is modeled as Lorentzian dips on a linear baseline::

    pl(B) = (a + b*B) * (1 - sum_j d_j * w_j**2 / ((B - c_j)**2 + w_j**2))

Fitting is one ``scipy.optimize.least_squares`` call with MINPACK's
Levenberg-Marquardt and a finite-difference Jacobian.  Contrast is defined as
dip depth relative to the local baseline value at the dip center, in percent.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import least_squares

__all__ = [
    "Trace",
    "Dip",
    "DipFit",
    "TraceError",
    "load_trace",
    "dip_model",
    "fit_dips",
    "auto_seeds",
    "side_peak_separations",
    "fit_report",
]

_MIN_POINTS = 16


class TraceError(ValueError):
    """Raised for malformed trace input or unusable fit configurations."""


@dataclass(frozen=True)
class Trace:
    """A PL-versus-field scan; field in gauss, PL in arbitrary units."""

    field: tuple[float, ...]
    pl: tuple[float, ...]
    temperature: float | None = None

    @np.errstate(all="ignore")
    def __post_init__(self) -> None:
        if len(self.field) != len(self.pl):
            raise TraceError(
                f"field and pl lengths differ: {len(self.field)} != {len(self.pl)}"
            )
        if len(self.field) < _MIN_POINTS:
            raise TraceError(
                f"trace too short: {len(self.field)} points (minimum {_MIN_POINTS})"
            )
        if not (np.all(np.isfinite(self.field)) and np.all(np.isfinite(self.pl))):
            raise TraceError("field and pl values must be finite")
        diffs = np.diff(self.field)
        if not np.all(diffs > 0):
            raise TraceError("field values must be strictly increasing")

    @property
    def grid_spacing(self) -> float:
        return (self.field[-1] - self.field[0]) / (len(self.field) - 1)


def load_trace(path) -> Trace:
    """Load a trace from CSV with header ``B_gauss,pl``.

    Metadata rows prefixed with ``#`` may carry ``temperature_K = <value>``.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise TraceError(f"cannot read trace file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise TraceError(f"trace file {path} is not UTF-8 text: {exc}") from exc

    temperature: float | None = None
    data_lines: list[str] = []
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            body = stripped.lstrip("#").strip()
            if "temperature_K" in body:
                try:
                    temperature = float(body.split("=", 1)[1])
                except (IndexError, ValueError) as exc:
                    raise TraceError(
                        f"malformed temperature metadata row: {stripped!r}"
                    ) from exc
            continue
        data_lines.append(stripped)

    if not data_lines:
        raise TraceError("trace file contains no data rows")
    reader = csv.reader(io.StringIO("\n".join(data_lines)))
    header = next(reader)
    if [h.strip() for h in header[:2]] != ["B_gauss", "pl"]:
        raise TraceError(
            f"expected header 'B_gauss,pl', found {','.join(header)!r}"
        )
    fields: list[float] = []
    pls: list[float] = []
    for row_no, row in enumerate(reader, start=2):
        if len(row) < 2:
            raise TraceError(f"row {row_no}: expected 2 columns, found {len(row)}")
        try:
            fields.append(float(row[0]))
            pls.append(float(row[1]))
        except ValueError as exc:
            raise TraceError(f"row {row_no}: non-numeric value") from exc

    return Trace(tuple(fields), tuple(pls), temperature)


# ---------------------------------------------------------------------------
# Model and fitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Dip:
    center: float       # gauss
    hwhm: float         # gauss
    depth: float        # fraction of local baseline
    removable: bool = False

    def contrast_percent(self) -> float:
        return 100.0 * self.depth


@dataclass(frozen=True)
class DipFit:
    dips: tuple[Dip, ...]
    baseline: tuple[float, float]      # (a, b) of a + b*B
    residual_rms: float
    converged: bool
    iterations: int

    def parameters(self) -> np.ndarray:
        out = [self.baseline[0], self.baseline[1]]
        for d in self.dips:
            out.extend([d.center, d.hwhm, d.depth])
        return np.array(out)


def dip_model(params: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Evaluate the multi-Lorentzian dip model for a flat parameter vector."""
    a, slope = params[0], params[1]
    result = np.ones_like(b)
    for j in range(2, len(params), 3):
        c, w, d = params[j], params[j + 1], params[j + 2]
        result = result - d * w * w / ((b - c) ** 2 + w * w)
    return (a + slope * b) * result


def _residuals(params: np.ndarray, b: np.ndarray, pl: np.ndarray) -> np.ndarray:
    return dip_model(params, b) - pl


def auto_seeds(trace: Trace) -> list[float]:
    """Seed dip centers from local minima with robust prominence.

    The trace is detrended with a linear fit; minima deeper than three times
    the median absolute deviation of the detrended signal are kept.
    """
    b = np.asarray(trace.field)
    pl = np.asarray(trace.pl)
    coeff = np.polyfit(b, pl, 1)
    detrended = pl - np.polyval(coeff, b)
    mad = float(np.median(np.abs(detrended - np.median(detrended))))
    threshold = 3.0 * mad if mad > 0 else 0.0
    seeds = []
    for k in range(1, len(pl) - 1):
        if (
            detrended[k] <= detrended[k - 1]
            and detrended[k] <= detrended[k + 1]
            and -detrended[k] > threshold
        ):
            seeds.append(float(b[k]))
    return seeds


@np.errstate(all="ignore")
def fit_dips(trace: Trace, seeds: list[float] | None = None) -> DipFit:
    """Fit the multi-dip model; seeds default to automatic minima detection.

    The fit is one ``scipy.optimize.least_squares(method="lm")`` call (MINPACK
    Levenberg-Marquardt) at scipy's default tolerances.  Raises
    :class:`TraceError` for non-finite, out-of-range or duplicated seeds, for
    more parameters (2 + 3 per dip) than trace points, and for a model or fit
    that is not finite.  A fit that exhausts MINPACK's evaluation budget is
    returned flagged ``converged=False``; ``iterations`` reports scipy's
    ``nfev``, the number of residual evaluations.  NumPy floating-point
    warnings are off: an overflow surfaces only through those checks.
    """
    b = np.asarray(trace.field)
    pl = np.asarray(trace.pl)
    if seeds is None:
        seeds = auto_seeds(trace)
    if not seeds:
        raise TraceError("no dip seeds: none supplied and none auto-detected")
    seeds = sorted(float(s) for s in seeds)
    if not all(math.isfinite(s) for s in seeds):
        raise TraceError("seeds must be finite")
    if seeds[0] < b[0] or seeds[-1] > b[-1]:
        raise TraceError("seed outside the trace field range")
    min_sep = 2.0 * trace.grid_spacing
    for s0, s1 in zip(seeds, seeds[1:]):
        if s1 - s0 < min_sep:
            raise TraceError(
                f"seeds {s0:.2f} and {s1:.2f} G closer than twice the grid spacing"
            )
    if 2 + 3 * len(seeds) > len(b):
        raise TraceError(
            f"{len(seeds)} dips need {2 + 3 * len(seeds)} parameters but the "
            f"trace has only {len(b)} points; try fewer dips"
        )

    # Initial parameters: linear baseline from the trace ends, a 3-point-wide
    # dip of the locally observed depth at each seed.
    a0 = float(np.median(pl[: max(3, len(pl) // 20)]))
    a1 = float(np.median(pl[-max(3, len(pl) // 20):]))
    slope0 = (a1 - a0) / (b[-1] - b[0])
    base0 = a0 - slope0 * b[0]
    params = [base0, slope0]
    for s in seeds:
        k = int(np.argmin(np.abs(b - s)))
        local_base = base0 + slope0 * b[k]
        depth0 = max(1e-4, 1.0 - pl[k] / local_base)
        params.extend([s, 3.0 * trace.grid_spacing, depth0])
    params = np.array(params)

    # least_squares raises a bare ValueError on a non-finite starting point,
    # which extreme trace values (a baseline overflowing, or zero at a dip)
    # can give.
    if not np.all(np.isfinite(_residuals(params, b, pl))):
        raise TraceError("initial model is not finite; check the trace values")
    res = least_squares(_residuals, params, method="lm", args=(b, pl))
    params = res.x
    rms = float(math.sqrt(np.mean(res.fun**2)))
    if not (np.all(np.isfinite(params)) and math.isfinite(rms)):
        raise TraceError("fit diverged: parameters or residual not finite; "
                         "try fewer dips")

    dips = []
    span = float(b[-1] - b[0])
    for j in range(2, len(params), 3):
        c, w, d = float(params[j]), float(abs(params[j + 1])), float(params[j + 2])
        # Removable: vanishing depth, or a component that drifted off the
        # data (center outside the trace, width beyond the full span).
        removable = abs(d) < 1e-3 or not b[0] <= c <= b[-1] or w > span
        dips.append(Dip(center=c, hwhm=w, depth=d, removable=removable))
    dips.sort(key=lambda d: d.center)
    return DipFit(
        dips=tuple(dips),
        baseline=(float(params[0]), float(params[1])),
        residual_rms=rms,
        converged=res.status > 0,
        iterations=res.nfev,
    )


def side_peak_separations(fit: DipFit, central: float) -> list[float]:
    """Sorted distances of all non-central dip centers from ``central``."""
    if len(fit.dips) < 2:
        return []
    centers = [d.center for d in fit.dips]
    nearest = min(centers, key=lambda c: abs(c - central))
    return sorted(abs(c - nearest) for c in centers if c != nearest)


def fit_report(fit: DipFit, central: float | None = None) -> str:
    """JSON report with dips, baseline, residual and (optional) separations."""
    payload = {
        "dips": [
            {
                "center_G": round(d.center, 2),
                "hwhm_G": round(d.hwhm, 4),
                "depth": round(d.depth, 6),
                "contrast_percent": round(d.contrast_percent(), 4),
                "removable": d.removable,
            }
            for d in fit.dips
        ],
        "baseline": {
            "intercept": round(fit.baseline[0], 6),
            "slope_per_G": round(fit.baseline[1], 8),
        },
        "residual_rms": round(fit.residual_rms, 8),
        "converged": fit.converged,
        "iterations": fit.iterations,
    }
    if central is not None:
        payload["separations_G"] = [
            round(s, 2) for s in side_peak_separations(fit, central)
        ]
    return json.dumps(payload, indent=2, sort_keys=True)
