"""Fitting of photoluminescence-versus-field traces.

A trace is modeled as Lorentzian dips on a linear baseline::

    pl(B) = (a + b*B) * (1 - sum_j d_j * w_j**2 / ((B - c_j)**2 + w_j**2))

Fitting is a numpy port of MINPACK's ``lmder``, Moré's scaled trust-region
Levenberg-Marquardt, with the model's closed-form Jacobian: variables scaled
by the Jacobian's column norms, ftol = xtol = gtol = 1e-8 and a budget of
100 residual evaluations per parameter, the settings of scipy's
``least_squares(method="lm")`` since scipy 1.16.  Contrast is defined as dip
depth relative to the local baseline value at the dip center, in percent.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

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
        if self.temperature is not None and not (math.isfinite(self.temperature) and self.temperature >= 0):
            raise TraceError(f"temperature must be finite and non-negative, got {self.temperature}")

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


def _jacobian(params: np.ndarray, b: np.ndarray, pl: np.ndarray) -> np.ndarray:
    """Closed-form derivative of :func:`_residuals`, shape (len(b), len(params)).

    With base = a + s*B, S the dip factor, x = B - c_j and L = x**2 + w_j**2:
    d/da = S, d/ds = B*S, d/dd_j = -base*w_j**2/L,
    d/dc_j = -base*d_j*w_j**2*2x/L**2 and d/dw_j = -base*d_j*2w_j*x**2/L**2,
    valid for either sign of w_j.
    """
    base = params[0] + params[1] * b
    # Row i holds column i, so each column is written contiguously; the
    # transpose is the (n, p) Jacobian.
    out = np.empty((len(params), len(b)))
    dip_factor = out[0]
    dip_factor.fill(1.0)
    for j in range(2, len(params), 3):
        c, w, d = params[j], params[j + 1], params[j + 2]
        x = b - c
        inv_l = 1.0 / (x * x + w * w)
        lorentz = (w * w) * inv_l
        dip_factor -= d * lorentz
        np.multiply(lorentz, -base, out=out[j + 2])
        kwx = (-2.0 * d * w) * base * inv_l * inv_l * x
        np.multiply(kwx, w, out=out[j])
        np.multiply(kwx, x, out=out[j + 1])
    np.multiply(dip_factor, b, out=out[1])
    return out.T


def auto_seeds(trace: Trace) -> list[float]:
    """Seed dip centers from local minima with robust prominence.

    The trace is detrended with a linear fit.  A run of equal PL samples (a
    quantised dip bottom) counts as one minimum, seeded at its middle, when
    the detrended samples on both sides of it are higher; minima deeper than
    three times the median absolute deviation of the detrended signal are
    kept.
    """
    b = np.asarray(trace.field)
    pl = np.asarray(trace.pl)
    coeff = np.polyfit(b, pl, 1)
    detrended = pl - np.polyval(coeff, b)
    mad = float(np.median(np.abs(detrended - np.median(detrended))))
    threshold = 3.0 * mad if mad > 0 else 0.0
    starts = np.flatnonzero(np.diff(pl, prepend=np.nan) != 0)
    ends = np.append(starts[1:], len(pl)) - 1
    seeds = []
    for i, j in zip(starts[1:-1], ends[1:-1]):
        if (
            detrended[i - 1] > detrended[i]
            and detrended[j + 1] > detrended[j]
            and -detrended[i : j + 1].mean() > threshold
        ):
            seeds.append(float(0.5 * (b[i] + b[j])))
    return seeds


# MINPACK's lmder at the settings scipy's least_squares(method="lm") passes
# it since scipy 1.16: ftol = xtol = gtol = 1e-8, an initial step bound of
# 100 times the scaled start norm, and variables scaled by the Jacobian's
# column norms (mode 1, x_scale="jac").
_TOL = 1e-8
_FACTOR = 100.0
_DWARF = float(np.finfo(float).tiny)


def _enorm(a: np.ndarray):
    """Euclidean norm of a vector, or of each column of a matrix, as MINPACK's
    ``enorm`` gives it: no overflow or underflow in the squares, NaN for a NaN
    or for two infinite components, inf for one."""
    if a.ndim == 1:
        sumsq = a @ a
        if 1e-280 < sumsq < np.inf:
            return np.sqrt(sumsq)
    else:
        sumsq = np.einsum("ij,ij->j", a, a)
    norm = np.sqrt(sumsq)
    bad = ~((sumsq > 1e-280) & (sumsq < np.inf))
    if np.any(bad):
        scale = np.max(np.abs(a), axis=0)
        scaled = a / np.where(scale > 0, scale, 1.0)
        norm = np.where(bad, scale * np.sqrt(np.einsum("i...,i...->...", scaled, scaled)), norm)
        one_inf = (np.count_nonzero(np.isinf(a), axis=0) == 1) & ~np.any(np.isnan(a), axis=0)
        norm = np.where(one_inf, np.inf, norm)[()]
    return norm


def _solve_upper(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Solve ``u @ z = v`` for upper-triangular ``u``; from the first zero on
    the diagonal on, ``z`` is zero, MINPACK's least-squares solution of a
    singular system."""
    # LU of a triangular matrix pivots no row: this is back substitution.
    k = np.argmin(np.diagonal(u) != 0)
    if u[k, k] != 0:
        return np.linalg.solve(u, v)
    z = np.zeros(len(v))
    if k:
        z[:k] = np.linalg.solve(u[:k, :k], v[:k])
    return z


def _solve_lower_t(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Solve ``u.T @ z = v`` for upper-triangular ``u`` with a nonzero diagonal."""
    return _solve_upper(u.T[::-1, ::-1], v[::-1])[::-1]


def _lmpar(r: np.ndarray, diag: np.ndarray, qtf: np.ndarray, delta: float, par: float):
    """MINPACK's ``lmpar``: the Levenberg-Marquardt parameter ``par`` and the
    step ``x`` minimising ||R x - Qᵀf||² + par ||D x||² with ||D x|| within 10 %
    of ``delta``, or the Gauss-Newton step (par = 0) if that is shorter.

    A safeguarded Newton iteration on ||D x(par)|| - delta, at most 10 steps,
    each solving [R; sqrt(par) D] x = [Qᵀf; 0] by one QR factorisation.
    """
    n = len(qtf)
    x = _solve_upper(r, qtf)
    dxnorm = _enorm(diag * x)
    fp = dxnorm - delta
    if fp <= 0.1 * delta:
        return x, 0.0
    # The Gauss-Newton step bounds par from below unless R is singular.
    parl = 0.0
    if np.all(np.diagonal(r) != 0):
        temp = _enorm(_solve_lower_t(r, diag * (diag * x / dxnorm)))
        parl = fp / delta / temp / temp
    gnorm = _enorm(r.T @ qtf / diag)
    paru = gnorm / delta
    if paru == 0:
        paru = _DWARF / min(delta, 0.1)
    par = min(max(par, parl), paru)
    if par == 0:
        par = gnorm / dxnorm
    aug = np.zeros((2 * n, n + 1))
    aug[:n, :n] = r
    aug[:n, n] = qtf
    for iteration in range(1, 11):
        if par == 0:
            par = max(_DWARF, 0.001 * paru)
        aug[n:, :n] = np.diag(np.sqrt(par) * diag)
        s = np.linalg.qr(aug, mode="r")
        x = _solve_upper(s[:n, :n], s[:n, n])
        dxnorm = _enorm(diag * x)
        temp, fp = fp, dxnorm - delta
        if abs(fp) <= 0.1 * delta or parl == 0 and fp <= temp < 0 or iteration == 10:
            break
        # Newton correction.
        temp = _enorm(_solve_lower_t(s[:n, :n], diag * (diag * x / dxnorm)))
        parc = fp / delta / temp / temp
        if fp > 0:
            parl = max(parl, par)
        if fp < 0:
            paru = min(paru, par)
        par = max(parl, par + parc)
    return x, par


@np.errstate(all="ignore")
def _lmder(x: np.ndarray, f: np.ndarray, b: np.ndarray, pl: np.ndarray):
    """Minimise ||_residuals(x, b, pl)|| from ``x``, whose residual ``f`` the
    caller has evaluated, by MINPACK's ``lmder``.

    Moré's scaled trust-region Levenberg-Marquardt at the settings above, with
    a budget of 100 residual evaluations per parameter.  The Jacobian is
    :func:`_jacobian`, factored with the residual as ``[J | f] = Q R`` once per
    evaluation; a zero column of J is moved last, where MINPACK's pivoting
    puts it.  Returns (x, f, nfev, info): the last accepted point and its
    residual, MINPACK's count of residual evaluations (``f`` is the first)
    and its ``info``: 1-4 a tolerance was met, 5 the budget ran out.
    """
    n = len(x)
    max_nfev = 100 * n
    nfev = 1
    fnorm = _enorm(f)
    par = 0.0
    accepted = False  # MINPACK's iter > 1
    while True:
        jac = _jacobian(x, b, pl)
        colnorm = _enorm(jac)
        zero = colnorm == 0
        # A slice when no column is zero saves copying J.
        perm = np.argsort(zero, kind="stable") if zero.any() else slice(None)
        rank = n - np.count_nonzero(zero)
        # [J | f] in Fortran order, the layout LAPACK factors without a copy.
        jf = np.empty((n + 1, len(f)))
        jf[:n] = jac.T[perm]
        jf[n] = f
        r = np.linalg.qr(jf.T, mode="r")
        qtf = r[:n, n]
        r = r[:n, :n]
        if not accepted:
            diag = np.where(zero, 1.0, colnorm)
            xnorm = _enorm(diag * x)
            delta = _FACTOR * xnorm if xnorm else _FACTOR
        # The scaled gradient's largest component; zero columns have none.
        gnorm = 0.0
        if fnorm != 0:
            g = (r.T @ (qtf / fnorm))[:rank] / colnorm[perm][:rank]
            gnorm = np.max(np.abs(g), initial=0.0)
        if gnorm <= _TOL:
            return x, f, nfev, 4
        diag = np.maximum(diag, colnorm)
        while True:
            step_p, par = _lmpar(r, diag[perm], qtf, delta, par)
            step = np.empty(n)
            step[perm] = -step_p
            trial = x + step
            pnorm = _enorm(diag * step)
            if not accepted:
                delta = min(delta, pnorm)
            f_trial = _residuals(trial, b, pl)
            nfev += 1
            fnorm1 = _enorm(f_trial)
            actred = -1.0
            if 0.1 * fnorm1 < fnorm:
                actred = 1.0 - (fnorm1 / fnorm) * (fnorm1 / fnorm)
            temp1 = _enorm(r @ step_p) / fnorm
            temp2 = np.sqrt(par) * pnorm / fnorm
            prered = temp1 * temp1 + temp2 * temp2 / 0.5
            dirder = -(temp1 * temp1 + temp2 * temp2)
            ratio = actred / prered if prered != 0 else 0.0
            # Update the step bound.
            if ratio > 0.25:
                if par == 0 or ratio >= 0.75:
                    delta = pnorm / 0.5
                    par = 0.5 * par
            else:
                temp = 0.5 if actred >= 0 else 0.5 * dirder / (dirder + 0.5 * actred)
                if 0.1 * fnorm1 >= fnorm or temp < 0.1:
                    temp = 0.1
                delta = temp * min(delta, pnorm / 0.1)
                par = par / temp
            if ratio >= 1e-4:
                x, f, fnorm = trial, f_trial, fnorm1
                xnorm = _enorm(diag * x)
                accepted = True
            ftol_met = abs(actred) <= _TOL and prered <= _TOL and 0.5 * ratio <= 1
            xtol_met = delta <= _TOL * xnorm
            if ftol_met or xtol_met:
                return x, f, nfev, 3 if ftol_met and xtol_met else 2 if xtol_met else 1
            # MINPACK's further stops (info 6-8) need a tolerance below machine
            # epsilon; at these tolerances tests 1, 2 and 4 stop first.
            if nfev >= max_nfev:
                return x, f, nfev, 5
            if ratio >= 1e-4:
                break


@np.errstate(all="ignore")
def fit_dips(trace: Trace, seeds: list[float] | None = None) -> DipFit:
    """Fit the multi-dip model; seeds default to automatic minima detection.

    The fit is :func:`_lmder`, MINPACK's Levenberg-Marquardt scaled by the
    Jacobian's column norms, at ftol = xtol = gtol = 1e-8 with a budget of
    100 residual evaluations per parameter, and with the analytic Jacobian of
    :func:`_jacobian`, so each step costs one model evaluation.  Raises
    :class:`TraceError` for non-finite, out-of-range or duplicated seeds, for
    more parameters (2 + 3 per dip) than trace points, and for a model or fit
    that is not finite.  A fit that exhausts the budget is returned flagged
    ``converged=False``; ``iterations`` reports MINPACK's ``nfev``, the number
    of residual evaluations, the first being the start's residual that the
    finiteness check evaluates.  NumPy floating-point warnings are off: an
    overflow surfaces only through those checks.
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

    # Extreme trace values (a baseline overflowing, or zero at a dip) can make
    # the start's residual non-finite.  Checked, it is the fit's first
    # evaluation.
    f = _residuals(params, b, pl)
    if not np.all(np.isfinite(f)):
        raise TraceError("initial model is not finite; check the trace values")
    params, f, nfev, info = _lmder(params, f, b, pl)
    rms = float(_enorm(f)) / math.sqrt(len(f))
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
        converged=info <= 4,
        iterations=nfev,
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
