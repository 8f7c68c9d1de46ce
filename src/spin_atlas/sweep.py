"""Field sweeps, crossing detection/classification, feature clustering, and
temperature continuation of feature centers.

The diagnostic follows the projection method: eigenstates are ordered by
energy after a global positivity shift, and the probe m_S = 0 weights p_i are
tracked across the grid. Sudden p exchanges between adjacent levels, or local
minima of the adjacent-level gap, mark (avoided) crossings; each candidate is
refined by a bracketed one-dimensional gap minimization and classified as a
true crossing (gap below threshold at 0.01 G resolution) or an avoided one.
"""

from __future__ import annotations

import bisect
import dataclasses
import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize_scalar

from .hamiltonian import hamiltonian_terms, probe_projector_vector
from .kernels import batched_eigh_project
from .thermal import ThermalZfsModel

__all__ = [
    "SweepConfig",
    "SweepResult",
    "CrossingEvent",
    "CrossingFeature",
    "sweep",
    "detect_events",
    "cluster_features",
    "temperature_shift",
    "find_features",
    "TemperatureShift",
    "T_REF",
]

# Full-space eigenvector entries per kernel call (~4 MB complex); at d = 648
# this is one matrix per call.
_STACK_ENTRIES = 1 << 18

_EXCHANGE_THRESHOLD = 0.25  # windowed p exchange for gap-minimum relevance
_FIELD_RESOLUTION = 0.01    # G, refinement resolution of every gap minimum
T_REF = 300.0               # K, reference temperature of continuation and slope
_TRACK_WINDOW = 5.0         # G, half-width of the search around a seed center


@dataclass(frozen=True)
class SweepConfig:
    """Detection settings a caller may tune, each finite and non-negative.

    The p-exchange threshold and the 0.01 G refinement resolution are fixed.
    """

    jump_threshold: float = 0.4     # adjacent-point p jump marking an event
    gap_ceiling: float = 30.0       # MHz, ignore gap minima above this
    gap_true: float = 0.05          # MHz, true-vs-avoided threshold
    cluster_radius: float = 15.0    # G, single-linkage clustering radius

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"{f.name} must be finite and non-negative, got {value}")


@dataclass
class SweepResult:
    field: np.ndarray         # (n,) gauss, ascending
    eigenvalues: np.ndarray   # (n, d) MHz, ascending per point, shift applied
    projections: np.ndarray   # (n, d) probe m_S = 0 weights
    shift_applied: float      # MHz added to the diagonal
    temperature: float
    d_zfs: float
    eigenvectors: None = None  # always None; kept for perfbench/tracing.py

    @property
    def dimension(self) -> int:
        return self.eigenvalues.shape[1]

    def gaps(self) -> np.ndarray:
        """Adjacent-level gaps, shape (n, d-1)."""
        return np.diff(self.eigenvalues, axis=1)

    def to_csv(self, fh) -> None:
        d = self.dimension
        cols = [f"eps_{i}" for i in range(d)] + [f"p_{i}" for i in range(d)]
        fh.write("B_gauss," + ",".join(cols) + "\n")
        for k in range(len(self.field)):
            row = [f"{self.field[k]:.2f}"]
            row += [f"{x:.4f}" for x in self.eigenvalues[k]]
            row += [f"{x:.6f}" for x in self.projections[k]]
            fh.write(",".join(row) + "\n")


@dataclass(frozen=True)
class CrossingEvent:
    field: float              # gauss, refined center (gap argmin)
    levels: tuple             # (i, i+1) adjacent pair after ordering
    min_gap: float            # MHz
    kind: str                 # "true" | "avoided"
    projection_jump: float    # p exchange across the event


@dataclass(frozen=True)
class CrossingFeature:
    center: float             # gauss
    lines: tuple              # CrossingEvents, ascending in field
    span: tuple               # (lo, hi) gauss

    @property
    def min_gap(self) -> float:
        return min(ln.min_gap for ln in self.lines)

    @property
    def kind(self) -> str:
        return _line_nearest(self, self.center).kind

    def to_dict(self) -> dict:
        return {
            "center_G": round(self.center, 2),
            "span_G": [round(self.span[0], 2), round(self.span[1], 2)],
            "kind": self.kind,
            "min_gap_MHz": round(self.min_gap, 4),
            "lines": [
                {
                    "field_G": round(ln.field, 2),
                    "levels": list(ln.levels),
                    "min_gap_MHz": round(ln.min_gap, 4),
                    "kind": ln.kind,
                    "projection_jump": round(ln.projection_jump, 4),
                }
                for ln in self.lines
            ],
        }


def _line_nearest(feature: CrossingFeature, b: float) -> CrossingEvent:
    fields = np.array([ln.field for ln in feature.lines])
    return feature.lines[int(np.argmin(np.abs(fields - b)))]


class _Solver:
    """Eigenvalue/projection evaluations for one (spec, D), block by block.

    H(B) = H0 + B * H_b is cut into the invariant blocks of
    ``hamiltonian_terms(spec).blocks``. Each block is diagonalized on its
    own and the levels of all blocks are merged into one ascending order; a
    stable sort keeps exactly degenerate levels in block order.
    """

    def __init__(self, spec, d_zfs: float):
        terms = hamiltonian_terms(spec)
        h_const, h_d, h_b = terms
        h0 = h_const + d_zfs * h_d
        self.rows = terms.blocks
        self.h0 = [h0[np.ix_(r, r)] for r in self.rows]
        self.h_b = [h_b[np.ix_(r, r)] for r in self.rows]
        self.v0, self.d_pre, self.d_post = probe_projector_vector(spec)
        self.dim = h0.shape[0]

    def _stack(self, k: int, fields: np.ndarray) -> np.ndarray:
        """Block k of H(B) at every field, shape (n, b, b)."""
        hams = fields[:, None, None] * self.h_b[k]
        hams += self.h0[k]
        return hams

    def batch(self, fields: np.ndarray):
        """Ascending eigenvalues (n, d) and their probe projections (n, d).

        Each block's field stack goes to the kernel in steps of at most
        ``_STACK_ENTRIES`` full-space eigenvector entries, or of one field.
        """
        n = len(fields)
        vals = np.empty((n, self.dim))
        projs = np.empty((n, self.dim))
        col = 0
        for k, rows in enumerate(self.rows):
            b = len(rows)
            step = max(1, _STACK_ENTRIES // (self.dim * b))
            cols = slice(col, col + b)
            for start in range(0, n, step):
                sl = slice(start, start + step)
                vals[sl, cols], projs[sl, cols] = batched_eigh_project(
                    self._stack(k, fields[sl]), self.v0, self.d_pre, self.d_post, rows
                )
            col += b
        order = np.argsort(vals, axis=1, kind="stable")
        return np.take_along_axis(vals, order, axis=1), np.take_along_axis(projs, order, axis=1)

    def eigvals(self, fields: np.ndarray) -> np.ndarray:
        """Ascending eigenvalues at every field, shape (n, d)."""
        vals = [np.linalg.eigvalsh(self._stack(k, fields)) for k in range(len(self.rows))]
        return np.sort(np.concatenate(vals, axis=1), axis=1)

    def gaps(self, fields: np.ndarray, pair: int) -> np.ndarray:
        """Gap between levels pair and pair + 1 at every field."""
        w = self.eigvals(fields)
        return w[:, pair + 1] - w[:, pair]

    def gap(self, b: float, pair: int) -> float:
        return float(self.gaps(np.array([b]), pair)[0])


def sweep(
    spec,
    b_min: float,
    b_max: float,
    n_points: int = 2048,
    temperature: float = 300.0,
    model: ThermalZfsModel | None = None,
) -> SweepResult:
    """Diagonalize over an ascending field grid and track projections."""
    if not (math.isfinite(b_min) and math.isfinite(b_max) and b_min < b_max):
        raise ValueError(f"require finite b_min < b_max, got {b_min}, {b_max}")
    if n_points < 2:
        raise ValueError("need at least 2 grid points")
    model = model or ThermalZfsModel()
    d_zfs = model.zfs_at(temperature)
    solver = _Solver(spec, d_zfs)

    grid = np.linspace(b_min, b_max, n_points)
    # Coarse pre-scan fixes the positivity shift for the whole sweep.
    pre = np.linspace(b_min, b_max, min(9, n_points))
    low = float(solver.eigvals(pre)[:, 0].min())
    shift = abs(min(low, 0.0)) + 100.0

    vals, projs = solver.batch(grid)
    return SweepResult(
        field=grid,
        eigenvalues=vals + shift,
        projections=projs,
        shift_applied=shift,
        temperature=temperature,
        d_zfs=d_zfs,
    )


@dataclass(frozen=True)
class CandidateEvent:
    pair: int
    b_lo: float
    b_hi: float
    grid_index: int
    projection_jump: float


def _exchange(projs: np.ndarray, gaps: np.ndarray, pair: int, k: int) -> float:
    """p exchange of the pair across grid index k, window widened until the
    gap has reopened (or a hard cap), so broad avoided crossings register."""
    n = projs.shape[0]
    g0 = gaps[k, pair]
    w = 2
    w_cap = max(5, n // 40)
    while w < w_cap:
        lo, hi = max(k - w, 0), min(k + w, n - 1)
        if gaps[lo, pair] > max(3.0 * g0, g0 + 1.0) and gaps[hi, pair] > max(3.0 * g0, g0 + 1.0):
            break
        w += 1
    lo, hi = max(k - w, 0), min(k + w, n - 1)
    return max(
        abs(projs[hi, pair] - projs[lo, pair]),
        abs(projs[hi, pair + 1] - projs[lo, pair + 1]),
    )


def detect_events(sr: SweepResult, config: SweepConfig | None = None) -> list[CandidateEvent]:
    """Unrefined crossing candidates with bracketing field intervals."""
    config = config or SweepConfig()
    gaps = sr.gaps()
    projs = sr.projections
    n, npairs = gaps.shape
    candidates: dict[tuple, CandidateEvent] = {}

    # Gap local minima below the scan ceiling, filtered by p relevance.
    # Boundary points count as minima so features at the grid edge (e.g. the
    # zero-field crossing) are still bracketed.
    for pair in range(npairs):
        g = gaps[:, pair]
        minima = list(np.where((g[1:-1] <= g[:-2]) & (g[1:-1] <= g[2:]) & (g[1:-1] < config.gap_ceiling))[0] + 1)
        if g[0] <= g[1] and g[0] < config.gap_ceiling:
            minima.append(0)
        if g[-1] <= g[-2] and g[-1] < config.gap_ceiling:
            minima.append(n - 1)
        for k in minima:
            ex = _exchange(projs, gaps, pair, int(k))
            if ex < _EXCHANGE_THRESHOLD:
                continue
            key = (pair, int(k) // 3)
            cand = CandidateEvent(
                pair=pair,
                b_lo=float(sr.field[max(k - 1, 0)]),
                b_hi=float(sr.field[min(k + 1, n - 1)]),
                grid_index=int(k),
                projection_jump=float(ex),
            )
            if key not in candidates or candidates[key].projection_jump < ex:
                candidates[key] = cand

    # Direct p-jumps between adjacent grid points (true crossings can slip
    # between grid points without a resolved gap minimum).
    dp = np.abs(np.diff(projs, axis=0))
    for k, i in zip(*np.where(dp > config.jump_threshold)):
        for pair in (i - 1, i):
            if not 0 <= pair < npairs:
                continue
            km = int(np.argmin(gaps[max(k - 1, 0) : k + 2, pair])) + max(k - 1, 0)
            if gaps[km, pair] >= config.gap_ceiling:
                continue
            key = (int(pair), km // 3)
            if key in candidates:
                continue
            ex = _exchange(projs, gaps, int(pair), km)
            if ex < _EXCHANGE_THRESHOLD:
                continue
            candidates[key] = CandidateEvent(
                pair=int(pair),
                b_lo=float(sr.field[max(km - 1, 0)]),
                b_hi=float(sr.field[min(km + 1, n - 1)]),
                grid_index=km,
                projection_jump=float(ex),
            )

    out = sorted(candidates.values(), key=lambda e: (e.b_lo, e.pair))
    return out


def _polish(solver: _Solver, pair: int, sample: np.ndarray, k: int) -> tuple[float, float]:
    """Field and gap of the pair's gap minimum between the neighbours of
    sample[k], by bounded Brent to the refinement resolution."""
    res = minimize_scalar(
        lambda b: solver.gap(b, pair),
        bounds=(sample[max(k - 1, 0)], sample[min(k + 1, len(sample) - 1)]),
        method="bounded",
        options={"xatol": _FIELD_RESOLUTION},
    )
    return float(res.x), float(res.fun)


def _refine_with_solver(solver: _Solver, event: CandidateEvent, config: SweepConfig) -> list[CrossingEvent]:
    """Bracketed gap minimization; classify true vs avoided.

    A non-unimodal bracket (several local minima of the same pair gap) is
    split and every minimum is reported.
    """
    b_lo, b_hi = event.b_lo, event.b_hi
    sample = np.linspace(b_lo, b_hi, 17)
    g = solver.gaps(sample, event.pair)
    interior = np.where((g[1:-1] <= g[:-2]) & (g[1:-1] <= g[2:]))[0] + 1
    if len(interior) == 0:
        interior = [int(np.argmin(g))]
    events = []
    for k in interior:
        center, gap = _polish(solver, event.pair, sample, k)
        kind = "true" if gap < config.gap_true else "avoided"
        events.append(
            CrossingEvent(
                field=center,
                levels=(event.pair, event.pair + 1),
                min_gap=gap,
                kind=kind,
                projection_jump=event.projection_jump,
            )
        )
    return events


def cluster_features(events: list[CrossingEvent], cluster_radius: float = 15.0) -> list[CrossingFeature]:
    """Single-linkage clustering of refined events along the field axis.

    Feature center is the median of the member line fields.
    """
    if not events:
        return []
    events = sorted(events, key=lambda e: e.field)
    groups: list[list[CrossingEvent]] = [[events[0]]]
    for ev in events[1:]:
        if ev.field - groups[-1][-1].field <= cluster_radius:
            groups[-1].append(ev)
        else:
            groups.append([ev])
    features = []
    for grp in groups:
        fields = [e.field for e in grp]
        features.append(
            CrossingFeature(
                center=float(np.median(fields)),
                lines=tuple(grp),
                span=(min(fields), max(fields)),
            )
        )
    return features


def find_features(
    spec,
    b_min: float,
    b_max: float,
    n_points: int = 2048,
    temperature: float = 300.0,
    model: ThermalZfsModel | None = None,
    config: SweepConfig | None = None,
    refine: bool = True,
) -> list[CrossingFeature]:
    """Sweep, detect, refine, and cluster in one call.

    ``refine=False`` skips the per-candidate gap minimization and reports
    events at grid resolution; gaps and classifications are then grid-limited
    estimates, so use it only where the grid spacing already meets the needed
    field accuracy (e.g. broad-band centers of very large systems).
    """
    config = config or SweepConfig()
    model = model or ThermalZfsModel()
    sr = sweep(spec, b_min, b_max, n_points, temperature, model)
    solver = _Solver(spec, sr.d_zfs)
    refined = []
    for cand in detect_events(sr, config):
        if refine:
            refined.extend(_refine_with_solver(solver, cand, config))
        else:
            gap = float(sr.gaps()[cand.grid_index, cand.pair])
            refined.append(
                CrossingEvent(
                    field=float(sr.field[cand.grid_index]),
                    levels=(cand.pair, cand.pair + 1),
                    min_gap=gap,
                    kind="true" if gap < config.gap_true else "avoided",
                    projection_jump=cand.projection_jump,
                )
            )
    # Candidates of one level pair can refine to the same field (a gap minimum
    # and a p jump at one crossing); keep the smallest gap per 0.05 G bin.
    unique: dict[tuple, CrossingEvent] = {}
    for ev in refined:
        key = (ev.levels, round(ev.field / 0.05))
        if key not in unique or ev.min_gap < unique[key].min_gap:
            unique[key] = ev
    return cluster_features(list(unique.values()), config.cluster_radius)


@dataclass
class TemperatureShift:
    temperatures: list
    centers: list             # refined feature-line center at each T, gauss
    delta_b: list             # center(T) - center(T_REF), gauss
    slope_at_ref: float       # G/K, central difference at T_REF
    lost: list = field(default_factory=list)  # temperatures where tracking failed


def _track_center(spec, d_zfs: float, pair: int, seed: float) -> float | None:
    """The pair's gap minimum within _TRACK_WINDOW of seed at ZFS d_zfs, or
    None when it ran off the window (feature lost)."""
    solver = _Solver(spec, d_zfs)
    coarse = np.linspace(seed - _TRACK_WINDOW, seed + _TRACK_WINDOW, 21)
    coarse = coarse[coarse > 0]
    g = solver.gaps(coarse, pair)
    k = int(np.argmin(g))
    if k in (0, len(coarse) - 1):
        return None
    return _polish(solver, pair, coarse, k)[0]


def temperature_shift(
    spec,
    feature: CrossingFeature,
    t_grid,
    model: ThermalZfsModel | None = None,
    track_field: float | None = None,
) -> TemperatureShift:
    """Continue a feature center in temperature and report shifts from T_REF.

    The tracked line defaults to the feature's central line; `track_field`
    picks the member line nearest a physically motivated field instead. Its
    center is tracked at T_REF from the line's field, at T_REF again if the
    grid holds it, then in two walks outward: the grid temperatures above
    T_REF upward, those below downward, each seeded from the last center its
    walk tracked. Failed temperatures go to `lost`; repeats are kept.
    """
    model = model or ThermalZfsModel()
    line = _line_nearest(feature, feature.center if track_field is None else track_field)
    pair = line.levels[0]

    def center_at(t: float, seed: float) -> float | None:
        return _track_center(spec, model.zfs_at(t), pair, seed)

    ref_center = center_at(T_REF, line.field)
    if ref_center is None:
        raise RuntimeError(f"feature near {line.field:.2f} G lost at reference temperature")

    temps = sorted(float(t) for t in t_grid)
    centers: list[float | None] = [None] * len(temps)

    def walk(indices, seed: float) -> float:
        for i in indices:
            centers[i] = center_at(temps[i], seed)
            if centers[i] is not None:
                seed = centers[i]
        return seed

    lo, hi = bisect.bisect_left(temps, T_REF), bisect.bisect_right(temps, T_REF)
    seed = walk(range(lo, hi), ref_center)
    walk(range(hi, len(temps)), seed)
    walk(range(lo - 1, -1, -1), seed)

    slope_lo, slope_hi = (center_at(T_REF + dt, ref_center) for dt in (-5.0, 5.0))
    slope = float("nan") if slope_lo is None or slope_hi is None else (slope_hi - slope_lo) / 10.0

    kept = [(t, c) for t, c in zip(temps, centers) if c is not None]
    return TemperatureShift(
        temperatures=[t for t, _ in kept],
        centers=[c for _, c in kept],
        delta_b=[c - ref_center for _, c in kept],
        slope_at_ref=slope,
        lost=[t for t, c in zip(temps, centers) if c is None],
    )


def features_to_json(features: list[CrossingFeature]) -> str:
    """Structured feature report."""
    return json.dumps({"features": [f.to_dict() for f in features]}, indent=2)
