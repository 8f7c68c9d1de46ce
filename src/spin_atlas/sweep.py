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
import ctypes
import dataclasses
import functools
import itertools
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.optimize import minimize_scalar

from .constants import MAGNITUDE_CAP
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

# Bound on fields x d x block size per kernel step (~4 MB complex): a step's
# eigenvectors and the probe rows gathered from them each hold at most that
# many entries. At d = 648 this is one matrix per call.
_STACK_ENTRIES = 1 << 18

_EXCHANGE_THRESHOLD = 0.25  # windowed p exchange for gap-minimum relevance
_FIELD_RESOLUTION = 0.01    # G, refinement resolution of every gap minimum
T_REF = 300.0               # K, reference temperature of continuation and slope
_TRACK_WINDOW = 5.0         # G, half-width of the search around a seed center


@functools.cache
def _openblas_thread_count():
    """numpy's bundled OpenBLAS ``get_num_threads`` as a ctypes function, or
    None where that library or its symbol is missing (another BLAS)."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*")):
        try:
            fn = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype, fn.argtypes = ctypes.c_int, []
        return fn
    return None


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _split_count(n: int, dim: int, largest: int) -> int:
    """Slices of an n-field grid that ``_Solver.batch`` solves concurrently.

    More than one only when BLAS runs one thread, as it reports now: threads
    of our own on top of a threaded BLAS are slower. Each slice's kernel steps
    take an equal share of ``_STACK_ENTRIES``, so a slice must fit at least
    one matrix of the largest block in its share. Only a 648-state block
    (onv-3p1), where one matrix is already over the budget, stays serial;
    nv-3p1 (d = 648, largest block 131) splits up to three ways.
    """
    count = _openblas_thread_count()
    if count is None or count() != 1:
        return 1
    return max(1, min(_usable_cores(), n, _STACK_ENTRIES // (dim * largest)))


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
        row = "%.2f" + ",%.4f" * d + ",%.6f" * d + "\n"
        # One row at a time: a whole-array tolist() holds n * 2d Python floats.
        for b, eps, p in zip(self.field.tolist(), self.eigenvalues, self.projections):
            fh.write(row % (b, *eps.tolist(), *p.tolist()))


@dataclass(frozen=True)
class CrossingEvent:
    field: float              # gauss, refined center (gap argmin)
    levels: tuple             # (i, i+1) adjacent pair after ordering
    min_gap: float            # MHz
    kind: str                 # "true" | "avoided"
    projection_jump: float    # p exchange across the event


@dataclass(frozen=True)
class CrossingFeature:
    """A cluster of crossing lines; everything else it reports is derived
    from them."""

    lines: tuple              # CrossingEvents, ascending in field

    @property
    def center(self) -> float:
        """Median of the line fields, gauss."""
        return float(np.median([ln.field for ln in self.lines]))

    @property
    def span(self) -> tuple:
        """(lo, hi) gauss: the first and last line fields."""
        return self.lines[0].field, self.lines[-1].field

    @property
    def central_line(self) -> CrossingEvent:
        """The first line at minimal |field - center|."""
        center = self.center
        return min(self.lines, key=lambda ln: abs(ln.field - center))

    @property
    def min_gap(self) -> float:
        return min(ln.min_gap for ln in self.lines)

    @property
    def kind(self) -> str:
        return self.central_line.kind

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


class _Solver:
    """Eigenvalue/projection evaluations for one (spec, D), block by block.

    H(B) = H0 + B * H_b is cut into the invariant blocks of
    ``hamiltonian_terms(spec).blocks``. Each block is diagonalized on its
    own and the levels of all blocks are merged into one ascending order; a
    stable sort keeps exactly degenerate levels in block order.

    Blocks of one size are held as one (g, b, b) stack per term, so an
    eigenvalue-only solve takes one ``eigvalsh`` call per block size;
    ``h0[k]`` and ``h_b[k]`` are views of block k in its stack. The solver
    keeps no state between calls: every call solves every field it is given.
    """

    def __init__(self, spec, d_zfs: float):
        terms = hamiltonian_terms(spec)
        h_const, h_d, h_b = terms
        h0 = h_const + d_zfs * h_d
        self.rows = terms.blocks
        self.h0 = [None] * len(self.rows)
        self.h_b = [None] * len(self.rows)
        self.groups = []  # (H0 stack, H_b stack) of each block size
        for size in dict.fromkeys(len(r) for r in self.rows):
            members = [k for k, r in enumerate(self.rows) if len(r) == size]
            idx = np.array([self.rows[k] for k in members])
            ix = (idx[:, :, None], idx[:, None, :])
            group = (h0[ix], h_b[ix])
            self.groups.append(group)
            for j, k in enumerate(members):
                self.h0[k], self.h_b[k] = group[0][j], group[1][j]
        self.v0, self.d_pre, self.d_post = probe_projector_vector(spec)
        self.dim = h0.shape[0]

    def batch(self, fields: np.ndarray):
        """Ascending eigenvalues (n, d) and their probe projections (n, d).

        The grid is cut into ``_split_count`` contiguous slices: the calling
        thread solves the first and one short-lived helper thread each of the
        others, every slice writing straight into its own rows of the result.
        LAPACK releases the GIL, and every field is solved alone, so the
        result does not depend on the split.
        """
        n = len(fields)
        vals = np.empty((n, self.dim))
        projs = np.empty((n, self.dim))
        workers = _split_count(n, self.dim, max(len(r) for r in self.rows))
        budget = _STACK_ENTRIES // workers
        first, *rest = (slice(n * w // workers, n * (w + 1) // workers) for w in range(workers))
        # The pool starts a thread only per submitted slice: none when serial.
        with ThreadPoolExecutor(workers) as pool:
            helpers = [pool.submit(self._fill, fields[sl], vals[sl], projs[sl], budget) for sl in rest]
            self._fill(fields[first], vals[first], projs[first], budget)
            for helper in helpers:
                helper.result()
        order = np.argsort(vals, axis=1, kind="stable")
        return np.take_along_axis(vals, order, axis=1), np.take_along_axis(projs, order, axis=1)

    def _fill(self, fields: np.ndarray, vals: np.ndarray, projs: np.ndarray, budget: int) -> None:
        """Block-ordered eigenvalues and projections of ``fields`` into the
        (n, d) views ``vals`` and ``projs``.

        Each block's field stack goes to the kernel in steps of at most
        ``budget`` fields x d x block size, or of one field. Every step of a
        block reuses one stack.
        """
        n = len(fields)
        col = 0
        for k, rows in enumerate(self.rows):
            b = len(rows)
            step = max(1, min(n, budget // (self.dim * b)))
            hams = np.empty((step, b, b), np.result_type(self.h0[k], self.h_b[k]))
            cols = slice(col, col + b)
            for start in range(0, n, step):
                sl = slice(start, start + step)
                m = min(step, n - start)
                np.multiply(fields[sl, None, None], self.h_b[k], out=hams[:m])
                hams[:m] += self.h0[k]
                vals[sl, cols], projs[sl, cols] = batched_eigh_project(
                    hams[:m], self.v0, self.d_pre, self.d_post, rows
                )
            del hams  # before the next block allocates its own
            col += b

    def eigvals(self, fields: np.ndarray) -> np.ndarray:
        """Ascending eigenvalues at every field, shape (n, d), from one
        ``eigvalsh`` call per block size."""
        vals = []
        for h0, hb in self.groups:
            hams = fields[:, None, None, None] * hb
            hams += h0  # in place: no second (n, g, b, b) temporary
            vals.append(np.linalg.eigvalsh(hams).reshape(len(fields), -1))
        return np.sort(np.concatenate(vals, axis=1), axis=1)


def sweep(
    spec,
    b_min: float,
    b_max: float,
    n_points: int = 2048,
    temperature: float = 300.0,
    model: ThermalZfsModel | None = None,
) -> SweepResult:
    """Diagonalize over an ascending field grid and track projections."""
    if not 0.0 <= b_min < b_max <= MAGNITUDE_CAP:  # also false for NaN
        raise ValueError(f"require 0 <= b_min < b_max <= {MAGNITUDE_CAP:g} G, got {b_min}, {b_max}")
    if n_points < 2:
        raise ValueError("need at least 2 grid points")
    model = model or ThermalZfsModel()
    d_zfs = model.zfs_at(temperature)
    solver = _Solver(spec, d_zfs)

    grid = np.linspace(b_min, b_max, n_points)
    # The positivity shift is fixed for the whole sweep by the lowest level.
    # That level is a minimum of functions affine in B, so it is concave and
    # its minimum over the range lies at one end.
    low = float(solver.eigvals(np.array([b_min, b_max]))[:, 0].min())
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

    def keep(pair: int, k: int) -> None:
        """Keep the pair's candidate at grid index k if its p exchange
        reaches the threshold and beats the one kept for its (pair, k // 3)
        key; the first kept wins a tie."""
        ex = _exchange(projs, gaps, pair, k)
        if ex < _EXCHANGE_THRESHOLD:
            return
        key = (pair, k // 3)
        if key not in candidates or candidates[key].projection_jump < ex:
            candidates[key] = CandidateEvent(
                pair=pair,
                b_lo=float(sr.field[max(k - 1, 0)]),
                b_hi=float(sr.field[min(k + 1, n - 1)]),
                grid_index=k,
                projection_jump=float(ex),
            )

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
            keep(pair, int(k))

    # Direct p-jumps between adjacent grid points (true crossings can slip
    # between grid points without a resolved gap minimum).
    dp = np.abs(np.diff(projs, axis=0))
    for k, i in zip(*np.where(dp > config.jump_threshold)):
        for pair in (int(i) - 1, int(i)):
            if not 0 <= pair < npairs:
                continue
            km = int(np.argmin(gaps[max(k - 1, 0) : k + 2, pair]) + max(k - 1, 0))
            if gaps[km, pair] < config.gap_ceiling and (pair, km // 3) not in candidates:
                keep(pair, km)

    return sorted(candidates.values(), key=lambda e: (e.b_lo, e.pair))


def _polish(gap, sample: np.ndarray, k: int) -> tuple[float, float]:
    """Field and value of the minimum of ``gap(b)`` between the neighbours of
    sample[k], by bounded Brent to the refinement resolution."""
    res = minimize_scalar(
        gap,
        bounds=(sample[max(k - 1, 0)], sample[min(k + 1, len(sample) - 1)]),
        method="bounded",
        options={"xatol": _FIELD_RESOLUTION},
    )
    return float(res.x), float(res.fun)


def _spectra(solver: _Solver, sample: np.ndarray):
    """Levels (n, d) at ``sample`` from one call, and ``gap(b, pair)``, which
    solves any other field once and keeps its spectrum while ``gap`` lives."""
    levels = solver.eigvals(sample)
    table = dict(zip(sample.tolist(), levels))

    def gap(b: float, pair: int) -> float:
        if b not in table:
            table[b] = solver.eigvals(np.array([b]))[0]
        return float(table[b][pair + 1] - table[b][pair])

    return levels, gap


def _line(cand: CandidateEvent, field: float, min_gap: float, config: SweepConfig) -> CrossingEvent:
    """The candidate's line at ``field``: true if its gap is below ``gap_true``."""
    return CrossingEvent(
        field=field,
        levels=(cand.pair, cand.pair + 1),
        min_gap=min_gap,
        kind="true" if min_gap < config.gap_true else "avoided",
        projection_jump=cand.projection_jump,
    )


def _refine_bracket(solver: _Solver, cands: list[CandidateEvent], config: SweepConfig) -> list[CrossingEvent]:
    """Bracketed gap minimization of the candidates of one (b_lo, b_hi), in
    order; classify true vs avoided.

    The spectrum at a field does not depend on the level pair, so each field
    is solved once for all the bracket's pairs, through one ``_spectra``
    table that lives as long as this call. A non-unimodal bracket (several
    local minima of one pair's gap) is split and every minimum is reported.
    """
    sample = np.linspace(cands[0].b_lo, cands[0].b_hi, 17)
    levels, gap = _spectra(solver, sample)
    events = []
    for cand in cands:
        g = levels[:, cand.pair + 1] - levels[:, cand.pair]
        interior = np.where((g[1:-1] <= g[:-2]) & (g[1:-1] <= g[2:]))[0] + 1
        if len(interior) == 0:
            interior = [int(np.argmin(g))]
        for k in interior:
            events.append(_line(cand, *_polish(lambda b: gap(b, cand.pair), sample, k), config))
    return events


def cluster_features(events: list[CrossingEvent], cluster_radius: float) -> list[CrossingFeature]:
    """Single-linkage clustering of refined events along the field axis."""
    if not events:
        return []
    events = sorted(events, key=lambda e: e.field)
    groups: list[list[CrossingEvent]] = [[events[0]]]
    for ev in events[1:]:
        if ev.field - groups[-1][-1].field <= cluster_radius:
            groups[-1].append(ev)
        else:
            groups.append([ev])
    return [CrossingFeature(lines=tuple(grp)) for grp in groups]


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
    candidates = detect_events(sr, config)
    refined = []
    if refine:
        solver = _Solver(spec, sr.d_zfs)
        # Candidates come sorted by (b_lo, pair), so those sharing a bracket
        # are adjacent and refine together.
        for _, group in itertools.groupby(candidates, key=lambda c: (c.b_lo, c.b_hi)):
            refined.extend(_refine_bracket(solver, list(group), config))
    else:
        gaps = sr.gaps()
        refined = [
            _line(c, float(sr.field[c.grid_index]), float(gaps[c.grid_index, c.pair]), config)
            for c in candidates
        ]
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
    levels, gap = _spectra(solver, coarse)
    k = int(np.argmin(levels[:, pair + 1] - levels[:, pair]))
    if k in (0, len(coarse) - 1):
        return None
    return _polish(lambda b: gap(b, pair), coarse, k)[0]


def temperature_shift(
    spec,
    feature: CrossingFeature,
    t_grid,
    model: ThermalZfsModel | None = None,
) -> TemperatureShift:
    """Continue a feature center in temperature and report shifts from T_REF.

    The tracked line is the feature's central line. Its center is tracked at
    T_REF from the line's field, at T_REF again if the grid holds it, then in
    two walks outward: the grid temperatures above T_REF upward, those below
    downward, each seeded from the last center its walk tracked. Failed
    temperatures go to `lost`; repeats are kept.
    """
    model = model or ThermalZfsModel()
    line = feature.central_line
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
