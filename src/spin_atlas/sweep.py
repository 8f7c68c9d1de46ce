"""Field sweeps, crossing detection/classification, feature clustering, and
temperature continuation of feature centers.

The diagnostic follows the projection method: eigenstates are ordered by
energy, and the probe m_S = 0 weights p_i are tracked across the grid. Sudden
p exchanges between adjacent levels, or local minima of the adjacent-level
gap, mark (avoided) crossings; each candidate is refined by a bracketed
one-dimensional gap minimization and classified as a true crossing (gap below
threshold at 0.01 G resolution) or an avoided one.
"""

from __future__ import annotations

import contextlib
import ctypes
import dataclasses
import functools
import json
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

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

# Bound on the entries of one kernel step (~4 MB complex), the one rule of
# both solve kinds: a (field, block) cell of a b-state block counts b x b,
# its H, plus, in a vector step, its eigenvectors' probe amplitudes, pairs x
# b. A step's H0 buffer and eigenvectors each hold as many entries as its H.
# A vector cell of one of onv-3p1's 210-state sectors (d = 648) counts
# 88 200 entries.
_STACK_ENTRIES = 1 << 18

_EXCHANGE_THRESHOLD = 0.25  # windowed p exchange for gap-minimum relevance
_JUMP_THRESHOLD = 0.4       # adjacent-point p jump marking an event
_GAP_TRUE = 0.05            # MHz, a line with a smaller gap is a true crossing
_FIELD_RESOLUTION = 0.01    # G, refinement resolution of every gap minimum
T_REF = 300.0               # K, reference temperature of continuation and slope
_SLOPE_STEP = 5.0           # K, half-width of the central-difference slope at T_REF
_TRACK_WINDOW = 5.0         # G, half-width of the search around a seed center
# Relative rounding margin of a gap search's block bound (``_gap_minima``):
# assembling H and solving it with ``eigvalsh`` are each off by O(d * eps)
# times a bound on ||H||, about 1e-13 at d = 648, so a margin of 1e-9 of that
# bound covers the four levels each test compares with room to spare.
_ROUNDING = 1e-9


@functools.cache
def _openblas_threads():
    """numpy's bundled OpenBLAS thread-count getter and setter, as ctypes
    functions, or None where that library or either symbol is missing
    (another BLAS)."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*")):
        try:
            blas = ctypes.CDLL(str(lib))
            get, put = blas.scipy_openblas_get_num_threads64_, blas.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.restype, get.argtypes = ctypes.c_int, []
        put.restype, put.argtypes = None, [ctypes.c_int]
        return get, put
    return None


# Held by a solve for as long as it keeps OpenBLAS at one thread: the count
# is process-wide, so two solves at once must not restore it under each other.
_BLAS_LOCK = threading.Lock()


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with numpy's OpenBLAS at one thread, under
    ``_BLAS_LOCK``, then set back the count it found if it changed it.
    Yields False, and holds nothing, where ``_openblas_threads`` finds no
    getter and setter.

    A solve's matrices are small: on 2 cores, OpenBLAS's own threading
    makes each ``eigh`` slower, and a thread pool on top of it was slower
    still. One thread also gives one answer whatever the caller's count."""
    blas = _openblas_threads()
    if blas is None:
        yield False
        return
    get, put = blas
    with _BLAS_LOCK:
        count = get()
        if count != 1:
            put(1)
        try:
            yield True
        finally:
            if count != 1:
                put(count)


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _split_count(n: int, entries: int) -> int:
    """Slices of an n-field solve that run concurrently (``_Solver._solve``).

    ``entries`` is what one field adds to the solve's kernel steps: the
    ``_STACK_ENTRIES`` count of the call's needed (field, block) cells, per
    field, rounded up. A call whose steps one slice's share of
    ``_STACK_ENTRIES`` holds whole stays serial: a smaller call loses more
    to the helper thread than it gains (at nv-2p1, 21 eigenvalue-only fields
    took 2.6 ms serial and 3.3 ms split, 64 fields 7.8 ms serial and 4.6 ms
    split). A call with no fields is serial.
    """
    workers = max(1, min(_usable_cores(), n))
    return 1 if n * entries <= _STACK_ENTRIES // workers else workers


@dataclass(frozen=True)
class SweepConfig:
    """Detection settings a caller may tune, each finite and non-negative;
    the p thresholds, the true-crossing gap and the 0.01 G resolution are fixed."""

    gap_ceiling: float = 30.0       # MHz, ignore gap minima above this
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
    """Eigenvalue/projection evaluations for one spec, block by block, at a
    zero-field splitting D given per field.

    H(B, D) = H_const + D * H_d + B * H_b is cut into the invariant blocks
    of ``hamiltonian_terms(spec).blocks``: the M_z blocks, split into
    permutation-symmetry sectors where the system has identical units. Each
    block is diagonalized on its own, as B^T H B for its orthonormal basis
    B (``Block.project``; a column has at most k! entries for k identical
    units), and the levels of all blocks are merged into one ascending
    order; a stable sort keeps exactly degenerate levels in block order.

    ``groups`` holds one tuple per block size: its block indices, each
    block's probe map (``Block.probe_map``, built once here) and columns of
    the block-ordered output, and one (g, b, b) stack per term. ``batch``
    and ``eigvals`` fill (field, block) cells through the one loop
    ``_fill_cells``: ``batch`` every cell, with probe projections, and
    ``eigvals`` only the cells its need mask names. The solver keeps no
    state between calls, so one call may mix temperatures.

    ``reach`` holds, for each block-ordered column, an upper bound on the
    spectral norm of H_b on its block (the largest absolute row sum; exact
    for the diagonal H_b of M_z blocks), and ``term_norms`` the Frobenius
    norms of H_const, H_d and H_b: by Weyl's inequality a level of that block
    moves by at most |dB| * reach along B at fixed D (see ``_gap_minima``).

    Isospectral sectors are each solved, such as onv-3p1's two 210-state
    copies of the two-dimensional irrep of S_3: solving one and copying its
    levels would make the gaps between the copies exactly zero, and
    detection has no rule for exactly zero gaps yet.
    """

    def __init__(self, spec):
        terms = hamiltonian_terms(spec)
        self.blocks = terms.blocks
        self.dim = terms[0].shape[0]
        self.v0, self.d_pre, self.d_post = probe_projector_vector(spec)
        self.sizes = np.array([blk.size for blk in self.blocks])
        self.starts = np.cumsum(self.sizes) - self.sizes  # each block's first column
        self.pairs = np.empty(len(self.blocks), int)  # each block's probe amplitudes per eigenvector
        self.groups = []  # (block indices, probe maps, columns, H_const, H_d, H_b stacks) of each size
        self.reach = np.empty(self.dim)
        squares = np.zeros(3)
        for size in dict.fromkeys(self.sizes.tolist()):
            members = np.flatnonzero(self.sizes == size)
            blocks = [self.blocks[k] for k in members]
            maps = [blk.probe_map(self.v0, self.d_pre, self.d_post) for blk in blocks]
            stacks = [np.array([blk.project(h) for blk in blocks]) for h in terms]
            cols = self.starts[members, None] + np.arange(size)
            self.pairs[members] = [len(probe_map) for probe_map in maps]
            self.reach[cols] = np.abs(stacks[2]).sum(axis=2).max(axis=1)[:, None]
            squares += [np.linalg.norm(h) ** 2 for h in stacks]
            self.groups.append((members, maps, cols, *stacks))
        self.term_norms = np.sqrt(squares)

    def batch(self, fields: np.ndarray, zfs: float | np.ndarray):
        """Ascending eigenvalues (n, d) and their probe projections (n, d)
        at each field and ZFS ``zfs`` (MHz; one for all fields, or one
        each)."""
        n = len(fields)
        vals, projs = np.empty((n, self.dim)), np.empty((n, self.dim))
        self._solve(fields, zfs, np.ones((n, len(self.blocks)), bool), vals, projs)
        order = np.argsort(vals, axis=1, kind="stable")
        return np.take_along_axis(vals, order, axis=1), np.take_along_axis(projs, order, axis=1)

    def eigvals(self, fields: np.ndarray, zfs: float | np.ndarray, need: np.ndarray) -> np.ndarray:
        """Block-ordered eigenvalues (n, d) at each field and ZFS ``zfs``
        (one for all fields, or one each): block k's ascending levels in its
        columns at field i where the (n, blocks) mask ``need[i, k]`` is set,
        +inf elsewhere. Each cell is assembled and solved alone, so its
        levels do not depend on the mask."""
        vals = np.full((len(fields), self.dim), np.inf)
        self._solve(fields, zfs, need, vals)
        return vals

    def _solve(self, fields: np.ndarray, zfs: float | np.ndarray, need: np.ndarray, vals: np.ndarray,
               projs: np.ndarray | None = None) -> None:
        """Fill the (field, block) cells that ``need`` names into ``vals``,
        and their probe projections into ``projs`` unless it is None.

        The solve runs numpy's OpenBLAS at one thread and then restores the
        caller's count (``_one_blas_thread``), so neither BLAS threads nor
        the caller's setting change a bit of the result; a BLAS whose count
        cannot be set leaves the solve serial.

        A cell counts the entries ``_STACK_ENTRIES`` bounds: b x b for a
        block of b states, plus pairs x b (``pairs``) with projections. The
        needed cells' entries per field, rounded up, go to ``_split_count``,
        which cuts the fields into contiguous slices, each with an equal
        share of ``_STACK_ENTRIES``: the calling thread fills the first
        slice and one short-lived helper thread each of the others. A block
        size's steps hold as many cells as the share holds of its largest
        cell, or one. LAPACK releases the GIL, and every cell is solved
        alone, so the result does not depend on the split.
        """
        n = len(fields)
        zfs = np.broadcast_to(np.asarray(zfs, dtype=float), (n,))
        cell = self.sizes * (self.sizes if projs is None else self.sizes + self.pairs)
        entries = -(-int(np.count_nonzero(need, axis=0) @ cell) // n) if n else 0
        with _one_blas_thread() as pinned:
            workers = _split_count(n, entries) if pinned else 1
            steps = [max(1, _STACK_ENTRIES // workers // int(cell[members].max())) for members, *_ in self.groups]

            def fill(sl: slice) -> None:
                self._fill_cells(fields[sl], zfs[sl], need[sl], steps, vals[sl], None if projs is None else projs[sl])

            first, *rest = (slice(n * w // workers, n * (w + 1) // workers) for w in range(workers))
            # The pool starts a thread only per submitted slice: none when serial.
            with ThreadPoolExecutor(workers) as pool:
                helpers = [pool.submit(fill, sl) for sl in rest]
                fill(first)
                for helper in helpers:
                    helper.result()

    def _fill_cells(self, fields: np.ndarray, zfs: np.ndarray, need: np.ndarray, steps: list,
                    vals: np.ndarray, projs: np.ndarray | None) -> None:
        """The one assembly loop: eigenvalues of the (field, block) cells
        ``need`` names into the (n, d) view ``vals``, and their probe
        projections into ``projs`` unless it is None.

        Each block size's needed cells, block by block, form (m, b, b)
        stacks of at most its ``steps`` cells, reusing one buffer for H and
        one for H0 = H_const + D * H_d, each block's terms broadcast over its
        fields: H0 + B * H_b rounds H0 as if formed once per D. An
        eigenvalue-only step is one ``np.linalg.eigvalsh`` call; a vector
        step is one kernel call per block run in it, with that block's
        probe map.
        """
        for (members, maps, cols, h_const, h_d, h_b), cap in zip(self.groups, steps):
            fields_of = [np.flatnonzero(need[:, k]) for k in members]
            first = np.cumsum([0, *map(len, fields_of)])  # each member's first cell
            if not first[-1]:
                continue
            step = min(first[-1], cap)
            hams = np.empty((step, *h_b.shape[1:]), np.result_type(h_const, h_d, h_b))
            h0 = np.empty_like(hams)
            for start in range(0, first[-1], step):
                stop = min(start + step, first[-1])
                runs = []
                for j, at in enumerate(fields_of):
                    lo, hi = max(first[j], start), min(first[j + 1], stop)
                    if lo < hi:
                        f, rows = at[lo - first[j] : hi - first[j], None], slice(lo - start, hi - start)
                        np.multiply(zfs[f, None], h_d[j], out=h0[rows])
                        h0[rows] += h_const[j]
                        np.multiply(fields[f, None], h_b[j], out=hams[rows])
                        hams[rows] += h0[rows]
                        runs.append((f, cols[j], rows, maps[j]))
                if projs is None:
                    levels = np.linalg.eigvalsh(hams[: stop - start])
                    for f, c, rows, _ in runs:
                        vals[f, c] = levels[rows]
                else:
                    for f, c, rows, probe_map in runs:
                        vals[f, c], projs[f, c] = batched_eigh_project(
                            hams[rows], self.v0, self.d_pre, self.d_post, probe_map
                        )
            del hams, h0  # before the next size allocates its own


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
    solver = _Solver(spec)

    grid = np.linspace(b_min, b_max, n_points)
    # The positivity shift is fixed for the whole sweep by the lowest level.
    # That level is a minimum of functions affine in B, so it is concave and
    # its minimum over the range lies at one end.
    low = float(solver.eigvals(np.array([b_min, b_max]), d_zfs, np.ones((2, len(solver.blocks)), bool)).min())
    shift = abs(min(low, 0.0)) + 100.0

    vals, projs = solver.batch(grid, d_zfs)
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
    g = gaps[:, pair]
    n = len(g)
    g0 = float(g[k])
    reopened = max(3.0 * g0, g0 + 1.0)
    w, w_cap = 2, max(5, n // 40)
    while w < w_cap and not (g[k - w if k > w else 0] > reopened and g[k + w if k + w < n else n - 1] > reopened):
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
    for k, i in zip(*np.where(dp > _JUMP_THRESHOLD)):
        for pair in (int(i) - 1, int(i)):
            if not 0 <= pair < npairs:
                continue
            km = int(np.argmin(gaps[max(k - 1, 0) : k + 2, pair]) + max(k - 1, 0))
            if gaps[km, pair] < config.gap_ceiling and (pair, km // 3) not in candidates:
                keep(pair, km)

    return sorted(candidates.values(), key=lambda e: (e.b_lo, e.pair))


def _line(cand: CandidateEvent, field: float, min_gap: float) -> CrossingEvent:
    """The candidate's line at ``field``: true if its gap is below ``_GAP_TRUE``."""
    return CrossingEvent(
        field=field,
        levels=(cand.pair, cand.pair + 1),
        min_gap=min_gap,
        kind="true" if min_gap < _GAP_TRUE else "avoided",
        projection_jump=cand.projection_jump,
    )


# The constants of scipy.optimize's ``_minimize_scalar_bounded``.
_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))


def _brent(a: float, b: float):
    """Bounded Brent minimisation over [a, b] to ``_FIELD_RESOLUTION``, as a
    generator: it yields each field to evaluate, is sent the function's value
    there, and returns (x, f(x)) of its minimum.

    A port of scipy's ``minimize_scalar(method="bounded")`` at
    ``xatol=_FIELD_RESOLUTION`` and its default ``maxiter``, with every float
    operation kept, so the fields asked for and the result are bit-identical
    to scipy's.
    """
    fulc = a + _GOLDEN * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = yield x
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + _FIELD_RESOLUTION / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        if abs(e) > tol1:  # try a parabolic step
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * (-1.0 if xm - xf < 0.0 else 1.0)
            else:
                golden = True
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = _GOLDEN * e
        x = xf + (-1.0 if rat < 0.0 else 1.0) * max(abs(rat), tol1)
        fu = yield x
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if (fu <= fnfc) or (nfc == xf):
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif (fu <= ffulc) or (fulc == xf) or (fulc == nfc):
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + _FIELD_RESOLUTION / 3.0
        tol2 = 2.0 * tol1
        if num >= 500:  # scipy's default maxiter
            break
    return xf, fx


def _gap_minima(solver: _Solver, searches: list, pick) -> list:
    """Refined gap minima of level pairs, every minimisation of a call in
    lock-step.

    ``searches`` holds (sample, pair, d_zfs): ascending fields, the level
    pair to minimise over them and the ZFS (MHz) to solve them at.
    ``pick(g)`` gives the indices k of the pair's gap sample ``g`` whose
    neighbours bracket a minimum; each bracket is refined by one ``_brent``
    run. Round 0 solves every sample's middle point, then the other points
    of every sample, and each later round the next point of every live run;
    only the pairs' gaps are kept, never the spectra.

    Only the middle point is solved with every block. Every other point a
    search asks for lies within h, the largest distance from the middle to
    a sample end, at the same D, so by Weyl's inequality each global level
    moves by at most h * ||H_b|| from its value there, and each level of
    block k by at most h * ``solver.reach`` of k. A block none of whose
    levels can reach the pair's interval [e_i - h ||H_b||, e_i+1 + h ||H_b||],
    widened by ``_ROUNDING`` times a bound on ||H||, stays unsolved there:
    each of its levels is counted below or above the pair, on the side it
    provably stays on. A point several queries share is solved once, for
    the union of their blocks. Each solved block is assembled and solved as
    in an every-block solve, so the sorted levels at the pair, and the gap,
    are the same float64 values.

    Returns, for each search, the (field, gap) of every picked minimum in
    pick order.
    """
    if not searches:
        return []

    def gaps(points: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Gap of search ``j[i]``'s pair at the (B, D) point ``points[i]``.
        One call solves each distinct point once, for the union of the
        blocks its queries' searches need; in the sorted levels there, a
        query's pair sits as many places lower as its search counts levels
        below it in the blocks left unsolved."""
        distinct, row = np.unique(points, axis=0, return_inverse=True)
        row = row.reshape(-1)  # its shape differs across numpy versions
        union = np.zeros((len(distinct), len(solver.blocks)), bool)
        np.logical_or.at(union, row, need[j])
        at = pair[j] - np.einsum("qk,qk->q", below[j], ~union[row])
        levels = solver.eigvals(distinct[:, 0], distinct[:, 1], union)
        levels.sort(axis=1)
        return levels[row, at + 1] - levels[row, at]

    # Round 0: each sample's middle point with every block, which bounds the
    # blocks its search needs, then the sample's other points.
    kept = [s for s, (sample, *_) in enumerate(searches) if len(sample)]
    samples = [np.asarray(searches[s][0], dtype=float) for s in kept]
    lengths = np.array([len(sample) for sample in samples], dtype=int)
    first = np.cumsum(lengths) - lengths
    last, middle = first + lengths - 1, first + lengths // 2
    fields = np.concatenate([np.empty(0), *samples])
    owner = np.repeat(np.arange(len(kept)), lengths)
    pair = np.array([searches[s][1] for s in kept], dtype=int)
    zfs = np.array([searches[s][2] for s in kept], dtype=float)
    width = np.maximum(fields[middle] - fields[first], fields[last] - fields[middle])
    top = np.maximum(np.abs(fields[first]), np.abs(fields[last]))

    distinct, row = np.unique(np.column_stack([fields[middle], zfs]), axis=0, return_inverse=True)
    levels = solver.eigvals(distinct[:, 0], distinct[:, 1], np.ones((len(distinct), len(solver.blocks)), bool))
    levels = levels[row.reshape(-1)]
    ordered = np.sort(levels, axis=1)
    lo, hi = (ordered[np.arange(len(kept)), pair + i] for i in (0, 1))
    # A level is under (over) the pair at every point of its search when,
    # moved up (down) by its block's reach, it stays below (above) the
    # pair's interval widened by ||H_b|| and the rounding margin.
    norm_const, norm_d, norm_b = solver.term_norms
    slack = width * solver.reach.max() + _ROUNDING * (norm_const + np.abs(zfs) * norm_d + top * norm_b)
    move = width[:, None] * solver.reach
    under = levels + move < (lo - slack)[:, None]
    outside = under | (levels - move > (hi + slack)[:, None])
    need = ~np.logical_and.reduceat(outside, solver.starts, axis=1)
    below = np.add.reduceat(under, solver.starts, axis=1, dtype=np.min_scalar_type(solver.dim))
    del levels, ordered, move, under, outside

    sampled = np.empty(len(fields))
    sampled[middle] = hi - lo
    rest = np.ones(len(fields), bool)
    rest[middle] = False
    sampled[rest] = gaps(np.column_stack([fields[rest], zfs[owner[rest]]]), owner[rest])
    slot = dict(zip(kept, range(len(kept))))
    results, live = [], []
    for s, (sample, _, _) in enumerate(searches):
        j = slot.get(s)
        ks = pick(sampled[first[j] : last[j] + 1] if j is not None else sampled[:0])
        found = [None] * len(ks)
        results.append(found)
        for i, k in enumerate(ks):
            run = _brent(float(sample[max(k - 1, 0)]), float(sample[min(k + 1, len(sample) - 1)]))
            live.append((run, j, found, i, next(run)))
    while live:
        asking = []
        js = np.array([j for _, j, *_ in live])
        at = gaps(np.column_stack([[b for *_, b in live], zfs[js]]), js)
        for (run, j, found, i, _), gap in zip(live, at.tolist()):
            try:
                asking.append((run, j, found, i, run.send(gap)))
            except StopIteration as done:
                found[i] = done.value
        live = asking
    return results


def _local_minima(g: np.ndarray) -> list:
    """Interior local minima of a gap sample, or its argmin if it has none:
    a non-unimodal bracket is split and every minimum is reported."""
    interior = np.where((g[1:-1] <= g[:-2]) & (g[1:-1] <= g[2:]))[0] + 1
    return interior.tolist() if len(interior) else [int(np.argmin(g))]


def _inner_argmin(g: np.ndarray) -> list:
    """The argmin of a gap sample, or nothing when it sits at an edge or the
    sample is empty."""
    k = int(np.argmin(g)) if len(g) else 0
    return [k] if 0 < k < len(g) - 1 else []


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
    estimates, and a line can name another level pair than refinement would.
    Use it only where the grid spacing already meets the needed field
    accuracy (e.g. broad-band centers of very large systems).

    Zero-gap lines inside a manifold that stays degenerate over a field
    range sit where roundoff puts them: Brent on a flat gap returns the
    point roundoff favours, so such lines, and a center built from them,
    can differ from a dense solve's by tenths of a gauss.
    """
    config = config or SweepConfig()
    model = model or ThermalZfsModel()
    sr = sweep(spec, b_min, b_max, n_points, temperature, model)
    candidates = detect_events(sr, config)
    if refine:
        searches = [(np.linspace(c.b_lo, c.b_hi, 17), c.pair, sr.d_zfs) for c in candidates]
        minima = _gap_minima(_Solver(spec), searches, _local_minima)
    else:
        gaps = sr.gaps()
        minima = [[(float(sr.field[c.grid_index]), float(gaps[c.grid_index, c.pair]))] for c in candidates]
    refined = [_line(c, x, gap) for c, found in zip(candidates, minima) for x, gap in found]
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


def temperature_shift(
    spec,
    feature: CrossingFeature,
    t_grid,
    model: ThermalZfsModel | None = None,
) -> TemperatureShift:
    """Continue a feature center in temperature and report shifts from T_REF.

    The tracked line is the feature's central line. A center is its level
    pair's gap minimum within _TRACK_WINDOW of a seed, and each of three
    stages tracks all its temperatures in one lock-step ``_gap_minima``
    call through one solver:

    1. T_REF, seeded from the line's field;
    2. T_REF +/- _SLOPE_STEP, the slope's points, seeded from the T_REF center;
    3. every grid temperature, repeats included, seeded at
       center(T_REF) + dB/dD * (D(T) - D(T_REF)), with dB/dD taken from the
       two centers of stage 2.

    Failed grid temperatures go to `lost`. A center lost at T_REF or at
    T_REF +/- _SLOPE_STEP raises RuntimeError.
    """
    model = model or ThermalZfsModel()
    line = feature.central_line
    pair = line.levels[0]
    solver = _Solver(spec)

    def centers(points: list) -> list:
        """The pair's gap minimum within _TRACK_WINDOW of each (seed, D), or
        None where it ran off the window (feature lost)."""
        searches = []
        for seed, d_zfs in points:
            window = np.linspace(seed - _TRACK_WINDOW, seed + _TRACK_WINDOW, 21)
            searches.append((window[window > 0], pair, d_zfs))
        return [found[0][0] if found else None for found in _gap_minima(solver, searches, _inner_argmin)]

    d_ref, d_lo, d_hi = (model.zfs_at(t) for t in (T_REF, T_REF - _SLOPE_STEP, T_REF + _SLOPE_STEP))
    [ref_center] = centers([(line.field, d_ref)])
    if ref_center is None:
        raise RuntimeError(f"feature near {line.field:.2f} G lost at reference temperature")
    slope_lo, slope_hi = centers([(ref_center, d_lo), (ref_center, d_hi)])
    if slope_lo is None or slope_hi is None:
        raise RuntimeError(f"feature near {line.field:.2f} G lost within {_SLOPE_STEP:g} K of the reference temperature")

    # A model whose D does not change around T_REF gives no rate; its seeds
    # are the T_REF center.
    rate = (slope_hi - slope_lo) / (d_hi - d_lo) if d_hi != d_lo else 0.0
    temps = sorted(float(t) for t in t_grid)
    zfs = [model.zfs_at(t) for t in temps]
    tracked = centers([(ref_center + rate * (d_zfs - d_ref), d_zfs) for d_zfs in zfs])

    kept = [(t, c) for t, c in zip(temps, tracked) if c is not None]
    return TemperatureShift(
        temperatures=[t for t, _ in kept],
        centers=[c for _, c in kept],
        delta_b=[c - ref_center for _, c in kept],
        slope_at_ref=(slope_hi - slope_lo) / (2 * _SLOPE_STEP),
        lost=[t for t, c in zip(temps, tracked) if c is None],
    )


def features_to_json(features: list[CrossingFeature]) -> str:
    """Structured feature report."""
    return json.dumps({"features": [f.to_dict() for f in features]}, indent=2)
