"""Output checks that do not rely on the program's fast paths.

Reported lines and sweep rows are compared against the dense reference
``build_hamiltonian`` + ``eigendecompose`` at the exact field, with
tolerances derived from the CLI's output rounding (fields to 0.01 G,
energies to 1e-4 MHz, projections to 1e-6).  The checks return lists of
problems; an empty list means the output passed.
"""

from __future__ import annotations

import json

import numpy as np
from scipy.optimize import minimize_scalar

from spin_atlas.catalog import get_system, system_ids
from spin_atlas.hamiltonian import build_hamiltonian, eigendecompose
from spin_atlas.operators import spin_operators
from spin_atlas.thermal import ThermalZfsModel

FIELD_ROUND = 0.005      # G, half of the 0.01 G output resolution
ENERGY_ROUND = 5e-5      # MHz, half of the 1e-4 MHz output resolution
PROJ_ROUND = 5e-7        # half of the 1e-6 projection resolution
GAP_TRUE = 0.05          # MHz, SweepConfig.gap_true default
SLOPE_TOL = 0.004        # G/K, the acceptance-gate slope tolerance
CENTER_TOL = 0.1         # G, fitted dip center vs truth
FIT_RECOVERY = 0.95      # acceptance criterion 7: share of traces recovered
SAMPLES = 3              # dense-reference comparisons per command

# The catalog positions this Hamiltonian family does not reproduce; they stay
# excluded exactly as the catalog marks them.
UNATTAINABLE = {
    ("nv-onv-13c", 1005.0),
    ("2onv-13c", 501.0),
    ("2onv-13c", 572.0),
    ("2onv-13c", 700.0),
}


def check_catalog() -> list[str]:
    marked = {
        (sys_id, ef.center)
        for sys_id in system_ids()
        for ef in get_system(sys_id).expected_features
        if not ef.attainable
    }
    if marked != UNATTAINABLE:
        return [f"catalog marks {sorted(marked)} unattainable, expected {sorted(UNATTAINABLE)}"]
    return []


def _levels(spec, b: float, d_zfs: float):
    return eigendecompose(build_hamiltonian(spec, b, d_zfs))


def probe_weights(spec, vecs: np.ndarray) -> np.ndarray:
    """Probe m_S = 0 weight of each eigenvector column, from first principles."""
    sx, sy, sz = spin_operators(3)
    n = np.asarray(spec.sites[spec.probe_site].axis, dtype=float)
    w, v = np.linalg.eigh(n[0] * sx + n[1] * sy + n[2] * sz)
    v0 = v[:, int(np.argmin(np.abs(w)))]
    dims = spec.dims
    d_pre = int(np.prod(dims[: spec.probe_site], dtype=int))
    d_post = int(np.prod(dims[spec.probe_site + 1 :], dtype=int))
    amp = np.einsum("m,ambi->abi", v0.conj(), vecs.reshape(d_pre, 3, d_post, -1))
    return (np.abs(amp) ** 2).sum(axis=(0, 1))


def check_line(spec, line: dict, d_zfs: float) -> list[str]:
    """A reported crossing line against the dense gap near its rounded field.

    The reported gap was evaluated at a field within FIELD_ROUND of the
    reported one, so the dense gap of the same level pair must take that value
    (to its rounding) somewhere in that interval.  Gap minima can be kinks
    far narrower than 0.01 G, hence the bounded search for the minimum.
    """
    lo, hi = line["levels"]
    f, gap = line["field_G"], line["min_gap_MHz"]
    where = f"line at {f} G levels {lo},{hi}"
    if hi != lo + 1 or not 0 <= lo < spec.dimension - 1:
        return [f"{where}: levels are not an adjacent pair"]

    def dense_gap(b: float) -> float:
        w, _ = _levels(spec, b, d_zfs)
        return float(w[lo + 1] - w[lo])

    fields = np.linspace(max(f - FIELD_ROUND, 0.0), f + FIELD_ROUND, 11)
    g = [dense_gap(b) for b in fields]
    k = int(np.argmin(g))
    res = minimize_scalar(dense_gap, bounds=(fields[max(k - 1, 0)], fields[min(k + 1, 10)]),
                          method="bounded", options={"xatol": 1e-7})
    g_min, g_max = min(min(g), float(res.fun)), max(g)
    tol = ENERGY_ROUND + 1e-6
    problems = []
    if not g_min - tol <= gap <= g_max + tol:
        problems.append(f"{where}: gap {gap} MHz, dense reference spans "
                        f"{g_min:.5f}..{g_max:.5f} MHz within {FIELD_ROUND} G")
    if abs(gap - GAP_TRUE) > 2 * ENERGY_ROUND:
        kind = "true" if gap < GAP_TRUE else "avoided"
        if line["kind"] != kind:
            problems.append(f"{where}: kind {line['kind']!r} but gap {gap} MHz means {kind!r}")
    return problems


def check_features(cmd, text: str, rng: np.random.Generator) -> list[str]:
    entry = get_system(cmd.expect["system"])
    try:
        feats = json.loads(text)["features"]
        centers = [(f["center_G"], f["kind"]) for f in feats]
        lines = [ln for f in feats for ln in f["lines"]]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"malformed features report: {exc!r}"]
    problems = []
    for ef in entry.expected_features:
        if not ef.attainable:
            continue
        if not any(abs(c - ef.center) <= ef.tolerance and ef.kind in (None, k) for c, k in centers):
            problems.append(f"expected {ef.kind or 'any'} feature at {ef.center}+/-{ef.tolerance} G missing")
    d_zfs = ThermalZfsModel().zfs_at(cmd.expect["temp"])
    for i in rng.choice(len(lines), size=min(SAMPLES, len(lines)), replace=False):
        problems += check_line(entry.system, lines[int(i)], d_zfs)
    return problems


def check_sweep(cmd, path: str, rng: np.random.Generator) -> list[str]:
    spec = get_system(cmd.expect["system"]).system
    d = spec.dimension
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
    want = ",".join(["B_gauss"] + [f"eps_{i}" for i in range(d)] + [f"p_{i}" for i in range(d)])
    if header != want:
        return [f"header is not B_gauss,eps_0..eps_{d - 1},p_0..p_{d - 1}"]
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        return [f"unparsable sweep rows: {exc}"]
    points = cmd.expect["points"]
    if data.shape != (points, 1 + 2 * d):
        return [f"table shape {data.shape}, expected {(points, 1 + 2 * d)}"]
    if not np.isfinite(data).all():
        return ["non-finite values in the sweep table"]
    grid = np.linspace(cmd.expect["bmin"], cmd.expect["bmax"], points)
    field, eps, p = data[:, 0], data[:, 1 : 1 + d], data[:, 1 + d :]
    problems = []
    if np.abs(field - grid).max() > FIELD_ROUND + 1e-9:
        problems.append("B_gauss column does not match the requested grid")
    bad = np.where((np.diff(eps, axis=1) < 0).any(axis=1))[0]
    if len(bad):
        problems.append(f"eigenvalues not ascending in {len(bad)} rows, first at B = {field[bad[0]]} G")
    excess = np.abs(p.sum(axis=1) - d / 3.0)
    if excess.max() > d * PROJ_ROUND + 1e-9:
        k = int(np.argmax(excess))
        problems.append(f"sum rule: sum p = {p[k].sum():.6f} at B = {field[k]} G, expected {d / 3.0:.6f}")

    d_zfs = ThermalZfsModel().zfs_at(cmd.expect["temp"])
    shifts = []
    for k in sorted(int(i) for i in rng.choice(points, size=min(SAMPLES, points), replace=False)):
        w, vecs = _levels(spec, grid[k], d_zfs)
        shift = eps[k, 0] - w[0]
        shifts.append(shift)
        err = np.abs(eps[k] - shift - w).max()
        if err > 2 * ENERGY_ROUND + 1e-7:
            problems.append(f"row B = {grid[k]:.4f} G: eigenvalues off the dense reference by {err:.2e} MHz")
        # Projections are basis dependent inside (near-)degenerate levels, so
        # compare their sums over levels closer than the output resolution.
        ref = probe_weights(spec, vecs)
        cuts = np.where(np.diff(w) > 2 * ENERGY_ROUND)[0] + 1
        for group in np.split(np.arange(d), cuts):
            diff = abs(p[k, group].sum() - ref[group].sum())
            if diff > len(group) * PROJ_ROUND + 1e-7:
                problems.append(
                    f"row B = {grid[k]:.4f} G: probe weight of levels {group[0]}..{group[-1]} "
                    f"off the dense reference by {diff:.2e}"
                )
                break
    if shifts and max(shifts) - min(shifts) > 2 * ENERGY_ROUND + 1e-7:
        problems.append("positivity shift differs between rows")
    return problems


def check_tshift(cmd, text: str) -> list[str]:
    entry = get_system(cmd.expect["system"])
    lines = text.splitlines()
    if not lines or lines[0] != "T_K,center_G,delta_B_G":
        return ["missing T_K,center_G,delta_B_G header"]
    rows, slope, problems = [], None, []
    try:
        for ln in lines[1:]:
            if ln.startswith("# slope_300K_G_per_K = "):
                slope = float(ln.split("=", 1)[1])
            elif ln.startswith("#"):
                problems.append(f"report says: {ln.lstrip('# ')}")
            else:
                rows.append([float(x) for x in ln.split(",")])
    except ValueError as exc:
        return [f"malformed tshift row: {exc}"]
    temps = [round(t, 2) for t in cmd.expect["temps"]]
    got = [r[0] for r in rows]
    if len(got) != len(temps) or any(abs(a - b) > 1e-6 for a, b in zip(got, temps)):
        lost = sorted(set(temps) - set(got))
        problems.append(f"{len(temps) - len(got)} temperatures lost, e.g. {lost[:5]}")
    if not all(np.isfinite(r).all() for r in rows):
        problems.append("non-finite center or shift")
    if slope is None or not np.isfinite(slope):
        problems.append("no finite 300 K slope reported")
    elif entry.expected_slope is not None and abs(slope - entry.expected_slope) > SLOPE_TOL:
        problems.append(f"slope {slope} G/K, catalog expects {entry.expected_slope}+/-{SLOPE_TOL}")
    return problems


def check_fit(cmd, text: str) -> tuple[list[str], str | None]:
    """(problems, miss): a miss is a fit that did not put every true center
    within 0.1 G; acceptance criterion 7 allows 5 % of traces to miss."""
    try:
        dips = json.loads(text)["dips"]
        got = sorted(dp["center_G"] for dp in dips if not dp["removable"])
    except (ValueError, KeyError, TypeError) as exc:
        return [f"malformed fit report: {exc!r}"], None
    truth = sorted(cmd.expect["centers"])
    if len(got) != len(truth):
        return [], f"{len(got)} dips kept for {len(truth)} true dips"
    worst = max(abs(a - b) for a, b in zip(got, truth))
    if worst > CENTER_TOL:
        return [], f"a center is {worst:.3f} G from the truth"
    return [], None
