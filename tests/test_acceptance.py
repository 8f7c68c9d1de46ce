"""Acceptance gate: the seven top-level criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Criterion 2 checks the full enumerated reference sets and reads each
``ExpectedFeature`` as the catalog defines it: an attainable position must be
detected (with its ``kind`` where one is set), and a position flagged
``attainable=False`` must stay undetected.  Those documented-unattainable
positions are listed on criterion 2's line so they stay visible.
"""

import numpy as np
import pytest

from spin_atlas import constants as c
from spin_atlas.catalog import get_system, system_ids
from spin_atlas.hamiltonian import hamiltonian_terms, probe_projector_vector
from spin_atlas.sweep import CrossingFeature, _Solver, find_features, sweep, temperature_shift
from spin_atlas.system import Site, SpinSystem
from spin_atlas.thermal import ThermalZfsModel
from spin_atlas.traces import Trace, dip_model, fit_dips, side_peak_separations

from test_blocks import sorted_levels
from test_hamiltonian import dense_basis
from test_kernels import degenerate_clusters, dense_projector


def report(criterion: str, failures: list, note: str = "") -> None:
    status = "PASS" if not failures else "FAIL (" + "; ".join(failures) + ")"
    if note:
        status += f" [{note}]"
    print(f"\nACCEPTANCE {criterion}: {status}")
    assert not failures, f"{criterion}: {failures}"


def nearest(features, center):
    return min(features, key=lambda f: abs(f.center - center))


def matches(features, center, tol, kind=None):
    return [
        f
        for f in features
        if abs(f.center - center) <= tol and (kind is None or f.kind == kind)
    ]


def test_criterion_1_feature_positions(catalog_features):
    checks = [
        ("nv-p1", 512.0, 2.0),
        ("nv-nv", 591.0, 2.0),
        ("nv", 1024.0, 2.0),
        ("nv-2p1", 342.0, 8.0),
        ("2onv-p1", 732.0, 8.0),
        ("2nv-13c", 954.0, 8.0),
    ]
    failures = []
    for sys_id, center, tol in checks:
        feats = catalog_features[sys_id]
        if not matches(feats, center, tol):
            got = nearest(feats, center).center if feats else None
            failures.append(f"{sys_id} {center} G -> {got}")
    report("1 feature-positions", failures)


def test_criterion_2_line_suites(catalog_features):
    failures = []

    feats = catalog_features["onv-2p1"]
    lo, hi, count = get_system("onv-2p1").expected_feature_count
    in_band = [f for f in feats if lo <= f.center <= hi]
    if len(in_band) != count:
        failures.append(f"onv-2p1 {len(in_band)} lines (need {count})")
    central = sorted(in_band, key=lambda f: f.center)[len(in_band) // 2] if in_band else None
    if central is None or abs(central.center - 591.0) > 2.0:
        failures.append(f"onv-2p1 central {central and central.center}")

    for center in (695.0, 714.0, 732.0, 750.0, 769.0):
        if not matches(catalog_features["2onv-p1"], center, 3.0):
            failures.append(f"2onv-p1 {center} G missing")

    lo, hi = get_system("nv-2p1").span_within
    band = [f for f in catalog_features["nv-2p1"] if lo - 10 <= f.center <= hi + 10]
    widest = max(band, key=lambda f: f.span[1] - f.span[0]) if band else None
    if widest is None or not (lo <= widest.span[0] and widest.span[1] <= hi):
        failures.append(f"nv-2p1 span {widest and widest.span} not in [{lo},{hi}]")

    if not matches(catalog_features["2nv-13c"], 879.0, 5.0, kind="true"):
        failures.append("2nv-13c true crossing 879 G missing")
    if not any(
        950.0 <= f.center <= 958.0 and f.kind == "avoided"
        for f in catalog_features["2nv-13c"]
    ):
        failures.append("2nv-13c avoided crossing 950-958 G missing")

    unattainable = []
    for sys_id in ("nv-onv-13c", "2onv-13c", "nv-onv-p1", "onv-3p1", "nv-3p1"):
        for ef in get_system(sys_id).expected_features:
            hits = matches(catalog_features[sys_id], ef.center, ef.tolerance, kind=ef.kind)
            if ef.attainable:
                if not hits:
                    failures.append(f"{sys_id} {ef.center} G missing")
                continue
            unattainable.append(f"{sys_id} {ef.center:g} G")
            if hits:
                failures.append(
                    f"{sys_id} {ef.center} G documented as unattainable now "
                    f"matches {hits[0].center:.2f} G - update the catalog entry"
                )

    report(
        "2 line-suites", failures,
        note="documented unattainable, pinned absent: " + ", ".join(unattainable),
    )


SLOPE_CASES = [
    ("nv-2p1", 342.0, -0.008),
    ("nv-p1", 512.0, -0.011),
    ("nv-nv", 591.0, -0.014),
    ("2onv-p1", 732.0, -0.017),
    ("2nv-13c", 954.0, -0.025),
    ("nv", 1024.0, -0.022),
]


def _tracked_feature(entry, around):
    """The feature nearest the entry's ``track_center`` (else ``around``).
    Where the entry names a ``track_center``, the feature is narrowed to its
    line nearest that field, so that line is the one tracked."""
    feats = find_features(
        entry.system, around - 20.0, around + 20.0, 384, config=entry.config
    )
    if entry.track_center is None:
        return nearest(feats, around)
    feature = nearest(feats, entry.track_center)
    line = min(feature.lines, key=lambda ln: abs(ln.field - entry.track_center))
    return CrossingFeature(lines=(line,))


def test_criterion_3_temperature_slopes():
    failures = []
    details = []
    for sys_id, around, expected in SLOPE_CASES:
        entry = get_system(sys_id)
        feature = _tracked_feature(entry, around)
        shift = temperature_shift(entry.system, feature, [300.0])
        details.append(f"{around:.0f}G {shift.slope_at_ref:+.4f}")
        if abs(shift.slope_at_ref - expected) > 0.004:
            failures.append(
                f"{sys_id} {around} G slope {shift.slope_at_ref:.4f} "
                f"(expect {expected}+/-0.004)"
            )
    print("\n  slopes:", ", ".join(details))
    report("3 temperature-slopes", failures)


def test_criterion_4_total_732_shift():
    entry = get_system("2onv-p1")
    feature = _tracked_feature(entry, 732.0)
    shift = temperature_shift(entry.system, feature, [0.0, 300.0])
    total = shift.centers[0] - shift.centers[-1]
    failures = []
    if shift.lost:
        failures.append(f"tracking lost at {shift.lost}")
    elif abs(total - 1.84) > 0.05:
        failures.append(f"center(0K)-center(300K) = {total:.3f} G (expect 1.84+/-0.05)")
    report("4 total-732G-shift", failures)


def test_criterion_5_thermal_model():
    m = ThermalZfsModel()
    failures = []
    if m.zfs_at(0.0) != c.ZFS_D0:
        failures.append("D(0) != D0")
    drop = m.zfs_at(300.0) - m.zfs_at(0.0)
    if abs(drop - (-7.22)) > 0.01:
        failures.append(f"D(300)-D(0) = {drop:.4f}")
    h = 1e-3
    for t in np.linspace(50.0, 300.0, 26):
        fd = (m.zfs_at(t + h) - m.zfs_at(t - h)) / (2.0 * h)
        if abs(m.zfs_slope(t) - fd) > 1e-6:
            failures.append(f"slope mismatch at {t:.0f} K")
            break
    report("5 thermal-model", failures)


def _production_path_problem(spec, b_field, h, vals, vecs):
    """What the sweeps' solver gets wrong against the dense eigenpairs
    ``vals, vecs`` of ``h = H(b_field, D)``, or None.

    ``_Solver.eigvals`` must match to 1e-9 of the spectral scale. The probe
    weights of ``_Solver.batch`` must sum to d / 3 and match the dense
    projector's, summed over each run of levels closer than 1e-9 of the
    scale (eigh's basis inside a run is arbitrary). Each block, taken back
    out of its basis, must restore every term.
    """
    terms = hamiltonian_terms(spec)
    solver = _Solver(spec)
    scale = max(np.abs(vals).max(), 1.0)
    if np.abs(sorted_levels(solver, np.array([b_field]), 2870.385)[0] - vals).max() > 1e-9 * scale:
        return "solver eigenvalues"
    _, projs = solver.batch(np.array([b_field]), 2870.385)
    if abs(projs.sum() - spec.dimension / 3.0) > 1e-9:
        return "solver projection sum"
    dense = np.einsum("ai,ab,bi->i", vecs.conj(), dense_projector(*probe_projector_vector(spec)), vecs).real
    for run in degenerate_clusters(vals, 1e-9 * scale):
        if abs(projs[0, run].sum() - dense[run].sum()) > 1e-9:
            return "solver projections"
    for term in terms:
        rebuilt = np.zeros_like(term)
        for blk in terms.blocks:
            basis = dense_basis(blk)
            rebuilt[np.ix_(blk.rows, blk.rows)] += basis @ blk.project(term) @ basis.T
        if np.abs(rebuilt - term).max() > 1e-12 * max(np.abs(term).max(), 1.0):
            return "block reconstruction"
    return None


def test_criterion_6_property_suites(catalog_features):
    failures = []

    # Projection conservation for every catalog system.
    for sys_id in system_ids():
        spec = get_system(sys_id).system
        n = 9 if spec.dimension > 200 else 33
        sr = sweep(spec, 0.5, 1100.0, n)
        if not np.allclose(sr.projections.sum(axis=1), spec.dimension / 3.0, atol=1e-7):
            failures.append(f"{sys_id} projection sum")

    # Hermiticity + eigen-reconstruction on 1000 random systems, and the
    # same draws through the sweeps' block solver.
    from spin_atlas.hamiltonian import build_hamiltonian, eigendecompose
    from spin_atlas.system import Hyperfine, InteractionTensor

    rng = np.random.default_rng(11)
    for k in range(1000):
        sites = [Site(kind="nv_electron")]
        for _ in range(rng.integers(0, 3)):
            theta = rng.uniform(0.0, np.pi)
            sites.append(
                Site(
                    kind=str(rng.choice(["c13", "n14"])),
                    hyperfine=Hyperfine(
                        InteractionTensor.axial(
                            rng.uniform(-200, 200), rng.uniform(-200, 200),
                            (np.sin(theta), 0.0, np.cos(theta)),
                        ),
                        0,
                    ),
                )
            )
        spec = SpinSystem(sites=sites)
        b_field = rng.uniform(0, 1100)
        h = build_hamiltonian(spec, b_field, 2870.385)
        if np.abs(h - h.conj().T).max() > 1e-9:
            failures.append(f"hermiticity draw {k}")
            break
        vals, vecs = eigendecompose(h)
        scale = max(np.abs(vals).max(), 1.0)
        if np.abs((vecs * vals) @ vecs.conj().T - h).max() / scale > 1e-6:
            failures.append(f"reconstruction draw {k}")
            break
        problem = _production_path_problem(spec, b_field, h, vals, vecs)
        if problem:
            failures.append(f"{problem} draw {k}")
            break

    # Isolated-NV temperature shift vs closed form.
    nv = SpinSystem(sites=[Site(kind="nv_electron")])
    model = ThermalZfsModel()
    feats = find_features(nv, 1000.0, 1050.0, 256)
    shift = temperature_shift(nv, feats[0], [100.0, 200.0, 300.0], model=model)
    for t, center in zip(shift.temperatures, shift.centers):
        if abs(center - model.zfs_at(t) / c.GAMMA_E) > 0.02:
            failures.append(f"nv shift at {t:.0f} K")

    # Grid-refinement convergence.
    spec = get_system("nv-p1").system
    c512 = [
        np.median([f.center for f in find_features(spec, 495.0, 530.0, n)])
        for n in (512, 1024)
    ]
    if abs(c512[0] - c512[1]) > 0.05:
        failures.append(f"grid convergence {abs(c512[0] - c512[1]):.3f} G")

    report("6 property-suites", failures)


def test_criterion_7_trace_oracle(catalog_features):
    failures = []

    # Monte-Carlo synthetic 3-dip traces at 0.1% noise.
    rng = np.random.default_rng(404)
    center_ok = sep_ok = 0
    n_draws = 100
    grid = np.linspace(450.0, 570.0, 1200)
    for _ in range(n_draws):
        centers = np.sort(rng.uniform(470.0, 550.0, size=3))
        while np.min(np.diff(centers)) < 8.0:
            centers = np.sort(rng.uniform(470.0, 550.0, size=3))
        params = [1.0, 0.0]
        for ctr in centers:
            params.extend([ctr, rng.uniform(2.0, 4.0), rng.uniform(0.01, 0.05)])
        pl = dip_model(np.array(params), grid) + rng.normal(scale=0.001, size=grid.shape)
        fit = fit_dips(Trace(tuple(grid), tuple(pl)),
                       seeds=list(centers + rng.uniform(-1.0, 1.0, 3)))
        got = np.sort([d.center for d in fit.dips])
        center_ok += int(np.max(np.abs(got - centers)) < 0.1)
        sep_ok += int(np.max(np.abs(np.diff(got) - np.diff(centers))) < 0.2)
    if center_ok < 95:
        failures.append(f"centers recovered in {center_ok}/{n_draws} draws")
    if sep_ok < 95:
        failures.append(f"separations recovered in {sep_ok}/{n_draws} draws")

    # Simulated GSLAC satellite structure of nv-p1: line separations from a
    # fitted synthetic trace must match the sweep engine within 0.5 G.
    feats = [f for f in catalog_features["nv-p1"] if 970.0 <= f.center <= 1080.0]
    engine_centers = sorted(f.center for f in feats)
    gslac = min(engine_centers, key=lambda x: abs(x - 1024.0))
    engine_seps = sorted(abs(x - gslac) for x in engine_centers if x != gslac)
    grid = np.linspace(960.0, 1090.0, 2000)
    params = [1.0, 0.0]
    for ctr in engine_centers:
        params.extend([ctr, 2.5, 0.02])
    pl = dip_model(np.array(params), grid)
    fit = fit_dips(Trace(tuple(grid), tuple(pl)),
                   seeds=[ctr + 0.5 for ctr in engine_centers])
    fitted_seps = side_peak_separations(fit, central=1024.0)
    if len(fitted_seps) != len(engine_seps):
        failures.append("satellite count mismatch")
    else:
        worst = max(abs(a - b) for a, b in zip(fitted_seps, engine_seps))
        if worst > 0.5:
            failures.append(f"satellite separation off by {worst:.3f} G")

    report("7 trace-oracle", failures)
