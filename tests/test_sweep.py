"""Field sweeps, crossing detection/classification, and temperature tracking."""

import functools
import inspect
import io
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

import spin_atlas.sweep as sweep_mod
from spin_atlas import constants as c
from spin_atlas.catalog import get_system, list_systems
from spin_atlas.hamiltonian import hamiltonian_terms
from spin_atlas.sweep import (
    T_REF,
    _Solver,
    CrossingEvent,
    CrossingFeature,
    SweepConfig,
    SweepResult,
    cluster_features,
    detect_events,
    find_features,
    sweep,
    temperature_shift,
)
from spin_atlas.system import Site, SpinSystem
from spin_atlas.thermal import ThermalZfsModel

from test_blocks import sorted_levels
from test_hamiltonian import TILTED_PROBE, random_systems

D300 = ThermalZfsModel().zfs_at(300.0)


@pytest.fixture(scope="module")
def nv():
    return SpinSystem(sites=[Site(kind="nv_electron")])


def test_projection_sum_rule(nv):
    for sys_id in ("nv-p1", "2nv-13c"):
        spec = get_system(sys_id).system
        sr = sweep(spec, 0.5, 1100.0, 64)
        assert np.allclose(
            sr.projections.sum(axis=1), spec.dimension / 3.0, atol=1e-8
        )
        assert np.all(sr.projections >= -1e-10)
        assert np.all(sr.projections <= 1.0 + 1e-10)


def test_eigenvalues_sorted_and_shifted(nv):
    sr = sweep(nv, 0.5, 1100.0, 128)
    assert np.all(np.diff(sr.eigenvalues, axis=1) >= -1e-9)
    assert np.all(sr.eigenvalues > 0.0)


def test_gslac_closed_form(nv):
    feats = find_features(nv, 1000.0, 1050.0, 256)
    assert len(feats) == 1
    assert feats[0].kind == "true"
    assert abs(feats[0].center - D300 / c.GAMMA_E) < 0.05


def test_grid_refinement_convergence():
    spec = get_system("nv-p1").system
    centers = []
    for n in (512, 1024):
        feats = find_features(spec, 495.0, 530.0, n)
        centers.append(np.median([f.center for f in feats]))
    assert abs(centers[0] - centers[1]) < 0.05


def test_csv_header_and_shape(nv):
    sr = sweep(nv, 0.5, 10.0, 4)
    buf = io.StringIO()
    sr.to_csv(buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "B_gauss,eps_0,eps_1,eps_2,p_0,p_1,p_2"
    assert len(lines) == 5
    assert len(lines[1].split(",")) == 7


def reference_csv(sr) -> str:
    """CSV text of ``sr`` formatted one f-string per value."""
    d = sr.dimension
    lines = ["B_gauss," + ",".join([f"eps_{i}" for i in range(d)] + [f"p_{i}" for i in range(d)])]
    for k in range(len(sr.field)):
        row = [f"{sr.field[k]:.2f}"]
        row += [f"{x:.4f}" for x in sr.eigenvalues[k]]
        row += [f"{x:.6f}" for x in sr.projections[k]]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def test_csv_matches_per_value_formatting():
    """Signed zeros, values that round at an exact half, and negative values
    that round to zero print as a per-value f-string prints them, as does a
    complex-probe sweep."""
    ties = SweepResult(
        field=np.array([0.125, 0.375, 2.5, -0.0, 1099.995]),
        eigenvalues=np.array([[1.03125, -0.0], [-1.03125, 12345.67895], [-1e-5, 0.00005],
                              [2.0 ** -14, -2.0 ** -14], [1e6, -0.0]]),
        projections=np.array([[0.0078125, -0.0], [0.0234375, 1.0], [2.5e-7, -2.5e-7],
                              [0.9999995, 0.5], [-0.0, 0.0]]),
        shift_applied=100.0,
        temperature=300.0,
        d_zfs=D300,
    )
    complex_sweep = sweep(TILTED_PROBE, 0.5, 1100.0, 64)
    assert np.iscomplexobj(_Solver(TILTED_PROBE).v0)
    for sr in (ties, complex_sweep):
        buf = io.StringIO()
        sr.to_csv(buf)
        assert buf.getvalue() == reference_csv(sr)


def test_detect_events_brackets_contain_crossing(nv):
    sr = sweep(nv, 1000.0, 1050.0, 256)
    events = detect_events(sr)
    assert events
    b_true = D300 / c.GAMMA_E
    assert any(ev.b_lo <= b_true <= ev.b_hi for ev in events)


def test_cluster_radius_controls_grouping():
    spec = get_system("nv-p1").system
    feats_wide = find_features(spec, 970.0, 1080.0, 512, config=SweepConfig(cluster_radius=60.0))
    feats_narrow = find_features(spec, 970.0, 1080.0, 512, config=SweepConfig(cluster_radius=5.0))
    assert len(feats_wide) < len(feats_narrow)
    assert len(feats_narrow) == 5


def test_classification_invariant_under_coupling_scale():
    # Doubling a purely transverse electron-electron coupling widens avoided
    # gaps but must not flip true/avoided labels (nv-nv at 591 G and GSLAC).
    from spin_atlas.catalog import OFF_AXIS, _all_pairs

    kinds = {}
    for j in (5.0, 10.0):
        spec = SpinSystem(
            sites=[Site(kind="nv_electron"), Site(kind="nv_electron", axis=OFF_AXIS)],
            couplings=_all_pairs([0, 1], j=j),
            probe_site=0,
        )
        for window, center in (((560.0, 620.0), 591.4), ((1000.0, 1050.0), 1024.3)):
            feats = find_features(spec, *window, 256)
            hit = min(feats, key=lambda f: abs(f.center - center))
            assert abs(hit.center - center) < 2.0
            kinds.setdefault(center, []).append(hit.kind)
    for center, seen in kinds.items():
        assert len(set(seen)) == 1, f"{center} G classification flipped: {seen}"


def test_isolated_nv_shift_matches_zfs_closed_form(nv):
    # The GSLAC sits at D(T)/gamma_e exactly; numerical tracking must agree.
    model = ThermalZfsModel()
    feats = find_features(nv, 1000.0, 1050.0, 256)
    temps = [100.0, 200.0, 300.0]
    shift = temperature_shift(nv, feats[0], temps, model=model)
    for t, center in zip(shift.temperatures, shift.centers):
        assert abs(center - model.zfs_at(t) / c.GAMMA_E) < 0.02
    assert not shift.lost
    # Slope at 300 K equals D'(300)/gamma_e.
    assert abs(shift.slope_at_ref - model.zfs_slope(300.0) / c.GAMMA_E) < 5e-4


def _stub_tracking(monkeypatch, lost_at=None, zfs_at=lambda t: t * t / 100.0):
    """Replace the lock-step gap search by one that records, per call, the
    (seed, D) of each search, the seed read as its window's midpoint, and
    finds the center 1000 + 2 D, or nothing at temperature ``lost_at``. The
    model's D is ``zfs_at``, by default T^2 / 100, so the centers are not
    linear in T; the solver the search is handed is a stand-in."""
    calls = []
    lost_zfs = None if lost_at is None else zfs_at(lost_at)

    def gap_minima(solver, searches, pick):
        assert pick is sweep_mod._inner_argmin
        calls.append([((sample[0] + sample[-1]) / 2.0, d_zfs) for sample, _, d_zfs in searches])
        return [[] if d_zfs == lost_zfs else [(1000.0 + 2.0 * d_zfs, 0.0)] for _, _, d_zfs in searches]

    monkeypatch.setattr(sweep_mod, "_Solver", lambda spec: None)
    monkeypatch.setattr(sweep_mod, "_gap_minima", gap_minima)
    line = CrossingEvent(field=500.0, levels=(0, 1), min_gap=0.0, kind="true", projection_jump=1.0)
    feature = CrossingFeature(lines=(line,))
    return calls, feature, SimpleNamespace(zfs_at=zfs_at)


def assert_stage(call, points):
    """One lock-step call searched exactly these (seed, D) points, in order."""
    np.testing.assert_allclose(np.array(call).reshape(-1, 2), np.array(points).reshape(-1, 2), rtol=1e-12)


def test_continuation_seeds_every_temperature_from_reference(monkeypatch):
    """Three lock-step calls: T_ref from the line's field, T_ref +/- 5 K
    from T_ref's center, then every grid temperature (a repeat too) at
    center(T_ref) + dB/dD * (D(T) - D(T_ref)), with dB/dD from the second
    call. A temperature whose search finds nothing goes to ``lost``."""
    calls, feature, model = _stub_tracking(monkeypatch, lost_at=180.0)
    grid = [340.0, 60.0, 300.0, 240.0, 120.0, 320.0, 180.0, 240.0]
    shift = temperature_shift(None, feature, grid, model=model)
    zfs = model.zfs_at
    ref = 1000.0 + 2.0 * zfs(T_REF)
    assert len(calls) == 3
    assert calls[0] == [(500.0, zfs(T_REF))]
    assert_stage(calls[1], [(ref, zfs(T_REF - 5.0)), (ref, zfs(T_REF + 5.0))])
    # dB/dD = 2: each seed is the center its temperature has.
    temps = sorted(grid)
    assert_stage(calls[2], [(ref + 2.0 * (zfs(t) - zfs(T_REF)), zfs(t)) for t in temps])
    assert shift.lost == [180.0]
    assert shift.temperatures == [60.0, 120.0, 240.0, 240.0, 300.0, 320.0, 340.0]
    np.testing.assert_allclose(shift.centers, [1000.0 + 2.0 * zfs(t) for t in shift.temperatures], rtol=1e-15)
    assert shift.delta_b == [c - ref for c in shift.centers]
    assert shift.slope_at_ref == (2.0 * zfs(T_REF + 5.0) - 2.0 * zfs(T_REF - 5.0)) / 10.0


def test_continuation_without_reference_in_grid(monkeypatch):
    """T_ref outside the grid is tracked for the reference only; a repeated
    temperature is searched, and reported, once per grid entry. A model
    whose D is flat around T_ref gives no rate: every seed is the T_ref
    center."""
    calls, feature, model = _stub_tracking(monkeypatch)
    shift = temperature_shift(None, feature, [400.0, 250.0, 200.0, 350.0, 250.0], model=model)
    ref = 1000.0 + 2.0 * model.zfs_at(T_REF)
    temps = [200.0, 250.0, 250.0, 350.0, 400.0]
    assert_stage(calls[2], [(ref + 2.0 * (model.zfs_at(t) - model.zfs_at(T_REF)), model.zfs_at(t)) for t in temps])
    assert shift.temperatures == temps and not shift.lost

    calls, feature, model = _stub_tracking(monkeypatch, zfs_at=lambda t: 2870.0)
    shift = temperature_shift(None, feature, [100.0, 200.0], model=model)
    assert calls[2] == [(1000.0 + 2.0 * 2870.0, 2870.0)] * 2
    assert shift.delta_b == [0.0, 0.0] and shift.slope_at_ref == 0.0


def test_tracking_follows_a_shift_wider_than_its_window(nv):
    """Under a model four times as steep, the GSLAC at D(T) / gamma_e moves
    about 10 G from 4 to 300 K, twice the search window, but only 0.5 G
    over T_ref +/- 5 K. The seeds predicted from the reference put every
    grid temperature in its window; seeding each from its neighbour's
    center would lose 4 K and 150 K."""
    model = ThermalZfsModel(c1=4.0 * c.ZFS_C1, c2=4.0 * c.ZFS_C2)
    grid = [4.0, 150.0, 300.0]
    gslac = [model.zfs_at(t) / c.GAMMA_E for t in grid]
    assert gslac[1] - gslac[2] > sweep_mod._TRACK_WINDOW
    assert (model.zfs_at(T_REF - 5.0) - model.zfs_at(T_REF + 5.0)) / c.GAMMA_E < sweep_mod._TRACK_WINDOW
    feature = min(find_features(nv, 990.0, 1050.0, 256, model=model), key=lambda f: abs(f.center - gslac[2]))
    shift = temperature_shift(nv, feature, grid, model=model)
    assert shift.temperatures == grid and not shift.lost
    for center, want in zip(shift.centers, gslac):
        assert abs(center - want) < 0.02


def test_tracking_builds_the_block_stacks_once(nv, monkeypatch):
    """Every temperature is solved by one solver, which gathers the block
    stacks once."""
    feature = find_features(nv, 1000.0, 1050.0, 256)[0]
    inits = []

    class CountingSolver(_Solver):
        def __init__(self, *args):
            inits.append(args)
            super().__init__(*args)

    monkeypatch.setattr(sweep_mod, "_Solver", CountingSolver)
    shift = temperature_shift(nv, feature, [100.0, 200.0, 300.0])
    assert len(inits) == 1 and len(shift.temperatures) == 3


def reference_exchange(projs, gaps, pair, k):
    """``_exchange`` as a plain loop that widens the window one step at a
    time, re-forming the threshold at each step."""
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
    return max(abs(projs[hi, pair] - projs[lo, pair]), abs(projs[hi, pair + 1] - projs[lo, pair + 1]))


@pytest.mark.parametrize("sys_id, n_points", [("nv-2p1", 1024), ("nv-p1", 300)])
def test_exchange_matches_reference_loop(sys_id, n_points, monkeypatch):
    """The window search gives the reference loop's value at every grid index
    of every pair, edges included, so the candidates do not change."""
    sr = sweep(get_system(sys_id).system, 0.5, 1100.0, n_points)
    gaps, projs = sr.gaps(), sr.projections
    for pair in range(0, gaps.shape[1], max(1, gaps.shape[1] // 12)):
        for k in range(n_points):
            assert sweep_mod._exchange(projs, gaps, pair, k) == reference_exchange(projs, gaps, pair, k)
    candidates = detect_events(sr)
    monkeypatch.setattr(sweep_mod, "_exchange", reference_exchange)
    assert detect_events(sr) == candidates


def run_brent(f, a, b):
    """Drive ``_brent`` on ``f`` over [a, b]: (x, f(x)) and every field asked for."""
    run = sweep_mod._brent(a, b)
    asked = [next(run)]
    while True:
        try:
            asked.append(run.send(f(asked[-1])))
        except StopIteration as done:
            return done.value, asked


BRENT_FUNCTIONS = {
    # Smooth, with the minimum inside, outside or at either end of the bracket.
    "parabola": lambda x, p, q: p * (x - q) ** 2 + 0.1,
    # Several local minima in one bracket.
    "wave": lambda x, p, q: math.sin(p * x) + 0.01 * q * x,
    # Kinks and jumps: the lower of two Vs, plus a step.
    "piecewise": lambda x, p, q: min(abs(x - q), 2.0 * abs(x - q - p) + 0.05) + (0.3 if x > q + 0.5 * p else 0.0),
    # A flat gap, exact and at roundoff level: the result rests on ties.
    "constant": lambda x, p, q: 0.0,
    "roundoff": lambda x, p, q: 6.8e-10 + 1e-16 * math.sin(1e7 * x),
}


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(sorted(BRENT_FUNCTIONS)),
    a=st.floats(min_value=0.0, max_value=1100.0),
    width=st.one_of(st.floats(min_value=0.0, max_value=0.01), st.floats(min_value=0.01, max_value=200.0)),
    p=st.floats(min_value=0.01, max_value=50.0),
    q=st.floats(min_value=-0.5, max_value=1.5),
)
def test_brent_matches_scipy_bounded(kind, a, width, p, q):
    """The ported bounded Brent asks for scipy's fields, in scipy's order,
    and returns scipy's x and f(x), bit for bit."""
    b = a + width
    f = functools.partial(BRENT_FUNCTIONS[kind], p=p, q=a + q * width)
    asked = []

    def recorded(x):
        asked.append(float(x))
        return f(x)

    res = minimize_scalar(recorded, bounds=(a, b), method="bounded", options={"xatol": sweep_mod._FIELD_RESOLUTION})
    (x, fun), fields = run_brent(f, a, b)
    assert fields == asked and res.nfev == len(fields)
    assert (x, fun) == (float(res.x), float(res.fun))


def test_sweep_rejects_bad_grid(nv):
    with pytest.raises(ValueError):
        sweep(nv, 100.0, 100.0, 64)
    with pytest.raises(ValueError):
        sweep(nv, 0.5, 1100.0, 1)
    for b_min, b_max in ((-100.0, -50.0), (-1.0, 50.0)):
        with pytest.raises(ValueError, match="b_min"):
            sweep(nv, b_min, b_max, 4)
    # Fields are capped like every spec magnitude; the cap itself sweeps.
    for b_max in (c.MAGNITUDE_CAP * (1 + 1e-15), 1e308, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="b_max"):
            sweep(nv, 0.0, b_max, 3)
    assert np.isfinite(sweep(nv, 0.0, c.MAGNITUDE_CAP, 3).eigenvalues).all()


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_lowest_level_is_lowest_at_a_range_end(data):
    """The lowest level of H0 + B H_b is a minimum of functions affine in B,
    so it is concave: on a dense 9-point grid over any range it lies below
    the solver's lower end of the range by no more than roundoff, and a
    sweep's shift lifts every level of its grid to 100 MHz or above."""
    spec = data.draw(random_systems(complex_probe=data.draw(st.booleans())))
    ends = np.sort(data.draw(st.lists(st.floats(0.0, 1100.0), min_size=2, max_size=2, unique=True)))
    low = sorted_levels(_Solver(spec), ends, D300)[:, 0].min()
    h_const, h_d, h_b = hamiltonian_terms(spec)
    fields = np.linspace(ends[0], ends[1], 9)
    levels = np.linalg.eigvalsh((h_const + D300 * h_d)[None] + fields[:, None, None] * h_b[None])
    tol = 1e-9 * max(np.abs(levels).max(), 1.0)
    assert levels[:, 0].min() >= low - tol
    assert sweep(spec, ends[0], ends[1], 9).eigenvalues.min() >= 100.0 - tol


@pytest.mark.parametrize("sys_id", [i for i, _ in list_systems()])
def test_shift_matches_nine_point_prescan(sys_id):
    """The shift taken from the range's two ends equals, bit for bit, the
    one a 9-point pre-scan of the catalog range gives."""
    spec = get_system(sys_id).system
    low = float(sorted_levels(_Solver(spec), np.linspace(0.5, 1100.0, 9), D300)[:, 0].min())
    assert low < 0.0  # so the shift depends on it
    assert sweep(spec, 0.5, 1100.0, 2).shift_applied == abs(low) + 100.0


def test_cluster_features_single_linkage():
    def ev(b):
        return CrossingEvent(field=b, levels=(0, 1), min_gap=0.0, kind="true", projection_jump=1.0)

    feats = cluster_features([ev(10.0), ev(20.0), ev(31.0), ev(60.0)], cluster_radius=15.0)
    assert [len(f.lines) for f in feats] == [3, 1]
    assert feats[0].center == 20.0  # median of member fields
    assert feats[0].span == (10.0, 31.0)
    # Lines at 10 and 12 G are equally near their 11 G center: the first wins.
    first, second = (CrossingEvent(b, (0, 1), 1.0, kind, 1.0) for b, kind in ((10.0, "avoided"), (12.0, "true")))
    (tie,) = cluster_features([second, first], 15.0)
    assert (tie.center, tie.central_line, tie.kind) == (11.0, first, "avoided")


@settings(max_examples=300, deadline=None)
@given(
    lines=st.lists(
        st.tuples(st.integers(0, 30).map(float), st.sampled_from(["true", "avoided"]), st.floats(0.0, 5.0)),
        min_size=1,
        max_size=12,
    ),
    radius=st.sampled_from([0.0, 1.0, 2.0, 15.0]),
)
def test_feature_is_a_view_of_its_lines(lines, radius):
    """Clustering only groups lines; each feature's center is the median of
    its line fields, its span the first and last field, its central line the
    first at minimal |field - center| (integer fields make ties common), its
    kind that line's, and its min gap the smallest line gap."""
    events = [
        CrossingEvent(field=b, levels=(i, i + 1), min_gap=g, kind=kind, projection_jump=1.0)
        for i, (b, kind, g) in enumerate(lines)
    ]
    feats = cluster_features(events, radius)
    assert [ln for f in feats for ln in f.lines] == sorted(events, key=lambda e: e.field)
    for f, after in zip(feats, feats[1:]):
        assert after.lines[0].field - f.lines[-1].field > radius
    for f in feats:
        fields = np.array([ln.field for ln in f.lines])
        assert (np.diff(fields) <= radius).all()
        assert f.center == float(np.median(fields))
        assert f.span == (fields.min(), fields.max())
        central = f.lines[int(np.argmin(np.abs(fields - f.center)))]
        assert f.central_line is central
        assert f.kind == central.kind
        assert f.min_gap == min(ln.min_gap for ln in f.lines)


def test_sweep_module_is_not_shadowed():
    # The package exports no ``sweep`` function, so the name is the module.
    import spin_atlas.sweep as m

    assert inspect.ismodule(m) and callable(m.hamiltonian_terms)
    assert m.sweep is sweep
