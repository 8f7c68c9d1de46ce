"""Field sweeps, crossing detection/classification, and temperature tracking."""

import inspect
import io
from types import SimpleNamespace

import numpy as np
import pytest

import spin_atlas.sweep as sweep_mod
from spin_atlas import constants as c
from spin_atlas.catalog import get_system
from spin_atlas.sweep import (
    T_REF,
    CrossingEvent,
    CrossingFeature,
    SweepConfig,
    cluster_features,
    detect_events,
    find_features,
    sweep,
    temperature_shift,
)
from spin_atlas.system import Site, SpinSystem
from spin_atlas.thermal import ThermalZfsModel

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


def _stub_tracking(monkeypatch, lost_at=None):
    """Replace the gap tracker by one that records (T, seed) and returns the
    center 1000 + T, or None at ``lost_at``. The model's D is T itself."""
    calls = []

    def track(spec, d_zfs, pair, seed):
        calls.append((d_zfs, seed))
        return None if d_zfs == lost_at else 1000.0 + d_zfs

    monkeypatch.setattr(sweep_mod, "_track_center", track)
    line = CrossingEvent(field=500.0, levels=(0, 1), min_gap=0.0, kind="true", projection_jump=1.0)
    feature = CrossingFeature(center=500.0, lines=(line,), span=(500.0, 500.0))
    return calls, feature, SimpleNamespace(zfs_at=lambda t: t)


def test_continuation_walks_outward_from_reference(monkeypatch):
    calls, feature, model = _stub_tracking(monkeypatch, lost_at=180.0)
    grid = [340.0, 60.0, 300.0, 240.0, 120.0, 320.0, 180.0]
    shift = temperature_shift(None, feature, grid, model=model)
    ref = 1000.0 + T_REF
    assert calls[0] == (T_REF, 500.0)  # T_ref from the line's own field
    # Every grid temperature once, plus T_ref and T_ref +/- 5 K; each seeded
    # from the last center tracked on its side of T_ref (180 K is lost).
    assert sorted(calls[1:]) == sorted([
        (300.0, ref), (320.0, ref), (340.0, 1320.0),
        (240.0, ref), (180.0, 1240.0), (120.0, 1240.0), (60.0, 1120.0),
        (T_REF - 5.0, ref), (T_REF + 5.0, ref),
    ])
    assert shift.lost == [180.0]
    assert shift.temperatures == [60.0, 120.0, 240.0, 300.0, 320.0, 340.0]
    assert shift.delta_b == [t - T_REF for t in shift.temperatures]
    assert shift.slope_at_ref == 1.0


def test_continuation_without_reference_in_grid(monkeypatch):
    calls, feature, model = _stub_tracking(monkeypatch)
    shift = temperature_shift(None, feature, [400.0, 250.0, 200.0, 350.0, 250.0], model=model)
    ref = 1000.0 + T_REF
    # Both walks start from T_ref's center; a repeated temperature is
    # tracked, and reported, once per grid entry.
    assert sorted(calls[1:]) == sorted([
        (250.0, ref), (250.0, 1250.0), (200.0, 1250.0), (350.0, ref), (400.0, 1350.0),
        (T_REF - 5.0, ref), (T_REF + 5.0, ref),
    ])
    assert shift.temperatures == [200.0, 250.0, 250.0, 350.0, 400.0]
    assert not shift.lost


def test_sweep_rejects_bad_grid(nv):
    with pytest.raises(ValueError):
        sweep(nv, 100.0, 100.0, 64)
    with pytest.raises(ValueError):
        sweep(nv, 0.5, 1100.0, 1)


def test_cluster_features_single_linkage():
    def ev(b):
        return CrossingEvent(field=b, levels=(0, 1), min_gap=0.0, kind="true", projection_jump=1.0)

    feats = cluster_features([ev(10.0), ev(20.0), ev(31.0), ev(60.0)], cluster_radius=15.0)
    assert [len(f.lines) for f in feats] == [3, 1]
    assert feats[0].center == 20.0  # median of member fields
    assert feats[0].span == (10.0, 31.0)


def test_sweep_module_is_not_shadowed():
    # The package exports no ``sweep`` function, so the name is the module.
    import spin_atlas.sweep as m

    assert inspect.ismodule(m) and callable(m.hamiltonian_terms)
    assert m.sweep is sweep
