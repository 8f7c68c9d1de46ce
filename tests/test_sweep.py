"""Field sweeps, crossing detection/classification, and temperature tracking."""

import inspect
import io

import numpy as np
import pytest

from spin_atlas import constants as c
from spin_atlas.catalog import get_system
from spin_atlas.sweep import (
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


def test_sweep_rejects_bad_grid(nv):
    with pytest.raises(ValueError):
        sweep(nv, 100.0, 100.0, 64)
    with pytest.raises(ValueError):
        sweep(nv, 0.5, 1100.0, 1)


def test_cluster_features_single_linkage():
    from spin_atlas.sweep import CrossingEvent

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
