"""Catalog presets: listing, lookup, JSON round trips, and the
reference-regression suite of expected feature positions."""

import numpy as np
import pytest

from spin_atlas.catalog import (
    ALIASES,
    get_system,
    list_systems,
    system_ids,
)
from spin_atlas.sweep import sweep
from spin_atlas.system import SpinSystem

REQUIRED_IDS = [
    "nv", "nv-nv", "nv-p1", "nv-2p1", "nv-3p1", "onv-2p1", "onv-3p1",
    "2nv-13c", "nv-onv-13c", "2onv-13c", "nv-onv-p1", "2onv-p1", "nv-13c",
]


def test_listing_contains_required_ids():
    ids = [i for i, _ in list_systems()]
    assert len(ids) >= 13
    for required in REQUIRED_IDS:
        assert required in ids


def test_listing_order_stable():
    assert [i for i, _ in list_systems()] == system_ids()
    assert system_ids() == system_ids()


def test_descriptions_present():
    assert any("Two off-axis NV" in d for _, d in list_systems())
    assert any("two P1" in d for _, d in list_systems())


def test_alias_resolves():
    assert get_system("nv-nv-13c") is get_system("2nv-13c")
    assert "nv-nv-13c" in ALIASES


def test_unknown_id_lists_available():
    with pytest.raises(KeyError, match="available ids"):
        get_system("does-not-exist")


def test_entries_validate():
    for sys_id in system_ids():
        entry = get_system(sys_id)
        entry.system.validate()
        for ef in entry.expected_features:
            assert 0.0 <= ef.center <= 1100.0


def test_spec_json_round_trip():
    for sys_id in system_ids():
        system = get_system(sys_id).system
        assert SpinSystem.from_json(system.to_json()) == system, sys_id


def _match(features, expected):
    hits = [
        f
        for f in features
        if abs(f.center - expected.center) <= expected.tolerance
        and (expected.kind is None or f.kind == expected.kind)
    ]
    return hits


def test_expected_features_detected(catalog_features):
    """The reference-regression suite: every attainable (center, tolerance, kind)
    triple matches a detected feature; unattainable reference values are
    pinned as absent so any change in that status is flagged."""
    failures = []
    for sys_id, features in catalog_features.items():
        entry = get_system(sys_id)
        for ef in entry.expected_features:
            hits = _match(features, ef)
            if ef.attainable and not hits:
                nearest = min(
                    (abs(f.center - ef.center), f.center) for f in features
                ) if features else (None, None)
                failures.append(
                    f"{sys_id}: no feature at {ef.center}+/-{ef.tolerance} G "
                    f"(nearest detected {nearest[1]})"
                )
            if not ef.attainable and hits:
                failures.append(
                    f"{sys_id}: reference value {ef.center} G documented as "
                    f"unattainable now matches {hits[0].center:.2f} G - "
                    "update the catalog entry"
                )
    assert not failures, "\n".join(failures)


# (system id, b_min, b_max, points) windows that contain every reference
# position flagged attainable=False, swept at 300 K.
UNATTAINABLE_WINDOWS = [
    ("2onv-13c", 400.0, 800.0, 4096),
    ("nv-onv-13c", 1000.0, 1010.0, 512),
]


def _gap_minima(sys_id, b_min, b_max, n_points):
    """(field, pair) of every interior local minimum of every adjacent-level
    gap, with no gap ceiling and no projection filter."""
    sr = sweep(get_system(sys_id).system, b_min, b_max, n_points, temperature=300.0)
    g = sr.gaps()
    k, pair = np.nonzero((g[1:-1] <= g[:-2]) & (g[1:-1] <= g[2:]))
    return [(float(sr.field[i + 1]), int(j)) for i, j in zip(k, pair)]


def test_unattainable_positions_have_no_gap_minimum():
    """The Hamiltonian itself, not the detector, has no adjacent-level gap
    minimum near the positions flagged attainable=False, so no gap-based
    detector can report them.  A model change that creates one fails here."""
    for sys_id in system_ids():
        for ef in get_system(sys_id).expected_features:
            if ef.attainable:
                continue
            assert any(
                sid == sys_id and lo <= ef.center - ef.tolerance
                and ef.center + ef.tolerance <= hi
                for sid, lo, hi, _ in UNATTAINABLE_WINDOWS
            ), f"{sys_id} {ef.center} G: add a window to UNATTAINABLE_WINDOWS"
    for sys_id, lo, hi, n in UNATTAINABLE_WINDOWS:
        minima = _gap_minima(sys_id, lo, hi, n)
        assert not minima, f"{sys_id}: gap minima in [{lo}, {hi}] G: {minima[:5]}"
    # The scan does see minima where they exist: the GSLAC group of nv-onv-13c.
    assert any(1018.0 <= b <= 1020.0 for b, _ in _gap_minima("nv-onv-13c", 1010.0, 1025.0, 768))


def test_span_constraints(catalog_features):
    for sys_id, features in catalog_features.items():
        entry = get_system(sys_id)
        if entry.span_within is None:
            continue
        lo, hi = entry.span_within
        inside = [f for f in features if lo - 10 <= f.center <= hi + 10]
        assert inside, f"{sys_id}: no feature near [{lo}, {hi}] G"
        widest = max(inside, key=lambda f: f.span[1] - f.span[0])
        assert lo <= widest.span[0] and widest.span[1] <= hi, (
            f"{sys_id}: span {widest.span} outside [{lo}, {hi}] G"
        )


def test_feature_counts(catalog_features):
    for sys_id, features in catalog_features.items():
        entry = get_system(sys_id)
        if entry.expected_feature_count is None:
            continue
        lo, hi, count = entry.expected_feature_count
        in_band = [f for f in features if lo <= f.center <= hi]
        assert len(in_band) == count, (
            f"{sys_id}: {len(in_band)} features in [{lo}, {hi}] G, "
            f"expected {count}: {[round(f.center, 1) for f in in_band]}"
        )
