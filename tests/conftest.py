"""Shared fixtures: detected features for every catalog entry, computed once.

Large systems (composite dimension above the threshold) are swept only inside
windows around their expected features, without refinement. At 648
dimensions, with symmetry sectors, refined windows take about 7 s (nv-3p1)
and 90 s (onv-3p1), and a refined full-range nv-3p1 sweep about 2 minutes
(2-core VM, 1 BLAS thread), while the unrefined windows verify the same
expected-feature triples in about 1 s and 3 s.
"""

import pytest

from spin_atlas.catalog import get_system, system_ids
from spin_atlas.sweep import find_features

# Above this dimension, sweep expectation windows instead of the full range.
_WINDOW_DIM = 200
_WINDOW_PAD = 20.0
_WINDOW_POINTS = 160


def detect_entry_features(entry):
    """Run the entry's tuned detection, full-range or windowed by size."""
    if entry.system.dimension <= _WINDOW_DIM:
        return find_features(
            entry.system, 0.5, 1100.0, entry.sweep_points, config=entry.config
        )
    feats = []
    for ef in entry.expected_features:
        lo = max(0.5, ef.center - ef.tolerance - _WINDOW_PAD)
        hi = min(1100.0, ef.center + ef.tolerance + _WINDOW_PAD)
        feats.extend(
            find_features(
                entry.system, lo, hi, _WINDOW_POINTS, config=entry.config, refine=False
            )
        )
    return feats


@pytest.fixture(scope="session")
def catalog_features():
    """{system id: list of detected CrossingFeature} for the whole catalog."""
    return {
        sys_id: detect_entry_features(get_system(sys_id))
        for sys_id in system_ids()
    }
