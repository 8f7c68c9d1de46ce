"""Shared fixtures: detected features for every catalog entry, computed once.

Large systems (composite dimension above the threshold) are swept only inside
windows around their expected features; at 648 dimensions a full-range sweep
with refinement takes tens of minutes, while the windows verify the same
expected-feature triples at a fraction of the cost.
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
    cfg = entry.sweep_config()
    if entry.system.dimension <= _WINDOW_DIM:
        return find_features(
            entry.system, 0.5, 1100.0, entry.sweep_points, config=cfg
        )
    feats = []
    for ef in entry.expected_features:
        lo = max(0.5, ef.center - ef.tolerance - _WINDOW_PAD)
        hi = min(1100.0, ef.center + ef.tolerance + _WINDOW_PAD)
        feats.extend(
            find_features(
                entry.system, lo, hi, _WINDOW_POINTS, config=cfg, refine=False
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
