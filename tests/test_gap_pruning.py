"""Gap searches solve only the blocks that can reach their level pair
(``_gap_minima``): every gap a search computes, at its sample points and at
its Brent points, equals the gap of an every-block solve byte for byte."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spin_atlas.sweep as sweep_mod
from spin_atlas.catalog import get_system
from spin_atlas.hamiltonian import HamiltonianTerms
from spin_atlas.sweep import _Solver

from test_blocks import sorted_levels, window_searches

SYSTEMS = ["nv-p1", "nv-2p1", "nv-3p1", "onv-2p1"]
ZFS = [2870.385, 2877.93, 2843.2]


@functools.cache
def solver_of(sys_id):
    return _Solver(get_system(sys_id).system)


def any_local_minima(g):
    return sweep_mod._local_minima(g) if len(g) else []


def recorded_gaps(solver, searches, pick):
    """Run ``_gap_minima`` and return, per search, the (field, gap) of every
    point it evaluated: its sample, then its Brent runs in order."""
    samples, runs = [], []
    brent = sweep_mod._brent

    def recording_pick(g):
        ks = pick(g)
        samples.append((g.copy(), len(ks)))
        return ks

    def recording_brent(a, b):
        run, value, log = brent(a, b), None, []
        runs.append(log)
        while True:
            try:
                x = run.send(value)
            except StopIteration as done:
                return done.value
            value = yield x
            log.append((x, value))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sweep_mod, "_brent", recording_brent)
        sweep_mod._gap_minima(solver, searches, recording_pick)
    evaluated, start = [], 0
    for (sample, _, _), (g, n_runs) in zip(searches, samples):
        points = list(zip(np.asarray(sample, dtype=float).tolist(), g.tolist()))
        for log in runs[start : start + n_runs]:
            points.extend(log)
        start += n_runs
        evaluated.append(points)
    assert start == len(runs)
    return evaluated


def assert_gaps_match_every_block_solve(solver, searches, pick):
    for (_, pair, d_zfs), points in zip(searches, recorded_gaps(solver, searches, pick)):
        if not points:
            continue
        fields, got = (np.array(column) for column in zip(*points))
        levels = sorted_levels(solver, fields, d_zfs)
        want = levels[:, pair + 1] - levels[:, pair]
        assert got.tobytes() == want.tobytes()


@st.composite
def gap_searches(draw, d):
    """1-4 (sample, pair, D) searches. Pairs include 0 and d - 2; samples
    are 1-21 points, narrow, tens of gauss wide, or wide enough that no
    block can be pruned, clipped to B > 0 as tracking windows are (possibly
    to nothing); a search may reuse the previous one's sample and D with
    another pair."""
    searches = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        pair = draw(st.one_of(st.just(0), st.just(d - 2), st.integers(min_value=0, max_value=d - 2)))
        if searches and draw(st.booleans()):
            sample, _, d_zfs = searches[-1]
        else:
            center = draw(st.one_of(st.floats(min_value=0.0, max_value=6.0), st.floats(min_value=0.0, max_value=1100.0)))
            half = draw(st.one_of(st.floats(min_value=0.01, max_value=6.0), st.floats(min_value=6.0, max_value=300.0),
                                  st.floats(min_value=300.0, max_value=1100.0)))
            sample = np.linspace(center - half, center + half, draw(st.integers(min_value=1, max_value=21)))
            sample = sample[sample > 0]
            d_zfs = draw(st.sampled_from(ZFS))
        searches.append((sample, pair, d_zfs))
    return searches


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_pruned_gaps_equal_every_block_gaps(data):
    solver = solver_of(data.draw(st.sampled_from(SYSTEMS)))
    searches = data.draw(gap_searches(solver.dim))
    pick = data.draw(st.sampled_from([any_local_minima, sweep_mod._inner_argmin]))
    assert_gaps_match_every_block_solve(solver, searches, pick)


def test_full_speed_crossing_is_solved():
    """nv-p1 at 533-535 G: a level of one M_z block falls through pair 6 at
    ||H_b|| of its block, 4.2 MHz/G, while the level it crosses rises. The
    two-point sample's middle point is its upper end, so its bound needs
    the whole 2 G radius: with half of it the crossing level is pruned."""
    assert_gaps_match_every_block_solve(solver_of("nv-p1"), [(np.array([533.0, 535.0]), 6, ZFS[1])], any_local_minima)


def test_level_at_the_bound_is_solved(monkeypatch):
    """Three one-state blocks, levels affine in B, make Weyl's bound tight.
    Level X rises at its block's full rate and the pair's lower level falls
    at ||H_b||: in exact arithmetic they meet at the sample's upper end,
    where X stays below the pair by a few ulps only. X lies outside the
    bound by roundoff alone, and only the rounding margin keeps its block
    solved there; a search that pruned it would get that point's gap wrong
    in its last bits."""
    mid, half = 877.8783789360442, 3.039924008558608
    rise, fall = 0.22614049255664265, 1.454725604460287
    c_x, c_pair = -2275.877176393204, -795.1714667319324
    terms = HamiltonianTerms(np.diag([c_x, c_pair, c_pair + 50.0]), np.zeros((3, 3)), np.diag([rise, -fall, -fall]))
    monkeypatch.setattr(sweep_mod, "hamiltonian_terms", lambda spec: terms)
    solver = _Solver(get_system("nv").system)
    sample = np.linspace(mid - half, mid + half, 3)
    assert abs((c_x + rise * sample[-1]) - (c_pair - fall * sample[-1])) < 1e-11
    assert_gaps_match_every_block_solve(solver, [(sample, 1, ZFS[0])], lambda g: [])


def test_searches_solve_a_fraction_of_the_blocks(monkeypatch):
    """The 58 candidate searches of an nv-2p1 window: round 0's middle
    fields solve every block, and the other calls under half of their
    (field, block) cells."""
    solver, searches = window_searches()
    needs, eigvals = [], _Solver.eigvals

    def recorder(self, fields, zfs, need):
        needs.append(need)
        return eigvals(self, fields, zfs, need)

    monkeypatch.setattr(_Solver, "eigvals", recorder)
    sweep_mod._gap_minima(solver, searches, sweep_mod._local_minima)
    assert needs[0].all()
    assert sum(int(need.sum()) for need in needs[1:]) < 0.5 * sum(need.size for need in needs[1:])
