"""Invariant blocks: the partition of H(B, D) and block-by-block solves
against dense ``np.linalg.eigh`` of the full matrix, the order of exactly
degenerate levels, the kernel-call budget of ``_Solver.batch`` and
``_Solver.eigvals``, their split of the fields across threads and their
one-thread BLAS pin, the dtype of the cached terms, the grouped and masked
eigenvalue solves, calls that mix D values, and the lock-step rounds of
refinement."""

import collections
import itertools
import os
import sys
import threading
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar
from scipy.sparse.csgraph import connected_components

import spin_atlas.sweep as sweep_mod
from spin_atlas.catalog import get_system, list_systems
from spin_atlas.hamiltonian import HamiltonianTerms, build_hamiltonian, hamiltonian_terms
from spin_atlas.kernels import batched_eigh_project
from spin_atlas.sweep import SweepConfig, _Solver, detect_events, find_features, sweep, temperature_shift
from spin_atlas.system import Coupling, Hyperfine, InteractionTensor, Site, SpinSystem

from test_hamiltonian import D300, X_PROBE, random_systems
from test_kernels import assert_matches_reference, dense_reference

AXIAL = st.floats(min_value=-100.0, max_value=100.0)


def every_block(solver, n):
    """The need mask of an n-field ``_Solver.eigvals`` call that solves
    every block."""
    return np.ones((n, len(solver.blocks)), bool)


def sorted_levels(solver, fields, zfs):
    """Ascending eigenvalues (n, d) of every block at each field."""
    return np.sort(solver.eigvals(fields, zfs, every_block(solver, len(fields))), axis=1)


def cell_entries(solver, vectors):
    """Each block's count against ``_STACK_ENTRIES`` for one (field, block)
    cell: b x b, plus its probe amplitudes, pairs x b, in a vector solve."""
    pairs = [len(blk.probe_map(solver.v0, solver.d_pre, solver.d_post)) if vectors else 0 for blk in solver.blocks]
    return np.array([blk.size * (blk.size + p) for blk, p in zip(solver.blocks, pairs)])


def expected_calls(solver, n_fields, workers, vectors):
    """(cells, b) of each kernel (``vectors``) or ``eigvalsh`` call of an
    every-block n-field call cut into ``workers`` slices, counted.

    A slice stacks each block size's cells block by block, in steps of as
    many cells as its share of ``_STACK_ENTRIES`` holds of the size's
    largest cell, or one. An eigenvalue-only step is one call; a vector step
    is one call per block run in it."""
    cell, calls = cell_entries(solver, vectors), collections.Counter()
    for w in range(workers):
        n = n_fields * (w + 1) // workers - n_fields * w // workers
        for size in dict.fromkeys(blk.size for blk in solver.blocks):
            members = [k for k, blk in enumerate(solver.blocks) if blk.size == size]
            cells = n * len(members)
            step = max(1, min(cells, sweep_mod._STACK_ENTRIES // workers // cell[members].max()))
            for start in range(0, cells, step):
                stop = min(start + step, cells)
                runs = [min(stop, (j + 1) * n) - max(start, j * n) for j in range(len(members))] if vectors else [stop - start]
                calls.update((m, size) for m in runs if m > 0)
    return calls


def set_blas(mp, cores=4, symbols=True):
    """Make the process see ``cores`` usable cores, and with
    ``symbols=False`` a BLAS whose thread count cannot be read or set.
    Otherwise solves pin numpy's own OpenBLAS, which a split needs;
    ``cores=1`` gives the serial path."""
    mp.setattr(sweep_mod, "_usable_cores", lambda: cores)
    if not symbols:
        mp.setattr(sweep_mod, "_openblas_threads", lambda: None)


def record_kernel_calls(mp):
    """Wrap the kernel where ``_Solver.batch`` looks it up; each call
    appends (thread id, n, d, b) to the returned list."""
    calls = []

    def recorder(hams, v0, d_pre, d_post, probe_map=None):
        calls.append((threading.get_ident(), hams.shape[0], d_pre * 3 * d_post, hams.shape[1]))
        return batched_eigh_project(hams, v0, d_pre, d_post, probe_map)

    mp.setattr(sweep_mod, "batched_eigh_project", recorder)
    return calls


@st.composite
def blocked_systems(draw, complex_probe=False):
    """Systems whose Hamiltonian splits into at least two invariant blocks.

    On axis: a probe NV along z with one or two partners, each a P1 electron
    (mostly transverse coupling, axial about z) or a 13C/14N nucleus
    (hyperfine axial about z), so total M_z is conserved.  With
    ``complex_probe``: an uncoupled P1 electron precedes a probe NV tilted
    out of the xz plane (d_pre = 2; v0 and H are complex), optionally with a
    13C on the P1 (hyperfine axial about z) or on the probe (lab I_z S_z
    only).  The probe then mixes all its own states, but the M_z of the
    other spins is conserved.
    """
    if complex_probe:
        theta = draw(st.floats(min_value=0.2, max_value=np.pi - 0.2))
        phi = draw(st.floats(min_value=0.2, max_value=np.pi - 0.2))
        axis = (np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta))
        sites = [Site(kind="p1_electron"), Site(kind="nv_electron", axis=tuple(map(float, axis)))]
        target = draw(st.sampled_from([None, 0, 1]))
        if target is not None:
            perp = draw(AXIAL) if target == 0 else 0.0
            hf = Hyperfine(InteractionTensor.axial(perp, draw(AXIAL)), target)
            sites.append(Site(kind="c13", hyperfine=hf))
        return SpinSystem(sites=sites, probe_site=1)
    sites = [Site(kind="nv_electron")]
    couplings = []
    for kind in draw(st.lists(st.sampled_from(["p1_electron", "c13", "n14"]), min_size=1, max_size=2)):
        perp = draw(AXIAL)
        if kind == "p1_electron":
            par = 0.1 * perp * draw(st.floats(min_value=-1.0, max_value=1.0))
            couplings.append(Coupling(0, len(sites), InteractionTensor.axial(perp, par)))
            sites.append(Site(kind=kind))
        else:
            hf = Hyperfine(InteractionTensor.axial(perp, draw(AXIAL)), 0)
            sites.append(Site(kind=kind, hyperfine=hf))
    return SpinSystem(sites=sites, couplings=couplings)


def assert_matches_dense(solver, hams, fields):
    """Blocked eigenvalues, projections and gaps against dense eigh of ``hams``.

    Levels closer than 1e-6 of the spectral scale count as degenerate, and
    only their summed probe weight is compared. The eigenvalue-only solve of
    all fields at once matches solves of one field each, and its gaps match
    the dense ones.
    """
    vals, projs = solver.batch(fields, D300)
    ref_vals, ref_projs = dense_reference(hams, solver.v0, solver.d_pre, solver.d_post)
    assert_matches_reference(vals, projs, ref_vals, ref_projs, cluster_tol=1e-6, atol=1e-8)
    scale = max(np.abs(ref_vals).max(), 1.0)
    stacked = sorted_levels(solver, fields, D300)
    per_field = np.concatenate([sorted_levels(solver, np.array([b]), D300) for b in fields])
    np.testing.assert_allclose(stacked, per_field, rtol=0.0, atol=1e-12 * scale)
    np.testing.assert_allclose(np.diff(stacked, axis=1), np.diff(ref_vals, axis=1), rtol=0.0, atol=2e-9 * scale)


def field_lists():
    return st.lists(st.floats(min_value=0.0, max_value=1100.0), min_size=1, max_size=4)


@pytest.mark.parametrize("complex_probe", [False, True])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_blocked_solver_matches_dense(complex_probe, data):
    spec = data.draw(blocked_systems(complex_probe=complex_probe))
    fields = np.array(data.draw(field_lists()))
    terms = hamiltonian_terms(spec)
    h_const, h_d, h_b = terms
    hams = (h_const + D300 * h_d)[None] + fields[:, None, None] * h_b[None]
    solver = _Solver(spec)
    assert len(solver.blocks) >= 2
    if complex_probe:
        assert solver.d_pre > 1 and np.abs(solver.v0.imag).max() > 1e-6
        assert all(np.iscomplexobj(h_const) for _, _, _, h_const, _, _ in solver.groups) and np.abs(hams.imag).max() > 1e-6
        # H_b is real and diagonal here: realness is decided for the triple.
        assert all(np.iscomplexobj(h) for h in terms)
    else:
        assert all(h.dtype == np.float64 for h in terms)
    assert_matches_dense(solver, hams, fields)


def test_x_axis_probe_matches_dense():
    """Blocks that lack some of the probe's rows where v0 is only roundoff:
    ``X_PROBE`` has four, {+1, -1} and {0} at the probe slot per 13C state."""
    solver = _Solver(X_PROBE)
    assert sorted(blk.size for blk in solver.blocks) == [1, 1, 2, 2]
    assert abs(solver.v0[1]) < 1e-12
    fields = np.array([0.0, 0.5, 340.0, 1024.0])
    h_const, h_d, h_b = hamiltonian_terms(X_PROBE)
    hams = (h_const + D300 * h_d)[None] + fields[:, None, None] * h_b[None]
    assert_matches_dense(solver, hams, fields)


def test_exact_ties_keep_block_order():
    """Levels degenerate across blocks keep the order of their blocks.

    With the 13C first, the blocks alternate in size (2, 1, 2, 1), so one
    size's members are not adjacent in block order. At B = 0 the uncoupled
    13C makes each level of one 13C state exactly equal to one of the other,
    and tied levels of a 2- and a 1-state block carry different roundoff
    probe weights. ``batch`` equals solving block by block, merging the
    blocks in order and sorting stably, bit for bit.
    """
    spec = SpinSystem(sites=[Site(kind="c13"), Site(kind="nv_electron", axis=(1.0, 0.0, 0.0))], probe_site=1)
    solver = _Solver(spec)
    assert [blk.size for blk in solver.blocks] == [2, 1, 2, 1]
    fields = np.array([0.0, 0.5, 340.0, 0.0])
    h_const, h_d, h_b = hamiltonian_terms(spec)
    h0 = h_const + D300 * h_d
    ref_vals, ref_projs = [], []
    for b in fields:
        solved = [
            batched_eigh_project(
                (b * h_b[np.ix_(blk.rows, blk.rows)] + h0[np.ix_(blk.rows, blk.rows)])[None],
                solver.v0, solver.d_pre, solver.d_post, blk.probe_map(solver.v0, solver.d_pre, solver.d_post),
            )
            for blk in solver.blocks
        ]
        vals = np.concatenate([v[0] for v, _ in solved])
        projs = np.concatenate([p[0] for _, p in solved])
        order = np.argsort(vals, kind="stable")
        ref_vals.append(vals[order])
        ref_projs.append(projs[order])
        if b == 0.0:  # some tie is between levels of unequal probe weight
            tied = np.flatnonzero(np.diff(vals[order]) == 0)
            assert any(projs[order][k] != projs[order][k + 1] for k in tied)
    vals, projs = solver.batch(fields, D300)
    assert np.array_equal(vals, ref_vals) and np.array_equal(projs, ref_projs)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_blocked_solver_matches_dense_on_random_patterns(data):
    """Random Hermitian terms, each with its own sparse off-diagonal pattern.

    The physical H_b is diagonal (the field is along lab z), so only terms
    like these show a block split that ignores one term's pattern.
    """
    spec = SpinSystem(
        sites=[Site(kind="c13"), Site(kind="nv_electron", axis=(0.48, 0.6, 0.64)), Site(kind="c13")],
        probe_site=1,
    )
    d = spec.dimension
    rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2**32 - 1)))
    edges = st.lists(st.tuples(st.integers(0, d - 1), st.integers(0, d - 1)), max_size=5)
    terms = []
    for scale in (100.0, 1.0, 3.0):  # H_const, H_d, H_b
        h = np.diag(rng.normal(0.0, scale, d)).astype(complex)
        for i, j in data.draw(edges):
            if i != j:
                h[i, j] = scale * complex(rng.normal(), rng.normal())
                h[j, i] = np.conj(h[i, j])
        terms.append(h)
    h_const, h_d, h_b = terms
    fields = np.array(data.draw(field_lists()))
    hams = (h_const + D300 * h_d)[None] + fields[:, None, None] * h_b[None]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sweep_mod, "hamiltonian_terms", lambda _: HamiltonianTerms(*terms))
        solver = _Solver(spec)
    assert_matches_dense(solver, hams, fields)


# Sorted block sizes of the presets with identical P1 units, and of one
# without.
CATALOG_SECTORS = {
    "nv-2p1": [1, 1, 2, 2, 3, 3, 5, 5, 8, 8, 10, 10, 11, 12, 12, 15],
    "nv-3p1": [1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 5, 5, 8, 8, 8, 8, 8, 8, 10, 10, 14, 14, 16, 16,
               19, 19, 19, 19, 25, 25, 31, 31, 33, 33, 33, 33, 43, 43, 43, 43],
    "onv-2p1": [45, 63],
    "nv-onv-p1": [54],
    "onv-3p1": [60, 168, 210, 210],
}


@pytest.mark.parametrize(
    "sys_id, n_blocks, largest",
    [
        ("nv-2p1", 9, 26),
        ("nv-3p1", 12, 131),
        ("onv-2p1", 1, 108),
        ("nv-onv-p1", 1, 54),
        ("onv-3p1", 1, 648),
    ],
)
def test_catalog_partitions(sys_id, n_blocks, largest):
    """The nonzero pattern's components (``n_blocks``, the ``largest`` of
    them), and the symmetry sectors within them.

    The P1 units of these presets are identical. nv-2p1's 9 M_z blocks split
    into 16 sectors and onv-2p1's single block into 63 + 45; onv-3p1 splits
    into 168 + 60 + 210 + 210 (the last two isospectral copies). The sector
    sizes add up to d, and their rows cover every basis state.
    """
    spec = get_system(sys_id).system
    terms = hamiltonian_terms(spec)
    _, component = connected_components(np.any([h != 0 for h in terms], axis=0), directed=False)
    assert np.bincount(component).size == n_blocks and np.bincount(component).max() == largest
    blocks = terms.blocks
    assert all(len(set(component[blk.rows])) == 1 for blk in blocks)
    assert sorted(blk.size for blk in blocks) == CATALOG_SECTORS[sys_id]
    assert sum(blk.size for blk in blocks) == spec.dimension
    assert np.array_equal(np.unique(np.concatenate([blk.rows for blk in blocks])), np.arange(spec.dimension))


def test_single_block_is_the_full_kernel_call():
    # An off-axis system is one block, solved exactly as the whole matrix.
    spec = get_system("nv-onv-p1").system
    solver = _Solver(spec)
    fields = np.linspace(0.5, 1100.0, 16)
    h_const, h_d, h_b = hamiltonian_terms(spec)
    hams = np.ascontiguousarray(((h_const + D300 * h_d)[None] + fields[:, None, None] * h_b[None]).real)
    vals, projs = solver.batch(fields, D300)
    ref_vals, ref_projs = batched_eigh_project(hams, solver.v0, solver.d_pre, solver.d_post)
    assert np.array_equal(vals, ref_vals) and np.array_equal(projs, ref_projs)


@pytest.mark.parametrize("sys_id", [entry_id for entry_id, _ in list_systems()])
def test_catalog_terms_are_real(sys_id):
    assert all(h.dtype == np.float64 for h in hamiltonian_terms(get_system(sys_id).system))


@pytest.mark.parametrize("sys_id", ["nv-2p1", "onv-2p1", "nv-3p1"])
def test_batch_steps_are_bit_identical(sys_id, monkeypatch):
    """Cutting a block size's cells into steps changes no bit, for either
    solve kind.

    nv-2p1 has 16 sectors in 9 sizes, onv-2p1 two, nv-3p1 40 in 13 sizes
    with 2-6 blocks per size. A budget of one entry forces one cell per
    step; three of the largest cells per step leave ragged steps, which
    cut the ten fields of a size's blocks within and across blocks.
    """
    spec = get_system(sys_id).system
    solver = _Solver(spec)
    fields = np.linspace(0.5, 1100.0, 10)
    monkeypatch.setattr(sweep_mod, "_STACK_ENTRIES", 1 << 40)
    ref_vals, ref_projs = solver.batch(fields, D300)
    ref_eigvals = solver.eigvals(fields, D300, every_block(solver, 10))
    for budget in (1, 3 * cell_entries(solver, True).max()):
        monkeypatch.setattr(sweep_mod, "_STACK_ENTRIES", budget)
        vals, projs = solver.batch(fields, D300)
        assert np.array_equal(vals, ref_vals) and np.array_equal(projs, ref_projs)
    for budget in (1, 3 * cell_entries(solver, False).max()):
        monkeypatch.setattr(sweep_mod, "_STACK_ENTRIES", budget)
        assert np.array_equal(solver.eigvals(fields, D300, every_block(solver, 10)), ref_eigvals)


def record_eigvalsh_calls(mp):
    """Wrap ``np.linalg.eigvalsh``, where ``_Solver.eigvals`` looks it up;
    each call appends (thread id, stack shape) to the returned list."""
    calls, eigvalsh = [], np.linalg.eigvalsh

    def recorder(a):
        calls.append((threading.get_ident(), a.shape))
        return eigvalsh(a)

    mp.setattr(np.linalg, "eigvalsh", recorder)
    return calls


@pytest.mark.parametrize(
    "kind, sys_id, n_fields, split",
    [
        ("batch", "nv-2p1", 200, True),
        ("batch", "onv-2p1", 200, True),
        ("batch", "nv-3p1", 6, True),
        ("batch", "onv-3p1", 3, True),
        ("batch", "onv-3p1", 1, False),
        ("eigvals", "nv-2p1", 21, False),
        ("eigvals", "nv-2p1", 300, True),
        ("eigvals", "onv-2p1", 40, True),
        ("eigvals", "nv-3p1", 6, True),
        ("eigvals", "nv-p1", 3000, True),
    ],
)
def test_solve_calls_stay_within_budget(kind, sys_id, n_fields, split, monkeypatch):
    """Both solve kinds step, split and stay serial by one rule.

    A (field, block) cell of a b-state block counts b x b entries, plus its
    probe amplitudes (pairs x b) in a vector solve; one field brings one
    cell per block. Each size's cells stack block by block, in steps as
    large as one worker's share of the budget allows for the size's largest
    cell, or one cell; a vector step makes one kernel call per block run in
    it. The fields split across one worker per core, up to one per field,
    unless one worker's share holds the whole call: 21 eigenvalue-only
    fields at nv-2p1, or one field, stay on the calling thread. onv-3p1
    (d = 648, sectors of up to 210 states) splits like every other system.
    The split changes no bit.
    """
    spec = get_system(sys_id).system
    solver = _Solver(spec)
    def solve(fields, zfs):
        if kind == "batch":
            return solver.batch(fields, zfs)
        return solver.eigvals(fields, zfs, every_block(solver, len(fields)))

    fields = np.linspace(0.5, 1100.0, n_fields)
    set_blas(monkeypatch, cores=1)
    ref = solve(fields, D300)
    set_blas(monkeypatch, cores=4)
    calls = record_kernel_calls(monkeypatch) if kind == "batch" else record_eigvalsh_calls(monkeypatch)
    got = solve(fields, D300)
    if kind == "batch":
        steps = [(ident, n, b) for ident, n, _, b in calls]
    else:
        steps = [(ident, m, b) for ident, (m, b, _) in calls]
    cell = cell_entries(solver, kind == "batch")
    largest = {blk.size: cell[[k for k, other in enumerate(solver.blocks) if other.size == blk.size]].max()
               for blk in solver.blocks}
    entries = int(cell.sum())
    workers = sweep_mod._split_count(n_fields, entries)
    most = max(1, min(4, n_fields))
    assert workers == (1 if n_fields * entries <= sweep_mod._STACK_ENTRIES // most else most)
    assert (workers > 1) == split
    threads = {ident for ident, *_ in steps}
    assert threading.get_ident() in threads
    assert (len(threads) > 1) == split and len(threads) <= workers
    for _, m, b in steps:
        assert m * largest[b] * workers <= sweep_mod._STACK_ENTRIES or m == 1
    assert collections.Counter((m, b) for _, m, b in steps) == expected_calls(solver, n_fields, workers, kind == "batch")
    assert np.array_equal(got, ref)  # a (vals, projs) pair compares as one array


def test_sweep_prescan_splits_onv_3p1_sectors_one_field_per_thread(monkeypatch):
    """No onv-3p1 sector is a 648-state matrix any more: one field of its
    largest size (two 210-state copies) fits half the budget, so the
    positivity pre-scan at the range's two ends solves one field per thread,
    in one call per sector size each, the two 210-state copies stacked. The
    grid solve of the same two fields
    splits too: each thread makes one one-field kernel call per sector."""
    set_blas(monkeypatch, cores=4)
    calls = record_eigvalsh_calls(monkeypatch)
    kernel_calls = record_kernel_calls(monkeypatch)
    sweep(get_system("onv-3p1").system, 500.0, 508.0, 2)
    assert sorted(shape for _, shape in calls) == [(1, 60, 60)] * 2 + [(1, 168, 168)] * 2 + [(2, 210, 210)] * 2
    threads = {ident for ident, _ in calls}
    assert threading.get_ident() in threads and len(threads) == 2
    assert sorted((n, d, b) for _, n, d, b in kernel_calls) == [(1, 648, 60)] * 2 + [(1, 648, 168)] * 2 + [(1, 648, 210)] * 4
    by_thread = collections.Counter(ident for ident, *_ in kernel_calls)
    assert threading.get_ident() in by_thread and sorted(by_thread.values()) == [4, 4]


@st.composite
def split_specs(draw):
    choice = draw(st.sampled_from(["nv-2p1", "nv-onv-p1", "complex"]))
    if choice == "complex":
        return draw(random_systems(complex_probe=True))
    return get_system(choice).system


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_split_batch_is_bit_identical(data):
    """Split across 2-5 threads, ``batch`` equals the serial path bit for bit.

    The grids are ragged (any length against any worker count) and may hold
    fewer fields than there are cores; a small budget also makes each
    slice's kernel steps ragged, and a one-entry budget makes every step one
    field.
    """
    spec = data.draw(split_specs())
    fields = np.array(data.draw(st.lists(st.floats(min_value=0.0, max_value=1100.0), min_size=1, max_size=13)))
    cores = data.draw(st.integers(min_value=2, max_value=5))
    solver = _Solver(spec)
    cell = cell_entries(solver, True)
    budget = data.draw(st.sampled_from([sweep_mod._STACK_ENTRIES, cores * 2 * int(cell.max()), 1]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sweep_mod, "_STACK_ENTRIES", budget)
        set_blas(mp, cores=1)
        ref_vals, ref_projs = solver.batch(fields, D300)
        set_blas(mp, cores=cores)
        calls = record_kernel_calls(mp)
        vals, projs = solver.batch(fields, D300)
    workers = min(cores, len(fields))
    if len(fields) * cell.sum() <= budget // workers:
        workers = 1  # one share holds the whole call
    threads = {ident for ident, *_ in calls}
    assert threading.get_ident() in threads
    assert (len(threads) > 1) == (workers > 1) and len(threads) <= workers
    assert sum(n for _, n, *_ in calls) == len(fields) * len(solver.blocks)
    assert np.array_equal(vals, ref_vals) and np.array_equal(projs, ref_projs)


def test_split_survives_frequent_thread_switches(monkeypatch):
    """Eight slices on however many cores there are, with the interpreter
    switching threads every microsecond, still fill every row exactly as the
    serial path does: 64 fields of ``batch``, and 256 fields of ``eigvals``
    with about half their (field, block) cells needed."""
    solver = _Solver(get_system("nv-2p1").system)
    fields = np.linspace(0.5, 1100.0, 64)
    levels_at = np.linspace(0.5, 1100.0, 256)
    need = np.random.default_rng(0).random((256, len(solver.blocks))) < 0.5
    set_blas(monkeypatch, cores=1)
    ref_vals, ref_projs = solver.batch(fields, D300)
    ref_levels = solver.eigvals(levels_at, D300, need)
    set_blas(monkeypatch, cores=8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        vals, projs = solver.batch(fields, D300)
        levels = solver.eigvals(levels_at, D300, need)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(vals, ref_vals) and np.array_equal(projs, ref_projs)
    assert np.array_equal(levels, ref_levels)


@pytest.fixture
def openblas():
    """The real getter and setter of numpy's OpenBLAS thread count, for the
    test to set; teardown sets back the count it found."""
    blas = sweep_mod._openblas_threads()
    if blas is None:
        pytest.skip("numpy's bundled OpenBLAS is not loaded")
    get, put = blas
    count = get()
    yield blas
    put(count)


def record_blas_counts(mp, get):
    """Wrap ``_Solver._fill_cells``; each call appends the BLAS thread count
    it starts and ends at, each with whether ``_BLAS_LOCK`` is held, to the
    returned list."""
    counts, fill = [], _Solver._fill_cells

    def recorder(self, *args):
        counts.append((get(), sweep_mod._BLAS_LOCK.locked()))
        fill(self, *args)
        counts.append((get(), sweep_mod._BLAS_LOCK.locked()))

    mp.setattr(_Solver, "_fill_cells", recorder)
    return counts


def both_solves(solver, fields, need):
    """``batch`` and ``eigvals`` of one solver as one tuple of arrays."""
    return (*solver.batch(fields, D300), solver.eigvals(fields, D300, need))


def test_threaded_blas_gives_the_one_thread_answer(openblas, monkeypatch):
    """With OpenBLAS at two threads, ``batch`` and ``eigvals`` fill every
    cell at one thread, under the lock, split across the cores as at one;
    they equal their one-thread output bit for bit and leave the count at
    two."""
    get, put = openblas
    solver = _Solver(get_system("onv-2p1").system)
    fields = np.linspace(0.5, 1100.0, 64)
    need = np.random.default_rng(0).random((64, len(solver.blocks))) < 0.5
    put(1)
    want = both_solves(solver, fields, need)
    put(2)
    set_blas(monkeypatch, cores=4)
    counts = record_blas_counts(monkeypatch, get)
    calls = record_kernel_calls(monkeypatch)
    got = both_solves(solver, fields, need)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    assert counts and set(counts) == {(1, True)} and len({ident for ident, *_ in calls}) > 1
    assert get() == 2


def test_concurrent_solves_share_the_pin(openblas, monkeypatch):
    """Two threads of the caller's that solve at once, with OpenBLAS at two
    threads, each get the one-thread answer; every cell runs at one thread
    under the lock, so neither solve restores the count under the other,
    and the count reads two afterwards."""
    get, put = openblas
    solver = _Solver(get_system("nv-2p1").system)
    fields = np.linspace(0.5, 1100.0, 96)
    need = every_block(solver, 96)
    put(1)
    want = both_solves(solver, fields, need)
    put(2)
    set_blas(monkeypatch, cores=4)
    counts = record_blas_counts(monkeypatch, get)
    barrier, results = threading.Barrier(2, timeout=60), [None, None]

    def run(k):
        barrier.wait()
        results[k] = [both_solves(solver, fields, need) for _ in range(10)]

    workers = [threading.Thread(target=run, args=(k,)) for k in range(2)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=120)
    assert not any(worker.is_alive() for worker in workers) and None not in results
    for got in itertools.chain(*results):
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
    assert len(counts) >= 80 and set(counts) == {(1, True)}
    assert get() == 2


def test_blas_without_thread_symbols_solves_serially(monkeypatch):
    """A BLAS whose thread count cannot be read and set gets no pin and no
    helper thread: every kernel step runs on the calling thread within the
    whole budget. onv-2p1 has one block of each size, so each step holds as
    many fields as the budget holds of its vector cell, b x (b + pairs)."""
    solver = _Solver(get_system("onv-2p1").system)
    fields = np.linspace(0.5, 1100.0, 200)
    set_blas(monkeypatch, cores=1)
    want = solver.batch(fields, D300)
    set_blas(monkeypatch, cores=4, symbols=False)
    calls = record_kernel_calls(monkeypatch)
    assert sorted((blk.size, len(blk.probe_map(solver.v0, solver.d_pre, solver.d_post))) for blk in solver.blocks) == [
        (45, 30), (63, 36)]
    assert np.array_equal(solver.batch(fields, D300), want)
    assert {ident for ident, *_ in calls} == {threading.get_ident()}
    for size, pairs, step in ((45, 30, 77), (63, 36, 42)):
        assert step == sweep_mod._STACK_ENTRIES // (size * (size + pairs))
        assert [n for _, n, _, b in calls if b == size] == [step] * (200 // step) + [200 % step]


@pytest.mark.parametrize("start", [1, 3])
def test_solve_restores_only_a_count_it_changed(start, monkeypatch):
    """Through a faked getter and setter: a solve sets one thread and then
    the count it read, even when it fails, and sets nothing where BLAS
    already runs one thread; it releases the lock either way."""
    count, sets = [start], []

    def put(n):
        sets.append(n)
        count[0] = n

    monkeypatch.setattr(sweep_mod, "_openblas_threads", lambda: (lambda: count[0], put))
    solver = _Solver(get_system("nv").system)
    solver.batch(np.linspace(0.5, 1100.0, 8), D300)
    assert sets == ([] if start == 1 else [1, start])

    def fail(*args):
        raise RuntimeError("solve failed")

    monkeypatch.setattr(_Solver, "_fill_cells", fail)
    with pytest.raises(RuntimeError, match="solve failed"):
        solver.batch(np.linspace(0.5, 1100.0, 8), D300)
    assert sets == ([] if start == 1 else [1, start] * 2) and count == [start]
    assert not sweep_mod._BLAS_LOCK.locked()


@pytest.mark.parametrize("threads", [1, 2])
def test_pipeline_leaves_the_callers_blas_threads(threads, openblas):
    """After ``sweep``, ``find_features`` and ``temperature_shift``,
    OpenBLAS reports the thread count it had before."""
    get, put = openblas
    put(threads)
    spec = get_system("nv-2p1").system
    sweep(spec, 330.0, 350.0, 64)
    assert get() == threads
    feats = find_features(spec, 330.0, 350.0, 256)
    assert get() == threads
    temperature_shift(spec, feats[0], [292.0, 300.0])
    assert get() == threads


@pytest.mark.parametrize("kind", ["eigvals", "batch"])
def test_zero_field_call_stays_serial(kind, monkeypatch):
    """A call with no fields, such as ``temperature_shift`` makes when every
    seed lies at or below -5 G, returns (0, d) arrays from one fill on the
    calling thread even where it would split a call with fields."""
    set_blas(monkeypatch, cores=4)
    solver = _Solver(get_system("nv-2p1").system)
    fill, threads = _Solver._fill_cells, []

    def recorder(self, *args):
        threads.append(threading.get_ident())
        fill(self, *args)

    monkeypatch.setattr(_Solver, "_fill_cells", recorder)
    entries = int(cell_entries(solver, kind == "batch").sum())
    assert sweep_mod._split_count(0, entries) == 1 and sweep_mod._split_count(200, entries) == 4
    if kind == "batch":
        got = solver.batch(np.empty(0), D300)
    else:
        got = solver.eigvals(np.empty(0), D300, every_block(solver, 0))
    for arr in got if kind == "batch" else (got,):
        assert arr.shape == (0, solver.dim)
    assert threads == [threading.get_ident()]


def test_blas_probe_finds_numpy_openblas(monkeypatch):
    """Wherever numpy bundles its OpenBLAS the probe finds that library's
    thread-count getter, which reads the setting in OPENBLAS_NUM_THREADS
    where one is set, and its setter; it gives None for another BLAS or a
    library that lacks either symbol."""
    bundled = list((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*"))
    blas = sweep_mod._openblas_threads()
    assert (blas is not None) == bool(bundled)
    if blas is not None:
        get, put = blas
        count = get()
        assert count >= 1
        if os.environ.get("OPENBLAS_NUM_THREADS") == "1":
            assert count == 1
        put(count)
        assert get() == count
    monkeypatch.setattr(sweep_mod.ctypes, "CDLL", lambda path: object())
    assert sweep_mod._openblas_threads.__wrapped__() is None
    getter_only = types.SimpleNamespace(scipy_openblas_get_num_threads64_=lambda: 1)
    monkeypatch.setattr(sweep_mod.ctypes, "CDLL", lambda path: getter_only)
    assert sweep_mod._openblas_threads.__wrapped__() is None


SMALL_PRESETS = [i for i, _ in list_systems() if get_system(i).system.dimension <= 108]


def per_block_eigvals(spec, d_zfs, fields):
    """Sorted eigenvalues from one ``eigvalsh`` call per field and block,
    each term projected onto the block before H0 is formed."""
    terms = hamiltonian_terms(spec)
    projected = [[blk.project(h) for h in terms] for blk in terms.blocks]
    out = []
    for b in fields:
        vals = [np.linalg.eigvalsh(b * h_b + (h_const + d_zfs * h_d)) for h_const, h_d, h_b in projected]
        out.append(np.sort(np.concatenate(vals)))
    return np.array(out)


@st.composite
def solver_specs(draw):
    choice = draw(st.sampled_from(["random", "complex", "preset"]))
    if choice == "preset":
        return get_system(draw(st.sampled_from(SMALL_PRESETS))).system
    return draw(random_systems(complex_probe=choice == "complex"))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_grouped_eigvals_are_bit_identical(data):
    """Each call equals per-block solves, field by field.

    The fields repeat within and across calls, and come in pairs 1e-3 G
    apart, closer than the refinement resolution.
    """
    spec = data.draw(solver_specs())
    base = data.draw(st.lists(st.floats(min_value=0.0, max_value=1100.0), min_size=1, max_size=3))
    pool = base + [b + 1e-3 for b in base]
    calls = data.draw(st.lists(st.lists(st.sampled_from(pool), min_size=1, max_size=6), min_size=1, max_size=4))
    solver = _Solver(spec)
    for fields in calls + calls[:1]:
        assert np.array_equal(sorted_levels(solver, np.array(fields), D300), per_block_eigvals(spec, D300, fields))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_masked_eigvals_are_bit_identical(data):
    """A block's levels do not depend on which other (field, block) cells a
    call solves: every needed cell holds the every-block solve's levels bit
    for bit, every other cell +inf. Budgets of one cell and of a few cells
    make the steps cut across fields and blocks, and BLAS at one thread on
    three cores splits the fields."""
    spec = data.draw(solver_specs())
    fields = np.array(data.draw(st.lists(st.floats(min_value=0.0, max_value=1100.0), min_size=1, max_size=6)))
    solver = _Solver(spec)
    need = np.array(data.draw(st.lists(st.lists(st.booleans(), min_size=len(solver.blocks), max_size=len(solver.blocks)),
                                       min_size=len(fields), max_size=len(fields))), bool)
    want = solver.eigvals(fields, D300, every_block(solver, len(fields)))
    columns = np.repeat(need, [blk.size for blk in solver.blocks], axis=1)
    largest = max(blk.size for blk in solver.blocks)
    for budget in (1, 3 * largest * largest, sweep_mod._STACK_ENTRIES):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sweep_mod, "_STACK_ENTRIES", budget)
            set_blas(mp, cores=3)
            got = solver.eigvals(fields, D300, need)
        assert np.array_equal(got, np.where(columns, want, np.inf))


# A P1 electron with a 13C, and a probe NV tilted out of the xz plane: the
# probe's v0 and H are complex.
TILTED_AXIS = tuple(float(x) for x in (np.sin(0.3) * np.cos(0.5), np.sin(0.3) * np.sin(0.5), np.cos(0.3)))
COMPLEX_PROBE = SpinSystem(
    sites=[
        Site(kind="p1_electron"),
        Site(kind="nv_electron", axis=TILTED_AXIS),
        Site(kind="c13", hyperfine=Hyperfine(InteractionTensor.axial(30.0, 60.0), 0)),
    ],
    probe_site=1,
)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_mixed_zfs_call_is_bit_identical(data):
    """One ``eigvals`` or ``batch`` call over (B, D) points of several D
    equals one call per D bit for bit, and matches dense ``eigh`` of
    ``build_hamiltonian(spec, B, D)``.

    A budget of two of the largest cells, with BLAS at one thread on four
    cores, splits each mixed call across a helper thread.
    """
    spec = data.draw(st.one_of(solver_specs(), st.just(COMPLEX_PROBE)))
    zfs_pool = data.draw(st.lists(st.floats(min_value=2800.0, max_value=2900.0), min_size=2, max_size=3, unique=True))
    points = data.draw(st.lists(st.tuples(st.floats(min_value=0.0, max_value=1100.0), st.sampled_from(zfs_pool)),
                                min_size=2, max_size=8))
    fields, zfs = (np.array(column) for column in zip(*points))
    solver = _Solver(spec)
    mixed = {}
    for kind, vectors in (("eigvals", False), ("batch", True)):
        budget = 2 * int(cell_entries(solver, vectors).max())
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sweep_mod, "_STACK_ENTRIES", budget)
            set_blas(mp, cores=4)
            calls = record_kernel_calls(mp) if vectors else record_eigvalsh_calls(mp)
            mixed[kind] = solver.batch(fields, zfs) if vectors else sorted_levels(solver, fields, zfs)
        assert len({ident for ident, *_ in calls}) > 1
    for d_zfs in zfs_pool:
        at = zfs == d_zfs
        assert np.array_equal(mixed["eigvals"][at], sorted_levels(solver, fields[at], d_zfs))
        for got, want in zip(mixed["batch"], solver.batch(fields[at], d_zfs)):
            assert np.array_equal(got[at], want)
    hams = np.array([build_hamiltonian(spec, b, d_zfs) for b, d_zfs in points])
    ref_vals, ref_projs = dense_reference(hams, solver.v0, solver.d_pre, solver.d_post)
    assert_matches_reference(*mixed["batch"], ref_vals, ref_projs, cluster_tol=1e-6, atol=1e-8)
    np.testing.assert_allclose(mixed["eigvals"], ref_vals, rtol=0.0, atol=1e-9 * max(np.abs(ref_vals).max(), 1.0))


def refine_per_bracket(solver, d_zfs, candidates):
    """The refinement oracle: each bracket of candidates on its own, its
    17-point sample from one ``eigvals`` call at ``d_zfs``, and every
    interior gap minimum of each pair (the argmin if there is none) polished
    by scipy's bounded Brent on single-field solves."""
    events = []
    for _, group in itertools.groupby(candidates, key=lambda c: (c.b_lo, c.b_hi)):
        cands = list(group)
        sample = np.linspace(cands[0].b_lo, cands[0].b_hi, 17)
        levels = sorted_levels(solver, sample, d_zfs)
        for cand in cands:
            pair = cand.pair
            g = levels[:, pair + 1] - levels[:, pair]
            interior = np.where((g[1:-1] <= g[:-2]) & (g[1:-1] <= g[2:]))[0] + 1
            for k in interior if len(interior) else [int(np.argmin(g))]:
                res = minimize_scalar(
                    lambda b: float(np.diff(sorted_levels(solver, np.array([b]), d_zfs)[0, pair : pair + 2])[0]),
                    bounds=(sample[max(k - 1, 0)], sample[min(k + 1, 16)]),
                    method="bounded",
                    options={"xatol": sweep_mod._FIELD_RESOLUTION},
                )
                events.append(sweep_mod._line(cand, float(res.x), float(res.fun)))
    return events


@pytest.mark.parametrize(
    "spec, b_min, b_max",
    [(get_system("nv-2p1").system, 300.0, 400.0), (COMPLEX_PROBE, 530.0, 570.0)],
    ids=["nv-2p1", "complex-probe"],
)
def test_refinement_solves_each_field_once_per_round(spec, b_min, b_max, monkeypatch):
    """All candidates refine in lock-step: one ``eigvals`` call for every
    bracket's middle field, with every block, one for the samples' other
    fields, then one per Brent round, those with fewer blocks. Each solved
    field lies inside some candidate's bracket, no call solves a field
    twice, and the lines equal those of refining bracket by bracket with
    scipy, bit for bit."""
    config = SweepConfig()
    sr = sweep(spec, b_min, b_max, 256)
    candidates = detect_events(sr, config)
    assert all(np.iscomplexobj(h_const) == (spec is COMPLEX_PROBE) for _, _, _, h_const, _, _ in _Solver(spec).groups)
    oracle = refine_per_bracket(_Solver(spec), sr.d_zfs, candidates)
    solved, needs, lines, evaluations = [], [], [], []
    eigvals, line, brent = _Solver.eigvals, sweep_mod._line, sweep_mod._brent

    def eigvals_recorder(self, fields, zfs, need):
        assert np.all(zfs == sr.d_zfs)
        solved.append(fields.tolist())
        needs.append(need)
        return eigvals(self, fields, zfs, need)

    def line_recorder(*args):
        lines.append(line(*args))
        return lines[-1]

    def brent_recorder(a, b):
        run, n, value = brent(a, b), len(evaluations), None
        evaluations.append(0)
        while True:
            try:
                x = run.send(value)
            except StopIteration as done:
                return done.value
            evaluations[n] += 1
            value = yield x

    monkeypatch.setattr(_Solver, "eigvals", eigvals_recorder)
    monkeypatch.setattr(sweep_mod, "_line", line_recorder)
    monkeypatch.setattr(sweep_mod, "_brent", brent_recorder)
    find_features(spec, b_min, b_max, 256, config=config)
    assert solved[0] == [b_min, b_max]  # the sweep's positivity pre-scan
    rounds = solved[1:]
    assert len({(c.b_lo, c.b_hi) for c in candidates}) < len(candidates)  # shared brackets
    assert len(evaluations) >= len(candidates) and max(evaluations) > 1
    assert len(rounds) == 2 + max(evaluations)
    assert needs[0].all() and needs[1].all() and not all(need.all() for need in needs[2:])
    assert max(len(r) for r in rounds[1:]) > 1  # Brent runs of several brackets together
    for fields in rounds:
        assert len(fields) == len(set(fields))
        for b in fields:
            assert any(c.b_lo <= b <= c.b_hi for c in candidates)
    assert lines == oracle




def window_searches():
    """The solver and one (17-point sample, pair, D) search per candidate of
    an nv-2p1 window: 58 candidates in 30 brackets, 17 of them shared."""
    spec = get_system("nv-2p1").system
    sr = sweep(spec, 330.0, 350.0, 256)
    candidates = detect_events(sr, SweepConfig())
    return _Solver(spec), [(np.linspace(c.b_lo, c.b_hi, 17), c.pair, sr.d_zfs) for c in candidates]


def record_eigvals_fields(mp):
    """Wrap ``_Solver.eigvals``; each call appends its fields to the
    returned list."""
    calls, eigvals = [], _Solver.eigvals

    def recorder(self, fields, zfs, need):
        calls.append(fields.tolist())
        return eigvals(self, fields, zfs, need)

    mp.setattr(_Solver, "eigvals", recorder)
    return calls


def test_searches_over_one_sample_share_round_zero(monkeypatch):
    """Two searches over one sample with different pairs: round 0 solves the
    sample's middle field once, then its 16 other fields once, in one
    ``eigvals`` call, and each search finds what it finds alone."""
    solver, searches = window_searches()
    sample, pair, d_zfs = searches[0]
    twin = next(p for s, p, _ in searches[1:] if np.array_equal(s, sample))
    alone = [sweep_mod._gap_minima(solver, [(sample, p, d_zfs)], sweep_mod._local_minima)[0] for p in (pair, twin)]
    calls = record_eigvals_fields(monkeypatch)
    pair_searches = [(sample, pair, d_zfs), (sample, twin, d_zfs)]
    assert sweep_mod._gap_minima(solver, pair_searches, sweep_mod._local_minima) == alone
    assert calls[0] == [sample[8]] and calls[1] == np.delete(sample, 8).tolist()


def test_no_searches_solve_nothing(monkeypatch):
    calls = record_eigvals_fields(monkeypatch)
    assert sweep_mod._gap_minima(_Solver(get_system("nv").system), [], sweep_mod._local_minima) == []
    assert calls == []


def test_search_with_nothing_picked_finds_nothing():
    """A search whose pick returns no index gets [] and starts no Brent
    run; the others find what they find without it."""
    solver, searches = window_searches()

    def pick(g):
        return [] if len(g) == 5 else sweep_mod._local_minima(g)

    want = sweep_mod._gap_minima(solver, searches[:3], pick)
    empty = (np.linspace(336.0, 337.0, 5), 30, searches[0][2])
    got = sweep_mod._gap_minima(solver, [searches[0], empty, *searches[1:3]], pick)
    assert all(want) and got == [want[0], [], *want[1:]]


def test_empty_tracking_window_finds_nothing():
    """A tracking window wholly below 0 G keeps no field: its search finds
    nothing, and the one beside it finds what it finds alone."""
    solver, searches = window_searches()
    empty = (np.array([]), 30, searches[0][2])
    alone = sweep_mod._gap_minima(solver, searches[:1], sweep_mod._inner_argmin)
    assert sweep_mod._gap_minima(solver, [empty, searches[0]], sweep_mod._inner_argmin) == [[], *alone]


@pytest.mark.parametrize("pick", [sweep_mod._local_minima, sweep_mod._inner_argmin], ids=["refine", "track"])
def test_one_call_finds_what_one_call_per_search_finds(pick):
    """Searches refined together in lock-step return, bit for bit, what
    each returns refined alone."""
    solver, searches = window_searches()
    alone = [sweep_mod._gap_minima(solver, [search], pick)[0] for search in searches]
    assert any(alone) and sweep_mod._gap_minima(solver, searches, pick) == alone
