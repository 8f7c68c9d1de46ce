"""Invariant blocks: the partition of H(B, D) and block-by-block solves
against dense ``np.linalg.eigh`` of the full matrix."""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spin_atlas.catalog import get_system
from spin_atlas.hamiltonian import HamiltonianTerms, hamiltonian_terms
from spin_atlas.kernels import batched_eigh_project
from spin_atlas.sweep import _Solver
from spin_atlas.system import Coupling, Hyperfine, InteractionTensor, Site, SpinSystem

from test_hamiltonian import D300
from test_kernels import degenerate_clusters, dense_reference

AXIAL = st.floats(min_value=-100.0, max_value=100.0)


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

    Levels closer than 1e-6 of the spectral scale count as degenerate: the
    eigenbasis inside such a cluster is arbitrary (and roundoff-sensitive),
    so only the summed probe weight is compared there.
    """
    vals, projs = solver.batch(fields)
    ref_vals, ref_projs = dense_reference(hams, solver.v0, solver.d_pre, solver.d_post)
    scale = max(np.abs(ref_vals).max(), 1.0)
    np.testing.assert_allclose(vals, ref_vals, rtol=0.0, atol=1e-9 * scale)
    for k in range(len(fields)):
        for cluster in degenerate_clusters(ref_vals[k], 1e-6 * scale):
            assert np.isclose(projs[k, cluster].sum(), ref_projs[k, cluster].sum(), atol=1e-8)
            if len(cluster) == 1:
                assert np.isclose(projs[k, cluster[0]], ref_projs[k, cluster[0]], atol=1e-8)
    for pair in range(solver.dim - 1):
        stacked = solver.gaps(fields, pair)
        scalar = [solver.gap(b, pair) for b in fields]
        np.testing.assert_allclose(stacked, scalar, rtol=0.0, atol=1e-12 * scale)
        ref_gap = ref_vals[:, pair + 1] - ref_vals[:, pair]
        np.testing.assert_allclose(stacked, ref_gap, rtol=0.0, atol=2e-9 * scale)


def field_lists():
    return st.lists(st.floats(min_value=0.0, max_value=1100.0), min_size=1, max_size=4)


@pytest.mark.parametrize("complex_probe", [False, True])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_blocked_solver_matches_dense(complex_probe, data):
    spec = data.draw(blocked_systems(complex_probe=complex_probe))
    fields = np.array(data.draw(field_lists()))
    h_const, h_d, h_b = hamiltonian_terms(spec)
    hams = (h_const + D300 * h_d)[None] + fields[:, None, None] * h_b[None]
    solver = _Solver(spec, D300)
    assert len(solver.rows) >= 2
    if complex_probe:
        assert solver.d_pre > 1 and np.abs(solver.v0.imag).max() > 1e-6
        assert np.iscomplexobj(solver.h0[0]) and np.abs(hams.imag).max() > 1e-6
    assert_matches_dense(solver, hams, fields)


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
        # ``spin_atlas.sweep`` on the package is the function of that name.
        mp.setattr(sys.modules["spin_atlas.sweep"], "hamiltonian_terms", lambda _: HamiltonianTerms(*terms))
        solver = _Solver(spec, D300)
    assert_matches_dense(solver, hams, fields)


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
    spec = get_system(sys_id).system
    blocks = hamiltonian_terms(spec).blocks
    assert len(blocks) == n_blocks
    assert max(len(b) for b in blocks) == largest
    assert np.array_equal(np.sort(np.concatenate(blocks)), np.arange(spec.dimension))


def test_single_block_is_the_full_kernel_call():
    # An off-axis system is one block, solved exactly as the whole matrix.
    spec = get_system("nv-onv-p1").system
    solver = _Solver(spec, D300)
    fields = np.linspace(0.5, 1100.0, 16)
    h_const, h_d, h_b = hamiltonian_terms(spec)
    hams = np.ascontiguousarray(((h_const + D300 * h_d)[None] + fields[:, None, None] * h_b[None]).real)
    vals, projs = solver.batch(fields)
    ref_vals, ref_projs = batched_eigh_project(hams, solver.v0, solver.d_pre, solver.d_post)
    assert np.array_equal(vals, ref_vals) and np.array_equal(projs, ref_projs)
