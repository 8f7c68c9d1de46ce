"""Kernel parity: batched projections against the dense probe projector."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spin_atlas.catalog import get_system
from spin_atlas.hamiltonian import Block, hamiltonian_terms, probe_projector_vector
from spin_atlas.kernels import batched_eigh_project

from test_hamiltonian import D300, TILTED_PROBE, X_PROBE, dense_basis, random_systems


def dense_projector(v0, d_pre, d_post):
    """I_pre (x) |v0><v0| (x) I_post on the whole space."""
    return np.kron(np.eye(d_pre), np.kron(np.outer(v0, v0.conj()), np.eye(d_post)))


def dense_reference(hams, v0, d_pre, d_post, block=None):
    """Eigenpairs by batched eigh; weights <psi| I (x) |v0><v0| (x) I |psi>
    of the eigenvectors placed in the full space through ``block``'s basis
    columns on its rows (default: the whole space)."""
    proj = dense_projector(v0, d_pre, d_post)
    if block is not None:
        basis = dense_basis(block)
        proj = basis.T @ proj[np.ix_(block.rows, block.rows)] @ basis
    vals, vecs = np.linalg.eigh(hams)
    weights = np.einsum("nai,ab,nbi->ni", vecs.conj(), proj, vecs).real
    return vals, weights


def degenerate_clusters(vals, tol):
    """Index runs of ascending eigenvalues closer than ``tol`` to a neighbour."""
    breaks = np.where(np.diff(vals) > tol)[0] + 1
    return np.split(np.arange(len(vals)), breaks)


def assert_matches_reference(vals, projs, ref_vals, ref_projs, cluster_tol=1e-9, atol=1e-9):
    """Eigenvalues within 1e-9 of the spectral scale. Probe weights within
    ``atol`` for each lone level, and summed over each run of levels closer
    than ``cluster_tol`` of the scale: eigh's basis inside such a run is
    arbitrary (and roundoff-sensitive), so only the summed weight is basis
    independent."""
    scale = max(np.abs(ref_vals).max(), 1.0)
    np.testing.assert_allclose(vals, ref_vals, rtol=0.0, atol=1e-9 * scale)
    for k in range(len(ref_vals)):
        for cluster in degenerate_clusters(ref_vals[k], cluster_tol * scale):
            assert np.isclose(projs[k, cluster].sum(), ref_projs[k, cluster].sum(), atol=atol)
            if len(cluster) == 1:
                assert np.isclose(projs[k, cluster[0]], ref_projs[k, cluster[0]], atol=atol)


@pytest.mark.parametrize("complex_probe", [False, True])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_projections_match_dense_projector(complex_probe, data):
    spec = data.draw(random_systems(complex_probe=complex_probe))
    fields = np.array(
        data.draw(st.lists(st.floats(min_value=0.0, max_value=1100.0), min_size=1, max_size=4))
    )
    h_const, h_d, h_b = hamiltonian_terms(spec)
    hams = (h_const + D300 * h_d)[None] + fields[:, None, None] * h_b[None]
    if np.abs(hams.imag).max() < 1e-12:
        hams = np.ascontiguousarray(hams.real)
    v0, d_pre, d_post = probe_projector_vector(spec)
    if complex_probe:
        assert d_pre > 1 and np.abs(v0.imag).max() > 1e-6 and np.iscomplexobj(hams)

    vals, projs = batched_eigh_project(hams, v0, d_pre, d_post)
    assert_matches_reference(vals, projs, *dense_reference(hams, v0, d_pre, d_post))


FIXED_SYSTEMS = {"tilted": TILTED_PROBE, "x-probe": X_PROBE}


@pytest.mark.parametrize("name", ["nv", "nv-2p1", "onv-2p1", "tilted", "x-probe"])
def test_block_rows_match_dense_projector(name):
    """Weights through a block's probe map equal the dense projector's on the
    eigenvectors placed in its rows through its basis: for the whole space
    in order (bit for bit the kernel's default map), the whole space with
    its basis columns in reversed state order, and each invariant block.

    nv-2p1 has a z-axis probe and 16 symmetry sectors, onv-2p1 a real probe
    state with three nonzero entries and two sectors, ``TILTED_PROBE`` a
    complex one. In ``nv`` the m_S = +1 and -1 blocks reach no probe row, so
    their maps are empty and their weights zero; ``X_PROBE``'s blocks keep
    the rows where v0 is only roundoff.
    """
    spec = FIXED_SYSTEMS[name] if name in FIXED_SYSTEMS else get_system(name).system
    terms = hamiltonian_terms(spec)
    h_const, h_d, h_b = terms
    fields = np.array([0.5, 340.0, 1024.0])
    hams = (h_const + D300 * h_d)[None] + fields[:, None, None] * h_b[None]
    v0, d_pre, d_post = probe_projector_vector(spec)
    maps = assert_maps_match_projector(spec)
    if name == "nv":
        assert [w.shape for w in maps] == [(0, 1), (1, 1), (0, 1)]
    if name == "x-probe":
        assert all(len(w) for w in maps)
    d = hams.shape[1]
    whole = Block(np.arange(d), np.arange(d)[None], np.ones((1, d)))
    mapped = batched_eigh_project(hams, v0, d_pre, d_post, whole.probe_map(v0, d_pre, d_post))
    default = batched_eigh_project(hams, v0, d_pre, d_post)
    assert all(np.array_equal(a, b) for a, b in zip(mapped, default))
    reversed_columns = Block(np.arange(d), np.arange(d)[::-1][None], whole.coefs)
    for blk in [whole, reversed_columns, *terms.blocks]:
        block = np.array([blk.project(h) for h in hams])
        probe_map = blk.probe_map(v0, d_pre, d_post)
        vals, projs = batched_eigh_project(block, v0, d_pre, d_post, probe_map)
        assert_matches_reference(vals, projs, *dense_reference(block, v0, d_pre, d_post, blk))
        assert len(probe_map) or not projs.any()


def assert_maps_match_projector(spec):
    """Each block's probe map W has one column per basis column, no all-zero
    row, and W^H W equal to the dense projector taken into the block."""
    v0, d_pre, d_post = probe_projector_vector(spec)
    proj = dense_projector(v0, d_pre, d_post)
    maps = []
    for blk in hamiltonian_terms(spec).blocks:
        w = blk.probe_map(v0, d_pre, d_post)
        basis = dense_basis(blk)
        assert w.shape[0] <= d_pre * d_post and w.shape[1] == blk.size and w.any(axis=1).all()
        np.testing.assert_allclose(
            w.conj().T @ w, basis.T @ proj[np.ix_(blk.rows, blk.rows)] @ basis, rtol=0.0, atol=1e-14
        )
        maps.append(w)
    return maps


@pytest.mark.parametrize("complex_probe", [False, True])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_probe_maps_match_dense_projector(complex_probe, data):
    assert_maps_match_projector(data.draw(random_systems(complex_probe=complex_probe)))
