"""Kernel parity: batched projections against the dense probe projector."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spin_atlas.catalog import get_system
from spin_atlas.hamiltonian import hamiltonian_terms, probe_projector_vector
from spin_atlas.kernels import batched_eigh_project

from test_hamiltonian import D300, TILTED_PROBE, X_PROBE, random_systems


def dense_reference(hams, v0, d_pre, d_post, rows=None, basis=None):
    """Eigenpairs by batched eigh; weights <psi| I (x) |v0><v0| (x) I |psi>
    of the eigenvectors placed in the full space through their ``basis``
    columns on the states ``rows`` (default: all of them, in order, and the
    identity)."""
    proj = np.kron(np.eye(d_pre), np.kron(np.outer(v0, v0.conj()), np.eye(d_post)))
    if rows is not None:
        proj = proj[np.ix_(rows, rows)]
    if basis is not None:
        basis = basis.toarray()
        proj = basis.T @ proj @ basis
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


@pytest.mark.parametrize("name", ["nv-2p1", "onv-2p1", "tilted", "x-probe"])
def test_block_rows_match_dense_projector(name):
    """Weights from a block's own rows equal the dense projector's on the
    eigenvectors placed in those rows through the block's basis: for every
    row in order (the default, bit for bit), every row reversed, and each
    invariant block.

    nv-2p1 has a z-axis probe and 16 symmetry sectors, onv-2p1 a real probe
    state with three nonzero entries and two sectors, ``TILTED_PROBE`` a
    complex one; ``X_PROBE`` has blocks that lack rows where v0 is only
    roundoff.
    """
    spec = FIXED_SYSTEMS[name] if name in FIXED_SYSTEMS else get_system(name).system
    terms = hamiltonian_terms(spec)
    h_const, h_d, h_b = terms
    fields = np.array([0.5, 340.0, 1024.0])
    hams = (h_const + D300 * h_d)[None] + fields[:, None, None] * h_b[None]
    v0, d_pre, d_post = probe_projector_vector(spec)
    d = hams.shape[1]
    in_order = batched_eigh_project(hams, v0, d_pre, d_post, np.arange(d))
    default = batched_eigh_project(hams, v0, d_pre, d_post)
    assert all(np.array_equal(a, b) for a, b in zip(in_order, default))
    for rows in [np.arange(d), np.arange(d)[::-1]]:
        block = hams[:, rows][:, :, rows]
        vals, projs = batched_eigh_project(block, v0, d_pre, d_post, rows)
        assert_matches_reference(vals, projs, *dense_reference(block, v0, d_pre, d_post, rows))
    for blk in terms.blocks:
        block = np.array([blk.project(h) for h in hams])
        vals, projs = batched_eigh_project(block, v0, d_pre, d_post, blk.rows, blk.basis)
        assert_matches_reference(vals, projs, *dense_reference(block, v0, d_pre, d_post, blk.rows, blk.basis))
