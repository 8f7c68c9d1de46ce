"""Kernel parity: batched projections against the dense probe projector."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spin_atlas.catalog import get_system
from spin_atlas.hamiltonian import hamiltonian_terms, probe_projector_vector
from spin_atlas.kernels import batched_eigh_project

from test_hamiltonian import D300, TILTED_PROBE, random_systems


def dense_reference(hams, v0, d_pre, d_post):
    """Eigenpairs by batched eigh; weights <psi| I (x) |v0><v0| (x) I |psi>."""
    proj = np.kron(np.eye(d_pre), np.kron(np.outer(v0, v0.conj()), np.eye(d_post)))
    vals, vecs = np.linalg.eigh(hams)
    weights = np.einsum("nai,ab,nbi->ni", vecs.conj(), proj, vecs).real
    return vals, weights


def degenerate_clusters(vals, tol):
    """Index runs of ascending eigenvalues closer than ``tol`` to a neighbour."""
    breaks = np.where(np.diff(vals) > tol)[0] + 1
    return np.split(np.arange(len(vals)), breaks)


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
    ref_vals, ref_projs = dense_reference(hams, v0, d_pre, d_post)

    scale = max(np.abs(ref_vals).max(), 1.0)
    assert np.allclose(vals, ref_vals, rtol=0.0, atol=1e-9 * scale)
    for k in range(len(fields)):
        for cluster in degenerate_clusters(ref_vals[k], 1e-9 * scale):
            # eigh's basis inside an exactly degenerate cluster is arbitrary;
            # only the summed weight is basis independent.
            assert np.isclose(projs[k, cluster].sum(), ref_projs[k, cluster].sum(), atol=1e-9)
            if len(cluster) == 1:
                assert np.isclose(projs[k, cluster[0]], ref_projs[k, cluster[0]], atol=1e-9)


@pytest.mark.parametrize("complex_probe", [False, True])
def test_whole_space_rows_skip_the_scatter(complex_probe):
    """Rows that are every index in order project the eigenvectors as eigh
    returns them: the scatter buffer stays untouched and nothing changes a
    bit. All indices out of order still scatter."""
    spec = TILTED_PROBE if complex_probe else get_system("onv-2p1").system
    h_const, h_d, h_b = hamiltonian_terms(spec)
    fields = np.array([0.5, 340.0, 1024.0])
    hams = (h_const + D300 * h_d)[None] + fields[:, None, None] * h_b[None]
    v0, d_pre, d_post = probe_projector_vector(spec)
    assert np.iscomplexobj(v0) == complex_probe
    d = hams.shape[1]
    scatter = np.full((len(fields), d, d), np.nan, hams.dtype)
    vals, projs = batched_eigh_project(hams, v0, d_pre, d_post, np.arange(d), scatter)
    ref_vals, ref_projs = batched_eigh_project(hams, v0, d_pre, d_post)
    assert np.isnan(scatter).all()
    assert np.array_equal(vals, ref_vals) and np.array_equal(projs, ref_projs)

    rows = np.arange(d)[::-1]
    flipped = hams[:, rows][:, :, rows]
    vals, projs = batched_eigh_project(flipped, v0, d_pre, d_post, rows)
    scale = np.abs(ref_vals).max()
    np.testing.assert_allclose(vals, ref_vals, rtol=0.0, atol=1e-9 * scale)
    for k in range(len(fields)):
        for cluster in degenerate_clusters(ref_vals[k], 1e-9 * scale):
            assert np.isclose(projs[k, cluster].sum(), ref_projs[k, cluster].sum(), atol=1e-9)
