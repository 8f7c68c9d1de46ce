"""Block products and component labels in numpy against scipy's sparse
products and ``connected_components``, the code they replaced: equal bit for
bit, signed zeros included."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from spin_atlas.catalog import get_system
from spin_atlas.hamiltonian import HamiltonianTerms, _components, hamiltonian_terms, probe_projector_vector

from test_hamiltonian import dense_basis


def assert_bitwise(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@settings(max_examples=150, deadline=None)
@given(
    d=st.integers(min_value=1, max_value=40),
    density=st.sampled_from([0.0, 0.02, 0.05, 0.1, 0.3]),
    isolated=st.integers(min_value=0, max_value=40),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_component_labels_match_scipy(d, density, isolated, seed):
    """Random symmetric patterns, diagonal entries or not, with up to
    ``isolated`` states linked to nothing, not even themselves."""
    rng = np.random.default_rng(seed)
    linked = rng.random((d, d)) < density
    linked |= linked.T
    cut = rng.permutation(d)[:isolated]
    linked[cut] = False
    linked[:, cut] = False
    _, want = connected_components(linked, directed=False)
    assert np.array_equal(_components(linked), want)


@functools.cache
def catalog_blocks(sys_id, sectors):
    """A preset's blocks, with its symmetry sectors or as the identity
    blocks of the nonzero pattern alone, and its probe dimensions."""
    spec = get_system(sys_id).system
    terms = hamiltonian_terms(spec)
    blocks = terms.blocks if sectors else HamiltonianTerms(*terms).blocks
    _, d_pre, d_post = probe_projector_vector(spec)
    return blocks, spec.dimension, d_pre, d_post


def scipy_project(blk, h):
    basis = sparse.csr_array(dense_basis(blk))
    return (basis.T @ h[np.ix_(blk.rows, blk.rows)]) @ basis


def scipy_probe_map(blk, v0, d_pre, d_post):
    basis = sparse.csr_array(dense_basis(blk))
    pre, slot, post = np.unravel_index(blk.rows, (d_pre, 3, d_post))
    full = np.zeros((d_pre * d_post, len(blk.rows)), np.result_type(v0))
    full[pre * d_post + post, np.arange(len(blk.rows))] = np.conj(v0)[slot]
    probe_map = full @ basis
    return probe_map[probe_map.any(axis=1)]


def random_hermitian(rng, d, complex_):
    """A Hermitian matrix with about half its entries exactly zero."""
    a = rng.standard_normal((d, d)) * (rng.random((d, d)) < 0.5)
    if complex_:
        a = a + 1j * rng.standard_normal((d, d)) * (rng.random((d, d)) < 0.5)
    return a + a.conj().T


# nv-3p1 (on-axis, M_z sectors) and onv-3p1 (one component) are the catalog's
# 3-unit systems: their sector columns have up to 3! = 6 entries.
@pytest.mark.parametrize("sectors", [True, False], ids=["sectors", "identity"])
@pytest.mark.parametrize("sys_id", ["nv-3p1", "onv-3p1"])
@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
@settings(max_examples=4, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_block_products_match_scipy(sys_id, sectors, complex_, seed):
    """``Block.project`` and ``Block.probe_map`` equal the CSR products on
    random real and complex Hermitian terms and probe states."""
    blocks, d, d_pre, d_post = catalog_blocks(sys_id, sectors)
    rng = np.random.default_rng(seed)
    h = random_hermitian(rng, d, complex_)
    v0 = rng.standard_normal(3) * (rng.random(3) < 0.7)
    if complex_:
        v0 = v0 + 1j * rng.standard_normal(3)
    for blk in blocks:
        assert_bitwise(blk.project(h), scipy_project(blk, h))
        assert_bitwise(blk.probe_map(v0, d_pre, d_post), scipy_probe_map(blk, v0, d_pre, d_post))
