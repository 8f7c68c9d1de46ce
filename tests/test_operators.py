"""Spin operators, frame rotations, and tensor-product embedding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spin_atlas.operators import (
    embed,
    place,
    rotate_tensor,
    rotation_to_axis,
    spin_operators,
)


@pytest.mark.parametrize("mult", [2, 3])
def test_commutation_relations(mult):
    sx, sy, sz = spin_operators(mult)
    assert np.allclose(sx @ sy - sy @ sx, 1j * sz, atol=1e-12)
    assert np.allclose(sy @ sz - sz @ sy, 1j * sx, atol=1e-12)
    assert np.allclose(sz @ sx - sx @ sz, 1j * sy, atol=1e-12)


@pytest.mark.parametrize("mult", [2, 3])
def test_casimir_eigenvalue(mult):
    s = (mult - 1) / 2.0
    sx, sy, sz = spin_operators(mult)
    s2 = sx @ sx + sy @ sy + sz @ sz
    assert np.allclose(s2, s * (s + 1) * np.eye(mult), atol=1e-12)


def test_sz_is_diagonal_descending():
    _, _, sz = spin_operators(3)
    assert np.allclose(np.diag(sz), [1.0, 0.0, -1.0])


def test_rotation_maps_z_to_axis():
    axis = np.array([2.0 * np.sqrt(2.0) / 3.0, 0.0, -1.0 / 3.0])
    r = rotation_to_axis(axis)
    assert np.allclose(r @ np.array([0.0, 0.0, 1.0]), axis, atol=1e-12)
    assert np.allclose(r @ r.T, np.eye(3), atol=1e-12)
    assert np.isclose(np.linalg.det(r), 1.0)


def test_rotate_tensor_axial_off_axis_zz():
    # Axial tensor diag(81.3, 81.3, 114.0) tilted to cos(theta) = -1/3:
    # zz' = perp*sin^2 + par*cos^2 = 81.3*8/9 + 114.0/9 = 84.9333... MHz.
    t = np.diag([81.3, 81.3, 114.0])
    axis = np.array([2.0 * np.sqrt(2.0) / 3.0, 0.0, -1.0 / 3.0])
    lab = rotate_tensor(t, axis)
    assert np.isclose(lab[2, 2], 84.93333333333334, atol=1e-10)
    # Anisotropy share kept in zz: (par - perp) * cos^2 = 32.7/9.
    assert np.isclose(lab[2, 2] - 81.3, (114.0 - 81.3) / 9.0, atol=1e-10)


def test_rotate_tensor_invariants():
    rng = np.random.default_rng(7)
    m = rng.normal(size=(3, 3))
    m = m + m.T
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    lab = rotate_tensor(m, axis)
    assert np.isclose(np.trace(lab), np.trace(m))
    assert np.allclose(np.sort(np.linalg.eigvalsh(lab)), np.sort(np.linalg.eigvalsh(m)))


def test_rotate_tensor_identity_axis():
    m = np.diag([1.0, 2.0, 3.0])
    assert np.allclose(rotate_tensor(m, np.array([0.0, 0.0, 1.0])), m)


def test_embed_dimensions_and_spectrum():
    _, _, sz = spin_operators(3)
    dims = [3, 2, 3]
    big = embed(sz, 0, dims)
    assert big.shape == (18, 18)
    # Spectrum of I (x) sz (x) I is the sz spectrum with multiplicity 6.
    vals = np.sort(np.linalg.eigvalsh(big))
    expected = np.sort(np.repeat([-1.0, 0.0, 1.0], 6))
    assert np.allclose(vals, expected)


def test_embed_slots_commute():
    sx3, _, _ = spin_operators(3)
    sx2, _, _ = spin_operators(2)
    dims = [3, 2]
    a = embed(sx3, 0, dims)
    b = embed(sx2, 1, dims)
    assert np.allclose(a @ b, b @ a)


def _site_op(data, d, complex_op):
    """A random real or complex d x d operator with some exact zeros."""
    real = data.draw(st.lists(st.sampled_from([0.0, 1.0, -0.5, 2.25, -3.0]), min_size=d * d, max_size=d * d))
    op = np.array(real).reshape(d, d)
    if complex_op:
        imag = data.draw(st.lists(st.sampled_from([0.0, 1.0, -1.5]), min_size=d * d, max_size=d * d))
        op = op + 1j * np.array(imag).reshape(d, d)
    return op


# Adjacent and non-adjacent pairs, and pairs whose first slot is the higher
# one, as for a hyperfine nucleus listed before its electron.
@pytest.mark.parametrize("slots", [(0, 2), (2, 0), (1, 3), (3, 4), (0, 1), (4, 1)])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_place_adds_a_product_of_embedded_operators(slots, data):
    dims = [3, 2, 3, 2, 2]
    s0, s1 = slots
    complex_op = data.draw(st.booleans())
    a = _site_op(data, dims[s0], complex_op)
    b = _site_op(data, dims[s1], complex_op)
    d = int(np.prod(dims))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    h = rng.normal(size=(d, d))
    if complex_op:
        h = h + 1j * rng.normal(size=(d, d))
    expected = h + embed(a, s0, dims) @ embed(b, s1, dims)
    op = np.kron(a, b) if s0 < s1 else np.kron(b, a)
    place(h, op, tuple(sorted(slots)), dims)
    assert np.array_equal(h, expected)


def test_place_checks_slots_and_shapes():
    sx3, _, _ = spin_operators(3)
    h = np.zeros((6, 6))
    with pytest.raises(IndexError, match="out of range"):
        embed(sx3, 2, [3, 2])
    with pytest.raises(IndexError, match="out of range"):
        place(h, np.kron(sx3, sx3), (0, 2), [3, 2])
    with pytest.raises(ValueError, match="does not match"):
        place(h, np.kron(sx3, sx3), (0, 1), [3, 2])
    with pytest.raises(ValueError, match="ascending"):
        place(h, np.kron(sx3, sx3), (1, 0), [3, 2])


@given(st.integers(min_value=2, max_value=3))
def test_spin_operators_hermitian(mult):
    for op in spin_operators(mult):
        assert np.allclose(op, op.conj().T, atol=1e-12)


def test_unsupported_multiplicity_rejected():
    with pytest.raises(ValueError, match="multiplicity"):
        spin_operators(4)
