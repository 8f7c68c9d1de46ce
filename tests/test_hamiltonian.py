"""Hamiltonian assembly: closed forms, hermiticity, and probe projections."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spin_atlas import constants as c
from spin_atlas import hamiltonian
from spin_atlas.catalog import get_system, system_ids
from spin_atlas.hamiltonian import (
    build_hamiltonian,
    eigendecompose,
    hamiltonian_terms,
    probe_projector_vector,
)
from spin_atlas.operators import spin_operators
from spin_atlas.system import (
    Coupling,
    Hyperfine,
    InteractionTensor,
    Site,
    SpinSystem,
)

D300 = 2870.385


def single_nv(axis=(0.0, 0.0, 1.0)):
    return SpinSystem(sites=[Site(kind="nv_electron", axis=axis)])


def test_single_nv_closed_form_spectrum():
    # On-axis NV: eigenvalues {0, D - gamma*B, D + gamma*B}.
    b = 500.0
    h = build_hamiltonian(single_nv(), b, D300)
    vals = np.sort(np.linalg.eigvalsh(h))
    expected = np.sort([0.0, D300 - c.GAMMA_E * b, D300 + c.GAMMA_E * b])
    assert np.allclose(vals, expected, atol=1e-9)


def test_gslac_degeneracy_at_d_over_gamma():
    b = D300 / c.GAMMA_E
    vals = np.sort(np.linalg.eigvalsh(build_hamiltonian(single_nv(), b, D300)))
    assert abs(vals[1] - vals[0]) < 1e-9


def test_terms_are_linear_in_b_and_d():
    spec = single_nv()
    h_const, h_d, h_b = hamiltonian_terms(spec)
    for b, d in ((100.0, 2870.0), (900.0, 2877.6)):
        assert np.allclose(
            build_hamiltonian(spec, b, d), h_const + d * h_d + b * h_b, atol=1e-12
        )


def test_non_hermitian_terms_rejected(monkeypatch):
    # A raise, not an assert, so the check survives ``python -O``.
    spec = single_nv()
    h_const, h_d, h_b = hamiltonian_terms(spec)
    skewed = h_const.copy()
    skewed[0, 1] += 1.0
    monkeypatch.setattr(hamiltonian, "hamiltonian_terms", lambda _: (skewed, h_d, h_b))
    with pytest.raises(ValueError, match="not Hermitian"):
        build_hamiltonian(spec, 100.0, D300)


def test_off_axis_nv_spectrum_matches_rotated_frame():
    # The spectrum of a tilted NV equals that of an aligned NV in a field
    # with the same polar angle (basis-independent).
    axis = (2.0 * np.sqrt(2.0) / 3.0, 0.0, -1.0 / 3.0)
    b = 300.0
    h = build_hamiltonian(single_nv(axis), b, D300)
    sx, sy, sz = (
        np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]]) / np.sqrt(2.0),
        np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]]) / np.sqrt(2.0),
        np.diag([1.0, 0.0, -1.0]),
    )
    href = D300 * sz @ sz + c.GAMMA_E * b * (
        axis[0] * sx + axis[1] * sy + axis[2] * sz
    )
    assert np.allclose(
        np.linalg.eigvalsh(h), np.linalg.eigvalsh(href), atol=1e-8
    )


def test_nuclear_zeeman_sign_and_scale():
    # A bare 13C in a field contributes +gamma_n * B * Iz: splitting gamma*B.
    spec = SpinSystem(
        sites=[
            Site(kind="nv_electron"),
            Site(kind="c13"),
        ]
    )
    b = 1000.0
    h = build_hamiltonian(spec, b, D300)
    vals = np.sort(np.linalg.eigvalsh(h))
    # The two lowest states are m_S=0 with nuclear spin up/down.
    assert np.isclose(vals[1] - vals[0], c.GAMMA_C13 * b, atol=1e-9)


def test_p1_hyperfine_block_present():
    spec = SpinSystem(
        sites=[
            Site(kind="nv_electron"),
            Site(kind="p1_electron"),
            Site(
                kind="n14",
                hyperfine=Hyperfine(
                    InteractionTensor.axial(c.P1_A_PERP, c.P1_A_PAR), 1
                ),
                quadrupole=InteractionTensor.axial(0.0, c.P1_Q_PAR),
            ),
        ]
    )
    bare = SpinSystem(
        sites=[Site(kind="nv_electron"), Site(kind="p1_electron"), Site(kind="n14")]
    )
    vals = np.linalg.eigvalsh(build_hamiltonian(spec, 0.0, D300))
    vals_bare = np.sort(
        np.linalg.eigvalsh(build_hamiltonian(bare, 0.0, D300))
    )
    # The hyperfine block splits the degenerate P1 manifold by ~A_par.
    assert np.abs(np.sort(vals) - vals_bare).max() > c.P1_A_PAR / 4.0


@st.composite
def random_systems(draw, complex_probe=False):
    """A probe NV with up to two hyperfine-coupled 13C/14N nuclei after it.

    With ``complex_probe`` a coupled P1 electron precedes the probe
    (d_pre = 2) and the probe axis has a nonzero y component, so its
    m_S = 0 state v0 and the Hamiltonian are complex.
    """
    sites = []
    couplings = []
    probe_axis = (0.0, 0.0, 1.0)
    if complex_probe:
        sites.append(Site(kind="p1_electron"))
        j = draw(st.floats(min_value=0.5, max_value=50.0))
        couplings.append(Coupling(0, 1, InteractionTensor.axial(j, 0.0)))
        theta = draw(st.floats(min_value=0.2, max_value=np.pi - 0.2))
        phi = draw(st.floats(min_value=0.2, max_value=np.pi - 0.2))
        probe_axis = (
            float(np.sin(theta) * np.cos(phi)),
            float(np.sin(theta) * np.sin(phi)),
            float(np.cos(theta)),
        )
    probe = len(sites)
    sites.append(Site(kind="nv_electron", axis=probe_axis))
    n_nuclei = draw(st.integers(min_value=0, max_value=2))
    for _ in range(n_nuclei):
        kind = draw(st.sampled_from(["c13", "n14"]))
        a_perp = draw(st.floats(min_value=-200, max_value=200))
        a_par = draw(st.floats(min_value=-200, max_value=200))
        theta = draw(st.floats(min_value=0.0, max_value=np.pi))
        axis = (float(np.sin(theta)), 0.0, float(np.cos(theta)))
        sites.append(
            Site(
                kind=kind,
                hyperfine=Hyperfine(InteractionTensor.axial(a_perp, a_par, axis), probe),
            )
        )
    return SpinSystem(sites=sites, couplings=couplings, probe_site=probe)


@settings(max_examples=50, deadline=None)
@given(random_systems(), st.floats(min_value=0.0, max_value=1100.0))
def test_hamiltonian_hermitian_and_reconstructs(spec, b):
    h = build_hamiltonian(spec, b, D300)
    assert np.allclose(h, h.conj().T, atol=1e-9)
    vals, vecs = eigendecompose(h)
    assert np.all(np.diff(vals) >= -1e-9)
    scale = max(np.abs(vals).max(), 1.0)
    recon = (vecs * vals) @ vecs.conj().T
    assert np.abs(recon - h).max() / scale < 1e-6


def test_probe_projector_shapes():
    spec = SpinSystem(
        sites=[Site(kind="p1_electron"), Site(kind="nv_electron"), Site(kind="c13")],
        probe_site=1,
    )
    v0, d_pre, d_post = probe_projector_vector(spec)
    assert d_pre == 2 and d_post == 2
    # v0 selects the probe m_S = 0 row of the NV triplet; it is real, so a
    # real system projects in real arithmetic.
    assert v0.dtype == np.float64
    assert np.array_equal(v0, [0.0, 1.0, 0.0])


def test_projection_sum_rule_small():
    from spin_atlas.kernels import batched_eigh_project

    spec = SpinSystem(sites=[Site(kind="nv_electron"), Site(kind="c13")])
    h = build_hamiltonian(spec, 400.0, D300)
    v0, d_pre, d_post = probe_projector_vector(spec)
    vals, projs = batched_eigh_project(h[None, :, :], v0, d_pre, d_post)
    assert np.isclose(projs.sum(), spec.dimension / 3.0, atol=1e-9)
    assert np.all(projs >= -1e-12) and np.all(projs <= 1.0 + 1e-12)


def _full_space_terms(spec):
    """Reference assembly in the full space: every bilinear term is a sum of
    products ``embed(A, a) @ embed(B, b)`` of embedded site operators, with a
    quadrupole summed as a 3x3 operator and embedded once."""
    dims = spec.dims

    def place(op, slot):
        d_pre = int(np.prod(dims[:slot], dtype=int))
        d_post = int(np.prod(dims[slot + 1 :], dtype=int))
        return np.kron(np.kron(np.eye(d_pre), op), np.eye(d_post))

    def bilinear(ops_a, t, ops_b):
        out = np.zeros_like(ops_a[0] @ ops_b[0])
        for i in range(3):
            for j in range(3):
                if t[i, j] != 0.0:
                    out = out + t[i, j] * (ops_a[i] @ ops_b[j])
        return out

    ops = [spin_operators(m) for m in dims]
    h_const, h_d, h_b = (np.zeros((spec.dimension,) * 2, dtype=complex) for _ in range(3))
    for idx, s in enumerate(spec.sites):
        h_b += place(s.gamma_value * ops[idx][2], idx)
        if s.zfs is not None:
            spx, spy, spz = hamiltonian._site_frame_ops(np.asarray(s.axis))
            h_d += place(spz @ spz, idx)
            z = s.zfs
            h_const += place(
                z.d_parallel * (spz @ spz)
                + z.d_x * (spx @ spx - spy @ spy)
                + z.d_y * (spx @ spy + spy @ spx),
                idx,
            )
        if s.quadrupole is not None:
            h_const += place(bilinear(ops[idx], s.quadrupole.lab_matrix(), ops[idx]), idx)
        if s.hyperfine is not None:
            el = s.hyperfine.to_site
            h_const += bilinear([place(op, el) for op in ops[el]],
                                s.hyperfine.tensor.lab_matrix(),
                                [place(op, idx) for op in ops[idx]])
    for cp in spec.couplings:
        h_const += bilinear([place(op, cp.site_a) for op in ops[cp.site_a]],
                            cp.tensor.lab_matrix(),
                            [place(op, cp.site_b) for op in ops[cp.site_b]])
    return hamiltonian.HamiltonianTerms(h_const, h_d, h_b)


def assert_terms_identical(terms, ref):
    for h, h_ref in zip(terms, ref):
        assert h.dtype == h_ref.dtype
        assert np.array_equal(h, h_ref)
    assert len(terms.blocks) == len(ref.blocks)
    assert all(np.array_equal(b, b_ref) for b, b_ref in zip(terms.blocks, ref.blocks))


@pytest.mark.parametrize("complex_probe", [False, True])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_terms_match_full_space_products(complex_probe, data):
    spec = data.draw(random_systems(complex_probe=complex_probe))
    assert_terms_identical(hamiltonian_terms(spec), _full_space_terms(spec))


@pytest.mark.parametrize(
    "sys_id", [i for i in system_ids() if get_system(i).system.dimension <= 108]
)
def test_catalog_terms_match_full_space_products(sys_id):
    spec = get_system(sys_id).system
    assert_terms_identical(hamiltonian_terms(spec), _full_space_terms(spec))


def _nv_p1_zeroed(part):
    """nv-p1 with its N14 quadrupole, N14 hyperfine or NV-P1 coupling tensor
    set to all zeros, and the same system with that term left out."""
    spec = get_system("nv-p1").system
    zero = InteractionTensor(((0.0,) * 3,) * 3)
    if part == "coupling":
        cp = dataclasses.replace(spec.couplings[0], tensor=zero)
        return (dataclasses.replace(spec, couplings=(cp,)),
                dataclasses.replace(spec, couplings=()))
    nv, p1, n14 = spec.sites
    value = zero if part == "quadrupole" else Hyperfine(zero, 1)
    return (dataclasses.replace(spec, sites=(nv, p1, dataclasses.replace(n14, **{part: value}))),
            dataclasses.replace(spec, sites=(nv, p1, dataclasses.replace(n14, **{part: None}))))


@pytest.mark.parametrize("part", ["quadrupole", "hyperfine", "coupling"])
def test_all_zero_tensor_adds_nothing(part):
    spec, without = _nv_p1_zeroed(part)
    assert_terms_identical(hamiltonian_terms(spec), hamiltonian_terms(without))
    assert_terms_identical(hamiltonian_terms(spec), _full_space_terms(spec))
