"""Permutation-symmetry sectors of identical units: parity of the sector
solves against dense ``eigh``, a complex probe, a broken symmetry, invariance
under reordering the units, and the Hermiticity check on the built terms."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spin_atlas import hamiltonian
from spin_atlas.catalog import get_system
from spin_atlas.cli import main
from spin_atlas.hamiltonian import HamiltonianTerms, hamiltonian_terms
from spin_atlas.sweep import _Solver, features_to_json, find_features, sweep
from spin_atlas.system import InteractionTensor, SpinSystem
from spin_atlas.thermal import ThermalZfsModel

from test_hamiltonian import dense_basis
from test_kernels import dense_reference, degenerate_clusters

SYMMETRIC = ["nv-2p1", "nv-3p1", "onv-2p1", "onv-3p1"]


def assert_matches_dense(spec, d_zfs, fields):
    """Sector eigenvalues within 1e-9 of the spectral scale of dense ``eigh``
    of the whole matrix, and probe weights summed over every run of levels
    closer than 1e-6 MHz within 1e-6 (a lone level is a run of one)."""
    solver = _Solver(spec)
    vals, projs = solver.batch(fields, d_zfs)
    h_const, h_d, h_b = hamiltonian_terms(spec)
    hams = (h_const + d_zfs * h_d)[None] + fields[:, None, None] * h_b[None]
    ref_vals, ref_projs = dense_reference(hams, solver.v0, solver.d_pre, solver.d_post)
    scale = max(np.abs(ref_vals).max(), 1.0)
    np.testing.assert_allclose(vals, ref_vals, rtol=0.0, atol=1e-9 * scale)
    np.testing.assert_allclose(solver.eigvals(fields, d_zfs), ref_vals, rtol=0.0, atol=1e-9 * scale)
    for k in range(len(fields)):
        for run in degenerate_clusters(ref_vals[k], 1e-6):
            assert abs(projs[k, run].sum() - ref_projs[k, run].sum()) < 1e-6


@settings(max_examples=12, deadline=None)
@given(
    sys_id=st.sampled_from(SYMMETRIC),
    b=st.floats(min_value=0.0, max_value=1100.0),
    d_zfs=st.floats(min_value=2800.0, max_value=2900.0),
)
def test_sectors_match_dense(sys_id, b, d_zfs):
    spec = get_system(sys_id).system
    assert len(hamiltonian_terms(spec).blocks) > 1
    assert_matches_dense(spec, d_zfs, np.array([b]))


def reorder(spec, order):
    """The same system with its sites listed in ``order`` (new site i is old
    site order[i]); hyperfine targets, couplings and the probe follow."""
    new = {old: i for i, old in enumerate(order)}
    sites = []
    for old in order:
        site = spec.sites[old]
        if site.hyperfine is not None:
            hyperfine = dataclasses.replace(site.hyperfine, to_site=new[site.hyperfine.to_site])
            site = dataclasses.replace(site, hyperfine=hyperfine)
        sites.append(site)
    couplings = [dataclasses.replace(c, site_a=new[c.site_a], site_b=new[c.site_b]) for c in spec.couplings]
    return SpinSystem(sites=sites, couplings=couplings, probe_site=new[spec.probe_site])


# A probe NV tilted out of the xz plane with two identical P1 centers: v0
# and the terms are complex.
_NV_2P1 = get_system("nv-2p1").system
TILTED = dataclasses.replace(
    _NV_2P1, sites=(dataclasses.replace(_NV_2P1.sites[0], axis=(0.48, 0.6, 0.64)), *_NV_2P1.sites[1:])
)
D300 = ThermalZfsModel().zfs_at(300.0)


def test_complex_probe_spec(tmp_path, capsys):
    """A complex probe state splits into sectors too, matches dense ``eigh``,
    and sweeps from a ``--spec`` file within the CSV's rounding."""
    terms = hamiltonian_terms(TILTED)
    assert all(np.iscomplexobj(h) for h in terms)
    assert sorted(blk.size for blk in terms.blocks) == [45, 63]
    solver = _Solver(TILTED)
    assert np.abs(solver.v0.imag).max() > 1e-6
    assert_matches_dense(TILTED, D300, np.array([0.0, 341.7, 1024.0]))

    path = tmp_path / "tilted.json"
    path.write_text(TILTED.to_json())
    assert main(["sweep", "--spec", str(path), "--bmin", "300", "--bmax", "400", "--points", "5"]) == 0
    rows = np.loadtxt(capsys.readouterr().out.splitlines()[1:], delimiter=",")
    d = TILTED.dimension
    eps, p = rows[:, 1 : 1 + d], rows[:, 1 + d :]
    h_const, h_d, h_b = terms
    for b, e, w in zip(rows[:, 0], eps, p):
        ham = (h_const + D300 * h_d + b * h_b)[None]
        ref_vals, ref_projs = dense_reference(ham, solver.v0, solver.d_pre, solver.d_post)
        np.testing.assert_allclose(e - e[0], ref_vals[0] - ref_vals[0, 0], atol=1e-3)
        for run in degenerate_clusters(ref_vals[0], 2e-4):
            assert abs(w[run].sum() - ref_projs[0, run].sum()) < 1e-6 * len(run)


def test_unequal_couplings_give_no_sectors(tmp_path, capsys, monkeypatch):
    """Two P1 centers coupled to the probe with different J are offered as a
    swap, which the commutator check rejects: the blocks are the M_z blocks
    alone, each with the identity, and ``sweep`` prints what it prints with
    no swap offered at all."""
    spec = _NV_2P1
    weaker = InteractionTensor(((4.0, 0.0, 0.0), (0.0, 4.0, 0.0), (0.0, 0.0, 0.0)))
    couplings = [dataclasses.replace(c, tensor=weaker) if (c.site_a, c.site_b) == (0, 3) else c for c in spec.couplings]
    broken = dataclasses.replace(spec, couplings=tuple(couplings))
    assert hamiltonian._unit_swaps(broken)
    terms = hamiltonian_terms(broken)
    plain = HamiltonianTerms(*terms)
    assert len(terms.blocks) == len(plain.blocks) == 9
    for blk, ref in zip(terms.blocks, plain.blocks):
        assert np.array_equal(blk.rows, ref.rows)
        assert np.array_equal(dense_basis(blk), np.eye(len(blk.rows)))

    path = tmp_path / "broken.json"
    path.write_text(broken.to_json())
    argv = ["sweep", "--spec", str(path), "--bmin", "300", "--bmax", "400", "--points", "33"]
    assert main(argv) == 0
    detected = capsys.readouterr().out
    hamiltonian_terms.cache_clear()
    monkeypatch.setattr(hamiltonian, "_unit_swaps", lambda spec: [])
    assert main(argv) == 0
    assert capsys.readouterr().out == detected
    hamiltonian_terms.cache_clear()


@pytest.mark.parametrize(
    "sys_id, order, b_min, b_max",
    [("nv-2p1", [0, 1, 3, 2, 4], 330.0, 350.0), ("onv-2p1", [0, 3, 1, 4, 2], 585.0, 597.0)],
    ids=["nv-2p1", "onv-2p1"],
)
def test_reordered_units_keep_spectrum_and_features(sys_id, order, b_min, b_max):
    """Listing the P1 electrons before their 14N nuclei, or the units in the
    other order, changes neither the spectrum nor the feature list."""
    entry = get_system(sys_id)
    spec, other = entry.system, reorder(entry.system, order)
    assert other != spec
    assert sorted(blk.size for blk in hamiltonian_terms(other).blocks) == sorted(
        blk.size for blk in hamiltonian_terms(spec).blocks
    )
    a, b = sweep(spec, 0.5, 1100.0, 9), sweep(other, 0.5, 1100.0, 9)
    np.testing.assert_allclose(a.eigenvalues, b.eigenvalues, rtol=0.0, atol=1e-9)
    want = features_to_json(find_features(spec, b_min, b_max, 256, config=entry.config))
    assert json.loads(want)["features"]
    assert features_to_json(find_features(other, b_min, b_max, 256, config=entry.config)) == want


def test_skewed_terms_exit_1(monkeypatch, capsys):
    """A term that is not Hermitian stops ``sweep`` with one error line: the
    check runs once, when the terms are built."""
    bilinear = hamiltonian._bilinear

    def skewed(tensor_lab, slot_a, slot_b, dims):
        op, slots = bilinear(tensor_lab, slot_a, slot_b, dims)
        return op + 1e-3 * np.triu(np.ones_like(op), 1), slots

    hamiltonian_terms.cache_clear()
    monkeypatch.setattr(hamiltonian, "_bilinear", skewed)
    code = main(["sweep", "--system", "nv-p1", "--points", "4"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.strip() == "spin-atlas: error: Hamiltonian term H_const is not Hermitian"
    hamiltonian_terms.cache_clear()


@pytest.mark.parametrize("which, name", [(0, "H_const"), (1, "H_d"), (2, "H_b")])
def test_each_term_is_checked(which, name):
    terms = list(hamiltonian_terms(get_system("nv-p1").system))
    terms[which] = terms[which].copy()
    terms[which][0, 1] += 1.0
    with pytest.raises(ValueError, match=f"{name} is not Hermitian"):
        HamiltonianTerms(*terms)
