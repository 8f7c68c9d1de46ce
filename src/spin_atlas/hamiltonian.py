"""Assembly of composite spin Hamiltonians and their eigendecomposition.

The total Hamiltonian is affine in both the applied field B (gauss, along the
lab z axis) and the NV zero-field splitting D (MHz):

    H(B, D) = H_const + D * H_d + B * H_b

so a field sweep or a temperature continuation only rescales precomputed
matrices. All energies are in MHz (h = 1). The basis states split into blocks
that no term couples (for spins all along z, the sectors of total M_z), and
each block can be diagonalized on its own.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.sparse.csgraph import connected_components

from .operators import embed, rotation_to_axis, spin_operators
from .system import SpeciesKind, SpinSystem

__all__ = [
    "HamiltonianTerms",
    "hamiltonian_terms",
    "build_hamiltonian",
    "eigendecompose",
    "probe_projector_vector",
]

_HERMITICITY_TOL = 1e-9
_REAL_TOL = 1e-12


def _site_frame_ops(axis: np.ndarray):
    """Lab-frame matrices of the site-frame spin components S'_k = R_jk S_j."""
    sx, sy, sz = spin_operators(3)
    r = rotation_to_axis(axis)
    ops = np.stack([sx, sy, sz])
    return np.einsum("jk,jab->kab", r, ops)


def _bilinear(ops_a, tensor_lab: np.ndarray, ops_b) -> np.ndarray:
    """sum_ij T_ij A_i B_j for lab-frame component operators of two sites."""
    out = np.zeros_like(ops_a[0] @ ops_b[0])
    for i in range(3):
        for j in range(3):
            t = tensor_lab[i, j]
            if t != 0.0:
                out = out + t * (ops_a[i] @ ops_b[j])
    return out


class HamiltonianTerms(tuple):
    """The triple ``(H_const, H_d, H_b)`` plus its invariant ``blocks``.

    ``blocks`` holds the ascending basis indices of each connected component
    of the three terms' combined nonzero pattern. No term couples two blocks,
    so H(B, D) leaves every block invariant for all B and D. For spins all
    along z the blocks are the sectors of total M_z; a system that mixes
    every basis state is a single block.
    """

    blocks: tuple[np.ndarray, ...]

    def __new__(cls, h_const: np.ndarray, h_d: np.ndarray, h_b: np.ndarray):
        self = super().__new__(cls, (h_const, h_d, h_b))
        pattern = (h_const != 0) | (h_d != 0) | (h_b != 0)
        n_blocks, labels = connected_components(pattern, directed=False)
        self.blocks = tuple(np.flatnonzero(labels == k) for k in range(n_blocks))
        return self


@lru_cache(maxsize=64)
def hamiltonian_terms(spec: SpinSystem) -> HamiltonianTerms:
    """Precompute (H_const, H_d, H_b) and their invariant blocks for a system.

    H_const collects strain, hyperfine, quadrupole, nuclear/electron-fixed
    terms and pairwise couplings; H_d is the sum of (n.S)^2 over NV sites;
    H_b is the total Zeeman derivative dH/dB. The blocks are cached with the
    terms, so ``hamiltonian_terms.cache_clear()`` drops both.
    """
    dims = spec.dims
    dim = spec.dimension
    h_const = np.zeros((dim, dim), dtype=complex)
    h_d = np.zeros((dim, dim), dtype=complex)
    h_b = np.zeros((dim, dim), dtype=complex)

    site_ops = []
    for s in spec.sites:
        sx, sy, sz = spin_operators(s.multiplicity)
        site_ops.append((sx, sy, sz))

    for idx, s in enumerate(spec.sites):
        sx, sy, sz = site_ops[idx]
        # Zeeman along lab z, +gamma B Sz for every site; nuclear species
        # carry their signed gyromagnetic ratio.
        h_b += embed(s.gamma_value * sz, idx, dims)

        if s.kind is SpeciesKind.NV_ELECTRON:
            spx, spy, spz = _site_frame_ops(np.asarray(s.axis))
            h_d += embed(spz @ spz, idx, dims)
            z = s.zfs
            strain = (
                z.d_parallel * (spz @ spz)
                + z.d_x * (spx @ spx - spy @ spy)
                + z.d_y * (spx @ spy + spy @ spx)
            )
            h_const += embed(strain, idx, dims)

        if s.quadrupole is not None:
            q = s.quadrupole.lab_matrix()
            h_const += embed(_bilinear((sx, sy, sz), q, (sx, sy, sz)), idx, dims)

        if s.hyperfine is not None:
            a = s.hyperfine.tensor.lab_matrix()
            el = s.hyperfine.to_site
            ea = [embed(op, el, dims) for op in site_ops[el]]
            na = [embed(op, idx, dims) for op in (sx, sy, sz)]
            h_const += _bilinear(ea, a, na)

    for cp in spec.couplings:
        t = cp.tensor.lab_matrix()
        oa = [embed(op, cp.site_a, dims) for op in site_ops[cp.site_a]]
        ob = [embed(op, cp.site_b, dims) for op in site_ops[cp.site_b]]
        h_const += _bilinear(oa, t, ob)

    return HamiltonianTerms(h_const, h_d, h_b)


def _realify(h: np.ndarray) -> np.ndarray:
    """Drop a negligible imaginary part so the fast symmetric path applies."""
    if np.abs(h.imag).max() < _REAL_TOL:
        return np.ascontiguousarray(h.real)
    return h


def build_hamiltonian(spec: SpinSystem, b_field: float, d_zfs: float) -> np.ndarray:
    """Total Hamiltonian at field B (gauss, lab z) and NV splitting D (MHz)."""
    if b_field < 0:
        raise ValueError("magnetic field must be non-negative")
    if d_zfs <= 0:
        raise ValueError("zero-field splitting must be positive")
    h_const, h_d, h_b = hamiltonian_terms(spec)
    h = h_const + d_zfs * h_d + b_field * h_b
    if not np.abs(h - h.conj().T).max() < _HERMITICITY_TOL:
        raise ValueError("assembled Hamiltonian is not Hermitian")
    return _realify(h)


def eigendecompose(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending, MHz) and orthonormal eigenvector columns."""
    h = np.asarray(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("expected a square matrix")
    scale = max(np.abs(h).max(), 1.0)
    if np.abs(h - h.conj().T).max() > _HERMITICITY_TOL * scale:
        raise ValueError("matrix is not Hermitian")
    return np.linalg.eigh(h)


def probe_projector_vector(spec: SpinSystem) -> tuple[np.ndarray, int, int]:
    """The probe NV's m_S = 0 state (along its own axis) plus the composite
    factor dimensions (d_pre, d_post) around the probe slot.

    The m_S = 0 projector onto the full space is |v0><v0| at the probe slot
    tensored with identity elsewhere; projections p_i follow by contracting
    eigenvectors with v0 over the probe index.
    """
    axis = np.asarray(spec.sites[spec.probe_site].axis)
    sx, sy, sz = spin_operators(3)
    n_dot_s = axis[0] * sx + axis[1] * sy + axis[2] * sz
    w, v = np.linalg.eigh(n_dot_s)
    v0 = v[:, int(np.argmin(np.abs(w)))]
    if np.abs(v0.imag).max() < _REAL_TOL:
        v0 = v0.real.astype(complex)
    dims = spec.dims
    d_pre = int(np.prod(dims[: spec.probe_site], dtype=int))
    d_post = int(np.prod(dims[spec.probe_site + 1 :], dtype=int))
    return v0, d_pre, d_post
