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

from .operators import embed, kron_sites, rotation_to_axis, spin_operators
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


def _bilinear(tensor_lab: np.ndarray, slot_a: int, slot_b: int, dims: list[int]):
    """sum_ij T_ij S^i_a S^j_b over the nonzero T_ij in row-major order, each
    product placed by one Kronecker product (on one site, the 3x3 product).
    An all-zero tensor gives the scalar 0.0."""
    ops_a, ops_b = spin_operators(dims[slot_a]), spin_operators(dims[slot_b])
    out = 0.0
    for (i, j), t in np.ndenumerate(tensor_lab):
        if t != 0.0:
            if slot_a == slot_b:
                factors = {slot_a: ops_a[i] @ ops_b[j]}
            else:
                factors = {slot_a: ops_a[i], slot_b: ops_b[j]}
            out = out + t * kron_sites(factors, dims)
    return out


class HamiltonianTerms(tuple):
    """The triple ``(H_const, H_d, H_b)`` plus its invariant ``blocks``.

    All three terms are float64 when each has a negligible imaginary part,
    else all complex, so every affine combination of them has one dtype.

    ``blocks`` holds the ascending basis indices of each connected component
    of the three terms' combined nonzero pattern. No term couples two blocks,
    so H(B, D) leaves every block invariant for all B and D. For spins all
    along z the blocks are the sectors of total M_z; a system that mixes
    every basis state is a single block.
    """

    blocks: tuple[np.ndarray, ...]

    def __new__(cls, h_const: np.ndarray, h_d: np.ndarray, h_b: np.ndarray):
        terms = (h_const, h_d, h_b)
        if all(np.abs(h.imag).max() < _REAL_TOL for h in terms):
            terms = tuple(np.ascontiguousarray(h.real) for h in terms)
        self = super().__new__(cls, terms)
        pattern = (h_const != 0) | (h_d != 0) | (h_b != 0)
        n_blocks, labels = connected_components(pattern, directed=False)
        self.blocks = tuple(np.flatnonzero(labels == k) for k in range(n_blocks))
        return self


# Repeat lookups come only from within one find_features or temperature_shift
# call, on one system, so one entry serves them all (24 MB at the 1024 cap).
@lru_cache(maxsize=1)
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

    for idx, s in enumerate(spec.sites):
        _, _, sz = spin_operators(s.multiplicity)
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
            h_const += _bilinear(s.quadrupole.lab_matrix(), idx, idx, dims)

        if s.hyperfine is not None:
            hf = s.hyperfine
            h_const += _bilinear(hf.tensor.lab_matrix(), hf.to_site, idx, dims)

    for cp in spec.couplings:
        h_const += _bilinear(cp.tensor.lab_matrix(), cp.site_a, cp.site_b, dims)

    return HamiltonianTerms(h_const, h_d, h_b)


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
    return h


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
        v0 = np.ascontiguousarray(v0.real)
    dims = spec.dims
    d_pre = int(np.prod(dims[: spec.probe_site], dtype=int))
    d_post = int(np.prod(dims[spec.probe_site + 1 :], dtype=int))
    return v0, d_pre, d_post
