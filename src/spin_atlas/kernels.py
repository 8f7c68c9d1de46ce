"""Batched eigensolve + probe projection.

The hot loop of a field sweep is "diagonalize H(B_k) and project every
eigenvector onto the probe's m_S = 0 subspace" repeated over the grid. The
matrices may be one invariant block of the full Hamiltonian; its eigenvectors
are scattered into their rows of the full space before projecting, so any
probe state works. The caller sizes each stack; it goes to LAPACK ``eigh`` in
one call. The projection weight of eigenvector |psi> is
<psi| I_pre (x) |v0><v0| (x) I_post |psi>, contracted over the probe slot
without forming the projector.
"""

from __future__ import annotations

import numpy as np

__all__ = ["batched_eigh_project", "active_backend"]


def active_backend() -> str:
    """Name of the eigensolve implementation, recorded next to timings."""
    return "numpy"


def _project(v: np.ndarray, v0: np.ndarray, d_pre: int, d_post: int) -> np.ndarray:
    """Probe weights of the eigenvector columns of a (m, d, b) stack."""
    m, d, b = v.shape
    amp = np.einsum("m,kambi->kabi", v0.conj(), v.reshape(m, d_pre, 3, d_post, b))
    return (np.abs(amp).reshape(m, -1, b) ** 2).sum(axis=1)


def batched_eigh_project(hams: np.ndarray, v0: np.ndarray, d_pre: int, d_post: int, rows=None):
    """Diagonalize a batch of Hermitian matrices and project eigenvectors.

    hams: (n, b, b) real symmetric or complex Hermitian, the block of the
    full d-dimensional Hamiltonian on the basis states ``rows`` (default: all
    d of them, in order).
    v0: probe m_S = 0 state (length 3), real or complex; d = d_pre * 3 * d_post.

    Returns (eigenvalues (n, b) ascending, projections (n, b)).
    """
    v0 = np.asarray(v0)
    n, b, _ = hams.shape
    d = d_pre * 3 * d_post
    rows = np.arange(d) if rows is None else rows
    vals, v = np.linalg.eigh(hams)
    full = np.zeros((n, d, b), dtype=v.dtype)
    full[:, rows] = v
    return vals, _project(full, v0, d_pre, d_post)
