"""Batched eigensolve + probe projection.

The hot loop of a field sweep is "diagonalize H(B_k) and project every
eigenvector onto the probe's m_S = 0 subspace" repeated over the grid. Each
grid point is one LAPACK ``eigh`` call; the projection weight of eigenvector
|psi> is <psi| I_pre (x) |v0><v0| (x) I_post |psi>, contracted over the probe
slot without forming the projector.
"""

from __future__ import annotations

import numpy as np

__all__ = ["batched_eigh_project", "active_backend"]


def active_backend() -> str:
    """Name of the eigensolve implementation, recorded next to timings."""
    return "numpy"


def _project(v: np.ndarray, v0: np.ndarray, d_pre: int, d_post: int) -> np.ndarray:
    d = v.shape[0]
    amp = np.einsum("m,ambi->abi", v0.conj(), v.reshape(d_pre, 3, d_post, d))
    return (np.abs(amp).reshape(-1, d) ** 2).sum(axis=0)


def batched_eigh_project(hams: np.ndarray, v0: np.ndarray, d_pre: int, d_post: int):
    """Diagonalize a batch of Hermitian matrices and project eigenvectors.

    hams: (n, d, d) real symmetric or complex Hermitian.
    v0: probe m_S = 0 state (length 3); d = d_pre * 3 * d_post.

    Returns (eigenvalues (n, d) ascending, projections (n, d)).
    """
    v0 = np.asarray(v0, dtype=complex)
    n, d, _ = hams.shape
    vals = np.empty((n, d))
    projs = np.empty((n, d))
    for k in range(n):
        w, v = np.linalg.eigh(hams[k])
        vals[k] = w
        projs[k] = _project(v, v0, d_pre, d_post)
    return vals, projs
