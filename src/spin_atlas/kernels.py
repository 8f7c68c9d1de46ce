"""Batched eigensolve + probe projection.

The hot loop of a field sweep is "diagonalize H(B_k) and project every
eigenvector onto the probe's m_S = 0 subspace" repeated over the grid. The
matrices may be one invariant block of the full Hamiltonian. The caller sizes
each stack; it goes to LAPACK ``eigh`` in one call. The projection weight of
eigenvector |psi> is <psi| I_pre (x) |v0><v0| (x) I_post |psi>, the squared
norm of W |psi> for the map W = I_pre (x) <v0| (x) I_post: one amplitude per
(pre, post) pair. A block passes the rows of W that reach it, times its
basis (``Block.probe_map``), so the projection is one product with its
eigenvectors.
"""

from __future__ import annotations

import numpy as np

__all__ = ["batched_eigh_project", "active_backend"]


def active_backend() -> str:
    """Name of the eigensolve implementation, recorded next to timings."""
    return "numpy"


def batched_eigh_project(hams: np.ndarray, v0: np.ndarray, d_pre: int, d_post: int, probe_map=None):
    """Diagonalize a batch of Hermitian matrices and project eigenvectors.

    hams: (n, b, b) real symmetric or complex Hermitian.
    v0: probe m_S = 0 state (length 3), real or complex; d = d_pre * 3 * d_post.
    probe_map: (pairs, b) map from a block's coordinates to probe amplitudes
    (``Block.probe_map``); default: I_pre (x) <v0| (x) I_post, for hams on
    the whole d-dimensional space.

    Returns (eigenvalues (n, b) ascending, projections (n, b)).
    """
    if probe_map is None:
        probe_map = np.kron(np.eye(d_pre), np.kron(np.conj(v0), np.eye(d_post)))
    vals, v = np.linalg.eigh(hams)
    return vals, (np.abs(probe_map @ v) ** 2).sum(axis=1)
