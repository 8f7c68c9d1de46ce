"""Batched eigensolve + probe projection.

The hot loop of a field sweep is "diagonalize H(B_k) and project every
eigenvector onto the probe's m_S = 0 subspace" repeated over the grid. The
matrices may be one invariant block of the full Hamiltonian: B^T H B for
orthonormal columns B on some of its basis states. The caller sizes each
stack; it goes to LAPACK ``eigh`` in one call. The projection weight of
eigenvector |psi> is <psi| I_pre (x) |v0><v0| (x) I_post |psi>, the sum over
(pre, post) of |sum_m conj(v0_m) psi(pre, m, post)|^2. Only the (pre, post)
pairs a block touches contribute, and a probe state the block lacks has
amplitude zero, so each block's eigenvectors v are projected in their own
rows, whose amplitudes are ``basis[probe rows] @ v``.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

__all__ = ["batched_eigh_project", "active_backend"]


def active_backend() -> str:
    """Name of the eigensolve implementation, recorded next to timings."""
    return "numpy"


def batched_eigh_project(hams: np.ndarray, v0: np.ndarray, d_pre: int, d_post: int, rows=None, basis=None):
    """Diagonalize a batch of Hermitian matrices and project eigenvectors.

    hams: (n, b, b) real symmetric or complex Hermitian, the block B^T H B of
    the full d-dimensional Hamiltonian H for the real orthonormal columns
    ``basis``, a sparse (len(rows), b) array over the basis states ``rows``,
    in any order (default: all d of them, in order, and the identity).
    v0: probe m_S = 0 state (length 3), real or complex; d = d_pre * 3 * d_post.

    Returns (eigenvalues (n, b) ascending, projections (n, b)).
    """
    v0 = np.asarray(v0)
    rows = np.arange(hams.shape[1]) if rows is None else rows
    basis = sparse.identity(len(rows), format="csr") if basis is None else basis
    vals, v = np.linalg.eigh(hams)
    pre, slot, post = np.unravel_index(rows, (d_pre, 3, d_post))
    _, pair = np.unique(pre * d_post + post, return_inverse=True)
    # Row position of (pre, m, post) for each pair the block touches, in
    # ascending order, and each m where v0 is nonzero; -1 where it has none.
    # A slot of v0 that is only roundoff still counts: its rows may be missing.
    nonzero = np.flatnonzero(v0)
    index = np.full((pair.max() + 1, 3), -1)
    index[pair, slot] = np.arange(len(rows))
    index = index[:, nonzero]
    # Each row's basis columns and coefficients, padded with zeros, and a
    # last all-zero row that the -1 of a missing probe state picks.
    counts = np.diff(basis.indptr)
    at = np.repeat(np.arange(len(rows)), counts), np.arange(basis.nnz) - np.repeat(basis.indptr[:-1], counts)
    cols = np.zeros((len(rows) + 1, counts.max()), dtype=int)
    coefs = np.zeros(cols.shape)
    cols[at], coefs[at] = basis.indices, basis.data
    gathered = v[:, cols[index]]
    del v  # the projection needs only the gathered copy: free v before it allocates
    amps = np.einsum("pmj,kpmji->kpmi", coefs[index], gathered)
    del gathered
    amp = np.einsum("m,kpmi->kpi", v0[nonzero].conj(), amps)
    return vals, (np.abs(amp) ** 2).sum(axis=1)
