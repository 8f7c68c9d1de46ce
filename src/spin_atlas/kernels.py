"""Batched eigensolve + probe projection.

The hot loop of a field sweep is "diagonalize H(B_k) and project every
eigenvector onto the probe's m_S = 0 subspace" repeated over the grid. The
matrices may be one invariant block of the full Hamiltonian; its eigenvectors
are scattered into their rows of the full space before projecting, so any
probe state works. A block of the whole space in basis order needs no
scatter. The caller sizes each stack; it goes to LAPACK ``eigh`` in
one call. The projection weight of eigenvector |psi> is
<psi| I_pre (x) |v0><v0| (x) I_post |psi>, contracted over the probe slot
without forming the projector.
"""

from __future__ import annotations

import numpy as np

__all__ = ["batched_eigh_project", "spans_whole_space", "active_backend"]


def active_backend() -> str:
    """Name of the eigensolve implementation, recorded next to timings."""
    return "numpy"


def spans_whole_space(rows, d: int) -> bool:
    """Whether ``rows`` (None meaning all) is every index of a d-dimensional
    space in order, so a block's eigenvectors are already full-space ones."""
    return rows is None or np.array_equal(rows, np.arange(d))


def _project(v: np.ndarray, v0: np.ndarray, d_pre: int, d_post: int) -> np.ndarray:
    """Probe weights of the eigenvector columns of a (m, d, b) stack."""
    m, d, b = v.shape
    amp = np.einsum("m,kambi->kabi", v0.conj(), v.reshape(m, d_pre, 3, d_post, b))
    return (np.abs(amp).reshape(m, -1, b) ** 2).sum(axis=1)


def batched_eigh_project(hams: np.ndarray, v0: np.ndarray, d_pre: int, d_post: int, rows=None, scatter=None):
    """Diagonalize a batch of Hermitian matrices and project eigenvectors.

    hams: (n, b, b) real symmetric or complex Hermitian, the block of the
    full d-dimensional Hamiltonian on the basis states ``rows`` (default: all
    d of them, in order).
    v0: probe m_S = 0 state (length 3), real or complex; d = d_pre * 3 * d_post.
    scatter: optional (n, d, b) buffer of the eigenvectors' dtype, zero
    outside ``rows``, that they are scattered into; a caller solving many
    stacks of one block passes the same buffer each time. When ``rows`` is
    every index in order, the eigenvectors are projected as they are and
    ``scatter`` is neither needed nor touched.

    Returns (eigenvalues (n, b) ascending, projections (n, b)).
    """
    v0 = np.asarray(v0)
    n, b, _ = hams.shape
    d = d_pre * 3 * d_post
    vals, v = np.linalg.eigh(hams)
    if not spans_whole_space(rows, d):
        if scatter is None:
            scatter = np.zeros((n, d, b), dtype=v.dtype)
        scatter[:, rows] = v
        v = scatter
    return vals, _project(v, v0, d_pre, d_post)
