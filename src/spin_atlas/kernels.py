"""Batched eigensolve + probe projection.

The hot loop of a field sweep is "diagonalize H(B_k) and project every
eigenvector onto the probe's m_S = 0 subspace" repeated over the grid. The
matrices may be one invariant block of the full Hamiltonian, on some of its
basis states. The caller sizes each stack; it goes to LAPACK ``eigh`` in
one call. The projection weight of eigenvector |psi> is
<psi| I_pre (x) |v0><v0| (x) I_post |psi>, the sum over (pre, post) of
|sum_m conj(v0_m) psi(pre, m, post)|^2. Only the (pre, post) pairs a block
touches contribute, and a probe state the block lacks has amplitude zero, so
each block's eigenvectors are projected in their own rows.
"""

from __future__ import annotations

import numpy as np

__all__ = ["batched_eigh_project", "active_backend"]


def active_backend() -> str:
    """Name of the eigensolve implementation, recorded next to timings."""
    return "numpy"


def batched_eigh_project(hams: np.ndarray, v0: np.ndarray, d_pre: int, d_post: int, rows=None):
    """Diagonalize a batch of Hermitian matrices and project eigenvectors.

    hams: (n, b, b) real symmetric or complex Hermitian, the block of the
    full d-dimensional Hamiltonian on the basis states ``rows``, in any order
    (default: all d of them, in order).
    v0: probe m_S = 0 state (length 3), real or complex; d = d_pre * 3 * d_post.

    Returns (eigenvalues (n, b) ascending, projections (n, b)).
    """
    v0 = np.asarray(v0)
    rows = np.arange(hams.shape[1]) if rows is None else rows
    vals, v = np.linalg.eigh(hams)
    pre, slot, post = np.unravel_index(rows, (d_pre, 3, d_post))
    _, pair = np.unique(pre * d_post + post, return_inverse=True)
    # Block position of (pre, m, post) for each pair the block touches, in
    # ascending order, and each m where v0 is nonzero; -1 where it has none.
    # A slot of v0 that is only roundoff still counts: its rows may be missing.
    nonzero = np.flatnonzero(v0)
    index = np.full((pair.max() + 1, 3), -1)
    index[pair, slot] = np.arange(len(rows))
    index = index[:, nonzero]
    amps = v[:, index]
    del v  # the projection needs only the gathered copy: free v before it allocates
    amps[:, index < 0] = 0.0
    amp = np.einsum("m,kpmi->kpi", v0[nonzero].conj(), amps)
    return vals, (np.abs(amp) ** 2).sum(axis=1)
