"""Spin operator algebra: angular-momentum matrices, frame rotations, and
placement of site-local operators into a composite Hilbert space."""

from __future__ import annotations

import numpy as np

__all__ = [
    "spin_operators",
    "rotation_to_axis",
    "rotate_tensor",
    "place",
    "embed",
]


def spin_operators(multiplicity: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (Sx, Sy, Sz) for a spin with the given multiplicity 2S+1.

    Matrices are complex128 in the |m = S>, ..., |m = -S> basis and satisfy
    [Sx, Sy] = i Sz and Sx^2 + Sy^2 + Sz^2 = S(S+1) I.
    """
    if multiplicity not in (2, 3):
        raise ValueError(f"unsupported multiplicity {multiplicity}; expected 2 or 3")
    s = (multiplicity - 1) / 2.0
    m = s - np.arange(multiplicity)
    sz = np.diag(m).astype(complex)
    # <m+1| S+ |m> = sqrt(S(S+1) - m(m+1))
    ladder = np.sqrt(s * (s + 1) - m[1:] * (m[1:] + 1))
    sp = np.zeros((multiplicity, multiplicity), dtype=complex)
    sp[np.arange(multiplicity - 1), np.arange(1, multiplicity)] = ladder
    sm = sp.conj().T
    sx = 0.5 * (sp + sm)
    sy = -0.5j * (sp - sm)
    return sx, sy, sz


def rotation_to_axis(axis: np.ndarray) -> np.ndarray:
    """Rotation matrix R carrying the lab z axis onto the given unit vector.

    Rodrigues rotation about z x axis; for axis = -z the rotation is by pi
    about x.
    """
    n = np.asarray(axis, dtype=float)
    if abs(np.linalg.norm(n) - 1.0) > 1e-9:
        raise ValueError(f"axis must be a unit vector, got norm {np.linalg.norm(n)}")
    z = np.array([0.0, 0.0, 1.0])
    c = float(np.dot(z, n))
    if c > 1.0 - 1e-14:
        return np.eye(3)
    if c < -1.0 + 1e-14:
        return np.diag([1.0, -1.0, -1.0])
    v = np.cross(z, n)
    vx = np.array([[0, -v[2], v[1]], [v[2], 0, -v[0]], [-v[1], v[0], 0]])
    return np.eye(3) + vx + vx @ vx / (1.0 + c)


def rotate_tensor(matrix: np.ndarray, axis: np.ndarray) -> np.ndarray:
    """Express a principal-frame 3x3 tensor in the lab frame: R M R^T.

    The principal z axis is carried onto `axis`; eigenvalues are preserved.
    """
    m = np.asarray(matrix, dtype=float)
    if m.shape != (3, 3):
        raise ValueError("tensor must be 3x3")
    if np.abs(m - m.T).max() > 1e-12:
        raise ValueError("tensor must be symmetric")
    r = rotation_to_axis(axis)
    return r @ m @ r.T


def place(h: np.ndarray, op: np.ndarray, slots: tuple[int, ...], dims: list[int]) -> None:
    """Add I x op x I to the product-space matrix ``h`` in place, with op
    acting on the ascending ``slots`` (in their order) and the identity
    elsewhere.

    Only op's nonzero entries are added, each in one fancy-index ``+=``: the
    (row, col) pairs it reaches are distinct, so every such entry of h gets
    exactly one addition, the value a Kronecker product with identities
    would hold there."""
    if list(slots) != sorted(set(slots)):
        raise ValueError(f"slots {slots} must be ascending and distinct")
    for slot in slots:
        if not 0 <= slot < len(dims):
            raise IndexError(f"slot {slot} out of range for {len(dims)} sites")
    local = [dims[slot] for slot in slots]
    if op.shape != (np.prod(local, dtype=int),) * 2:
        raise ValueError(f"operator dimension {op.shape} does not match dims {local} at slots {slots}")
    index = np.arange(np.prod(dims, dtype=int)).reshape(dims)
    index = np.moveaxis(index, slots, range(-len(slots), 0)).reshape(-1, len(op))
    row, col = np.nonzero(op)
    h[index[:, row], index[:, col]] += op[row, col]


def embed(op: np.ndarray, slot: int, dims: list[int]) -> np.ndarray:
    """Embed a single-site operator into the product space:
    I_(d0) x ... x op x ... x I_(dn) with op at position `slot`."""
    d = int(np.prod(dims, dtype=int))
    out = np.zeros((d, d), np.result_type(op, float))
    place(out, op, (slot,), dims)
    return out
