"""Spin operator algebra: angular-momentum matrices, frame rotations, and
Kronecker-product embedding into a composite Hilbert space."""

from __future__ import annotations

import numpy as np

__all__ = [
    "spin_operators",
    "rotation_to_axis",
    "rotate_tensor",
    "kron_sites",
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


def kron_sites(factors: dict[int, np.ndarray], dims: list[int]) -> np.ndarray:
    """Kronecker product with ``factors[slot]`` at each listed slot and the
    identity elsewhere; runs of identity sites merge into one factor."""
    for slot, op in factors.items():
        if not 0 <= slot < len(dims):
            raise IndexError(f"slot {slot} out of range for {len(dims)} sites")
        if op.shape != (dims[slot], dims[slot]):
            raise ValueError(
                f"operator dimension {op.shape} does not match dims[{slot}] = {dims[slot]}"
            )
    out, run = np.ones((1, 1)), 1
    for slot, d in enumerate(dims):
        if slot in factors:
            out, run = np.kron(np.kron(out, np.eye(run)), factors[slot]), 1
        else:
            run *= d
    return np.kron(out, np.eye(run))


def embed(op: np.ndarray, slot: int, dims: list[int]) -> np.ndarray:
    """Kronecker-embed a single-site operator into the product space.

    I_(d0) x ... x op x ... x I_(dn) with op at position `slot`.
    """
    return kron_sites({slot: op}, dims)
