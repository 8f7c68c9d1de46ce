"""Assembly of composite spin Hamiltonians and their eigendecomposition.

The total Hamiltonian is affine in both the applied field B (gauss, along the
lab z axis) and the NV zero-field splitting D (MHz):

    H(B, D) = H_const + D * H_d + B * H_b

so a field sweep or a temperature continuation only rescales precomputed
matrices. All energies are in MHz (h = 1). The basis states split into blocks
that no term couples (for spins all along z, the sectors of total M_z).
Identical site groups, such as the P1 centers of a cluster, split each block
further into permutation-symmetry sectors. Every block or sector can be
diagonalized on its own.
"""

from __future__ import annotations

import dataclasses
import itertools
from functools import lru_cache

import numpy as np

from .operators import place, rotation_to_axis, spin_operators
from .system import SpeciesKind, SpinSystem

__all__ = [
    "Block",
    "HamiltonianTerms",
    "hamiltonian_terms",
    "build_hamiltonian",
    "eigendecompose",
    "probe_projector_vector",
]

_HERMITICITY_TOL = 1e-9
_REAL_TOL = 1e-12
_SYMMETRY_TOL = 1e-12  # relative, for a site exchange to count as a symmetry


def _site_frame_ops(axis: np.ndarray):
    """Lab-frame matrices of the site-frame spin components S'_k = R_jk S_j."""
    sx, sy, sz = spin_operators(3)
    r = rotation_to_axis(axis)
    ops = np.stack([sx, sy, sz])
    return np.einsum("jk,jab->kab", r, ops)


def _bilinear(tensor_lab: np.ndarray, slot_a: int, slot_b: int, dims: list[int]):
    """sum_ij T_ij S^i_a S^j_b as a local operator and its ascending slots.

    On two sites each nonzero T_ij, in row-major order, adds
    T_ij kron(S^i_a, S^j_b) with the factors in slot order; on one site it
    adds T_ij (S^i @ S^j). The sum starts from zero, so an all-zero tensor
    gives a zero operator."""
    ops_a, ops_b = spin_operators(dims[slot_a]), spin_operators(dims[slot_b])
    slots = tuple(sorted({slot_a, slot_b}))
    size = int(np.prod([dims[slot] for slot in slots]))
    out = np.zeros((size, size), dtype=complex)
    for (i, j), t in np.ndenumerate(tensor_lab):
        if t != 0.0:
            if slot_a == slot_b:
                out = out + t * (ops_a[i] @ ops_b[j])
            elif slot_a < slot_b:
                out = out + t * np.kron(ops_a[i], ops_b[j])
            else:
                out = out + t * np.kron(ops_b[j], ops_a[i])
    return out, slots


def _basis_sum(x: np.ndarray, at: np.ndarray, coefs: np.ndarray, axis: int) -> np.ndarray:
    """B^T x (axis 0) or x B (axis 1) for the basis B whose column c has the
    coefficients ``coefs[:, c]`` at the positions ``at[:, c]`` of x's axis.
    Each output entry is summed from +0 over its column's entries in order,
    as scipy's sparse products sum it, so for entries in ascending state
    order the result is theirs bit for bit. A zero-coefficient padding entry
    adds a signed zero, which leaves such a sum as it is."""
    shape = list(x.shape)
    shape[axis] = coefs.shape[1]
    out = np.zeros(shape, np.result_type(x, coefs))
    for where, coef in zip(at, coefs[:, :, None] if axis == 0 else coefs[:, None, :]):
        part = x.take(where, axis)
        part *= coef
        out += part
    return out


@dataclasses.dataclass(frozen=True, eq=False)
class Block:
    """An invariant subspace of H(B, D): ``size`` orthonormal real basis
    columns over the ascending basis states ``rows``. Column c has the
    coefficients ``coefs[:, c]`` at the basis states ``states[:, c]``, in
    ascending order, padded with zero coefficients at ``rows[0]``. Each
    column of a symmetry sector lies in one orbit of basis states under the
    exchanges of identical units, so it has at most k! entries for k units;
    a block of the nonzero pattern alone has one entry, 1.0, per column."""

    rows: np.ndarray
    states: np.ndarray  # (m, size) int, m <= k!
    coefs: np.ndarray   # (m, size) float

    @property
    def size(self) -> int:
        return self.states.shape[1]

    def project(self, h: np.ndarray) -> np.ndarray:
        """B^T h B of a full-space matrix h, as (B^T h) B.

        B^T h takes its columns over the block's rows where cutting h down to
        them costs less than the columns it drops (an M_z sector of a larger
        space), else over all of h's columns."""
        at, n = self.states, len(self.rows)
        if n * n < self.coefs.size * (len(h) - n):
            at = np.searchsorted(self.rows, at)
            h = h.take(self.rows, 0).take(self.rows, 1)
        return _basis_sum(_basis_sum(h, at, self.coefs, 0), at, self.coefs, 1)

    def probe_map(self, v0: np.ndarray, d_pre: int, d_post: int) -> np.ndarray:
        """The rows of the full-space map I_pre (x) <v0| (x) I_post that reach
        this block, times its basis: a dense (pairs, size) array whose
        product with the block's eigenvectors gives their probe amplitudes,
        one per (pre, post) pair, in ascending pair order. All-zero rows are
        dropped; a slot where v0 is only roundoff still counts as nonzero."""
        pre, slot, post = np.unravel_index(self.rows, (d_pre, 3, d_post))
        full = np.zeros((d_pre * d_post, len(self.rows)), np.result_type(v0))
        full[pre * d_post + post, np.arange(len(self.rows))] = np.conj(v0)[slot]
        probe_map = _basis_sum(full, np.searchsorted(self.rows, self.states), self.coefs, 1)
        return probe_map[probe_map.any(axis=1)]


def _components(linked: np.ndarray) -> np.ndarray:
    """Connected-component labels of the boolean matrix ``linked`` read as an
    undirected graph, numbered by each component's lowest state, as scipy's
    ``connected_components`` numbers them.

    Each round, every state takes the lowest label among itself and its
    neighbours, then the label of that label. Labels only fall and stay
    within the component, so once a round changes nothing, every state holds
    its component's lowest state.
    """
    head, tail = np.nonzero(linked | linked.T)  # head ascending
    heads, starts = np.unique(head, return_index=True)
    label = np.arange(len(linked))
    while True:
        new = label.copy()
        new[heads] = np.minimum(label[heads], np.minimum.reduceat(label[tail], starts))
        new = new[new]
        if np.array_equal(new, label):
            return np.unique(label, return_inverse=True)[1]
        label = new


def _commutes(terms, swap: np.ndarray) -> bool:
    """Whether the basis permutation ``swap`` leaves every term unchanged."""
    return all(
        np.abs(h[np.ix_(swap, swap)] - h).max() <= _SYMMETRY_TOL * max(np.abs(h).max(), 1.0) for h in terms
    )


def _jucys_murphy(terms, swaps) -> list:
    """The Jucys-Murphy sums X_k = sum_{j<k} (j k) of every set of units
    whose exchanges commute with all terms, each as its list of basis
    permutations.

    ``swaps`` holds, per class of identical units, a dict from each unit pair
    (i, j), i < j, to the basis permutation exchanging them. Exchanges that
    commute form an equivalence on a class's units: if (a b) and (a c) do,
    so does (b c) = (a b)(a c)(a b). So each unit joins the first set whose
    first member it commutes with.
    """
    sums = []
    for swap in swaps:
        sets: list[list[int]] = []
        for unit in range(1 + max(j for _, j in swap)):
            for members in sets:
                if _commutes(terms, swap[members[0], unit]):
                    members.append(unit)
                    break
            else:
                sets.append([unit])
        sums += [[swap[m[j], m[k]] for j in range(k)] for m in sets for k in range(1, len(m))]
    return sums


def _blocks(pattern: np.ndarray, sums: list) -> tuple:
    """Invariant blocks: the joint eigenspaces of the Jucys-Murphy ``sums``
    within the connected components of ``pattern`` joined by their
    permutations.

    The sums act within each orbit of basis states under the permutations,
    so they are diagonalized one orbit at a time, all orbits of one size in
    one ``eigh`` call on a weighted sum whose integer eigenvalues tell every
    label tuple apart. Each eigenvector's labels, rounded, pick its sector.
    Blocks come in component order, sectors of a component in descending
    label order, columns in orbit order (by lowest state). Without sums every
    orbit is one state, so each component is one block with the identity.
    Each orbit lists its states in ascending order, and so each column its
    entries.
    """
    dim = len(pattern)
    moves = np.zeros_like(pattern)
    for swap in itertools.chain.from_iterable(sums):
        moves[np.arange(dim), swap] = True
    component = _components(pattern | moves)
    orbit_of = _components(moves)
    by_orbit = np.argsort(orbit_of, kind="stable")
    counts = np.bincount(orbit_of)
    starts = np.cumsum(counts) - counts
    base = 2 * max(map(len, sums), default=0) + 1  # X_k has eigenvalues within -k..k
    where = np.empty(dim, dtype=int)  # each state's position in its orbit
    sectors: dict[tuple, list] = {}  # (component, -labels) -> (orbit, column) pairs
    for size in np.unique(counts):
        orbits = by_orbit[starts[counts == size][:, None] + np.arange(size)]
        where[orbits] = np.arange(size)
        rank = np.arange(len(orbits))[:, None]
        xs = np.zeros((len(sums), len(orbits), size, size))
        for x, perms in zip(xs, sums):
            for swap in perms:
                x[rank, where[swap[orbits]], np.arange(size)] += 1.0
        _, vecs = np.linalg.eigh(np.tensordot(base ** np.arange(len(sums)), xs, axes=1))
        labels = np.rint(np.einsum("oac,ioab,obc->oci", vecs, xs, vecs)).astype(int)
        for orbit, columns, column_labels in zip(orbits, vecs.transpose(0, 2, 1), labels):
            for column, label in zip(columns, column_labels):
                sectors.setdefault((component[orbit[0]], *-label), []).append((orbit, column))
    blocks = []
    for key in sorted(sectors):
        columns = sorted(sectors[key], key=lambda col: col[0][0])  # stable: one orbit's columns keep their order
        flat = np.concatenate([orbit for orbit, _ in columns])
        rows = np.unique(flat)
        lengths = np.array([len(orbit) for orbit, _ in columns])
        c = np.repeat(np.arange(len(columns)), lengths)
        t = np.arange(len(flat)) - np.repeat(np.cumsum(lengths) - lengths, lengths)  # place in its column
        states = np.full((lengths.max(), len(columns)), rows[0])
        coefs = np.zeros(states.shape)
        states[t, c] = flat
        coefs[t, c] = np.concatenate([column for _, column in columns])
        blocks.append(Block(rows, states, coefs))
    return tuple(blocks)


class HamiltonianTerms(tuple):
    """The triple ``(H_const, H_d, H_b)`` plus its invariant ``blocks``.

    All three terms are float64 when each has a negligible imaginary part,
    else all complex, so every affine combination of them has one dtype.
    Float64 input, which :func:`hamiltonian_terms` passes for every system
    whose local operators are all real, is kept as it is. A term that is
    not Hermitian raises ValueError.

    ``blocks`` holds the :class:`Block` objects that no term couples, so H(B, D)
    leaves each one invariant for all B and D. Their rows come from the
    connected components of the three terms' combined nonzero pattern: for
    spins all along z, the sectors of total M_z; a system that mixes every
    basis state is a single component. ``swaps`` offers exchanges of
    identical units (see :func:`_jucys_murphy`); those that commute with
    every term split the components into permutation-symmetry sectors.
    """

    blocks: tuple[Block, ...]

    def __new__(cls, h_const: np.ndarray, h_d: np.ndarray, h_b: np.ndarray, swaps=()):
        terms = (h_const, h_d, h_b)
        if all(np.abs(h.imag).max() < _REAL_TOL for h in terms):
            terms = tuple(np.ascontiguousarray(h.real) for h in terms)
        for name, h in zip(("H_const", "H_d", "H_b"), terms):
            if not np.abs(h - h.conj().T).max() <= _HERMITICITY_TOL * max(np.abs(h).max(), 1.0):
                raise ValueError(f"Hamiltonian term {name} is not Hermitian")
        self = super().__new__(cls, terms)
        pattern = (h_const != 0) | (h_d != 0) | (h_b != 0)
        self.blocks = _blocks(pattern, _jucys_murphy(self, swaps))
        return self


def _unit_swaps(spec: SpinSystem) -> list:
    """Basis permutations exchanging identical units, per class of units.

    A unit is a site that is not a hyperfine-coupled nucleus, with the nuclei
    coupled to it (a P1 electron and its 14N). Units other than the probe's
    whose sites are equal, hyperfine targets aside, form a class; couplings
    are not compared here, as the terms' commutator check decides.
    """
    units: dict[tuple, list[tuple]] = {}
    for i, s in enumerate(spec.sites):
        if s.hyperfine is not None or i == spec.probe_site:
            continue
        nuclei = [j for j, t in enumerate(spec.sites) if t.hyperfine is not None and t.hyperfine.to_site == i]
        own = (dataclasses.replace(spec.sites[j], hyperfine=dataclasses.replace(spec.sites[j].hyperfine, to_site=0))
               for j in nuclei)
        key = (s, *own)
        units.setdefault(key, []).append((i, *nuclei))
    labels = np.arange(spec.dimension).reshape(spec.dims)
    swaps = []
    for members in units.values():
        if len(members) < 2:
            continue
        swap = {}
        for (i, a), (j, b) in itertools.combinations(enumerate(members), 2):
            order = list(range(len(spec.sites)))
            for x, y in zip(a, b):
                order[x], order[y] = y, x
            swap[i, j] = labels.transpose(order).ravel()
        swaps.append(swap)
    return swaps


# Repeat lookups come only from within one find_features or temperature_shift
# call, on one system, so one entry serves them all (at the 1024 cap, 24 MiB
# of real terms or 48 MiB of complex ones).
@lru_cache(maxsize=1)
def hamiltonian_terms(spec: SpinSystem) -> HamiltonianTerms:
    """Precompute (H_const, H_d, H_b) and their invariant blocks for a system.

    H_const collects strain, hyperfine, quadrupole, nuclear/electron-fixed
    terms and pairwise couplings; H_d is the sum of (n.S)^2 over NV sites;
    H_b is the total Zeeman derivative dH/dB. The blocks, symmetry sectors
    included, are cached with the terms, so
    ``hamiltonian_terms.cache_clear()`` drops both.

    Every contribution is first built as a small local operator on its own
    sites, then added in place into one preallocated matrix per term
    (:func:`operators.place`), in the order listed here. Since a Kronecker
    product with identities only multiplies by an exact 1.0, each entry
    gets the additions a full-space product would give it. The terms are
    float64 when every local operator has a zero imaginary part (the real
    part of a complex sum is the real sum), else complex.
    """
    dims = spec.dims
    parts = []  # (term: 0 H_const, 1 H_d, 2 H_b; local operator; ascending slots)
    for idx, s in enumerate(spec.sites):
        _, _, sz = spin_operators(s.multiplicity)
        # Zeeman along lab z, +gamma B Sz for every site; nuclear species
        # carry their signed gyromagnetic ratio.
        parts.append((2, s.gamma_value * sz, (idx,)))

        if s.kind is SpeciesKind.NV_ELECTRON:
            spx, spy, spz = _site_frame_ops(np.asarray(s.axis))
            parts.append((1, spz @ spz, (idx,)))
            z = s.zfs
            strain = (
                z.d_parallel * (spz @ spz)
                + z.d_x * (spx @ spx - spy @ spy)
                + z.d_y * (spx @ spy + spy @ spx)
            )
            parts.append((0, strain, (idx,)))

        if s.quadrupole is not None:
            parts.append((0, *_bilinear(s.quadrupole.lab_matrix(), idx, idx, dims)))

        if s.hyperfine is not None:
            hf = s.hyperfine
            parts.append((0, *_bilinear(hf.tensor.lab_matrix(), hf.to_site, idx, dims)))

    for cp in spec.couplings:
        parts.append((0, *_bilinear(cp.tensor.lab_matrix(), cp.site_a, cp.site_b, dims)))

    real = not any(op.imag.any() for _, op, _ in parts)
    terms = [np.zeros((spec.dimension,) * 2, float if real else complex) for _ in range(3)]
    for term, op, slots in parts:
        place(terms[term], op.real if real else op, slots, dims)
    return HamiltonianTerms(*terms, _unit_swaps(spec))


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
