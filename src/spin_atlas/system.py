"""Declarative spin-system descriptions and their JSON serialization.

A system is an ordered list of sites (electron or nuclear spins, each with a
symmetry axis and optional local terms) plus a list of pairwise couplings and
the index of the probe NV electron whose m_S = 0 population defines the
projection diagnostic.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import constants as c
from .operators import rotate_tensor

__all__ = [
    "SpeciesKind",
    "InteractionTensor",
    "ZfsParams",
    "Hyperfine",
    "Site",
    "Coupling",
    "SpinSystem",
]


class SpeciesKind(str, Enum):
    NV_ELECTRON = "nv_electron"   # S = 1
    P1_ELECTRON = "p1_electron"   # S = 1/2
    N14 = "n14"                   # I = 1
    N15 = "n15"                   # I = 1/2
    C13 = "c13"                   # I = 1/2

    @property
    def multiplicity(self) -> int:
        return _MULTIPLICITY[self]

    @property
    def is_electron(self) -> bool:
        return self in (SpeciesKind.NV_ELECTRON, SpeciesKind.P1_ELECTRON)

    @property
    def default_gamma(self) -> float:
        return _DEFAULT_GAMMA[self]


_MULTIPLICITY = {
    SpeciesKind.NV_ELECTRON: 3,
    SpeciesKind.P1_ELECTRON: 2,
    SpeciesKind.N14: 3,
    SpeciesKind.N15: 2,
    SpeciesKind.C13: 2,
}

_DEFAULT_GAMMA = {
    SpeciesKind.NV_ELECTRON: c.GAMMA_E,
    SpeciesKind.P1_ELECTRON: c.GAMMA_E,
    SpeciesKind.N14: c.GAMMA_N14,
    SpeciesKind.N15: c.GAMMA_N15,
    SpeciesKind.C13: c.GAMMA_C13,
}


def _finite(value, name: str) -> float:
    if not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _index(value, name: str) -> int:
    """A site index: an integer, or an integral float such as 1.0."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise SpecError(f"{name} must be an integer index, got {value!r}")


def _unit(axis) -> np.ndarray:
    v = np.asarray(axis, dtype=float)
    if v.shape != (3,) or not np.all(np.isfinite(v)):
        raise ValueError(f"axis must be a finite 3-vector, got {axis!r}")
    if abs(np.linalg.norm(v) - 1.0) > 1e-9:
        raise ValueError(f"axis must be normalized, got norm {np.linalg.norm(v)!r}")
    return v


@dataclass(frozen=True)
class InteractionTensor:
    """3x3 real symmetric tensor in its principal frame plus the lab-frame
    direction of its principal z axis."""

    matrix: tuple  # 3x3 nested tuple, MHz
    axis: tuple = (0.0, 0.0, 1.0)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (3, 3) or not np.all(np.isfinite(m)):
            raise ValueError("tensor matrix must be a finite 3x3 array")
        if np.abs(m - m.T).max() > 1e-12:
            raise ValueError("tensor matrix must be symmetric")
        object.__setattr__(self, "matrix", tuple(tuple(float(x) for x in row) for row in m))
        object.__setattr__(self, "axis", tuple(float(x) for x in _unit(self.axis)))

    @classmethod
    def axial(cls, perp: float, par: float, axis=(0.0, 0.0, 1.0)) -> "InteractionTensor":
        return cls(((perp, 0.0, 0.0), (0.0, perp, 0.0), (0.0, 0.0, par)), tuple(axis))

    def lab_matrix(self) -> np.ndarray:
        """Tensor expressed in the lab frame (R M R^T)."""
        return rotate_tensor(np.asarray(self.matrix), np.asarray(self.axis))

    def to_dict(self) -> dict:
        return {"matrix": [list(r) for r in self.matrix], "axis": list(self.axis)}

    @classmethod
    def from_dict(cls, d: dict) -> "InteractionTensor":
        return cls(d["matrix"], d.get("axis", (0.0, 0.0, 1.0)))


@dataclass(frozen=True)
class ZfsParams:
    """Strain / electric-field parameters of the NV ground-state ZFS term.

    The axial splitting D itself is supplied at Hamiltonian-build time (it is
    the single temperature-dependent parameter of the model)."""

    d_parallel: float = 0.0
    d_x: float = 0.0
    d_y: float = 0.0

    def __post_init__(self):
        for name in ("d_parallel", "d_x", "d_y"):
            object.__setattr__(self, name, _finite(getattr(self, name), f"zfs {name}"))

    def to_dict(self) -> dict:
        return {"d_parallel": self.d_parallel, "d_x": self.d_x, "d_y": self.d_y}

    @classmethod
    def from_dict(cls, d: dict) -> "ZfsParams":
        return cls(d.get("d_parallel", 0.0), d.get("d_x", 0.0), d.get("d_y", 0.0))


@dataclass(frozen=True)
class Hyperfine:
    """Hyperfine coupling of a nuclear site to a host electron site."""

    tensor: InteractionTensor
    to_site: int

    def to_dict(self) -> dict:
        d = self.tensor.to_dict()
        d["to"] = self.to_site
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "Hyperfine":
        return cls(InteractionTensor.from_dict(d), _index(d["to"], "hyperfine to"))


@dataclass(frozen=True)
class Site:
    kind: SpeciesKind
    axis: tuple = (0.0, 0.0, 1.0)
    gamma: float | None = None  # MHz/G, None -> species default
    zfs: ZfsParams | None = None
    quadrupole: InteractionTensor | None = None
    hyperfine: Hyperfine | None = None

    def __post_init__(self):
        object.__setattr__(self, "kind", SpeciesKind(self.kind))
        object.__setattr__(self, "axis", tuple(float(x) for x in _unit(self.axis)))
        if self.gamma is not None:
            object.__setattr__(self, "gamma", _finite(self.gamma, "gamma"))
        if self.kind is SpeciesKind.NV_ELECTRON and self.zfs is None:
            object.__setattr__(self, "zfs", ZfsParams())

    @property
    def multiplicity(self) -> int:
        return self.kind.multiplicity

    @property
    def gamma_value(self) -> float:
        return self.kind.default_gamma if self.gamma is None else self.gamma

    def to_dict(self) -> dict:
        d: dict = {"kind": self.kind.value, "axis": list(self.axis)}
        if self.gamma is not None:
            d["gamma"] = self.gamma
        if self.zfs is not None:
            d["zfs"] = self.zfs.to_dict()
        if self.quadrupole is not None:
            d["quadrupole"] = self.quadrupole.to_dict()
        if self.hyperfine is not None:
            d["hyperfine"] = self.hyperfine.to_dict()
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "Site":
        return cls(
            kind=SpeciesKind(d["kind"]),
            axis=d.get("axis", (0.0, 0.0, 1.0)),
            gamma=d.get("gamma"),
            zfs=ZfsParams.from_dict(d["zfs"]) if "zfs" in d else None,
            quadrupole=InteractionTensor.from_dict(d["quadrupole"]) if "quadrupole" in d else None,
            hyperfine=Hyperfine.from_dict(d["hyperfine"]) if "hyperfine" in d else None,
        )


@dataclass(frozen=True)
class Coupling:
    """Pairwise spin-spin coupling S_a . T . S_b between two sites."""

    site_a: int
    site_b: int
    tensor: InteractionTensor

    def to_dict(self) -> dict:
        d = self.tensor.to_dict()
        return {"site_a": self.site_a, "site_b": self.site_b, **d}

    @classmethod
    def from_dict(cls, d: dict) -> "Coupling":
        return cls(_index(d["site_a"], "site_a"), _index(d["site_b"], "site_b"),
                   InteractionTensor.from_dict(d))


class SpecError(ValueError):
    """Malformed spin-system description."""


@dataclass(frozen=True)
class SpinSystem:
    sites: tuple
    couplings: tuple = ()
    probe_site: int = 0

    def __post_init__(self):
        object.__setattr__(self, "sites", tuple(self.sites))
        object.__setattr__(self, "couplings", tuple(self.couplings))
        self.validate()

    def validate(self) -> None:
        if not self.sites:
            raise SpecError("system needs at least one site")
        n = len(self.sites)
        if not 0 <= self.probe_site < n:
            raise SpecError(f"probe_site {self.probe_site} out of range")
        if self.sites[self.probe_site].kind is not SpeciesKind.NV_ELECTRON:
            raise SpecError("probe_site must refer to an NV electron")
        if self.dimension > c.DIMENSION_CAP:
            raise SpecError(
                f"composite dimension {self.dimension} exceeds cap {c.DIMENSION_CAP}"
            )
        for i, s in enumerate(self.sites):
            if s.zfs is not None and s.kind is not SpeciesKind.NV_ELECTRON:
                raise SpecError(f"site {i}: zfs allowed only on NV electrons")
            if s.quadrupole is not None and (s.kind.is_electron or s.multiplicity != 3):
                raise SpecError(f"site {i}: quadrupole allowed only on I=1 nuclei")
            if s.hyperfine is not None:
                if s.kind.is_electron:
                    raise SpecError(f"site {i}: hyperfine block allowed only on nuclear sites")
                t = s.hyperfine.to_site
                if not 0 <= t < n or t == i or not self.sites[t].kind.is_electron:
                    raise SpecError(f"site {i}: hyperfine target {t} is not another electron site")
        for cp in self.couplings:
            if cp.site_a == cp.site_b:
                raise SpecError("coupling must connect two distinct sites")
            if not (0 <= cp.site_a < n and 0 <= cp.site_b < n):
                raise SpecError("coupling site index out of range")
            a, b = self.sites[cp.site_a], self.sites[cp.site_b]
            if a.kind.is_electron and b.kind.is_electron:
                lab = cp.tensor.lab_matrix()
                transverse = max(
                    abs(lab[0, 0]), abs(lab[1, 1]),
                    abs(lab[0, 1]), abs(lab[0, 2]), abs(lab[1, 2]),
                )
                if abs(lab[2, 2]) > 0.1 * transverse + 1e-12:
                    raise SpecError(
                        "electron-electron coupling secular (zz) component "
                        f"{lab[2, 2]:.3g} MHz exceeds 10% of the largest "
                        f"transverse component {transverse:.3g} MHz"
                    )

    @property
    def dims(self) -> list[int]:
        return [s.multiplicity for s in self.sites]

    @property
    def dimension(self) -> int:
        return math.prod(self.dims)

    def to_dict(self) -> dict:
        return {
            "sites": [s.to_dict() for s in self.sites],
            "couplings": [cp.to_dict() for cp in self.couplings],
            "probe_site": self.probe_site,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SpinSystem":
        """Inverse of ``to_dict``; malformed input raises SpecError or ValueError."""
        try:
            sites = tuple(Site.from_dict(s) for s in d["sites"])
            couplings = tuple(Coupling.from_dict(cp) for cp in d.get("couplings", []))
            probe_site = _index(d.get("probe_site", 0), "probe_site")
        except (KeyError, TypeError, AttributeError, OverflowError) as exc:
            raise SpecError(f"malformed spec: {type(exc).__name__}: {exc}") from exc
        return cls(sites=sites, couplings=couplings, probe_site=probe_site)

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "SpinSystem":
        return cls.from_dict(json.loads(text))
