"""Two-phonon-mode temperature dependence of the NV zero-field splitting.

D(T) = D0 + c1 n1(T) + c2 n2(T) with n_i the Bose occupation of mode i.
This is the single temperature-dependent parameter of the whole model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from . import constants as c

__all__ = ["ThermalZfsModel", "occupation"]


def occupation(delta_mev: float, temperature: float) -> float:
    """Mean Bose occupation 1/(exp(delta/kT) - 1); 0 at T = 0 by continuity."""
    if delta_mev <= 0:
        raise ValueError("mode energy must be positive")
    if not (math.isfinite(temperature) and temperature >= 0):
        raise ValueError(f"temperature must be finite and non-negative, got {temperature}")
    if temperature == 0:
        return 0.0
    x = delta_mev / (c.K_B_MEV * temperature)
    if x > 700.0:  # exp would overflow; occupation is indistinguishable from 0
        return 0.0
    return 1.0 / math.expm1(x)


@dataclass(frozen=True)
class ThermalZfsModel:
    d0: float = c.ZFS_D0            # MHz, ZFS at T = 0
    c1: float = c.ZFS_C1            # MHz
    c2: float = c.ZFS_C2            # MHz
    delta1: float = c.ZFS_DELTA1    # meV
    delta2: float = c.ZFS_DELTA2    # meV

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
            if f.name in ("delta1", "delta2") and value <= 0:
                raise ValueError(f"{f.name} must be positive, got {value}")

    def zfs_at(self, temperature: float) -> float:
        """D(T) in MHz; a D(T) that is not finite and positive is an error."""
        d = (
            self.d0
            + self.c1 * occupation(self.delta1, temperature)
            + self.c2 * occupation(self.delta2, temperature)
        )
        if not (math.isfinite(d) and d > 0):
            raise ValueError(f"zero-field splitting D({temperature:g} K) = {d:g} MHz is not finite and positive")
        return d

    def zfs_slope(self, temperature: float) -> float:
        """dD/dT in MHz/K (analytic)."""
        if temperature <= 0:
            raise ValueError("slope defined for T > 0")
        total = 0.0
        for ci, di in ((self.c1, self.delta1), (self.c2, self.delta2)):
            # dn/dT = delta/(k T^2) * n (n + 1): 0 wherever n is, no overflow
            n = occupation(di, temperature)
            total += ci * (di / (c.K_B_MEV * temperature**2)) * n * (n + 1.0)
        return total

    @classmethod
    def from_dict(cls, d: dict) -> "ThermalZfsModel":
        """Override any of the fields by name; an unknown name is an error."""
        names = [f.name for f in fields(cls)]
        for name, value in d.items():
            if name not in names:
                raise ValueError(f"unknown field {name!r}; fields are {', '.join(names)}")
            # JSON strings and true/false are not numbers
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise TypeError(f"{name} must be a number, got {value!r}")
        return cls(**{name: float(value) for name, value in d.items()})
