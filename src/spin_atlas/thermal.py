"""Two-phonon-mode temperature dependence of the NV zero-field splitting.

D(T) = D0 + c1 n1(T) + c2 n2(T) with n_i the Bose occupation of mode i.
This is the single temperature-dependent parameter of the whole model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from . import constants as c

__all__ = ["ThermalZfsModel", "occupation"]


def occupation(delta_mev: float, temperature: float, k_b: float = c.K_B_MEV) -> float:
    """Mean Bose occupation 1/(exp(delta/kT) - 1); 0 at T = 0 by continuity."""
    if delta_mev <= 0:
        raise ValueError("mode energy must be positive")
    if not (math.isfinite(temperature) and temperature >= 0):
        raise ValueError(f"temperature must be finite and non-negative, got {temperature}")
    if temperature == 0:
        return 0.0
    x = delta_mev / (k_b * temperature)
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
    boltzmann: float = c.K_B_MEV    # meV/K

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")

    def zfs_at(self, temperature: float) -> float:
        """D(T) in MHz."""
        return (
            self.d0
            + self.c1 * occupation(self.delta1, temperature, self.boltzmann)
            + self.c2 * occupation(self.delta2, temperature, self.boltzmann)
        )

    def zfs_slope(self, temperature: float) -> float:
        """dD/dT in MHz/K (analytic)."""
        if temperature <= 0:
            raise ValueError("slope defined for T > 0")
        total = 0.0
        for ci, di in ((self.c1, self.delta1), (self.c2, self.delta2)):
            x = di / (self.boltzmann * temperature)
            ex = math.exp(x)
            total += ci * (di / (self.boltzmann * temperature**2)) * ex / (ex - 1.0) ** 2
        return total

    @classmethod
    def from_dict(cls, d: dict) -> "ThermalZfsModel":
        base = cls()
        return cls(
            d0=float(d.get("d0", base.d0)),
            c1=float(d.get("c1", base.c1)),
            c2=float(d.get("c2", base.c2)),
            delta1=float(d.get("delta1", base.delta1)),
            delta2=float(d.get("delta2", base.delta2)),
            boltzmann=float(d.get("boltzmann", base.boltzmann)),
        )
