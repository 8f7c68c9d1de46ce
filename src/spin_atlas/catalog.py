"""Preset multi-spin systems and their expected cross-relaxation features.

Each entry bundles a validated :class:`~spin_atlas.system.SpinSystem`, the
sweep settings that resolve its features, and the expected feature list used
by the regression suite.  The builders below are the only source of the
presets; ``get_system(id).system.to_json()`` gives a preset as a spec file
to start a custom ``--spec`` system from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import constants
from .system import Coupling, Hyperfine, InteractionTensor, Site, SpinSystem

__all__ = [
    "ExpectedFeature",
    "CatalogEntry",
    "list_systems",
    "get_system",
    "system_ids",
    "ALIASES",
]

# Off-axis unit vector: polar angle arccos(-1/3) from the lab z axis, azimuth
# fixed to zero (the field is applied along z, so the azimuth is physically
# irrelevant and zero keeps every Hamiltonian real).
_S = 2.0 * math.sqrt(2.0) / 3.0
OFF_AXIS = (_S, 0.0, -1.0 / 3.0)
Z_AXIS = (0.0, 0.0, 1.0)

# Default ad-hoc electron-electron coupling: purely transverse exchange.
_J_DEFAULT = constants.EE_COUPLING_TRANSVERSE


def _ee(j: float) -> InteractionTensor:
    return InteractionTensor(((j, 0.0, 0.0), (0.0, j, 0.0), (0.0, 0.0, 0.0)))


def _p1_sites(electron_index: int, axis=Z_AXIS) -> list[Site]:
    """A P1 center: S=1/2 electron plus its strongly coupled 14N nucleus."""
    hyperfine = InteractionTensor.axial(constants.P1_A_PERP, constants.P1_A_PAR, axis)
    quadrupole = InteractionTensor.axial(0.0, constants.P1_Q_PAR, axis)
    return [
        Site(kind="p1_electron", axis=axis),
        Site(
            kind="n14",
            axis=axis,
            hyperfine=Hyperfine(hyperfine, electron_index),
            quadrupole=quadrupole,
        ),
    ]


def _c13_site(electron_index: int, principal_axis) -> Site:
    """First-shell 13C: axial hyperfine tensor along the NV-carbon bond."""
    tensor = InteractionTensor.axial(
        constants.C13_A_PERP, constants.C13_A_PAR, principal_axis
    )
    return Site(kind="c13", hyperfine=Hyperfine(tensor, electron_index))


def _all_pairs(electrons: list[int], j: float = _J_DEFAULT) -> list[Coupling]:
    return [
        Coupling(a, b, _ee(j))
        for i, a in enumerate(electrons)
        for b in electrons[i + 1 :]
    ]


@dataclass(frozen=True)
class ExpectedFeature:
    """A feature the full 0-1100 G sweep at 300 K is expected to produce.

    ``center``/``tolerance`` bound the detected feature center; ``kind`` (if
    set) must match the detected classification.  ``attainable=False`` marks
    reference values this Hamiltonian family provably does not reproduce
    (``tests/test_catalog.py::test_unattainable_positions_have_no_gap_minimum``);
    they are retained so the gap is visible, and the regression suite and
    acceptance criterion 2 require them to stay undetected.
    """

    center: float
    tolerance: float
    kind: str | None = None
    attainable: bool = True


@dataclass(frozen=True)
class CatalogEntry:
    id: str
    description: str
    system: SpinSystem
    expected_features: tuple[ExpectedFeature, ...]
    sweep_points: int = 2048
    cluster_radius: float = 15.0
    gap_ceiling: float | None = None
    span_within: tuple[float, float] | None = None
    expected_feature_count: tuple[float, float, int] | None = None
    track_center: float | None = None
    expected_slope: float | None = None
    notes: str = ""

    def __post_init__(self) -> None:
        for f in self.expected_features:
            if not 0.0 <= f.center <= 1100.0:
                raise ValueError(
                    f"expected feature at {f.center} G outside [0, 1100] G"
                )

    def sweep_config(self):
        """Detection settings tuned for this entry."""
        from .sweep import SweepConfig

        kwargs = {"cluster_radius": self.cluster_radius}
        if self.gap_ceiling is not None:
            kwargs["gap_ceiling"] = self.gap_ceiling
        return SweepConfig(**kwargs)


def _build_entries() -> dict[str, CatalogEntry]:
    entries: list[CatalogEntry] = []

    # --- single on-axis NV -------------------------------------------------
    entries.append(
        CatalogEntry(
            id="nv",
            description="Single on-axis NV center",
            system=SpinSystem(sites=[Site(kind="nv_electron")]),
            expected_features=(ExpectedFeature(1024.26, 2.0, "true"),),
            track_center=1024.26,
            expected_slope=-0.022,
            notes="Ground-state level anticrossing (GSLAC) of the bare center.",
        )
    )

    # --- on-axis + off-axis NV pair ---------------------------------------
    nv_nv = SpinSystem(
        sites=[Site(kind="nv_electron"), Site(kind="nv_electron", axis=OFF_AXIS)],
        couplings=_all_pairs([0, 1]),
        probe_site=0,
    )
    entries.append(
        CatalogEntry(
            id="nv-nv",
            description="On-axis NV coupled to an off-axis NV",
            system=nv_nv,
            expected_features=(
                ExpectedFeature(0.5, 2.0),
                ExpectedFeature(591.0, 2.0, "avoided"),
                ExpectedFeature(1024.26, 2.0),
            ),
            track_center=591.36,
            expected_slope=-0.014,
            notes="Features at zero field, 591 G and the GSLAC.",
        )
    )

    # --- on-axis NV + one P1 center ----------------------------------------
    nv_p1 = SpinSystem(
        sites=[Site(kind="nv_electron")] + _p1_sites(1),
        couplings=_all_pairs([0, 1]),
        probe_site=0,
    )
    entries.append(
        CatalogEntry(
            id="nv-p1",
            description="On-axis NV coupled to a P1 center (14N)",
            system=nv_p1,
            expected_features=(
                ExpectedFeature(512.0, 2.0),
                ExpectedFeature(983.6, 2.0),
                ExpectedFeature(1003.8, 2.0),
                ExpectedFeature(1024.26, 2.0),
                ExpectedFeature(1044.7, 2.0),
                ExpectedFeature(1064.9, 2.0),
            ),
            track_center=511.36,
            expected_slope=-0.011,
            notes=(
                "Half-field feature near 512 G plus four straight satellite "
                "lines flanking the GSLAC."
            ),
        )
    )

    # --- on-axis NV + two P1 centers ----------------------------------------
    nv_2p1 = SpinSystem(
        sites=[Site(kind="nv_electron")] + _p1_sites(1) + _p1_sites(3),
        couplings=_all_pairs([0, 1, 3]),
        probe_site=0,
    )
    entries.append(
        CatalogEntry(
            id="nv-2p1",
            description="On-axis NV coupled to two P1 centers",
            system=nv_2p1,
            expected_features=(ExpectedFeature(342.0, 8.0),),
            span_within=(310.0, 372.0),
            track_center=340.6,
            expected_slope=-0.008,
            notes="Single broad feature near 342 G spanning roughly 314-368 G.",
        )
    )

    # --- on-axis NV + three P1 centers --------------------------------------
    nv_3p1 = SpinSystem(
        sites=[Site(kind="nv_electron")]
        + _p1_sites(1)
        + _p1_sites(3)
        + _p1_sites(5),
        couplings=_all_pairs([0, 1, 3, 5]),
        probe_site=0,
    )
    entries.append(
        CatalogEntry(
            id="nv-3p1",
            description="On-axis NV coupled to three P1 centers",
            system=nv_3p1,
            expected_features=(ExpectedFeature(257.0, 8.0),),
            sweep_points=768,
            notes="Adds a broad feature near 257 G below the 342 G family.",
        )
    )

    # --- off-axis NV + two P1 centers ---------------------------------------
    onv_2p1 = SpinSystem(
        sites=[Site(kind="nv_electron", axis=OFF_AXIS)]
        + _p1_sites(1)
        + _p1_sites(3),
        couplings=_all_pairs([0, 1, 3]),
        probe_site=0,
    )
    entries.append(
        CatalogEntry(
            id="onv-2p1",
            description="Off-axis NV coupled to two P1 centers",
            system=onv_2p1,
            expected_features=(ExpectedFeature(591.0, 2.0),),
            sweep_points=3000,
            cluster_radius=5.0,
            expected_feature_count=(520.0, 660.0, 9),
            track_center=590.2,
            notes="Nine line groups with the central group at 591 G.",
        )
    )

    # --- off-axis NV + three P1 centers -------------------------------------
    onv_3p1 = SpinSystem(
        sites=[Site(kind="nv_electron", axis=OFF_AXIS)]
        + _p1_sites(1)
        + _p1_sites(3)
        + _p1_sites(5),
        couplings=_all_pairs([0, 1, 3, 5]),
        probe_site=0,
    )
    entries.append(
        CatalogEntry(
            id="onv-3p1",
            description="Off-axis NV coupled to three P1 centers",
            system=onv_3p1,
            expected_features=(
                ExpectedFeature(347.0, 8.0),
                ExpectedFeature(497.0, 8.0),
            ),
            sweep_points=768,
            notes="Features near 347 G and 497 G.",
        )
    )

    # --- two on-axis NV centers + first-shell 13C ---------------------------
    # Weak transverse coupling keeps the 879 G crossing closed (true) while the
    # 952-956 G crossing opens (avoided); see the regression tests.
    two_nv_13c = SpinSystem(
        sites=[
            Site(kind="nv_electron"),
            Site(kind="nv_electron"),
            _c13_site(0, OFF_AXIS),
        ],
        couplings=_all_pairs([0, 1], j=0.1),
        probe_site=0,
    )
    entries.append(
        CatalogEntry(
            id="2nv-13c",
            description="Two parallel on-axis NV centers, one with a first-shell 13C",
            system=two_nv_13c,
            expected_features=(
                ExpectedFeature(0.5, 2.0),
                ExpectedFeature(342.5, 13.0),
                ExpectedFeature(879.0, 5.0, "true"),
                ExpectedFeature(954.0, 4.0, "avoided"),
            ),
            sweep_points=4096,
            cluster_radius=10.0,
            track_center=955.19,
            expected_slope=-0.025,
            notes=(
                "Hyperfine satellites around 342 G, a true crossing near "
                "880 G and an avoided crossing in the 950-958 G window."
            ),
        )
    )

    # --- on-axis + off-axis NV + first-shell 13C ----------------------------
    nv_onv_13c = SpinSystem(
        sites=[
            Site(kind="nv_electron"),
            Site(kind="nv_electron", axis=OFF_AXIS),
            _c13_site(0, OFF_AXIS),
        ],
        couplings=_all_pairs([0, 1]),
        probe_site=0,
    )
    entries.append(
        CatalogEntry(
            id="nv-onv-13c",
            description=(
                "On-axis NV with a first-shell 13C, coupled to an off-axis NV"
            ),
            system=nv_onv_13c,
            expected_features=(
                ExpectedFeature(5.5, 6.5),
                ExpectedFeature(30.5, 9.5),
                ExpectedFeature(553.5, 7.5),
                ExpectedFeature(584.0, 5.0),
                ExpectedFeature(606.0, 5.0),
                ExpectedFeature(639.0, 8.0),
                ExpectedFeature(1005.0, 5.0, attainable=False),
                ExpectedFeature(1048.0, 5.0),
            ),
            sweep_points=4096,
            cluster_radius=10.0,
            gap_ceiling=60.0,
            notes=(
                "Satellite groups around the 591 G feature and structure near "
                "the GSLAC.  The 1005 G value corresponds to an intra-branch "
                "transition-frequency crossing with no level-gap minimum, so "
                "the gap-based detector cannot produce it."
            ),
        )
    )

    # --- two off-axis NV centers + 13C ---------------------------------------
    two_onv_13c = SpinSystem(
        sites=[
            Site(kind="nv_electron", axis=OFF_AXIS),
            Site(kind="nv_electron", axis=OFF_AXIS),
            _c13_site(1, Z_AXIS),
        ],
        couplings=_all_pairs([0, 1]),
        probe_site=0,
    )
    entries.append(
        CatalogEntry(
            id="2onv-13c",
            description="Two off-axis NV centers, one with a nearest-neighbor 13C",
            system=two_onv_13c,
            expected_features=(
                ExpectedFeature(29.0, 13.0),
                ExpectedFeature(501.0, 5.0, attainable=False),
                ExpectedFeature(572.0, 5.0, attainable=False),
                ExpectedFeature(700.0, 5.0, attainable=False),
            ),
            sweep_points=4096,
            notes=(
                "Crossings cluster near the zero-field feature.  The 501, 572 "
                "and 700 G values are intra-branch features: both NV axes make "
                "the same angle with the field, so their transition "
                "frequencies never cross in 400-800 G and no level-gap "
                "minimum exists there (verified over axis, bond and coupling "
                "variants)."
            ),
        )
    )

    # --- on-axis + off-axis NV + P1 ------------------------------------------
    nv_onv_p1 = SpinSystem(
        sites=[
            Site(kind="nv_electron"),
            Site(kind="nv_electron", axis=OFF_AXIS),
        ]
        + _p1_sites(2),
        couplings=_all_pairs([0, 1, 2]),
        probe_site=0,
    )
    entries.append(
        CatalogEntry(
            id="nv-onv-p1",
            description="On-axis and off-axis NV centers coupled to a P1 center",
            system=nv_onv_p1,
            expected_features=(
                ExpectedFeature(48.0, 56.0),
                ExpectedFeature(337.0, 13.0),
                ExpectedFeature(379.5, 22.5),
                ExpectedFeature(497.0, 13.0),
                ExpectedFeature(831.5, 44.5),
            ),
            sweep_points=4096,
            cluster_radius=8.0,
            notes=(
                "Broad bands at 332-342, 365-394, 492-502 and 795-868 G plus "
                "many crossings below 96 G."
            ),
        )
    )

    # --- two off-axis NV centers + P1 ----------------------------------------
    two_onv_p1 = SpinSystem(
        sites=[
            Site(kind="nv_electron", axis=OFF_AXIS),
            Site(kind="nv_electron", axis=OFF_AXIS),
        ]
        + _p1_sites(2),
        couplings=_all_pairs([0, 1, 2]),
        probe_site=0,
    )
    entries.append(
        CatalogEntry(
            id="2onv-p1",
            description="Two off-axis NV centers coupled to a P1 center",
            system=two_onv_p1,
            expected_features=(
                ExpectedFeature(695.0, 3.0),
                ExpectedFeature(714.0, 3.0),
                ExpectedFeature(732.0, 3.0),
                ExpectedFeature(750.0, 3.0),
                ExpectedFeature(769.0, 3.0),
            ),
            sweep_points=2048,
            cluster_radius=5.0,
            track_center=732.0,
            expected_slope=-0.017,
            notes="Line groups at 695, 714, 732, 750 and 769 G.",
        )
    )

    # --- single on-axis NV + first-shell 13C ---------------------------------
    nv_13c = SpinSystem(
        sites=[Site(kind="nv_electron"), _c13_site(0, OFF_AXIS)],
    )
    entries.append(
        CatalogEntry(
            id="nv-13c",
            description="Single on-axis NV center with a first-shell 13C",
            system=nv_13c,
            expected_features=(ExpectedFeature(1019.2, 5.0, "avoided"),),
            sweep_points=4096,
            notes=(
                "The strong transverse hyperfine coupling turns the GSLAC "
                "region into one broad avoided crossing."
            ),
        )
    )

    return {e.id: e for e in entries}


_ENTRIES = _build_entries()

# Alternative label for the 954 G system.
ALIASES = {"nv-nv-13c": "2nv-13c"}


def system_ids() -> list[str]:
    """Stable, insertion-ordered list of catalog ids (aliases excluded)."""
    return list(_ENTRIES)


def list_systems() -> list[tuple[str, str]]:
    """Return (id, description) pairs in stable order."""
    return [(e.id, e.description) for e in _ENTRIES.values()]


def get_system(system_id: str) -> CatalogEntry:
    """Look up a catalog entry by id (aliases resolved)."""
    key = ALIASES.get(system_id, system_id)
    try:
        return _ENTRIES[key]
    except KeyError:
        known = ", ".join(list(_ENTRIES) + list(ALIASES))
        raise KeyError(
            f"unknown system id {system_id!r}; available ids: {known}"
        ) from None
