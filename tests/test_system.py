"""Spin-system descriptions: validation rules and JSON round-trips."""

import numpy as np
import pytest

from spin_atlas.system import (
    Coupling,
    Hyperfine,
    InteractionTensor,
    Site,
    SpecError,
    SpinSystem,
    ZfsParams,
)


def transverse(j):
    return InteractionTensor(((j, 0.0, 0.0), (0.0, j, 0.0), (0.0, 0.0, 0.0)))


def test_round_trip_json():
    spec = SpinSystem(
        sites=[
            Site(kind="nv_electron"),
            Site(kind="p1_electron"),
            Site(
                kind="n14",
                hyperfine=Hyperfine(InteractionTensor.axial(81.3, 114.0), 1),
                quadrupole=InteractionTensor.axial(0.0, -3.97),
            ),
        ],
        couplings=[Coupling(0, 1, transverse(5.0))],
        probe_site=0,
    )
    assert SpinSystem.from_json(spec.to_json()) == spec


def test_empty_system_rejected():
    with pytest.raises(SpecError):
        SpinSystem(sites=[])


def test_probe_must_be_nv_electron():
    with pytest.raises(SpecError, match="NV electron"):
        SpinSystem(sites=[Site(kind="p1_electron")])
    with pytest.raises(SpecError, match="out of range"):
        SpinSystem(sites=[Site(kind="nv_electron")], probe_site=3)


def test_dimension_cap_enforced():
    # 1 NV (3) + 6 P1 pairs (6^2=..) exceeds 1024.
    sites = [Site(kind="nv_electron")]
    for i in range(1, 12, 2):
        sites.append(Site(kind="p1_electron"))
        sites.append(
            Site(kind="n14", hyperfine=Hyperfine(InteractionTensor.axial(81.3, 114.0), i))
        )
    with pytest.raises(SpecError, match="cap"):
        SpinSystem(sites=sites)
    # 2**64 states: a fixed-width product would wrap to 0 and pass the cap.
    with pytest.raises(SpecError, match="cap"):
        SpinSystem(sites=[Site(kind="nv_electron")] + [Site(kind="c13")] * 64)


def test_hyperfine_target_must_be_electron():
    with pytest.raises(SpecError, match="hyperfine"):
        SpinSystem(
            sites=[
                Site(kind="nv_electron"),
                Site(kind="c13", hyperfine=Hyperfine(InteractionTensor.axial(1.0, 2.0), 1)),
            ]
        )


def test_quadrupole_only_on_spin1_nuclei():
    with pytest.raises(SpecError, match="quadrupole"):
        SpinSystem(
            sites=[
                Site(kind="nv_electron"),
                Site(kind="c13", quadrupole=InteractionTensor.axial(0.0, -3.97)),
            ]
        )


def test_zfs_only_on_nv():
    with pytest.raises(SpecError, match="zfs"):
        SpinSystem(
            sites=[
                Site(kind="nv_electron"),
                Site(kind="p1_electron", zfs=ZfsParams()),
            ]
        )


def test_secular_ee_coupling_rejected():
    full = InteractionTensor(((5.0, 0, 0), (0, 5.0, 0), (0, 0, 5.0)))
    with pytest.raises(SpecError, match="secular"):
        SpinSystem(
            sites=[Site(kind="nv_electron"), Site(kind="nv_electron")],
            couplings=[Coupling(0, 1, full)],
        )


def test_self_coupling_rejected():
    with pytest.raises(SpecError, match="distinct"):
        SpinSystem(
            sites=[Site(kind="nv_electron"), Site(kind="nv_electron")],
            couplings=[Coupling(1, 1, transverse(5.0))],
        )


def test_axis_must_be_normalized():
    with pytest.raises(ValueError, match="normalized"):
        Site(kind="nv_electron", axis=(1.0, 1.0, 1.0))


def test_tensor_must_be_symmetric():
    with pytest.raises(ValueError, match="symmetric"):
        InteractionTensor(((0.0, 1.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)))


def test_gamma_override_round_trips():
    s = Site(kind="c13", gamma=2e-3)
    assert Site.from_dict(s.to_dict()) == s
    assert s.gamma_value == 2e-3


def test_lab_matrix_axial_identity_axis():
    t = InteractionTensor.axial(1.0, 3.0)
    assert np.allclose(t.lab_matrix(), np.diag([1.0, 1.0, 3.0]))


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Site(kind="c13", gamma=NAN), "gamma"),
        (lambda: Site(kind="c13", gamma=INF), "gamma"),
        (lambda: Site(kind="c13", gamma="fast"), "gamma"),
        (lambda: InteractionTensor.axial(NAN, 1.0), "finite"),
        (lambda: InteractionTensor.axial(1.0, 1.0, axis=(NAN, 0.0, 1.0)), "finite"),
        (lambda: Site(kind="nv_electron", axis=(NAN, NAN, NAN)), "finite"),
        (lambda: ZfsParams(d_x=INF), "d_x"),
        (lambda: ZfsParams(d_parallel=NAN), "d_parallel"),
    ],
    ids=["gamma-nan", "gamma-inf", "gamma-str", "tensor-nan", "tensor-axis-nan",
         "site-axis-nan", "zfs-inf", "zfs-nan"],
)
def test_non_finite_values_rejected(build, message):
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Site(kind="c13", gamma=1e300), "gamma must be a finite number within"),
        (lambda: Site(kind="c13", gamma=-2e6), "gamma must be a finite number within"),
        (lambda: InteractionTensor.axial(0.0, -1.5e6), "within"),
        (lambda: ZfsParams(d_y=1e306), "d_y must be a finite number within"),
    ],
    ids=["gamma-1e300", "gamma-minus-2e6", "tensor-1.5e6", "zfs-1e306"],
)
def test_magnitudes_above_cap_rejected(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_magnitudes_at_cap_accepted():
    site = Site(kind="c13", gamma=-1e6, hyperfine=Hyperfine(InteractionTensor.axial(1e6, -1e6), 0))
    spec = SpinSystem(sites=[Site(kind="nv_electron", zfs=ZfsParams(d_x=1e6)), site])
    assert SpinSystem.from_dict(spec.to_dict()) == spec
