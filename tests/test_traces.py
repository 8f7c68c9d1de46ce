"""Lorentzian-dip trace fitting: oracles, robustness, and invariances."""

import numpy as np
import pytest

from spin_atlas.traces import (
    Trace,
    TraceError,
    auto_seeds,
    dip_model,
    fit_dips,
    fit_report,
    load_trace,
    side_peak_separations,
)


def make_trace(centers, widths, depths, baseline=(1.0, 0.0),
               b=(450.0, 570.0, 1200), noise=0.0, seed=0):
    grid = np.linspace(b[0], b[1], b[2])
    params = list(baseline)
    for c, w, d in zip(centers, widths, depths):
        params.extend([c, w, d])
    pl = dip_model(np.array(params), grid)
    if noise:
        rng = np.random.default_rng(seed)
        pl = pl + rng.normal(scale=noise, size=pl.shape)
    return Trace(tuple(grid), tuple(pl))


def test_single_dip_oracle():
    trace = make_trace([512.0], [3.0], [0.02])
    fit = fit_dips(trace, seeds=[511.0])
    assert fit.converged
    dip = fit.dips[0]
    assert abs(dip.center - 512.0) < 1e-3
    assert abs(dip.hwhm - 3.0) < 1e-3
    assert abs(dip.depth - 0.02) < 1e-5
    assert fit.residual_rms < 1e-10
    assert abs(dip.contrast_percent() - 2.0) < 1e-3


def test_three_dip_recovery_with_noise():
    centers = [500.0, 512.0, 524.0]
    trace = make_trace(centers, [3.0, 2.5, 3.5], [0.02, 0.03, 0.015],
                       baseline=(1.0, -1e-5), noise=0.001, seed=42)
    fit = fit_dips(trace, seeds=[499.0, 511.5, 525.0])
    got = sorted(d.center for d in fit.dips)
    # Single-draw smoke check; the 0.1 G statistical bound (>= 95% of draws)
    # lives in the Monte-Carlo test below.
    for have, want in zip(got, centers):
        assert abs(have - want) < 0.15


def test_monte_carlo_center_recovery():
    # 100 random 3-dip traces at 0.1% noise: >= 95% of centers within 0.1 G
    # and separations within 0.2 G.
    rng = np.random.default_rng(2024)
    center_ok = sep_ok = total = 0
    for _ in range(100):
        centers = np.sort(rng.uniform(470.0, 550.0, size=3))
        while np.min(np.diff(centers)) < 8.0:
            centers = np.sort(rng.uniform(470.0, 550.0, size=3))
        widths = rng.uniform(2.0, 4.0, size=3)
        depths = rng.uniform(0.01, 0.05, size=3)
        trace = make_trace(centers, widths, depths, noise=0.001,
                           seed=int(rng.integers(1 << 31)))
        fit = fit_dips(trace, seeds=list(centers + rng.uniform(-1, 1, 3)))
        got = np.sort([d.center for d in fit.dips])
        center_ok += int(np.max(np.abs(got - centers)) < 0.1)
        want_sep = np.diff(centers)
        got_sep = np.diff(got)
        sep_ok += int(np.max(np.abs(got_sep - want_sep)) < 0.2)
        total += 1
    assert center_ok / total >= 0.95
    assert sep_ok / total >= 0.95


def test_fit_idempotent():
    trace = make_trace([512.0], [3.0], [0.02], noise=0.0)
    fit1 = fit_dips(trace, seeds=[511.0])
    fit2 = fit_dips(trace, seeds=[511.0])
    assert fit1.parameters().tolist() == fit2.parameters().tolist()


def test_shift_equivariance():
    # Shifting the field axis shifts fitted centers by the same amount.
    t1 = make_trace([512.0], [3.0], [0.02])
    shift = 40.0
    t2 = Trace(tuple(np.asarray(t1.field) + shift), t1.pl)
    c1 = fit_dips(t1, seeds=[511.0]).dips[0].center
    c2 = fit_dips(t2, seeds=[511.0 + shift]).dips[0].center
    assert abs((c2 - c1) - shift) < 1e-6


def test_scale_invariance_of_depth():
    # Scaling the PL axis leaves fractional depths unchanged.
    t1 = make_trace([512.0], [3.0], [0.02])
    t2 = Trace(t1.field, tuple(np.asarray(t1.pl) * 7.5))
    d1 = fit_dips(t1, seeds=[511.0]).dips[0]
    d2 = fit_dips(t2, seeds=[511.0]).dips[0]
    assert abs(d1.depth - d2.depth) < 1e-8
    assert abs(d1.center - d2.center) < 1e-6


def test_auto_seeds_find_prominent_dips():
    trace = make_trace([490.0, 530.0], [3.0, 3.0], [0.03, 0.04])
    seeds = auto_seeds(trace)
    assert any(abs(s - 490.0) < 1.0 for s in seeds)
    assert any(abs(s - 530.0) < 1.0 for s in seeds)


def test_shallow_dip_flagged_removable():
    trace = make_trace([512.0], [3.0], [0.02])
    fit = fit_dips(trace, seeds=[511.0, 540.0])  # second dip has no support
    flags = {round(d.center): d.removable for d in fit.dips}
    assert flags[512] is False
    removable = [d for d in fit.dips if d.removable]
    assert len(removable) == 1


def test_seed_validation():
    trace = make_trace([512.0], [3.0], [0.02])
    with pytest.raises(TraceError, match="range"):
        fit_dips(trace, seeds=[9999.0])
    with pytest.raises(TraceError, match="close"):
        fit_dips(trace, seeds=[512.0, 512.01])


def test_side_peak_separations():
    trace = make_trace([500.0, 512.0, 524.0], [3.0, 2.5, 3.5],
                       [0.02, 0.03, 0.015])
    fit = fit_dips(trace, seeds=[499.5, 512.5, 523.5])
    seps = side_peak_separations(fit, central=512.0)
    assert len(seps) == 2
    assert all(abs(s - 12.0) < 0.05 for s in seps)
    # Fewer than two dips: no separations.
    single = fit_dips(make_trace([512.0], [3.0], [0.02]), seeds=[511.0])
    assert side_peak_separations(single, central=512.0) == []


def test_fit_report_structure():
    import json

    trace = make_trace([500.0, 524.0], [3.0, 3.0], [0.02, 0.03])
    fit = fit_dips(trace, seeds=[499.0, 525.0])
    report = json.loads(fit_report(fit, central=500.0))
    assert {"dips", "baseline", "residual_rms", "converged"} <= report.keys()
    assert len(report["dips"]) == 2
    assert {"center_G", "hwhm_G", "depth", "contrast_percent"} <= report["dips"][0].keys()
    assert "separations_G" in report


def test_load_trace_errors(tmp_path):
    good = tmp_path / "ok.csv"
    rows = ["B_gauss,pl", "# temperature_K = 295"]
    rows += [f"{b:.2f},{1.0 - 0.01 / (1 + (b - 500) ** 2)}" for b in np.linspace(450, 550, 64)]
    good.write_text("\n".join(rows) + "\n")
    trace = load_trace(good)
    assert trace.temperature == 295.0
    assert len(trace.field) == 64

    bad_header = tmp_path / "bad_header.csv"
    bad_header.write_text("field,signal\n1,2\n")
    with pytest.raises(TraceError, match="header"):
        load_trace(bad_header)

    bad_value = tmp_path / "bad_value.csv"
    bad_value.write_text("B_gauss,pl\n" + "\n".join(f"{b},1.0" for b in range(20)) + "\nx,1.0\n")
    with pytest.raises(TraceError, match="non-numeric"):
        load_trace(bad_value)

    too_short = tmp_path / "short.csv"
    too_short.write_text("B_gauss,pl\n1.0,1.0\n2.0,1.0\n")
    with pytest.raises(TraceError):
        load_trace(too_short)

    not_sorted = tmp_path / "unsorted.csv"
    rows = ["B_gauss,pl"] + [f"{b},1.0" for b in range(20)] + ["5.0,1.0"]
    not_sorted.write_text("\n".join(rows) + "\n")
    with pytest.raises(TraceError, match="increasing"):
        load_trace(not_sorted)


@pytest.mark.parametrize("column", ["field", "pl"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_values_rejected(column, bad):
    grid = np.linspace(450.0, 550.0, 32)
    values = {"field": list(grid), "pl": [1.0] * len(grid)}
    values[column][-1] = bad
    with pytest.raises(TraceError, match="finite"):
        Trace(tuple(values["field"]), tuple(values["pl"]))
