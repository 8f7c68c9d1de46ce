"""Lorentzian-dip trace fitting: oracles, robustness, and invariances."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import least_squares

from spin_atlas import traces
from spin_atlas.traces import (
    Trace,
    TraceError,
    _jacobian,
    _lmder,
    _residuals,
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


@st.composite
def jacobian_points(draw):
    """(params, fields, pl): 1-7 dips of either width sign and a depth that is
    zero or of either sign, on a sloped baseline that stays positive; fields
    at, near and far from the centers."""
    real = lambda lo, hi: st.floats(lo, hi, allow_nan=False)  # noqa: E731
    signed = lambda lo, hi: st.builds(  # noqa: E731
        lambda x, sign: sign * x, real(lo, hi), st.sampled_from([-1.0, 1.0]))
    params = [draw(real(1.0, 10.0)), draw(signed(1e-6, 5e-4))]
    fields = list(np.linspace(0.0, 1200.0, 41))
    for _ in range(draw(st.integers(1, 7))):
        c, w = draw(real(400.0, 600.0)), draw(signed(0.5, 20.0))
        params.extend([c, w, draw(st.one_of(st.just(0.0), signed(1e-3, 0.5)))])
        fields.extend(c + k * w for k in (-30.0, -3.0, -1.0, -0.1, 0.0, 0.1, 1.0, 3.0, 30.0))
    b = np.array(fields)
    pl = draw(real(0.0, 2.0)) + 0.01 * np.sin(b)
    return np.array(params), b, pl


@settings(max_examples=200, deadline=None)
@given(point=jacobian_points())
def test_jacobian_matches_central_difference(point):
    params, b, pl = point
    jac = _jacobian(params, b, pl)
    assert jac.shape == (len(b), len(params))
    # A dip's center and width step by 1e-4 of its width, so truncation error
    # stays below 1e-6; every step is large enough that the residual's
    # roundoff does too.
    steps = np.full(len(params), 1e-4)
    steps[2::3] = steps[3::3] = 1e-4 * np.abs(params[3::3])
    for i, h in enumerate(steps):
        up, down = params.copy(), params.copy()
        up[i] += h
        down[i] -= h
        num = (_residuals(up, b, pl) - _residuals(down, b, pl)) / (up[i] - down[i])
        scale = max(np.max(np.abs(num)), np.max(np.abs(jac[:, i])))
        assert np.max(np.abs(jac[:, i] - num)) <= 1e-6 * scale, i


def test_fit_evaluates_the_model_once_per_step(monkeypatch):
    # A finite-difference Jacobian would add 2 + 3 per dip model evaluations
    # for every Jacobian; the analytic one adds none.
    calls = []

    def counting_model(params, b):
        calls.append(1)
        return dip_model(params, b)

    monkeypatch.setattr("spin_atlas.traces.dip_model", counting_model)
    trace = make_trace([500.0, 512.0, 524.0], [3.0, 2.5, 3.5], [0.02, 0.03, 0.015],
                       baseline=(1.0, -1e-5), noise=0.001, seed=42)
    fit = fit_dips(trace, seeds=[499.0, 511.5, 525.0])
    assert fit.converged
    # The start's residual, evaluated for the finiteness check, is the fit's
    # first evaluation.
    assert len(calls) == fit.iterations


class _Start(Exception):
    pass


def fit_start(trace, seeds):
    """The parameters ``fit_dips`` starts its Levenberg-Marquardt from."""
    def stop(x, f, b, pl):
        raise _Start(x)

    with mock.patch.object(traces, "_lmder", stop), pytest.raises(_Start) as start:
        fit_dips(trace, seeds)
    return start.value.args[0]


def assert_matches_minpack(x0, b, pl):
    """The port from ``x0`` ends as scipy's MINPACK does; returns its nfev.

    ``x_scale="jac"`` and ``max_nfev=100 n`` are scipy's defaults for "lm" only
    since scipy 1.16; passing them makes the oracle the same on older scipy.
    """
    with np.errstate(all="ignore"):
        ref = least_squares(_residuals, x0, jac=_jacobian, method="lm", x_scale="jac",
                            max_nfev=100 * len(x0), args=(b, pl))
        x, _, nfev, info = _lmder(x0, _residuals(x0, b, pl), b, pl)
    assert (nfev, info <= 4) == (ref.nfev, ref.status > 0)
    # Relative in MINPACK's scaled norm ||D x||, D the Jacobian's column
    # norms, in which its xtol test is posed. Near the minimum the last steps
    # are set by roundoff, so a weakly determined component (a slope near
    # zero, the width of a sparsely sampled dip) can differ by up to 1e-5
    # relative on its own.
    d = np.linalg.norm(_jacobian(ref.x, b, pl), axis=0)
    d[d == 0] = 1.0
    assert np.linalg.norm(d * (x - ref.x)) <= 1e-9 * np.linalg.norm(d * ref.x), (x, ref.x)
    return nfev


@st.composite
def noisy_fits(draw):
    """(trace, seeds): 1-7 dips 9-21 G apart with 1.5-3 G half widths and 2-6 %
    depth on a sloped baseline, noise of 0-0.1 %, each seed within 1 G of its
    dip: the regime of the bench's synthetic traces.

    Fits that are ill-posed (dips merging, depth below the noise) or that
    crawl for hundreds of steps from a far seed amplify roundoff, so there
    the port and scipy, whose QR factorisations round differently, part ways;
    those are not drawn.
    """
    real = lambda lo, hi: st.floats(lo, hi, allow_nan=False)  # noqa: E731
    n_dips = draw(st.integers(1, 7))
    spacing = draw(real(9.0, 21.0))
    centers = [500.0 + spacing * k + draw(real(-3.0, 3.0)) for k in range(n_dips)]
    trace = make_trace(centers, [draw(real(1.5, 3.0)) for _ in centers],
                       [draw(real(0.02, 0.06)) for _ in centers],
                       baseline=(draw(real(0.9, 1.1)), draw(real(-1e-4, 1e-4))),
                       b=(centers[0] - spacing, centers[-1] + spacing,
                          draw(st.integers(300, 2000))),
                       noise=draw(st.sampled_from([0.0, 1e-4, 1e-3])),
                       seed=draw(st.integers(0, 2**32 - 1)))
    return trace, [c + draw(real(-1.0, 1.0)) for c in centers]


# Over 3 000 random draws the largest difference was 5e-10 of the bound's
# 1e-9, so a fixed sample keeps this test from failing on a rare draw.
@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=noisy_fits())
def test_port_matches_scipy_minpack(case):
    trace, seeds = case
    assert_matches_minpack(fit_start(trace, seeds), np.asarray(trace.field), np.asarray(trace.pl))


@pytest.mark.parametrize("points, offsets", [(300, [4.0, -4.0, 2.0]), (1200, [-6.0, 5.0, -2.0])])
def test_far_seeds_match_scipy(points, offsets):
    # Seeds 2-6 G off: steps are cut back to the trust region and rejected,
    # so lmpar's Newton iteration and the step-bound updates all take part.
    centers = [500.0, 512.0, 524.0]
    trace = make_trace(centers, [3.0, 2.5, 3.5], [0.02, 0.03, 0.015], baseline=(1.0, -1e-5),
                       b=(450.0, 570.0, points), noise=0.001, seed=42)
    seeds = [c + o for c, o in zip(centers, offsets)]
    assert_matches_minpack(fit_start(trace, seeds), np.asarray(trace.field), np.asarray(trace.pl))


def test_zero_residual_ends_the_fit():
    true = np.array([1.0, -1e-5, 500.0, 3.0, 0.02, 520.0, 2.0, 0.03])
    b = np.linspace(450.0, 570.0, 400)
    pl = dip_model(true, b)
    # At the exact parameters the first residual is zero: one evaluation, no
    # division by its norm.
    assert assert_matches_minpack(true, b, pl) == 1
    # From a start off the exact data, the residual falls to roundoff.
    assert_matches_minpack(true + [0.01, 0.0, 0.5, 0.2, 0.005, -0.5, 0.3, -0.01], b, pl)


def test_zero_depth_dip_takes_the_least_squares_step():
    true = np.array([1.0, -1e-5, 500.0, 3.0, 0.02, 520.0, 2.0, 0.03])
    b = np.linspace(450.0, 570.0, 400)
    pl = dip_model(true, b) + np.random.default_rng(1).normal(0.0, 1e-3, len(b))
    start = true.copy()
    start[4] = 0.0
    # The flat dip's center and width columns of J vanish; MINPACK's pivoting
    # leaves them out of the Gauss-Newton step, and so must the port.
    assert not np.any(_jacobian(start, b, pl)[:, 2:4])
    assert_matches_minpack(start, b, pl)


@pytest.mark.parametrize("poison", ["nan", "one inf", "inf"])
def test_fit_through_a_non_finite_residual_matches_scipy(monkeypatch, poison):
    # The model turns non-finite once the first center passes halfway from
    # its start to where the unhindered fit takes it, so steps across that
    # line fail and the fit ends short of it.
    trace = make_trace([500.0, 512.0, 524.0], [3.0, 2.5, 3.5], [0.02, 0.03, 0.015],
                       baseline=(1.0, -1e-5), noise=0.001, seed=42)
    seeds = [499.0, 511.5, 525.0]
    start = fit_start(trace, seeds)
    line = 0.5 * (start[2] + fit_dips(trace, seeds).dips[0].center)
    model = traces.dip_model
    calls = []

    def poisoned(params, b):
        calls.append(1)
        out = model(params, b)
        if params[2] > line:
            out = out.copy()
            if poison == "one inf":
                out[7] = np.inf
            else:
                out[:] = np.nan if poison == "nan" else np.inf
        return out

    monkeypatch.setattr("spin_atlas.traces.dip_model", poisoned)
    b, pl = np.asarray(trace.field), np.asarray(trace.pl)
    nfev = assert_matches_minpack(start, b, pl)
    calls.clear()
    fit = fit_dips(trace, seeds)
    assert fit.iterations == nfev == len(calls) <= 100 * len(start)
    assert fit.converged and fit.dips[0].center <= line


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


def test_huge_trace_fits_as_the_unscaled_one():
    """PL scaled by 1e200 squares past the float range, but the fit and its
    residual norm do not: the same centers, and the RMS scaled by 1e200."""
    trace = make_trace([500.0, 512.0, 524.0], [3.0, 2.5, 3.5], [0.02, 0.03, 0.015],
                       baseline=(1.0, -1e-5), noise=0.001, seed=42)
    huge = Trace(trace.field, tuple(np.asarray(trace.pl) * 1e200))
    seeds = [499.0, 511.5, 525.0]
    fit, huge_fit = fit_dips(trace, seeds=seeds), fit_dips(huge, seeds=seeds)
    assert huge_fit.converged
    for have, want in zip(huge_fit.dips, fit.dips):
        assert abs(have.center - want.center) < 1e-9
    assert huge_fit.residual_rms == pytest.approx(1e200 * fit.residual_rms, rel=1e-12)


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


def test_non_finite_initial_model_rejected():
    # Baseline ends at +-1e308: the initial slope overflows.
    trace = make_trace([512.0], [3.0], [0.02], b=(450.0, 570.0, 40))
    pl = np.ones(len(trace.pl))
    pl[:3], pl[-3:] = 1e308, -1e308
    with np.errstate(invalid="ignore"), pytest.raises(TraceError, match="not finite"):
        fit_dips(Trace(trace.field, tuple(pl)), seeds=[512.0])


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
