"""Command-line interface: determinism, config precedence, exit codes."""

import argparse
import contextlib
import dataclasses
import io
import json
import os
import stat
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spin_atlas.catalog import get_system, list_systems
from spin_atlas.cli import build_parser, main
from spin_atlas.sweep import SweepConfig, SweepResult
from spin_atlas.system import SpinSystem
from spin_atlas.traces import Trace, auto_seeds, dip_model


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_catalog_lists_systems(capsys):
    code, out, _ = run(["catalog"], capsys)
    assert code == 0
    assert "nv-p1" in out and "2onv-p1" in out


def test_catalog_json_format(capsys):
    code, out, _ = run(["catalog", "--format", "json"], capsys)
    assert code == 0
    ids = [e["id"] for e in json.loads(out)]
    assert "2nv-13c" in ids


def test_sweep_csv_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["sweep", "--system", "nv", "--bmin", "0.5", "--bmax", "100",
            "--points", "16", "--out"]
    assert main(argv + [str(a)]) == 0
    assert main(argv + [str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    header = a.read_text().splitlines()[0]
    assert header == "B_gauss,eps_0,eps_1,eps_2,p_0,p_1,p_2"


def test_features_reports_expected_structure(capsys):
    code, out, _ = run(
        ["features", "--system", "nv", "--bmin", "1000", "--bmax", "1050",
         "--points", "128"], capsys)
    assert code == 0
    report = json.loads(out)
    feats = report["features"]
    assert len(feats) == 1
    assert abs(feats[0]["center_G"] - 1024.26) < 0.05
    assert feats[0]["kind"] == "true"
    assert {"span_G", "min_gap_MHz", "lines"} <= feats[0].keys()


def test_features_default_range_nv_nv(capsys):
    code, out, _ = run(["features", "--system", "nv-nv", "--temp", "300"], capsys)
    assert code == 0
    centers = [f["center_G"] for f in json.loads(out)["features"]]
    assert any(abs(ctr - 591.0) <= 2.0 for ctr in centers)


def test_features_csv_format(capsys):
    code, out, _ = run(
        ["features", "--system", "nv", "--bmin", "1000", "--bmax", "1050",
         "--points", "128", "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "center_G,span_lo_G,span_hi_G,kind,min_gap_MHz,n_lines"
    assert lines[1].split(",")[3] == "true"


def test_sweep_json_format(capsys):
    code, out, _ = run(
        ["sweep", "--system", "nv", "--bmin", "0.5", "--bmax", "10",
         "--points", "4", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert len(payload["field_G"]) == 4
    assert len(payload["eigenvalues_MHz"][0]) == 3


def test_unknown_system_exits_1(capsys):
    code, _, err = run(["features", "--system", "nope"], capsys)
    assert code == 1
    assert "available ids" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--system", "nv", "--points", "many"],
        ["unknown-command"],
        # Each command takes only the options it reads.
        ["sweep", "--system", "nv", "--gap-true", "0.1"],
        ["sweep", "--system", "nv", "--cluster-radius", "3"],
        ["catalog", "--config", "c.json"],
        ["fit-trace", "t.csv", "--seeds", "350", "--config", "c.json"],
    ],
    ids=["points-not-a-number", "unknown-command", "sweep-gap-true",
         "sweep-cluster-radius", "catalog-config", "fit-trace-config"],
)
def test_malformed_flags_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


# The flags of features and tshift that are not detection settings.
_OTHER_FLAGS = {"-h", "--help", "--system", "--spec", "--config", "--points", "--bmin", "--bmax",
                "--temp", "--format", "--out", "--feature", "--tmin", "--tmax", "--tstep"}


@pytest.mark.parametrize(
    "argv",
    [["features", "--system", "nv"], ["tshift", "--system", "nv", "--feature", "1024"]],
    ids=["features", "tshift"],
)
def test_detection_flags_are_the_sweep_config_fields(argv, capsys):
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = {s for a in subparsers.choices[argv[0]]._actions for s in a.option_strings}
    fields = {"--" + f.name.replace("_", "-") for f in dataclasses.fields(SweepConfig)}
    assert flags - _OTHER_FLAGS == fields == {"--gap-ceiling", "--cluster-radius"}
    # The p-jump threshold and the true-crossing gap are fixed.
    for flag in ("--jump-threshold", "--gap-true"):
        with pytest.raises(SystemExit) as exc:
            main(argv + [flag, "0.1"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--bmin", "--bmax", "--temp", "--points"])
def test_tshift_rejects_sweep_range_flags(flag, capsys):
    # tshift always locates at 300 K within 25 G of --feature, on a grid
    # set by the system.
    with pytest.raises(SystemExit) as exc:
        main(["tshift", "--system", "nv", "--feature", "1024", flag, "500"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_invalid_range_exits_1(capsys):
    code, _, err = run(
        ["sweep", "--system", "nv", "--bmin", "500", "--bmax", "100"], capsys)
    assert code == 1
    assert "b_min" in err or "range" in err


def test_config_precedence(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bmin": 1000.0, "bmax": 1050.0, "points": 64}))
    # Config supplies the window; flags override points.
    code, out, _ = run(
        ["sweep", "--system", "nv", "--config", str(cfg), "--points", "8"],
        capsys)
    assert code == 0
    rows = out.strip().splitlines()
    assert len(rows) == 9  # header + 8 points (flag wins over config's 64)
    assert rows[1].startswith("1000.00")
    assert rows[-1].startswith("1050.00")


def test_malformed_config_exits_1(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    code, _, err = run(
        ["sweep", "--system", "nv", "--config", str(cfg)], capsys)
    assert code == 1
    assert "config" in err


def test_spec_file_escape_hatch(tmp_path, capsys):
    from spin_atlas.catalog import get_system

    spec = tmp_path / "custom.json"
    spec.write_text(get_system("nv").system.to_json())
    code, out, _ = run(
        ["features", "--spec", str(spec), "--bmin", "1000", "--bmax", "1050",
         "--points", "128"], capsys)
    assert code == 0
    assert json.loads(out)["features"]


def test_invalid_spec_file_exits_1(tmp_path, capsys):
    spec = tmp_path / "bad.json"
    spec.write_text(json.dumps({"sites": []}))
    code, _, err = run(["features", "--spec", str(spec)], capsys)
    assert code == 1


def _nv_p1_with(path, value):
    payload = get_system("nv-p1").system.to_dict()
    node = payload
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return payload


@pytest.mark.parametrize(
    "payload",
    [
        {"sites": 5},
        {"sites": [5]},
        [1],
        _nv_p1_with(("sites", 0, "axis"), 1),
        _nv_p1_with(("sites", 1, "gamma"), "fast"),
        _nv_p1_with(("sites", 1, "gamma"), float("nan")),
        _nv_p1_with(("sites", 2, "hyperfine", "matrix", 0, 0), float("nan")),
        _nv_p1_with(("sites", 0, "zfs", "d_x"), float("inf")),
        _nv_p1_with(("probe_site",), 0.9),
        _nv_p1_with(("probe_site",), False),
        _nv_p1_with(("couplings", 0, "site_b"), 1.6),
        _nv_p1_with(("sites", 2, "hyperfine", "to"), 1.4),
        # Finite but far above the magnitude cap: eigenvalues near 1e302, or
        # an eigensolve that does not converge.
        _nv_p1_with(("sites", 1, "gamma"), 1e300),
        _nv_p1_with(("sites", 1, "gamma"), 1e306),
        # Finite components whose norm overflows.
        _nv_p1_with(("sites", 1, "axis"), [1e200, 0.0, 1e200]),
    ],
    ids=["sites-int", "sites-list-int", "top-list", "axis-int", "gamma-str",
         "gamma-nan", "hyperfine-nan", "zfs-inf", "probe-0.9", "probe-bool",
         "coupling-1.6", "hyperfine-to-1.4", "gamma-1e300", "gamma-1e306",
         "axis-1e200"],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_malformed_spec_payloads_exit_1(payload, tmp_path, capsys):
    spec = tmp_path / "bad.json"
    spec.write_text(json.dumps(payload))
    code, out, err = run(["sweep", "--spec", str(spec), "--points", "4"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith(f"spin-atlas: error: invalid spec file {spec}")
    assert len(err.splitlines()) == 1


_ZERO = [[0.0] * 3] * 3


@pytest.mark.parametrize(
    "path",
    [("sites", 2, "quadrupole", "matrix"), ("sites", 2, "hyperfine", "matrix"),
     ("couplings", 0, "matrix")],
    ids=["quadrupole", "hyperfine", "coupling"],
)
def test_all_zero_tensor_spec_sweeps(path, tmp_path, capsys):
    spec = tmp_path / "zero.json"
    spec.write_text(json.dumps(_nv_p1_with(path, _ZERO)))
    code, out, err = run(["sweep", "--spec", str(spec), "--points", "4"], capsys)
    assert code == 0 and err == ""
    assert len(out.splitlines()) == 5


# Catalog presets whose 2-point sweep takes milliseconds (d <= 108).
_FUZZ_IDS = [i for i, _ in list_systems() if get_system(i).system.dimension <= 108]
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=12), inner, max_size=3),
    max_leaves=6,
)


def _paths(node, prefix=()):
    """Every position in a JSON tree, as the key/index path leading to it."""
    yield prefix
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, prefix + (key,))


@st.composite
def mutated_payloads(draw):
    """A catalog ``to_dict()`` payload with 1-3 values replaced or deleted."""
    payload = get_system(draw(st.sampled_from(_FUZZ_IDS))).system.to_dict()
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        path = draw(st.sampled_from(list(_paths(payload))))
        if not path:
            payload = draw(_JSON_VALUES)
            continue
        node = payload
        for key in path[:-1]:
            node = node[key]
        if draw(st.booleans()):
            del node[path[-1]]
        else:
            node[path[-1]] = draw(_JSON_VALUES)
    return payload


@settings(max_examples=150, deadline=None)
@given(payload=mutated_payloads())
def test_mutated_spec_payloads_fail_cleanly(payload):
    """A payload builds a system or raises ValueError (SpecError included);
    the CLI exits 0 or 1 on it and never raises."""
    try:
        SpinSystem.from_dict(payload)
        valid = True
    except ValueError:
        valid = False
    with tempfile.TemporaryDirectory() as tmp:
        spec = Path(tmp) / "spec.json"
        spec.write_text(json.dumps(payload))
        argv = ["sweep", "--spec", str(spec), "--points", "2", "--bmin", "0",
                "--bmax", "1", "--out", str(Path(tmp) / "out.csv")]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(argv)
    if valid:
        assert code in (0, 1)
    else:
        assert code == 1
        assert "spin-atlas: error: invalid spec file" in err.getvalue()


def test_tshift_slope_and_format(capsys):
    code, out, _ = run(
        ["tshift", "--system", "nv", "--feature", "1024", "--tmin", "100",
         "--tmax", "300", "--tstep", "100"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "T_K,center_G,delta_B_G"
    slope_line = [ln for ln in lines if ln.startswith("# slope_300K")][0]
    slope = float(slope_line.split("=")[1])
    assert abs(slope - (-0.0251)) < 0.001
    # Reference row shifts by definition zero.
    ref = [ln for ln in lines if ln.startswith("300.00")][0]
    assert ref.endswith(",0.00")


TSHIFT_NEAR_REF = ["tshift", "--system", "nv", "--feature", "1024", "--tmin", "290", "--tmax", "300", "--tstep", "10"]


def test_tshift_ignores_config_points(tmp_path, capsys):
    # The locate grid comes from the system, as the window from --feature.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"points": 10**12, "bmin": 5.0}))
    plain = run(TSHIFT_NEAR_REF, capsys)
    assert plain[0] == 0 and run(TSHIFT_NEAR_REF + ["--config", str(cfg)], capsys) == plain


def test_tshift_lost_slope_point_exits_1(tmp_path, capsys):
    # D(300 K) is unchanged, but D falls about 2.9 MHz/K there, so the
    # feature moves about 1 G/K and leaves its 5 G search window 5 K away.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"thermal_model": {"c1": -3000, "d0": 3216.2474588242826}}))
    code, out, err = run(TSHIFT_NEAR_REF + ["--config", str(cfg)], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("spin-atlas: error:") and "5 K of the reference" in err
    assert len(err.splitlines()) == 1


def _one_dip_trace(path, points):
    """A noiseless 470-550 G trace with one 3 G wide dip at 512 G."""
    grid = np.linspace(470.0, 550.0, points)
    pl = dip_model(np.array([1.0, 0.0, 512.0, 3.0, 0.02]), grid)
    path.write_text(
        "B_gauss,pl\n" + "\n".join(f"{b:.4f},{v:.8f}" for b, v in zip(grid, pl))
    )
    return path


@st.composite
def quantised_dips(draw):
    """(field grid, integer PL counts, center, hwhm) of one noise-free
    Lorentzian dip at least 10 counts deep, well inside a 201-point trace."""
    field = np.linspace(300.0, 400.0, 201)
    center = draw(st.floats(330.0, 370.0))
    hwhm = draw(st.floats(1.0, 5.0))
    counts = draw(st.floats(200.0, 1e5))
    depth = draw(st.floats(max(0.02, 10.0 / counts), 0.3))
    pl = np.round(dip_model(np.array([counts, 0.0, center, hwhm, depth]), field))
    return field, pl, center, hwhm


@settings(max_examples=60, deadline=None)
@given(dip=quantised_dips())
def test_quantised_dip_gets_one_seed(dip):
    field, pl, center, hwhm = dip
    seeds = auto_seeds(Trace(tuple(field), tuple(pl)))
    assert len(seeds) == 1 and abs(seeds[0] - center) <= hwhm
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        path.write_text("B_gauss,pl\n" + "\n".join(f"{b:.2f},{v:.0f}" for b, v in zip(field, pl)))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["fit-trace", str(path)]) == 0
    dips = json.loads(out.getvalue())["dips"]
    assert [d["removable"] for d in dips] == [False]


def test_fit_trace_roundtrip(tmp_path, capsys):
    path = _one_dip_trace(tmp_path / "trace.csv", 600)
    code, out, _ = run(
        ["fit-trace", str(path), "--seeds", "511", "--central", "512"], capsys)
    assert code == 0
    report = json.loads(out)
    assert abs(report["dips"][0]["center_G"] - 512.0) < 0.01
    assert report["separations_G"] == []


@pytest.mark.parametrize(
    "points, flags, message",
    [
        (600, ["--seeds", "nan"], "seeds must be finite"),
        (600, ["--seeds", "511,inf"], "seeds must be finite"),
        (600, ["--seeds=-inf"], "seeds must be finite"),
        (600, ["--seeds", "511", "--central", "inf"], "--central must be finite"),
        (600, ["--seeds", "511", "--central", "nan"], "--central must be finite"),
        # 7 dips need 23 parameters; the trace has 20 points.
        (20, ["--seeds", "475,485,495,505,515,525,535"], "only 20 points"),
    ],
    ids=["seed-nan", "seed-inf", "seed-minus-inf", "central-inf", "central-nan",
         "more-dips-than-points"],
)
def test_fit_trace_bad_inputs_exit_1(points, flags, message, tmp_path, capsys):
    path = _one_dip_trace(tmp_path / "trace.csv", points)
    code, out, err = run(["fit-trace", str(path)] + flags, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("spin-atlas: error:") and message in err


def test_fit_trace_bad_file_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("nope\n")
    code, _, err = run(["fit-trace", str(bad)], capsys)
    assert code == 1


def test_fit_trace_non_finite_exits_1(tmp_path, capsys):
    grid = np.linspace(470.0, 550.0, 64)
    rows = [f"{b:.4f},1.0" for b in grid]
    rows[10] = f"{grid[10]:.4f},nan"
    path = tmp_path / "nan.csv"
    path.write_text("B_gauss,pl\n" + "\n".join(rows) + "\n")
    code, out, err = run(["fit-trace", str(path)], capsys)
    assert code == 1
    assert out == ""
    assert "finite" in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "flags, message",
    [([], "no dip seeds"), (["--seeds", "510"], "initial model is not finite")],
    ids=["auto-seeds", "seeded"],
)
def test_fit_trace_overflowing_baseline_exits_1(flags, message, tmp_path, capsys):
    # Baseline ends at +-1e308: the end-to-end slope and the initial model
    # overflow, which must give one error line and no NumPy warning.
    grid = np.linspace(470.0, 550.0, 40)
    pl = np.ones(40)
    pl[:5], pl[-5:] = 1e308, -1e308
    path = tmp_path / "huge.csv"
    rows = [f"{b!r},{v!r}" for b, v in zip(grid.tolist(), pl.tolist())]
    path.write_text("B_gauss,pl\n" + "\n".join(rows) + "\n")
    code, out, err = run(["fit-trace", str(path)] + flags, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith(f"spin-atlas: error: {message}")
    assert len(err.splitlines()) == 1


def test_fit_trace_non_utf8_exits_1(tmp_path, capsys):
    path = tmp_path / "latin1.csv"
    path.write_bytes("B_gauss,pl\n# temperature_K = 300 \xb0\n".encode("latin-1"))
    code, out, err = run(["fit-trace", str(path)], capsys)
    assert code == 1
    assert out == ""
    assert "not UTF-8" in err


_CSV_JUNK = st.text(alphabet="B_gauspl,#=.-+e0123456789 naif", max_size=10)
_ANY_FLOAT = st.floats(width=64)


@st.composite
def fit_trace_inputs(draw):
    """(CSV text, seeds, central) for ``fit-trace``: mostly a valid trace of
    12-48 rows, with 0-2 of each kind of damage (bad header, ``#`` metadata
    rows, junk or short rows, extreme or non-finite values), and 0-8 seeds
    mostly inside the field range."""
    def damage():
        return range(max(0, draw(st.integers(-6, 2))))

    header = "B_gauss,pl"
    for _ in damage():
        header = draw(st.sampled_from([" B_gauss , pl ", "pl,B_gauss",
                                       "B_gauss,pl,extra", ""]) | _CSV_JUNK)
    start = draw(st.floats(-1e3, 1e3))
    step = draw(st.floats(1e-3, 10.0))
    n = draw(st.integers(12, 48))
    field = [start + k * step for k in range(n)]
    pls = draw(st.lists(st.floats(0.5, 1.5), min_size=n, max_size=n))
    for _ in damage():
        pls[draw(st.integers(0, n - 1))] = draw(_ANY_FLOAT)
    rows = [f"{b!r},{v!r}" for b, v in zip(field, pls)]
    for _ in damage():
        rows.insert(draw(st.integers(0, n)), draw(st.sampled_from(
            ["# temperature_K = ", "# temperature_K", "#", "# note: "]
        )) + draw(_ANY_FLOAT.map(repr) | _CSV_JUNK))
    for _ in damage():
        k = draw(st.integers(0, len(rows) - 1))
        rows[k] = draw(st.sampled_from([rows[k].split(",")[0], rows[k] + ",",
                                        rows[0], ""]) | _CSV_JUNK)
    text = "\n".join([header] + rows) + draw(st.sampled_from(["", "\n"]))

    in_range = st.floats(0.0, 1.0).map(lambda x: start + x * (n - 1) * step)
    seeds = draw(st.none() | st.lists(in_range, min_size=1, max_size=8))
    for _ in damage() if seeds else ():
        seeds[draw(st.integers(0, len(seeds) - 1))] = draw(_ANY_FLOAT)
    central = draw(st.none() | in_range | _ANY_FLOAT)
    return text, seeds, central


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(inputs=fit_trace_inputs())
def test_malformed_trace_csv_fails_cleanly(inputs):
    """fit-trace on malformed CSV exits 0 with a finite report or 1 with an
    error message; it never raises."""
    text, seeds, central = inputs
    with tempfile.TemporaryDirectory() as tmp:
        trace = Path(tmp) / "trace.csv"
        trace.write_text(text, encoding="utf-8")
        out = Path(tmp) / "fit.json"
        argv = ["fit-trace", str(trace), "--out", str(out)]
        if seeds:
            argv.append("--seeds=" + ",".join(repr(s) for s in seeds))
        if central is not None:
            argv.append(f"--central={central!r}")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(argv)
        report = out.read_text() if code == 0 else None
    assert code in (0, 1)
    if code == 1:
        assert err.getvalue().startswith("spin-atlas: error:")
    else:
        json.loads(report, parse_constant=pytest.fail)


def test_config_non_utf8_exits_1(tmp_path, capsys):
    cfg = tmp_path / "latin1.json"
    cfg.write_bytes('{"bmin": 1.0, "note": "\xb0"}'.encode("latin-1"))
    code, out, err = run(["sweep", "--system", "nv", "--config", str(cfg)], capsys)
    assert code == 1
    assert out == ""
    assert "malformed config file" in err


def test_detection_settings_precedence(tmp_path, monkeypatch, capsys):
    # flag > config file > catalog entry > SweepConfig default
    seen = []

    def fake_find_features(system, bmin, bmax, points, *, config, **kwargs):
        seen.append((points, config))
        return []

    monkeypatch.setattr("spin_atlas.cli.find_features", fake_find_features)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"cluster_radius": 7.0, "gap_ceiling": 45.0}))
    base = ["features", "--system", "2nv-13c"]
    assert main(base) == 0
    assert main(base + ["--config", str(cfg)]) == 0
    assert main(base + ["--config", str(cfg), "--cluster-radius", "3"]) == 0
    assert main(["features", "--system", "nv-onv-13c"]) == 0
    capsys.readouterr()
    (points, entry), (_, config), (_, flag), (_, other) = seen
    assert points == 4096
    assert (entry.cluster_radius, entry.gap_ceiling) == (10.0, 30.0)
    assert (config.cluster_radius, config.gap_ceiling) == (7.0, 45.0)
    assert (flag.cluster_radius, flag.gap_ceiling) == (3.0, 45.0)
    assert (other.cluster_radius, other.gap_ceiling) == (10.0, 60.0)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["features", "--gap-ceiling", "-1"], "gap_ceiling"),
        (["features", "--cluster-radius", "nan"], "cluster_radius"),
        (["features", "--temp", "inf"], "temperature"),
        (["features", "--temp", "nan"], "temperature"),
        (["features", "--bmax", "inf"], "b_max"),
        (["tshift", "--feature", "1024", "--tstep", "1e-9"], "cap"),
        (["tshift", "--feature", "1024", "--tmax", "inf"], "temperature grid"),
        (["tshift", "--feature", "nan"], "--feature"),
        (["tshift", "--feature", "inf"], "--feature"),
        (["tshift", "--feature", "-50"], "--feature"),
        (["tshift", "--feature", "2000"], "--feature"),
        (["sweep", "--temp", "20000", "--bmin", "0.5", "--bmax", "10", "--points", "2"], "D(20000 K)"),
        (["features", "--temp", "1e308"], "D(1e+308 K)"),
        (["tshift", "--feature", "1024", "--tmin", "4", "--tmax", "40000", "--tstep", "5000"], "D(15004 K)"),
        (["sweep", "--bmin", "-100", "--bmax", "-50", "--points", "4"], "b_min"),
        (["features", "--bmin", "-1100", "--bmax", "-900", "--points", "256"], "b_min"),
        (["sweep", "--points", "1000000000000"], "cap of 16384"),
        (["sweep", "--bmin", "0", "--bmax", "1e308", "--points", "3"], "b_max"),
        (["features", "--bmin", "0", "--bmax", "1e300", "--points", "8"], "b_max"),
        (["sweep", "--points", "1"], "at least 2"),
        (["features", "--points", "0"], "at least 2"),
        (["sweep", "--points", "-7"], "at least 2"),
        (["sweep", "--points", "0"], "at least 2"),
        (["features", "--points", "1"], "at least 2"),
        (["tshift", "--feature", "1024", "--tmin", "4", "--tmax", "300", "--tstep", "1e-320"], "cap"),
        # At 1e17 K a 1 K step does not move t, which once looped forever.
        (["tshift", "--feature", "1024", "--tmin", "1e17", "--tmax", "1.0000000000000003e17", "--tstep", "1"],
         "resolution"),
        # Rounded without these checks, the grid held a 0 K row, and eight 300 K rows.
        (["tshift", "--feature", "1024", "--tmin", "4e-7", "--tmax", "1", "--tstep", "1"], "--tmin 4e-07 rounds to 0 K"),
        (["tshift", "--feature", "1024", "--tmin", "299.9999995", "--tmax", "300.000001", "--tstep", "2e-7"],
         "--tstep 2e-07 is below the grid's resolution"),
        # T_K is printed to 0.01 K, so a finer grid would print 0.00 K or repeated rows.
        (["tshift", "--feature", "1024", "--tmin", "0.004"], "--tmin 0.004 rounds to 0 K at the grid's 0.01 K"),
        (["tshift", "--feature", "1024", "--tmin", "4", "--tmax", "4.004", "--tstep", "0.001"],
         "--tstep 0.001 is below the grid's resolution at 4.001 K (0.01 K"),
    ],
)
def test_out_of_range_inputs_exit_1(argv, message, capsys, monkeypatch):
    if argv[0] == "tshift":
        # tshift checks its inputs before it locates the feature.
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the inputs were checked")

        monkeypatch.setattr("spin_atlas.cli.find_features", no_solve)
        grid = []
    else:
        grid = ["--points", "16", "--bmin", "1000", "--bmax", "1050"]
    args = argv[:1] + ["--system", "nv"] + grid + argv[1:]
    code, out, err = run(args, capsys)
    assert code == 1
    assert out == ""
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize(
    "command, cfg, message",
    [
        ("sweep", {"bmin": "abc"}, "bmin"),
        ("features", {"temp": None}, "temp"),
        ("tshift", {"tstep": [1]}, "tstep"),
        ("sweep", {"thermal_model": "abc"}, "thermal_model"),
        ("features", {"thermal_model": {"d0": "abc"}}, "thermal_model"),
        ("tshift", {"thermal_model": {"c1": [1]}}, "thermal_model"),
        ("sweep", {"thermal_model": {"c2": float("nan")}}, "c2 must be finite"),
        ("sweep", {"thermal_model": {"d0": -5}}, "D(300 K)"),
        ("tshift", {"thermal_model": {"d0": -5}}, "D(4 K)"),
        ("sweep", {"points": float("inf")}, "infinity"),
        ("sweep", {"points": 1e12}, "cap of 16384"),
        ("features", {"points": 1e12}, "cap of 16384"),
        ("sweep", {"points": 5.9}, "whole number"),
        ("features", {"points": True}, "whole number"),
        ("features", {"cluster_radius": True}, "cluster_radius"),
        ("tshift", {"gap_ceiling": False}, "gap_ceiling"),
        ("sweep", {"bmin": True}, "bmin"),
        ("tshift", {"tstep": True}, "tstep"),
        ("features", {"thermal_model": {"d0": True}}, "d0 must be a number"),
        ("sweep", {"bmin": "1000"}, "bmin"),
        ("sweep", {"points": "8"}, "whole number"),
        ("features", {"thermal_model": {"d0": "1.0"}}, "d0 must be a number"),
        ("features", {"cluster_raduis": 3}, "'cluster_raduis'"),
        ("features", {"thermal_model": {"D0": 1.0}}, "'D0'"),
        ("sweep", {"bmin": 10**400}, "bmin"),
        ("sweep", {"thermal_model": {"d0": 10**400}}, "thermal_model"),
        ("sweep", {"thermal_model": 0}, "thermal_model"),
        # k_B is a constant, not a model parameter.
        ("sweep", {"thermal_model": {"boltzmann": 0}}, "'boltzmann'"),
        ("sweep", {"thermal_model": {"boltzmann": -0.0862}}, "'boltzmann'"),
        ("sweep", {"thermal_model": {"delta1": 0}}, "delta1 must be positive"),
        ("tshift", {"thermal_model": {"delta2": -1}}, "delta2 must be positive"),
        ("features", {"jump_threshold": 0.4}, "'jump_threshold'"),
        ("tshift", {"gap_true": 0.05}, "'gap_true'"),
    ],
)
def test_malformed_config_values_exit_1(tmp_path, command, cfg, message, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))  # inf is written as Infinity, which json reads
    args = [command, "--system", "nv", "--config", str(path)]
    if command == "tshift":
        args += ["--feature", "1024"]
    elif "points" not in cfg:
        args += ["--points", "16"]
    code, out, err = run(args, capsys)
    assert code == 1
    assert out == ""
    assert message in err and "Traceback" not in err


def test_atomic_write_creates_file(tmp_path):
    out = tmp_path / "nested.json"
    code = main(["catalog", "--format", "json", "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())
    leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".spin-atlas")]
    assert not leftovers


@pytest.mark.parametrize("existing", [None, 0o640], ids=["new-file", "existing-0o640"])
def test_out_file_keeps_the_mode_open_would_leave(existing, tmp_path):
    """A new file gets 0o666 less the umask, an overwritten one keeps its
    mode, as with ``open(path, "w")``; no temp file is left behind."""
    out = tmp_path / "cat.txt"
    if existing is not None:
        out.write_text("old\n")
        out.chmod(existing)
    umask = os.umask(0o022)
    try:
        assert main(["catalog", "--out", str(out)]) == 0
    finally:
        os.umask(umask)
    assert stat.S_IMODE(out.stat().st_mode) == (0o644 if existing is None else existing)
    assert "nv-p1" in out.read_text()
    assert [p.name for p in tmp_path.iterdir()] == [out.name]


@pytest.mark.parametrize("existing", [None, 0o604], ids=["new-file", "existing-0o604"])
def test_out_file_mode_needs_no_umask_change(existing, tmp_path, monkeypatch):
    """The umask is never set, not even for an instant (another thread's new
    file would get that mode): the kernel applies it to the temp file."""
    out = tmp_path / "cat.txt"
    if existing is not None:
        out.write_text("old\n")
        out.chmod(existing)
    umask = os.umask(0o027)

    def no_umask(mask):
        raise AssertionError(f"umask set to {mask:o}")

    monkeypatch.setattr(os, "umask", no_umask)
    try:
        assert main(["catalog", "--out", str(out)]) == 0
    finally:
        monkeypatch.undo()
        os.umask(umask)
    assert stat.S_IMODE(out.stat().st_mode) == (0o640 if existing is None else existing)
    assert [p.name for p in tmp_path.iterdir()] == [out.name]


def test_failed_stream_leaves_no_temp_file(tmp_path, monkeypatch):
    """The CSV is streamed into the temp file; an error part-way through
    removes it and propagates."""
    def broken(self, fh):
        fh.write("B_gauss\n")
        raise RuntimeError("stream broke")

    monkeypatch.setattr(SweepResult, "to_csv", broken)
    with pytest.raises(RuntimeError, match="stream broke"):
        main(["sweep", "--system", "nv", "--points", "4", "--out", str(tmp_path / "out.csv")])
    assert list(tmp_path.iterdir()) == []


def test_failed_write_leaves_no_temp_file(tmp_path, capsys):
    out = tmp_path / "existing-directory"
    out.mkdir()
    code, _, err = run(["catalog", "--out", str(out)], capsys)
    assert code == 1
    assert "cannot write output file" in err
    assert [p.name for p in tmp_path.iterdir()] == [out.name]
