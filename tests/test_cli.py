"""Command-line interface: determinism, config precedence, exit codes."""

import json

import numpy as np
import pytest

from spin_atlas.cli import main
from spin_atlas.traces import dip_model


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


def test_malformed_flags_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--system", "nv", "--points", "many"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["unknown-command"])
    assert exc.value.code == 2


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


def test_fit_trace_roundtrip(tmp_path, capsys):
    grid = np.linspace(470.0, 550.0, 600)
    pl = dip_model(np.array([1.0, 0.0, 512.0, 3.0, 0.02]), grid)
    path = tmp_path / "trace.csv"
    path.write_text(
        "B_gauss,pl\n" + "\n".join(f"{b:.4f},{v:.8f}" for b, v in zip(grid, pl))
    )
    code, out, _ = run(
        ["fit-trace", str(path), "--seeds", "511", "--central", "512"], capsys)
    assert code == 0
    report = json.loads(out)
    assert abs(report["dips"][0]["center_G"] - 512.0) < 0.01
    assert report["separations_G"] == []


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


def test_detection_settings_precedence(tmp_path, monkeypatch, capsys):
    # flag > config file > catalog entry > SweepConfig default
    seen = []

    def fake_find_features(system, bmin, bmax, points, *, config, **kwargs):
        seen.append((points, config))
        return []

    monkeypatch.setattr("spin_atlas.cli.find_features", fake_find_features)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"cluster_radius": 7.0, "gap_true": 0.1}))
    base = ["features", "--system", "2nv-13c"]
    assert main(base) == 0
    assert main(base + ["--config", str(cfg)]) == 0
    assert main(base + ["--config", str(cfg), "--cluster-radius", "3"]) == 0
    assert main(["features", "--system", "nv-onv-13c"]) == 0
    capsys.readouterr()
    (points, entry), (_, config), (_, flag), (_, other) = seen
    assert points == 4096
    assert (entry.cluster_radius, entry.gap_true) == (10.0, 0.05)
    assert (config.cluster_radius, config.gap_true) == (7.0, 0.1)
    assert (flag.cluster_radius, flag.gap_true) == (3.0, 0.1)
    assert (other.cluster_radius, other.gap_ceiling) == (10.0, 60.0)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["features", "--gap-true", "-1"], "gap_true"),
        (["features", "--cluster-radius", "nan"], "cluster_radius"),
        (["features", "--temp", "inf"], "temperature"),
        (["features", "--temp", "nan"], "temperature"),
        (["features", "--bmax", "inf"], "b_max"),
        (["tshift", "--feature", "1024", "--tstep", "1e-9"], "cap"),
        (["tshift", "--feature", "1024", "--tmax", "inf"], "temperature grid"),
    ],
)
def test_out_of_range_inputs_exit_1(argv, message, capsys):
    args = argv[:1] + ["--system", "nv", "--bmin", "1000", "--bmax", "1050",
                       "--points", "16"] + argv[1:]
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
        ("sweep", {"thermal_model": {"c2": "nan"}}, "c2 must be finite"),
    ],
)
def test_malformed_config_values_exit_1(tmp_path, command, cfg, message, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    args = [command, "--system", "nv", "--points", "16", "--config", str(path)]
    if command == "tshift":
        args += ["--feature", "1024"]
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
