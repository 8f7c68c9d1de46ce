"""Tests of the benchmark harness itself: input generators, output checks and
span self times.  Run with ``python3 -m pytest perfbench/tests -q``."""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import checks  # noqa: E402
import tracing  # noqa: E402
from spin_atlas import cli  # noqa: E402
from workloads import WORKLOADS, Command, make_commands  # noqa: E402


def _snapshot(workload, seed, directory):
    cmds = make_commands(workload, seed, str(directory))
    argv = [tuple(a.replace(str(directory), "<dir>") for a in c.argv) for c in cmds]
    names = sorted(os.listdir(directory)) if directory.exists() else []
    files = {name: (directory / name).read_bytes() for name in names}
    return argv, [c.expect for c in cmds], files


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generators_are_deterministic_per_seed(workload, tmp_path):
    first = _snapshot(workload, 7, tmp_path / "a")
    assert first == _snapshot(workload, 7, tmp_path / "b")
    assert first != _snapshot(workload, 8, tmp_path / "c")


def _run(cmd, out):
    assert cli.main([*cmd.argv, "--out", str(out)]) == 0
    return out.read_text()


@pytest.fixture(scope="module")
def features_output(tmp_path_factory):
    cmd = make_commands("onaxis", 0, "")[0]
    assert cmd.expect["system"] == "nv-p1"
    return cmd, _run(cmd, tmp_path_factory.mktemp("features") / "nv-p1.json")


def test_features_check_accepts_real_output(features_output):
    cmd, text = features_output
    assert checks.check_features(cmd, text, np.random.default_rng(0)) == []


def test_features_check_rejects_moved_feature(features_output):
    cmd, text = features_output
    report = json.loads(text)
    for f in report["features"]:
        if abs(f["center_G"] - 512.0) < 2.0:
            f["center_G"] += 5.0
    problems = checks.check_features(cmd, json.dumps(report), np.random.default_rng(0))
    assert any("512.0" in p for p in problems)


def test_features_check_rejects_wrong_gaps(features_output):
    cmd, text = features_output
    report = json.loads(text)
    for f in report["features"]:
        for ln in f["lines"]:
            ln["min_gap_MHz"] = round(ln["min_gap_MHz"] + 0.5, 4)
    problems = checks.check_features(cmd, json.dumps(report), np.random.default_rng(0))
    assert any("dense reference" in p for p in problems)


@pytest.fixture(scope="module")
def sweep_output(tmp_path_factory):
    expect = {"system": "nv-onv-p1", "bmin": 300.0, "bmax": 400.0, "points": 48, "temp": 300.0}
    cmd = Command("sweep nv-onv-p1", "sweep",
                  ("sweep", "--system", "nv-onv-p1", "--bmin", "300.00",
                   "--bmax", "400.00", "--points", "48"), expect)
    path = tmp_path_factory.mktemp("sweep") / "nv-onv-p1.csv"
    _run(cmd, path)
    return cmd, path


def _corrupt(path, tmp_path, edit):
    lines = path.read_text().splitlines()
    rows = [[float(x) for x in ln.split(",")] for ln in lines[1:]]
    edit(rows)
    out = tmp_path / "corrupt.csv"
    out.write_text("\n".join([lines[0]] + [",".join(f"{x:.6f}" for x in r) for r in rows]) + "\n")
    return str(out)


def test_sweep_check_accepts_real_output(sweep_output):
    cmd, path = sweep_output
    assert checks.check_sweep(cmd, str(path), np.random.default_rng(0)) == []


def test_sweep_check_rejects_broken_sum_rule(sweep_output, tmp_path):
    cmd, path = sweep_output

    def edit(rows):
        rows[5][-1] += 0.01

    problems = checks.check_sweep(cmd, _corrupt(path, tmp_path, edit), np.random.default_rng(0))
    assert any("sum rule" in p for p in problems)


def test_sweep_check_rejects_shifted_level(sweep_output, tmp_path):
    cmd, path = sweep_output
    d = 54

    def edit(rows):
        for r in rows:
            r[d] += 0.01  # the top level, so the order is kept

    problems = checks.check_sweep(cmd, _corrupt(path, tmp_path, edit), np.random.default_rng(0))
    assert any("dense reference" in p for p in problems)


def test_sweep_check_rejects_unordered_levels(sweep_output, tmp_path):
    cmd, path = sweep_output

    def edit(rows):
        rows[3][1], rows[3][2] = rows[3][2] + 1.0, rows[3][1]

    problems = checks.check_sweep(cmd, _corrupt(path, tmp_path, edit), np.random.default_rng(0))
    assert any("not ascending" in p for p in problems)


def test_tshift_check_rejects_lost_temperature():
    cmd = Command("tshift nv-2p1", "tshift", (), {"system": "nv-2p1", "temps": [4.0, 6.0, 300.0]})
    good = "T_K,center_G,delta_B_G\n4.00,342.50,2.00\n6.00,342.49,1.99\n300.00,340.50,0.00\n" \
           "# slope_300K_G_per_K = -0.0084\n"
    assert checks.check_tshift(cmd, good) == []
    lost = good.replace("6.00,342.49,1.99\n", "") + "# warning: feature lost\n"
    assert len(checks.check_tshift(cmd, lost)) == 2


def test_fit_check_flags_a_missed_center():
    cmd = Command("fit-trace 000", "fit", (), {"centers": [500.0, 515.0]})

    def report(*centers):
        return json.dumps({"dips": [{"center_G": c, "removable": False} for c in centers]})

    assert checks.check_fit(cmd, report(500.04, 514.97)) == ([], None)
    assert checks.check_fit(cmd, report(500.04, 515.3))[1] is not None
    assert checks.check_fit(cmd, report(500.04))[1] is not None


def test_catalog_keeps_unattainable_positions():
    assert checks.check_catalog() == []


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_is_duration_minus_child_coverage():
    # root [0, 20]; a [1, 9] with child b [2, 5]; c [12, 15].
    tracer = tracing.Tracer(clock=FakeClock([0, 1, 2, 5, 9, 12, 15, 20]))
    tracer.begin("root")
    tracer.begin("a")
    tracer.begin("b")
    tracer.end()
    tracer.end()
    tracer.begin("c")
    tracer.end()
    tracer.end()
    own = dict(zip((s.name for s in tracer.spans), tracing.self_times(tracer.spans)))
    assert own == {"root": 20 - 8 - 3, "a": 8 - 3, "b": 3, "c": 3}


def test_covered_merges_overlapping_intervals():
    assert tracing.covered([(0, 2), (1, 3), (5, 6), (5.5, 5.7)]) == 4
    assert tracing.covered([]) == 0
