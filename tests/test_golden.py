"""Recorded outputs: a few cheap commands must keep printing the same text,
and the test fixture's onv-3p1 windows must keep finding the same features.

Text is compared exactly and each number to within one unit of its last
printed digit, so platform roundoff passes but any real change fails. After
a deliberate output change, re-record a file with
``spin-atlas <argv> --out tests/data/golden/<name>.txt``.
"""

import itertools
import re
from decimal import Decimal
from pathlib import Path

import pytest

from spin_atlas.cli import main
from spin_atlas.sweep import features_to_json

GOLDEN = Path(__file__).parent / "data" / "golden"

COMMANDS = {
    "features-nv-p1": ["features", "--system", "nv-p1"],
    "features-2nv-13c-window": ["features", "--system", "2nv-13c", "--bmin", "940",
                                "--bmax", "970", "--format", "csv"],
    # 58 candidates in 30 brackets, 17 of them shared by several level pairs:
    # refinement of a system with symmetry sectors.
    "features-nv-2p1-window": ["features", "--system", "nv-2p1", "--bmin", "330",
                               "--bmax", "350", "--points", "256"],
    "sweep-nv-2p1": ["sweep", "--system", "nv-2p1", "--bmin", "330", "--bmax", "350",
                     "--points", "16"],
    "sweep-nv-json": ["sweep", "--system", "nv", "--format", "json"],
    # d = 648: its two 210-state sectors share one size, so a vector step
    # holds cells of two blocks.
    "sweep-onv-3p1-window": ["sweep", "--system", "onv-3p1", "--bmin", "400", "--bmax", "408",
                             "--points", "4"],
    "tshift-nv": ["tshift", "--system", "nv", "--feature", "1024", "--tmin", "200",
                  "--tmax", "300", "--tstep", "25"],
    # Temperature continuation of a system with M_z blocks, and of one with
    # symmetry sectors.
    "tshift-nv-2p1": ["tshift", "--system", "nv-2p1", "--feature", "340.6", "--tstep", "8"],
    "tshift-onv-2p1": ["tshift", "--system", "onv-2p1", "--feature", "590.2", "--tstep", "8"],
    # trace-3dip.csv: 3 Lorentzian dips (500/512/526 G) on a sloped baseline,
    # 400 points over 480-560 G, Gaussian noise of 1e-3 from default_rng(7).
    "fit-trace-3dip": ["fit-trace", str(GOLDEN / "trace-3dip.csv"),
                       "--seeds", "499,512.5,527", "--central", "512"],
}

_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:e[-+]?\d+)?")


def _split(text):
    """The text with each number replaced by '#', and the numbers."""
    return _NUMBER.sub("#", text), _NUMBER.findall(text)


def _same_line(got_line, want_line):
    """Equal text, and each number within one unit of its last digit."""
    (got_text, got), (want_text, want) = _split(got_line), _split(want_line)
    if got_text != want_text or len(got) != len(want):
        return False
    for g, w in zip(got, want):
        if w.isdigit():  # counts and level indices are exact
            if g != w:
                return False
        elif abs(Decimal(g) - Decimal(w)) > Decimal(1).scaleb(Decimal(w).as_tuple().exponent):
            return False
    return True


def assert_matches_recording(name, out):
    """``out`` is the recording ``name``'s text, each number within one unit
    of its last printed digit. A mismatch names the first line that
    differs, with no diff of the whole text, which takes minutes at 180 kB."""
    want = (GOLDEN / f"{name}.txt").read_text().split("\n")
    for k, (got_line, want_line) in enumerate(itertools.zip_longest(out.split("\n"), want), 1):
        same = got_line is not None and want_line is not None and _same_line(got_line, want_line)
        assert same, f"{name}, line {k}: got {got_line!r}, recorded {want_line!r}"


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_output_matches_recording(name, capsys):
    assert main(COMMANDS[name]) == 0
    assert_matches_recording(name, capsys.readouterr().out)


def test_fixture_onv_3p1_windows_match_recording(catalog_features):
    """The session fixture's unrefined onv-3p1 windows (d = 648), read with
    no solve of their own. A solve path that depended on the BLAS thread
    setting once moved their 491.19 G feature to 491.89 G: this fails
    wherever that setting changes the answer."""
    assert_matches_recording("features-onv-3p1-windows", features_to_json(catalog_features["onv-3p1"]) + "\n")
