"""Seeded inputs for the two benchmark workloads.

A workload is a list of :class:`Command` objects: the ``spin-atlas`` CLI
arguments of one command plus what the checker needs to know about it (the
exact grid, the temperatures asked for, the true dip centers).  The seed only
shapes these inputs; the program sees nothing but the CLI arguments and the
files written here.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("onaxis", "offaxis")

# Full field range of every catalog sweep, gauss, and the catalog grid of
# nv-p1 and nv-2p1.
B_MIN, B_MAX = 0.5, 1100.0
CATALOG_POINTS = 2048

# tshift: temperature step fine enough that continuation, not the locate
# step, takes most of the command's time.
TSHIFT_STEP_K = 2.0
TSHIFT_TMAX_K = 300.0

# offaxis: a short window of the 648-dimensional system, placed by seed.
ONV3P1_POINTS = 40
ONV3P1_WIDTH_G = 8.0

# fit-trace: 20 traces each of 3..7 dips.
N_TRACES = 100
TRACE_NOISE = 1e-3


@dataclass(frozen=True)
class Command:
    """One CLI invocation; ``argv`` excludes ``--out``, which the runner adds."""

    label: str
    kind: str                      # "features" | "sweep" | "tshift" | "fit"
    argv: tuple[str, ...]
    expect: dict = field(default_factory=dict, compare=False)


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def features_commands(rng: np.random.Generator) -> list[Command]:
    out = []
    for sys_id in ("nv-p1", "nv-2p1"):
        points = CATALOG_POINTS + int(rng.integers(-16, 17))
        bmin = round(B_MIN + float(rng.uniform(0.0, 0.5)), 2)
        argv = ("features", "--system", sys_id, "--bmin", _fmt(bmin),
                "--bmax", _fmt(B_MAX), "--points", str(points))
        out.append(Command(f"features {sys_id}", "features", argv,
                           {"system": sys_id, "temp": 300.0}))
    return out


def sweep_commands(rng: np.random.Generator) -> list[Command]:
    lo = round(float(rng.uniform(300.0, 600.0)), 2)
    cases = (
        ("onv-2p1", B_MIN, B_MAX, 3000),
        ("nv-onv-p1", B_MIN, B_MAX, 4096),
        ("onv-3p1", lo, lo + ONV3P1_WIDTH_G, ONV3P1_POINTS),
    )
    out = []
    for sys_id, bmin, bmax, points in cases:
        # The checker rebuilds the grid from the values the CLI parses.
        bmin, bmax = float(_fmt(bmin)), float(_fmt(bmax))
        argv = ("sweep", "--system", sys_id, "--bmin", _fmt(bmin),
                "--bmax", _fmt(bmax), "--points", str(points))
        out.append(Command(f"sweep {sys_id}", "sweep", argv,
                           {"system": sys_id, "bmin": bmin, "bmax": bmax,
                            "points": points, "temp": 300.0}))
    return out


def tshift_grid(tmin: float, tmax: float, tstep: float) -> list[float]:
    """The temperatures ``spin-atlas tshift`` reports for these flags."""
    temps = []
    t = tmin
    while t <= tmax + 1e-9:
        temps.append(round(t, 6))
        t += tstep
    if 300.0 not in temps:
        temps.append(300.0)
        temps.sort()
    return temps


def tshift_command(rng: np.random.Generator, sys_id: str, feature: float) -> Command:
    tmin = round(4.0 + float(rng.uniform(0.0, TSHIFT_STEP_K)), 2)
    argv = ("tshift", "--system", sys_id, "--feature", _fmt(feature),
            "--tmin", _fmt(tmin), "--tmax", _fmt(TSHIFT_TMAX_K),
            "--tstep", _fmt(TSHIFT_STEP_K))
    return Command(f"tshift {sys_id}", "tshift", argv,
                   {"system": sys_id, "temps": tshift_grid(tmin, TSHIFT_TMAX_K, TSHIFT_STEP_K)})


def synthetic_trace(rng: np.random.Generator, n_dips: int, n_points: int):
    """(field, pl, true centers) of a noisy multi-Lorentzian trace.

    Dips sit 9-21 G apart with 1.5-3 G half widths and 2-6 % depth on a gently
    sloped baseline, with 0.1 % noise.  Every seed then lies within one half
    width of its dip.  README.md gives the share of fits that miss a center
    here and in narrower or shallower regimes.
    """
    lo = float(rng.uniform(200.0, 800.0))
    spacing = 15.0
    b = np.linspace(lo, lo + spacing * (n_dips + 1), n_points)
    centers = lo + spacing * np.arange(1, n_dips + 1) + rng.uniform(-3.0, 3.0, n_dips)
    hwhm = rng.uniform(1.5, 3.0, n_dips)
    depth = rng.uniform(0.02, 0.06, n_dips)
    a = float(rng.uniform(0.9, 1.1))
    slope = float(rng.uniform(-1e-4, 1e-4))
    shape = np.ones_like(b)
    for c, w, d in zip(centers, hwhm, depth):
        shape -= d * w * w / ((b - c) ** 2 + w * w)
    baseline = a + slope * (b - lo)
    pl = baseline * shape + rng.normal(0.0, TRACE_NOISE * a, n_points)
    return b, pl, [float(c) for c in centers]


def fit_commands(rng: np.random.Generator, input_dir: str) -> list[Command]:
    dip_counts = rng.permutation(np.arange(N_TRACES) % 5 + 3)
    point_counts = rng.permutation(np.linspace(1200, 2000, N_TRACES).astype(int))
    out = []
    for i, (n_dips, n_points) in enumerate(zip(dip_counts, point_counts)):
        b, pl, centers = synthetic_trace(rng, int(n_dips), int(n_points))
        path = os.path.join(input_dir, f"trace-{i:03d}.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("B_gauss,pl\n")
            fh.writelines(f"{x:.4f},{y:.7f}\n" for x, y in zip(b, pl))
        seeds = [c + float(rng.uniform(-1.0, 1.0)) for c in centers]
        argv = ("fit-trace", path, "--seeds", ",".join(_fmt(s) for s in seeds),
                "--central", _fmt(seeds[len(seeds) // 2]))
        out.append(Command(f"fit-trace {i:03d}", "fit", argv, {"centers": centers}))
    return out


def make_commands(workload: str, seed: int, input_dir: str) -> list[Command]:
    """The commands of one pass over ``workload``; input files go to ``input_dir``.

    ``onaxis``: every spin along z, so M_z is conserved; gap-minimum
    refinement and temperature continuation take most of the time.
    ``offaxis``: kernel-bound sweeps that nothing blocks and nothing refines,
    plus trace fits that do no Hamiltonian work at all.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "onaxis":
        return features_commands(rng) + [tshift_command(rng, "nv-2p1", 342.0)]
    os.makedirs(input_dir, exist_ok=True)
    return sweep_commands(rng) + fit_commands(rng, input_dir)
