"""spin-atlas benchmark harness.

Drives the package the way a user does: ``spin_atlas.cli.main(argv)`` in
process, one command after another (a closed loop with one client; the
harness starts no threads), each writing ``--out`` into a scratch directory
of the checkout.  It repeats whole passes over the workload's commands while
the next pass is expected to end within ``--seconds`` (at least one pass),
checks the outputs outside the timed region and prints one JSON result as its
last line of output.

    python3 perfbench/run.py --workload onaxis --seed 3 --seconds 50 --trace 0

``--trace 0`` reports the end-to-end metrics with tracing off.  ``--trace 1``
runs one untraced pass, then traced passes, and reports the per-layer
metrics of README.md, including the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DIGESTS = os.path.join(HERE, "digests.json")

# One BLAS thread: on 2 cores OpenBLAS's default threading makes the per-point
# eigensolves slower and their timings several times noisier.  An explicit
# setting in the environment wins.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "SPIN_ATLAS_THREADS": "1",
}
SETUP_PROBES = 5
DIGEST_SEED = 0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p95_ms": "ms",
    "peak_rss_mb": "MiB",
}


def parse_args(argv):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DIGEST_SEED)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-digests", action="store_true",
                   help=f"store this run's output digests (seed {DIGEST_SEED} only)")
    return p.parse_args(argv)


def log(msg: str) -> None:
    print(f"# {msg}", flush=True)


def probe_setup(env) -> float:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["total_s"]


def environment(kernels, pinned: dict) -> dict:
    import numpy as np
    import scipy

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "threads_pinned_by_harness": sorted(pinned),
        "backend": kernels.active_backend(),
        "backends_importable": ["numpy"] + (["numba"] if importlib.util.find_spec("numba") else []),
        "SPIN_ATLAS_THREADS": os.environ.get("SPIN_ATLAS_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def sha256(path: str) -> str | None:
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError:
        return None


class Runner:
    """Runs passes over one workload's commands and keeps what they did."""

    def __init__(self, cli, commands, workdir: str):
        self.cli = cli
        self.commands = commands
        self.workdir = workdir
        terms = sys.modules["spin_atlas.hamiltonian"].hamiltonian_terms
        self._clear_cache = getattr(terms, "cache_clear", lambda: None)
        self.walls: list[float] = []
        self.latencies: list[float] = []
        self.exits: list[list] = []      # per pass, per command: exit code or None
        self.errors: list[list] = []     # per pass, per command: stderr text
        self.digests: list[list] = []    # per pass, per command: sha256 of --out

    def out_path(self, n: int, i: int) -> str:
        return os.path.join(self.workdir, f"pass{n}", f"{i:03d}.out")

    def run_pass(self, tracer=None) -> float:
        n = len(self.walls)
        os.makedirs(os.path.join(self.workdir, f"pass{n}"))
        exits, errors = [], []
        if tracer is not None:
            tracer.reset()
            tracer.begin("pass")
        start = time.perf_counter()
        for i, cmd in enumerate(self.commands):
            out = self.out_path(n, i)
            # A user runs each command in a fresh process, so no in-process
            # cache survives from one command to the next.
            self._clear_cache()
            err = io.StringIO()
            if tracer is not None:
                tracer.request = i
                span = tracer.begin("cli")
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stderr(err):
                    code = self.cli.main([*cmd.argv, "--out", out])
            except SystemExit as exc:
                code = exc.code
            except Exception:
                code = None
                err.write(traceback.format_exc())
            self.latencies.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.end()
                span.counts["out_bytes"] += os.path.getsize(out) if os.path.exists(out) else 0
            exits.append(code)
            errors.append(err.getvalue())
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.end()
        self.walls.append(wall)
        self.exits.append(exits)
        self.errors.append(errors)
        self.digests.append([sha256(self.out_path(n, i)) for i in range(len(self.commands))])
        return wall


def check_outputs(runner: Runner, seed: int) -> tuple[list[int], list[str], list[str]]:
    """Failures per pass, failure messages, and fit misses within the allowance.

    ``seed`` picks the lines and rows the dense reference re-checks.
    """
    import numpy as np

    import checks

    commands = runner.commands
    problems: list[list[str]] = [[] for _ in commands]
    misses: list[tuple[int, str]] = []
    rng = np.random.default_rng([seed, 1])
    for i, cmd in enumerate(commands):
        if runner.exits[0][i] != 0:
            continue
        path = runner.out_path(0, i)
        if cmd.kind == "sweep":
            problems[i] += checks.check_sweep(cmd, path, rng)
            continue
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        if cmd.kind == "features":
            problems[i] += checks.check_features(cmd, text, rng)
        elif cmd.kind == "tshift":
            problems[i] += checks.check_tshift(cmd, text)
        else:
            found, miss = checks.check_fit(cmd, text)
            problems[i] += found
            if miss:
                misses.append((i, miss))
    fits = sum(cmd.kind == "fit" for cmd in commands)
    allowed = []
    if misses and len(misses) > (1.0 - checks.FIT_RECOVERY) * fits:
        for i, miss in misses:
            problems[i].append(f"{miss}; {len(misses)} of {fits} fits missed, over the 5 % allowance")
    else:
        allowed = [f"{commands[i].label}: {miss}" for i, miss in misses]

    failed_per_pass, messages = [], []
    for n in range(len(runner.walls)):
        failed = 0
        for i, cmd in enumerate(commands):
            code = runner.exits[n][i]
            if code != 0:
                tail = runner.errors[n][i].strip().splitlines()[-1:] or [""]
                why = [f"exit code {code}: {tail[0]}"]
            elif n > 0 and runner.digests[n][i] != runner.digests[0][i]:
                why = ["output differs from the first pass"]
            else:
                why = problems[i]
            if why:
                failed += 1
                # A check failure repeats in every pass; list it once.
                if n == 0 or why is not problems[i]:
                    messages.append(f"pass {n} {cmd.label}: " + "; ".join(why))
        failed_per_pass.append(failed)
    return failed_per_pass, messages, allowed


def compare_digests(workload: str, runner: Runner, seed: int, record: bool) -> None:
    labels = [cmd.label for cmd in runner.commands]
    current = dict(zip(labels, runner.digests[0]))
    stored = {}
    if os.path.exists(DIGESTS):
        with open(DIGESTS, encoding="utf-8") as fh:
            stored = json.load(fh)
    if record:
        if seed != DIGEST_SEED:
            raise SystemExit(f"--record-digests needs --seed {DIGEST_SEED}")
        stored.setdefault("seed", DIGEST_SEED)
        stored.setdefault("workloads", {})[workload] = current
        with open(DIGESTS, "w", encoding="utf-8") as fh:
            json.dump(stored, fh, indent=1, sort_keys=True)
            fh.write("\n")
        log(f"digests: recorded {len(current)} outputs to {os.path.relpath(DIGESTS, ROOT)}")
        return
    reference = stored.get("workloads", {}).get(workload)
    if seed != DIGEST_SEED or reference is None:
        log(f"digests: not compared (recorded for --seed {DIGEST_SEED} only)")
        return
    differ = [label for label in labels if reference.get(label) != current[label]]
    log(f"digests: {len(differ)} of {len(labels)} outputs differ from the recorded "
        f"seed-{DIGEST_SEED} outputs" + (f", e.g. {', '.join(differ[:5])}" if differ else ""))


def end_to_end(runner: Runner, setup: list[float], peak_rss_kb: int) -> dict[str, float]:
    lat_ms = [1e3 * t for t in runner.latencies]
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(runner.walls),
        "op_p50_ms": statistics.median(lat_ms),
        "op_p95_ms": statistics.quantiles(lat_ms, n=20, method="inclusive")[-1],
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }


def main(argv=None) -> int:
    # Before anything imports numpy, which reads the BLAS thread settings.
    pinned = {k: v for k, v in PINNED_ENV.items() if k not in os.environ}
    os.environ.update(pinned)
    sys.path.insert(0, HERE)
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "spin_atlas", "__init__.py")):
        print(f"perfbench: no spin_atlas package under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    child_env = dict(os.environ, PYTHONPATH=SRC)

    setup = [probe_setup(child_env) for _ in range(SETUP_PROBES)]

    from spin_atlas import cli, kernels

    import tracing
    from workloads import make_commands

    env = environment(kernels, pinned)
    workdir = os.path.join(ROOT, ".perfbench-work", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        commands = make_commands(args.workload, args.seed, os.path.join(workdir, "inputs"))
        runner = Runner(cli, commands, workdir)
        tracer = tracing.Tracer() if args.trace else None
        layer_runs = []
        start = time.perf_counter()
        runner.run_pass()
        if tracer is not None:
            tracer.install()
        try:
            # Whole passes only: start another while it is expected to end
            # within --seconds.  A traced run makes at least one traced pass
            # after the untraced one.
            while (time.perf_counter() - start + statistics.median(runner.walls) <= args.seconds
                   or (tracer is not None and not layer_runs)):
                runner.run_pass(tracer)
                if tracer is not None:
                    layer_runs.append(tracing.layer_metrics(tracer.spans))
        finally:
            if tracer is not None:
                tracer.uninstall()
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

        import checks

        failed_per_pass, messages, allowed = check_outputs(runner, args.seed)
        catalog_problems = checks.check_catalog()
        compare_digests(args.workload, runner, args.seed, args.record_digests)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))

    attempted = len(runner.walls) * len(commands)
    failed = sum(failed_per_pass)
    log(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
        f"{len(runner.walls)} passes x {len(commands)} commands")
    log("env " + json.dumps(env, sort_keys=True))
    log(f"setup_s samples: {', '.join(f'{s:.4f}' for s in setup)}")
    log(f"pass walls: {', '.join(f'{w:.4f}' for w in runner.walls)} s")
    log(f"error_rate = {failed}/{attempted} = {failed / attempted:.4f}")
    for msg in catalog_problems + messages:
        log(f"FAILED {msg}")
    for msg in allowed:
        log(f"fit miss within the 5 % allowance: {msg}")

    if tracer is None:
        values = end_to_end(runner, setup, peak_rss_kb)
        log(f"per-command latency over {len(runner.latencies)} commands; "
            f"p95 has {int(0.05 * len(runner.latencies))} samples above it")
        units = END_TO_END_UNITS
    else:
        values = {key: statistics.median(run[key] for run in layer_runs) for key in layer_runs[0]}
        values["trace.overhead_s"] = statistics.median(runner.walls[1:]) - runner.walls[0]
        units = tracing.UNITS
    for key, value in values.items():
        log(f"{key} = {value:.6g} {units[key]}")
    result = {
        "correct": failed == 0 and not catalog_problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in values.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
