"""Spans and counters recorded around the public functions of each layer.

The tracer patches the names through which ``spin_atlas.cli`` and
``spin_atlas.sweep`` look up the functions of the layers below them, so the
program itself is unchanged; :meth:`Tracer.uninstall` puts the originals back.
Spans are kept in memory and reduced to per-layer metrics after each pass.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

# The per-point kernel time is reported for these composite dimensions.
KERNEL_DIMS = (18, 54, 108, 648)

UNITS = {
    "hamiltonian.terms_s": "s",
    "hamiltonian.terms_builds": "count",
    "kernels.eigh_s": "s",
    "kernels.points": "count",
    "kernels.work_gd3": "Gd3",
    **{f"kernels.point_ms.d{d}": "ms" for d in KERNEL_DIMS},
    "sweep.grid_s": "s",
    "sweep.vectors_bytes": "bytes",
    "sweep.csv_s": "s",
    "sweep.csv_bytes": "bytes",
    "sweep.detect_s": "s",
    "sweep.candidates": "count",
    "sweep.cluster_s": "s",
    "sweep.refine_s": "s",
    "sweep.gap_evals": "count",
    "sweep.gap_evals_per_candidate": "ratio",
    "sweep.lines": "count",
    "sweep.features": "count",
    "sweep.features_per_candidate": "ratio",
    "sweep.tshift_s": "s",
    "sweep.tshift_temps": "count",
    "sweep.tshift_gap_evals_per_temp": "ratio",
    "sweep.tshift_lost": "count",
    "traces.load_s": "s",
    "traces.fit_s": "s",
    "traces.fit_iterations": "count",
    "traces.model_evals_per_fit": "ratio",
    "traces.nonconverged": "count",
    "cli.self_s": "s",
    "cli.out_bytes": "bytes",
    "trace.overhead_s": "s",
    "trace.other_s": "s",
}


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    request: int
    end: float = 0.0
    counts: dict = field(default_factory=lambda: defaultdict(int))

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for sp in spans:
        if sp.parent is not None:
            children[sp.parent].append(sp)
    out = []
    for i, sp in enumerate(spans):
        inside = [(max(c.start, sp.start), min(c.end, sp.end)) for c in children[i]]
        out.append(sp.duration - covered([iv for iv in inside if iv[1] > iv[0]]))
    return out


class Tracer:
    """Single-threaded span recorder; ``request`` tags the spans of one command."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.request = 0
        self._patches: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), parent, self.request))
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def end(self) -> None:
        self.spans[self._stack.pop()].end = self.clock()

    def count(self, key: str, n: int = 1) -> None:
        """Add to a counter of the innermost open span."""
        if self._stack:
            self.spans[self._stack[-1]].counts[key] += n

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()

    # -- instrumentation -------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _span_wrapper(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(span, args, kwargs, result)
                return result
            finally:
                self.end()

        return wrapper

    def _count_wrapper(self, key: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(key)
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap the layer functions where ``cli`` and ``sweep`` look them up."""
        import numpy as np

        cli = sys.modules["spin_atlas.cli"]
        # ``spin_atlas.sweep`` on the package is the function of that name.
        sweep_mod = sys.modules["spin_atlas.sweep"]
        traces_mod = sys.modules["spin_atlas.traces"]

        # A cache miss of ``hamiltonian_terms`` is a build; a hit costs
        # microseconds.  Without a cache every call is a build.
        cache_info = getattr(sweep_mod.hamiltonian_terms, "cache_info", None)

        def terms_wrapper(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                before = cache_info().misses if cache_info else 0
                span = self.begin("hamiltonian.terms")
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.end()
                    span.counts["builds"] += cache_info().misses - before if cache_info else 1

            return wrapper

        def csv_wrapper(fn):
            @functools.wraps(fn)
            def wrapper(result, fh):
                start = fh.tell()
                span = self.begin("sweep.csv")
                try:
                    return fn(result, fh)
                finally:
                    self.end()
                    span.counts["bytes"] += fh.tell() - start

            return wrapper

        def on_kernel(span, args, kwargs, result):
            hams = args[0]
            n, d = hams.shape[0], hams.shape[1]
            span.counts["points"] += n
            span.counts["dim"] = d

        def on_sweep(span, args, kwargs, result):
            if result.eigenvectors is not None:
                span.counts["vectors_bytes"] += result.eigenvectors.nbytes

        def on_detect(span, args, kwargs, result):
            span.counts["candidates"] += len(result)

        def on_features(span, args, kwargs, result):
            span.counts["features"] += len(result)
            span.counts["lines"] += sum(len(f.lines) for f in result)

        def on_tshift(span, args, kwargs, result):
            t_grid = kwargs.get("t_grid", args[2] if len(args) > 2 else ())
            span.counts["temps"] += len(t_grid)
            span.counts["lost"] += len(result.lost)

        def on_fit(span, args, kwargs, result):
            span.counts["fits"] += 1
            span.counts["iterations"] += result.iterations
            span.counts["nonconverged"] += int(not result.converged)

        sweep_span = self._span_wrapper("sweep.grid", cli.sweep, on_sweep)
        self._patch(cli, "sweep", sweep_span)
        self._patch(sweep_mod, "sweep", sweep_span)
        self._patch(cli, "find_features",
                    self._span_wrapper("sweep.features", cli.find_features, on_features))
        self._patch(cli, "temperature_shift",
                    self._span_wrapper("sweep.tshift", cli.temperature_shift, on_tshift))
        self._patch(sweep_mod, "detect_events",
                    self._span_wrapper("sweep.detect", sweep_mod.detect_events, on_detect))
        self._patch(sweep_mod, "cluster_features",
                    self._span_wrapper("sweep.cluster", sweep_mod.cluster_features))
        self._patch(sweep_mod, "hamiltonian_terms", terms_wrapper(sweep_mod.hamiltonian_terms))
        self._patch(sweep_mod, "batched_eigh_project",
                    self._span_wrapper("kernels.eigh", sweep_mod.batched_eigh_project, on_kernel))
        self._patch(sweep_mod.SweepResult, "to_csv", csv_wrapper(sweep_mod.SweepResult.to_csv))
        self._patch(cli, "load_trace",
                    self._span_wrapper("traces.load", cli.load_trace))
        self._patch(cli, "fit_dips", self._span_wrapper("traces.fit", cli.fit_dips, on_fit))
        self._patch(traces_mod, "dip_model", self._count_wrapper("model_evals", traces_mod.dip_model))
        # Gap evaluations: single-field eigenvalue solves.
        self._patch(np.linalg, "eigvalsh", self._count_wrapper("eigvalsh", np.linalg.eigvalsh))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (see README.md for the names)."""
    own = self_times(spans)
    time_by = defaultdict(float)
    count_by = defaultdict(lambda: defaultdict(int))
    kernel_s = defaultdict(float)
    kernel_pts = defaultdict(int)
    work = 0.0
    for sp, t in zip(spans, own):
        time_by[sp.name] += t
        for key, value in sp.counts.items():
            if key != "dim":
                count_by[sp.name][key] += value
        if sp.name == "kernels.eigh":
            d, n = sp.counts["dim"], sp.counts["points"]
            kernel_s[d] += sp.duration
            kernel_pts[d] += n
            work += n * d**3 / 1e9

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    feats = count_by["sweep.features"]
    candidates = count_by["sweep.detect"]["candidates"]
    tshift = count_by["sweep.tshift"]
    fits = count_by["traces.fit"]
    out = {
        "hamiltonian.terms_s": time_by["hamiltonian.terms"],
        "hamiltonian.terms_builds": count_by["hamiltonian.terms"]["builds"],
        "kernels.eigh_s": time_by["kernels.eigh"],
        "kernels.points": count_by["kernels.eigh"]["points"],
        "kernels.work_gd3": work,
    }
    for d in KERNEL_DIMS:
        out[f"kernels.point_ms.d{d}"] = 1e3 * ratio(kernel_s[d], kernel_pts[d])
    out.update({
        "sweep.grid_s": time_by["sweep.grid"],
        "sweep.vectors_bytes": count_by["sweep.grid"]["vectors_bytes"],
        "sweep.csv_s": time_by["sweep.csv"],
        "sweep.csv_bytes": count_by["sweep.csv"]["bytes"],
        "sweep.detect_s": time_by["sweep.detect"],
        "sweep.candidates": candidates,
        "sweep.cluster_s": time_by["sweep.cluster"],
        "sweep.refine_s": time_by["sweep.features"],
        "sweep.gap_evals": feats["eigvalsh"],
        "sweep.gap_evals_per_candidate": ratio(feats["eigvalsh"], candidates),
        "sweep.lines": feats["lines"],
        "sweep.features": feats["features"],
        "sweep.features_per_candidate": ratio(feats["features"], candidates),
        "sweep.tshift_s": time_by["sweep.tshift"],
        "sweep.tshift_temps": tshift["temps"],
        "sweep.tshift_gap_evals_per_temp": ratio(tshift["eigvalsh"], tshift["temps"]),
        "sweep.tshift_lost": tshift["lost"],
        "traces.load_s": time_by["traces.load"],
        "traces.fit_s": time_by["traces.fit"],
        "traces.fit_iterations": fits["iterations"],
        "traces.model_evals_per_fit": ratio(fits["model_evals"], fits["fits"]),
        "traces.nonconverged": fits["nonconverged"],
        "cli.self_s": time_by["cli"],
        "cli.out_bytes": count_by["cli"]["out_bytes"],
        "trace.other_s": time_by["pass"],
    })
    return out
