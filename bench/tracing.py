"""Spans around the library's layer entry points, recorded from outside it.

Each entry point is wrapped where its caller looks it up: the wrapper for
``quasi_bergman.build_basis`` replaces the name ``build_basis`` in
``bergband.band_solver``, since that is the module that calls it.  Wrappers
are installed only around a traced operation, so untraced operations run the
library untouched.
"""

from __future__ import annotations

import functools
import importlib
import math
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span


def _count_h_step(counts, out):
    counts["pipeline.h_steps"] += 1
    _count_fibers(counts, out)


def _count_fibers(counts, out):
    counts["band_solver.fibers"] += out.etas.size


def _count_nodes(counts, out):
    counts["geometry.nodes"] += out.nodes.size


def _count_inner_products(counts, out):
    # build_basis takes one inner product for the seed's norm and, for the
    # candidate that becomes column c + 1, a norm before and after two MGS
    # sweeps over c columns: 1 + sum_{c=1}^{d-1} (2 + 2c) = d^2 + d - 1.
    # Candidates rejected by the cutoff are not seen, so this is a lower bound.
    d = out.dim_eff
    counts["quasi_bergman.inner_products"] += d * d + d - 1


# (module, attribute, span name, counter[, caller]): each layer's entry points
# as the calling module sees them.  numpy.linalg is shared with the Gauss rules
# of geometry (leggauss calls eigvalsh), so only the eigensolves that
# compute_bands makes itself count as band_solver.eig.  floquet and conformal
# are not on the band or verdict path and are not wrapped.
ENTRY_POINTS = (
    ("bergband.cli", "main", "cli", None),
    ("bergband.cli", "run_prescribed_spectrum", "pipeline", None),
    ("bergband.pipeline", "synthesize_profile", "symbols.synth", None),
    ("bergband.pipeline", "compute_disc_spectrum", "disc_spectrum", None),
    ("bergband.pipeline", "spectral_gap", "disc_spectrum", None),
    ("bergband.pipeline", "compute_bands", "band_solver.bands", _count_h_step),
    ("bergband.pipeline", "essential_spectrum", "band_solver.spectrum", None),
    ("bergband.pipeline", "gap_report", "band_solver.spectrum", None),
    ("bergband.band_solver", "h_convergence_study", "band_solver.study", None),
    ("bergband.band_solver", "compute_bands", "band_solver.bands", _count_fibers),
    ("bergband.band_solver", "compute_disc_spectrum", "disc_spectrum", None),
    ("bergband.band_solver", "build_cell_quadrature", "geometry.quad", _count_nodes),
    ("bergband.band_solver", "eval_cell_symbol", "symbols.eval", None),
    ("bergband.band_solver", "build_basis", "quasi_bergman.basis", _count_inner_products),
    ("numpy.linalg", "eigvalsh", "band_solver.eig", None, "band_solver.bands"),
)

ROOT_SPAN = "bench.op"

# metric -> span name whose summed self time it reports
SELF_TIME = {
    "quasi_bergman.basis_s": "quasi_bergman.basis",
    "band_solver.assembly_s": "band_solver.bands",
    "band_solver.eig_s": "band_solver.eig",
    "band_solver.spectrum_s": "band_solver.spectrum",
    "band_solver.study_s": "band_solver.study",
    "pipeline.self_s": "pipeline",
    "cli.self_s": "cli",
    "geometry.quad_s": "geometry.quad",
    "symbols.eval_s": "symbols.eval",
    "symbols.synth_s": "symbols.synth",
    "disc_spectrum.self_s": "disc_spectrum",
    "bench.loop_s": ROOT_SPAN,
}
# metric -> span name whose calls it counts
CALLS = {
    "quasi_bergman.basis.calls": "quasi_bergman.basis",
    "band_solver.eig.calls": "band_solver.eig",
    "geometry.quad.calls": "geometry.quad",
}
COUNTS = ("quasi_bergman.inner_products", "band_solver.fibers", "geometry.nodes", "pipeline.h_steps")

# metric -> (unit, better); BENCHMARK.json lists the same metrics
UNITS = {
    **{m: ("s", "lower") for m in SELF_TIME},
    **{m: ("count", "lower") for m in CALLS},
    "quasi_bergman.inner_products": ("count-computed", "lower"),
    "band_solver.fibers": ("count", "lower"),
    "geometry.nodes": ("count", "lower"),
    "pipeline.h_steps": ("count", "lower"),
    "band_solver.fibers_per_s": ("1/s", "higher"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append(Span(name, self.clock(), math.nan, parent))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx].end = self.clock()

    def wrap(self, fn, name: str, count=None, caller=None):
        """fn, recording a span per call; with ``caller``, only calls made
        directly from inside an open span of that name are recorded."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if caller is not None and (not self._stack or self.spans[self._stack[-1]].name != caller):
                return fn(*args, **kwargs)
            with self.span(name):
                out = fn(*args, **kwargs)
            if count is not None:
                count(self.counts, out)
            return out

        return traced

    @contextmanager
    def installed(self):
        """Replace each entry point by its traced wrapper, and restore on exit."""
        saved = []
        try:
            for module, attr, name, count, *caller in ENTRY_POINTS:
                mod = importlib.import_module(module)
                fn = getattr(mod, attr)
                saved.append((mod, attr, fn))
                setattr(mod, attr, self.wrap(fn, name, count, *caller))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return [
        (s.end - s.start) - _covered(children[i], s.start, s.end) for i, s in enumerate(spans)
    ]


def layer_metrics(tracers: list[Tracer], untraced_walls: list[float]) -> dict[str, float]:
    """Per-layer metrics of one pass over the inputs.

    ``tracers[i]`` holds the traced runs of input i and ``untraced_walls[i]``
    the mean untraced time of that input, which gives the tracing overhead.
    Each input adds the mean over its runs, so the pass keeps its mix of
    inputs however many runs fit in the time.
    """
    out = dict.fromkeys(UNITS, 0.0)
    bands_wall = 0.0
    for tracer in tracers:
        runs = sum(s.parent is None for s in tracer.spans)
        self_by_name: Counter = Counter()
        calls: Counter = Counter()
        for s, t in zip(tracer.spans, self_times(tracer.spans)):
            self_by_name[s.name] += t / runs
            calls[s.name] += 1 / runs
            if s.name == "band_solver.bands":
                bands_wall += (s.end - s.start) / runs
            if s.parent is None:
                out["trace.wall_s"] += (s.end - s.start) / runs
        for m, name in SELF_TIME.items():
            out[m] += self_by_name[name]
        for m, name in CALLS.items():
            out[m] += calls[name]
        for m in COUNTS:
            out[m] += tracer.counts[m] / runs
    out["band_solver.fibers_per_s"] = out["band_solver.fibers"] / bands_wall if bands_wall else 0.0
    out["trace.overhead_s"] = out["trace.wall_s"] - sum(untraced_walls)
    return out
