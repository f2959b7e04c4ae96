"""Outside-in tracing of the library for the benchmark's traced run.

:func:`patched` replaces each traced function at the place its caller
looks it up (a module global, a class attribute, ``scipy.fft.ifftn``) with
a wrapper that records a span, and restores the originals on exit.  No
library file changes.  Spans stay in memory as
``[name, start, end, parent, item, value]`` rows; ``value`` carries the
count a span contributes (terms recentred, grid points evaluated).

:func:`layer_metrics` turns the spans of one pass into the per-module
metrics: each module's self time (its spans minus their child spans) and
the exact work counts.
"""

from __future__ import annotations

import functools
import math
import time
from contextlib import contextmanager

import scipy.fft

from expsums import bounds, core, kernels, modulus, quadrature, structures

import items

# span name -> per-module self-time metric
SELF_TIME = {
    "core.IntegerSet.from_iterable": "core.set_build_s",
    "core.TrigPoly": "core.poly_build_s",
    "core.indicator_poly": "core.indicator_poly_s",
    "core.recentre": "core.recentre_s",
    "quadrature.eval_grid": "quadrature.scatter_s",
    "scipy.fft.ifftn": "quadrature.fft_s",
    "quadrature.GridEvaluation.abs_mean": "quadrature.reduce_s",
    "quadrature.certified_l1": "quadrature.certified_l1_self_s",
    "kernels.flat_top_build": "kernels.flat_top_build_s",
    "kernels.property_violations": "kernels.checks_s",
    "kernels.flat_top_discrete_l1": "kernels.checks_s",
    "modulus.good_modulus": "modulus.good_modulus_s",
    "modulus.thinning_transform": "modulus.thinning_s",
    "structures.build_strong_lattice": "structures.build_s",
    "structures.build_strong_integer": "structures.build_s",
    "structures.validate_certificate": "structures.validate_s",
    "bounds.constant_scan": "bounds.verdict_self_s",
    "bounds.verify_mps": "bounds.verdict_self_s",
    "bounds.verify_multidim": "bounds.verdict_self_s",
    "bounds.verify_multidimz": "bounds.verdict_self_s",
    "bounds.verify_main_prop": "bounds.verdict_self_s",
}

COUNTS = ("core.terms", "quadrature.grid_points", "quadrature.samples_per_term",
          "quadrature.grid_bytes_max", "quadrature.certified_l1_calls",
          "kernels.flat_top_build_calls", "bounds.verdicts")

METRICS = tuple(dict.fromkeys(SELF_TIME.values())) + COUNTS


def _terms(args, out):
    return len(args[0])


def _grid_points(args, out):
    return math.prod(out.shape)


def _targets():
    """(owner, attribute, span name, value hook) for every traced call site:
    the benchmark's own calls and the library's calls between modules."""
    return [
        (core.IntegerSet, "from_iterable", "core.IntegerSet.from_iterable", None),
        (items, "make_poly", "core.TrigPoly", None),
        (core, "indicator_poly", "core.indicator_poly", None),
        (bounds, "indicator_poly", "core.indicator_poly", None),
        (quadrature, "recentre", "core.recentre", _terms),
        (quadrature, "eval_grid", "quadrature.eval_grid", _grid_points),
        (scipy.fft, "ifftn", "scipy.fft.ifftn", None),
        (quadrature.GridEvaluation, "abs_mean",
         "quadrature.GridEvaluation.abs_mean", None),
        (quadrature, "certified_l1", "quadrature.certified_l1", None),
        (bounds, "certified_l1", "quadrature.certified_l1", None),
        (kernels, "flat_top_build", "kernels.flat_top_build", None),
        (modulus, "flat_top_build", "kernels.flat_top_build", None),
        (kernels, "property_violations", "kernels.property_violations", None),
        (kernels, "flat_top_discrete_l1", "kernels.flat_top_discrete_l1", None),
        (modulus, "good_modulus", "modulus.good_modulus", None),
        (modulus, "thinning_transform", "modulus.thinning_transform", None),
        (structures, "build_strong_lattice", "structures.build_strong_lattice", None),
        (structures, "build_strong_integer", "structures.build_strong_integer", None),
        (structures, "validate_certificate", "structures.validate_certificate", None),
        (bounds, "validate_certificate", "structures.validate_certificate", None),
        (bounds, "constant_scan", "bounds.constant_scan", None),
        (bounds, "verify_mps", "bounds.verify_mps", None),
        (bounds, "verify_multidim", "bounds.verify_multidim", None),
        (bounds, "verify_multidimz", "bounds.verify_multidimz", None),
        (bounds, "verify_main_prop", "bounds.verify_main_prop", None),
    ]


class Tracer:
    """In-memory span recorder; ``item`` tags spans with the current item."""

    def __init__(self):
        self.spans: list[list] = []
        self.item = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn, value=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if value is not None:
                rec[5] = value(args, out)
            return out

        return traced


@contextmanager
def patched(tracer: Tracer):
    """Route every traced call site through ``tracer`` for the ``with`` body."""
    saved = []
    try:
        for owner, attr, name, value in _targets():
            raw = vars(owner)[attr]
            saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                new = staticmethod(tracer.wrap(name, getattr(owner, attr), value))
            else:
                new = tracer.wrap(name, raw, value)
            setattr(owner, attr, new)
        yield tracer
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


def layer_metrics(spans: list[list], wall_s: float) -> dict[str, float]:
    """Per-module metrics of one traced pass that took ``wall_s`` seconds.

    ``trace.unattributed_s`` is the pass time no span accounts for: the
    benchmark's own loop and whatever runs outside the traced calls.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = dict.fromkeys(METRICS, 0.0)
    attributed = 0.0
    terms = points = biggest = 0
    for i, (name, start, end, parent, _, value) in enumerate(spans):
        own = end - start - child[i]
        out[SELF_TIME[name]] += own
        attributed += own
        if name == "core.recentre":
            terms += value
        elif name == "quadrature.eval_grid":
            points += value
            biggest = max(biggest, value)
        elif name == "quadrature.certified_l1":
            out["quadrature.certified_l1_calls"] += 1
        elif name == "kernels.flat_top_build":
            out["kernels.flat_top_build_calls"] += 1
        if name.startswith("bounds.") and not _inside_bounds(spans, parent):
            out["bounds.verdicts"] += 1
    out["core.terms"] = terms
    out["quadrature.grid_points"] = points
    out["quadrature.samples_per_term"] = points / terms if terms else 0.0
    out["quadrature.grid_bytes_max"] = items.BYTES_PER_SAMPLE * biggest
    out["trace.unattributed_s"] = wall_s - attributed
    out["trace.spans"] = len(spans)
    return out


def _inside_bounds(spans, parent: int) -> bool:
    while parent >= 0:
        if spans[parent][0].startswith("bounds."):
            return True
        parent = spans[parent][3]
    return False
