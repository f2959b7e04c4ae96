"""Seeded workloads of the expsums benchmark: inputs, library calls, oracles.

An item is one certified enclosure or one verdict.  ``build(workload, seed)``
returns the items of one pass.  The benchmark makes every input (integer
lists, coefficient maps, sizes) from the seed; the library receives only
those inputs and does all the work on them inside :func:`run_item`, which is
the timed part.  :func:`record` turns an output into a deterministic JSON
string (the "stripped" result) and :func:`check` applies the oracles.

Item sizes follow a fixed schedule per workload and only the contents come
from the seed, so every seed asks for the same amount of work; the schedule
is a golden-ratio sequence, so any prefix of a pass mixes small and large
items.  Library functions are always looked up through their module at call
time, which is where the traced run substitutes its wrappers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from expsums import bounds, core, kernels, modulus, quadrature, structures

WORKLOADS = ("dense", "sparse", "audit")
REL_ERR = 0.1
BYTES_PER_SAMPLE = 16  # complex128 grid samples

# dense: random subsets of density 1/2, one item in FEJER_EVERY a Fejer kernel
DENSE_ITEMS = 24
DENSE_SPANS = (40_000, 80_000)
FEJER_EVERY = 5
# sparse: 64-element sets; at rel_err 0.1 the grids hold 2.5e6..7.5e6 points,
# 80..240 MB for the coefficient and value arrays together, most above the L3
SPARSE_ITEMS = 32
SPARSE_SPANS = (40_000, 120_000)
SPARSE_SIZE = 64

# the six rank-2 progressions (a, b, M, N) of the criterion-8 corpus
GAP_SPECS = ((1, 100, 3, 2), (2, 100, 5, 4), (1, 500, 10, 8),
             (3, 1000, 7, 5), (1, 5000, 25, 12), (7, 4000, 9, 6))
SCAN_INTERVALS = range(4, 513)
KERNEL_PAIRS = 40
MODULUS_SETS = 40
THINNING_CONFIGS = 20
MULTIDIMZ_RANDOM = 7
INTERVAL_101_BAND = (2.846, 2.866)
BOX_FLOOR = 0.751

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class Item:
    kind: str
    label: str
    args: tuple


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence([int(seed), WORKLOADS.index(workload)]))


def _spread(i: int, step: float = _GOLDEN) -> float:
    """The i-th point of a low-discrepancy sequence in [0, 1)."""
    return (i * step) % 1.0


def _schedule(count: int, lo: int, hi: int) -> list[int]:
    return [lo + int((hi - lo) * _spread(i)) for i in range(count)]


def _offset(rng: np.random.Generator) -> int:
    return int(rng.integers(-2 ** 30, 2 ** 30))


def _dense(rng, count: int, spans: tuple[int, int]) -> list[Item]:
    items = []
    for i, w in enumerate(_schedule(count, *spans)):
        shift = _offset(rng)
        if i % FEJER_EVERY == FEJER_EVERY // 2:
            n = (w - 1) // 2
            k = np.arange(-n, n + 1)
            terms = dict(zip((k + shift).tolist(),
                             (1.0 - np.abs(k) / (n + 1)).tolist()))
            items.append(Item("fejer", f"fejer:{n}", (terms,)))
        else:
            keep = rng.random(w) < 0.5
            keep[0] = keep[-1] = True
            elements = (np.flatnonzero(keep) + shift).tolist()
            items.append(Item("set", f"dense:{w}", (elements,)))
    return items


def _sparse(rng, count: int, spans: tuple[int, int], size: int) -> list[Item]:
    items = []
    for w in _schedule(count, *spans):
        inner = rng.choice(w - 2, size=size - 2, replace=False) + 1
        elements = np.sort(np.concatenate(([0, w - 1], inner))) + _offset(rng)
        items.append(Item("set", f"sparse:{w}", (elements.tolist(),)))
    return items


def _random_increasing(rng, size: int, max_gap: int) -> list[int]:
    gaps = rng.integers(1, max_gap + 1, size=size)
    return (int(rng.integers(0, 1000)) + np.cumsum(gaps)).tolist()


def _thinning_config(rng):
    """Blocks meeting the hypotheses of both thinning_transform and
    verify_main_prop (q > 4*pi, (2+2*delta)*d1 + 4 <= d2, 2 <= M < d1)."""
    while True:
        d1 = int(rng.integers(5, 13))
        delta = float(rng.uniform(0.4, 1.6))
        if 2 <= math.ceil(delta * d1 / 2) < d1:
            break
    d2 = math.ceil((2 + 2 * delta) * d1 + 4) + int(rng.integers(0, 8))
    q = int(rng.choice([13, 16]))
    index = _random_increasing(rng, int(rng.integers(6, 21)), 3)
    shift = int(rng.integers(-10, 10))
    blocks = {}
    for k in index:
        count = int(rng.integers(1, 2 * d1 + 2))
        freqs = rng.choice(2 * d1 + 1, size=count, replace=False) - d1
        coeffs = rng.standard_normal(count) + 1j * rng.standard_normal(count)
        blocks[k + shift] = dict(zip(freqs.tolist(), coeffs.tolist()))
    s = (index[int(rng.integers(0, len(index)))] + shift) % q
    return blocks, d1, d2, delta, q, s


def _interleave(groups: list[list[Item]]) -> list[Item]:
    # spread every kind evenly over the pass: item j of n sits at (j + 1/2)/n
    keyed = [((j + 0.5) / len(g), g_i, item)
             for g_i, g in enumerate(groups) for j, item in enumerate(g)]
    return [item for _, _, item in sorted(keyed, key=lambda e: e[:2])]


def _audit(rng) -> list[Item]:
    scan = [Item("scan", f"interval:{n}", (list(range(1, n + 1)),))
            for n in SCAN_INTERVALS]
    scan += [Item("scan", f"gap:{a},{b},{m},{n}",
                  (sorted(a * i + b * j for i in range(1, m + 1)
                          for j in range(1, n + 1)),))
             for a, b, m, n in GAP_SPECS]
    # kernel pairs, set sizes and block shapes follow fixed schedules, so
    # every seed asks for the same work; the seed draws the set contents
    kernel = []
    for j in range(KERNEL_PAIRS):
        n = 3 + int(58 * _spread(j))
        m = 2 + int((n - 2) * _spread(j, _GOLDEN ** 2))
        r = (1, 4, 16)[j % 3] * (2 * n + 4 * m + 1)
        kernel.append(Item("kernel", f"kernel:{m},{n},{r}", (m, n, r)))
    mod = []
    for j in range(MODULUS_SETS):
        size = round(8 * (1e4 / 8) ** _spread(j))
        max_gap = round(math.exp(6.0 * _spread(j, _GOLDEN ** 2)))
        mod.append(Item("modulus", f"modulus:{size}",
                        (_random_increasing(rng, size, max_gap),)))
    thin, main = [], []
    for i in range(THINNING_CONFIGS):
        cfg = _thinning_config(rng)
        thin.append(Item("thinning", f"thinning:{i}", cfg))
        main.append(Item("main_prop", f"main-prop:{i}", cfg))
    box = [Item("box", "box:32x32", ((32, 32),))]
    mdz = [Item("multidimz", "multidimz:box16x16", ((1.0,), (16, 16), "box", None))]
    for j in range(MULTIDIMZ_RANDOM):
        sizes = (8 + j, 16 - j)
        delta = 0.5 + 1.5 * _spread(j)
        mdz.append(Item("multidimz", f"multidimz:{sizes[0]}x{sizes[1]}",
                        ((delta,), sizes, "random", int(rng.integers(2 ** 31)))))
    return _interleave([scan, kernel, mod, thin, main, box, mdz])


def build(workload: str, seed: int, scale: float = 1.0) -> list[Item]:
    """The items of one pass.  ``scale`` < 1 shrinks dense and sparse item
    sizes and counts (the benchmark's own tests use it); audit ignores it."""
    rng = _rng(seed, workload)
    if workload == "dense":
        return _dense(rng, max(FEJER_EVERY, round(DENSE_ITEMS * scale)),
                      tuple(max(64, int(w * scale)) for w in DENSE_SPANS))
    if workload == "sparse":
        return _sparse(rng, max(2, round(SPARSE_ITEMS * scale)),
                       tuple(max(4 * SPARSE_SIZE, int(w * scale))
                             for w in SPARSE_SPANS), SPARSE_SIZE)
    if workload == "audit":
        return _audit(rng)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# the timed library calls


def make_poly(terms) -> core.TrigPoly:
    """Rank-1 polynomial from a coefficient map (the benchmark's one call
    into the TrigPoly constructor, traced as its own span)."""
    return core.TrigPoly(1, terms)


def _run_set(elements):
    A = core.IntegerSet.from_iterable(elements)
    return quadrature.certified_l1(core.indicator_poly(A), REL_ERR)


def _run_fejer(terms):
    return quadrature.certified_l1(make_poly(terms), REL_ERR)


def _run_scan(elements):
    A = core.IntegerSet.from_iterable(elements)
    return bounds.constant_scan([("set", A)], mode="mps", rel_err=REL_ERR)


def _run_kernel(m, n, r):
    kern = kernels.flat_top_build(m, n)
    return kern, kernels.property_violations(kern), kernels.flat_top_discrete_l1(kern, r)


def _run_modulus(elements):
    return modulus.good_modulus(core.IntegerSet.from_iterable(elements))


def _flat_terms(blocks, d2):
    return {k * d2 + l: c for k, terms in blocks.items() for l, c in terms.items()}


def _run_thinning(blocks, d1, d2, delta, q, s):
    F = make_poly(_flat_terms(blocks, d2))
    return modulus.thinning_transform(F, d1, d2, delta, modulus.ResidueFilter(q, s))


def _run_main_prop(blocks, d1, d2, delta, q, s):
    polys = {k: make_poly(terms) for k, terms in blocks.items()}
    return bounds.verify_main_prop(polys, d1, d2, delta, q, s, rel_err=REL_ERR)


def _run_box(sizes):
    A, cert = structures.build_strong_lattice(sizes)
    report = structures.validate_certificate(A, cert)
    return report, bounds.verify_multidim(A, cert, rel_err=REL_ERR)


def _run_multidimz(deltas, sizes, shape, seed):
    A, cert = structures.build_strong_integer(deltas, sizes, shape=shape, seed=seed)
    return bounds.verify_multidimz(A, cert, rel_err=REL_ERR)


_RUN = {"set": _run_set, "fejer": _run_fejer, "scan": _run_scan,
        "kernel": _run_kernel, "modulus": _run_modulus,
        "thinning": _run_thinning, "main_prop": _run_main_prop,
        "box": _run_box, "multidimz": _run_multidimz}


def run_item(item: Item):
    return _RUN[item.kind](*item.args)


# ---------------------------------------------------------------------------
# stripped results, enclosures and oracles (outside the timed phase)


def _result_dict(item: Item, out) -> dict:
    kind = item.kind
    if kind in ("set", "fejer"):
        return out.to_json_dict()
    if kind == "kernel":
        kern, violations, mean = out
        return {"values": len(kern.values), "sum": str(kern.coefficient_sum()),
                "violations": violations, "mean": mean}
    if kind == "thinning":
        thinned, factor = out
        return {"terms": [[f, [c.real, c.imag]] for (f,), c in thinned.ordered_items()],
                "factor": factor}
    if kind == "box":
        report, verdict = out
        return {"certificate": report.ok, "verdict": verdict.to_json_dict()}
    return out.to_json_dict()


def record(item: Item, out) -> str:
    """The deterministic ("stripped") result of one item as a JSON string."""
    return json.dumps({"label": item.label, "result": _result_dict(item, out)},
                      sort_keys=True)


def enclosure(item: Item, out) -> tuple[float, float, tuple[int, ...] | None] | None:
    """(lo, hi, grid) of the item's certified norm enclosure, if it has one;
    scan rows do not keep their grid."""
    if item.kind in ("set", "fejer"):
        enc = out
    elif item.kind == "scan":
        return out.rows[0].lhs_lo, out.rows[0].lhs_hi, None
    elif item.kind in ("main_prop", "multidimz"):
        enc = out.lhs
    elif item.kind == "box":
        enc = out[1].lhs
    else:
        return None
    return enc.lo, enc.hi, enc.grid


def _interval_errors(enc) -> list[str]:
    vals = (enc.lo, enc.riemann, enc.hi)
    if not all(math.isfinite(v) for v in vals):
        return [f"non-finite enclosure {vals}"]
    if not 0 <= enc.lo <= enc.riemann <= enc.hi:
        return [f"enclosure out of order: lo={enc.lo} riemann={enc.riemann} hi={enc.hi}"]
    if any(n < 2 * d + 1 for n, d in zip(enc.grid, enc.degree)):
        return [f"grid {enc.grid} aliases degree {enc.degree}"]
    return []


def _norm_range_errors(lo: float, hi: float, coeffs) -> list[str]:
    # every |c_a| <= ||F||_1 <= ||F||_2, so the enclosure must reach both
    top = max(abs(c) for c in coeffs)
    l2 = math.sqrt(sum(abs(c) ** 2 for c in coeffs))
    if hi < top or lo > l2:
        return [f"[{lo}, {hi}] misses [max|c| = {top}, ||c||_2 = {l2}]"]
    return []


def _verdict_errors(v) -> list[str]:
    errs = _interval_errors(v.lhs)
    if not math.isfinite(v.rhs):
        errs.append(f"non-finite rhs {v.rhs}")
    return errs


def interval_l1(n: int) -> tuple[float, float]:
    """||e(t) + ... + e(nt)||_1 from the closed form |sin(pi n t)/sin(pi t)|,
    as (value, relative error bound).

    The midpoint rule on M points errs by at most V(|f|)/(2M) (Koksma), and
    V(|f|) <= ||f'||_1 <= pi (n-1) ||f||_1 (Bernstein at the centred degree).
    """
    m = 256 * n
    t = (np.arange(m) + 0.5) / m
    value = float(np.mean(np.abs(np.sin(np.pi * n * t) / np.sin(np.pi * t))))
    return value, math.pi * n / (2 * m)


def interval_101_mean() -> float:
    """Reference grid mean of the interval {1..101} on 10^6 points."""
    f = core.indicator_poly(core.IntegerSet.from_iterable(range(1, 102)))
    return quadrature.riemann_l1(f, 10 ** 6)


def check(item: Item, out) -> list[str]:
    """Oracle checks of one output; an empty list means it passed."""
    kind, args = item.kind, item.args
    if kind == "set":
        return _interval_errors(out) or _norm_range_errors(
            out.lo, out.hi, [1.0] * len(set(args[0])))
    if kind == "fejer":
        return _interval_errors(out) or (
            [] if out.contains(1.0) else [f"Fejer norm 1 outside [{out.lo}, {out.hi}]"])
    if kind == "scan":
        row = out.rows[0]
        lo, hi = row.lhs_lo, row.lhs_hi
        if not (math.isfinite(lo) and math.isfinite(hi) and 0 <= lo <= hi):
            return [f"bad scan enclosure [{lo}, {hi}]"]
        errs = _norm_range_errors(lo, hi, [1.0] * len(args[0]))
        if item.label.startswith("interval:"):
            norm, tol = interval_l1(len(args[0]))
            if not (lo <= norm * (1 + tol) and norm * (1 - tol) <= hi):
                errs.append(f"closed-form norm {norm} outside [{lo}, {hi}]")
        if item.label == "interval:101":
            ref = interval_101_mean()
            if not INTERVAL_101_BAND[0] <= ref <= INTERVAL_101_BAND[1]:
                errs.append(f"interval:101 mean {ref} outside {INTERVAL_101_BAND}")
        return errs
    if kind == "kernel":
        m, n, r = args
        kern, violations, mean = out
        errs = [f"K_{{{m},{n}}}: {v}" for v in violations]
        # sum_k K(k) is the transform at 0: (1/M) D_{N+M}(0) F_{M-1}(0)
        if kern.coefficient_sum() != 2 * n + 2 * m + 1:
            errs.append(f"coefficient sum {kern.coefficient_sum()} != {2 * n + 2 * m + 1}")
        if not (math.isfinite(mean) and 0 <= mean <= kernels.discrete_l1_bound(m, n)):
            errs.append(f"discrete mean {mean} outside [0, bound]")
        return errs
    if kind == "modulus":
        (elements,) = args
        ref = modulus.brute_force_modulus(core.IntegerSet.from_iterable(elements))
        errs = []
        if (out.j0, len(out.filtered)) != ref:
            errs.append(f"good_modulus {(out.j0, len(out.filtered))} != brute force {ref}")
        if not out.bounds_ok:
            errs.append("class size outside [|I|^(1/3)/8, q^(1/2)]")
        if any(k % out.q != out.s for k in out.filtered):
            errs.append("filtered set leaves the residue class")
        return errs
    if kind == "thinning":
        blocks, d1, d2, delta, q, s = args
        thinned, factor = out
        direct = {(k * d2 + l,): complex(c) for k, terms in blocks.items()
                  if k % q == s for l, c in terms.items()}
        errs = [] if thinned.terms == direct else ["thinning identity fails"]
        if factor != 32 * math.pi * (2 + math.log(1 + 2 / delta)):
            errs.append(f"thinning factor {factor}")
        return errs
    if kind == "main_prop":
        blocks, d1, d2, delta, q, s = args
        errs = _verdict_errors(out)
        survivors = sum(1 for k in blocks if k % q == s)
        if len(out.rows) != survivors or not out.hypotheses_ok:
            errs.append(f"{len(out.rows)} rows for {survivors} survivors, "
                        f"hypotheses ok {out.hypotheses_ok}")
        return errs
    if kind == "box":
        report, verdict = out
        errs = _verdict_errors(verdict)
        if not (report.ok and verdict.certified and verdict.lhs.lo >= BOX_FLOOR):
            errs.append(f"box not certified above {BOX_FLOOR}: lo={verdict.lhs.lo}")
        return errs
    if kind == "multidimz":
        errs = _verdict_errors(out)
        if not next(h.passed for h in out.hypotheses
                    if h.condition == "certificate valid"):
            errs.append("certificate rejected")
        return errs
    raise ValueError(f"unknown item kind {kind!r}")
