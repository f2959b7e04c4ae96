"""The eleven-point acceptance suite.

Each criterion is a deterministic function of a seed; the runner times it
and records a verdict plus the numeric artifacts behind it.  Criterion 11
replays criteria 1-10 and byte-compares the timing-stripped reports, so
every other criterion must keep its details free of wall-clock data.

``run_all`` executes everything; the CLI ``suite`` subcommand and the
acceptance tests are thin wrappers around it.  The per-instance checks of
criteria 3, 6 and 7 (``kernel_check``, ``good_modulus_check``,
``thinning_check``) and the seeded draws of 6 and 7 are also what
``verify --theorem kernel|good-modulus|thinning`` runs.

Criteria, runners and grid-taking checks pass their ``memory_budget`` to
every ``certified_l1`` or ``riemann_l1`` call (``None``: the environment's).
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass

import numpy as np

from .bounds import (assemble_blocks, bernstein_check, constant_scan,
                     family_gaps, family_intervals, family_random_sets,
                     verify_multidim, verify_multidimz)
from .core import IntegerSet, TrigPoly, indicator_poly
from .kernels import (FlatTopKernel, discrete_l1_bound, flat_top_build,
                      flat_top_discrete_l1, flat_top_transform,
                      property_violations, transform_from_values)
from .modulus import (GoodModulusResult, ResidueFilter, brute_force_modulus,
                      good_modulus, thinning_transform)
from .quadrature import certified_l1, riemann_l1, riemann_rho
from .structures import build_strong_integer, build_strong_lattice

DEFAULT_SEED = 1729

GAP_SPECS = ((1, 100, 3, 2), (2, 100, 5, 4), (1, 500, 10, 8),
             (3, 1000, 7, 5), (1, 5000, 25, 12), (7, 4000, 9, 6))


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    runtime: float
    limit: float | None
    details: dict

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        out = f"criterion {self.number:02d} {self.name}: {status} ({self.runtime:.1f}s"
        if self.limit is not None:
            out += f" / limit {self.limit:.0f}s"
        return out + ")"

    def to_json_dict(self, include_timing: bool = True) -> dict:
        out = {"number": self.number, "name": self.name, "passed": self.passed,
               "details": self.details}
        if include_timing:
            out["runtime"] = self.runtime
            out["limit"] = self.limit
        return out


def _rng(seed: int, number: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), number]))


def _random_increasing(rng: np.random.Generator, size: int,
                       max_gap: int) -> IntegerSet:
    gaps = rng.integers(1, max_gap + 1, size=size)
    start = int(rng.integers(0, 1000))
    return IntegerSet.from_iterable(int(x) for x in start + np.cumsum(gaps))


def criterion_01(seed: int, memory_budget: int | None = None,
                 inject_kernel_fault: bool = False) -> tuple[bool, dict]:
    """Flat-top plateau and support hold with exact integer equality."""
    pairs = 0
    violations = 0
    first_violation = ""
    for n in range(3, 41):
        for m in range(2, n):
            bad = property_violations(flat_top_build(m, n))
            pairs += 1
            if bad:
                violations += len(bad)
                first_violation = first_violation or f"(M,N)=({m},{n}): {bad[0]}"
    if inject_kernel_fault:
        good = flat_top_build(3, 10)
        dented = np.where(good.freqs == 0, 4, good.values)  # K(0) = 4/9
        bad = property_violations(FlatTopKernel(3, 10, good.freqs, dented))
        pairs += 1
        if bad:
            violations += len(bad)
            first_violation = first_violation or f"injected fault: {bad[0]}"
    details = {"pairs": pairs, "violations": violations,
               "fault_injected": inject_kernel_fault}
    if first_violation:
        details["first_violation"] = first_violation
    return violations == 0, details


def criterion_02(seed: int, memory_budget: int | None = None) -> tuple[bool, dict]:
    """Transform factorization matches direct summation to 1e-9."""
    ts = np.arange(1000, dtype=np.float64) / 1000
    rows = []
    worst = 0.0
    for m, n in ((2, 5), (3, 10), (5, 23)):
        kern = flat_top_build(m, n)
        direct = transform_from_values(kern, ts)
        factored = flat_top_transform(kern, ts)
        err = float(np.max(np.abs(direct - factored)))
        worst = max(worst, err)
        rows.append({"m": m, "n": n, "max_error": err})
    return worst <= 1e-9, {"rows": rows, "max_error": worst, "tolerance": 1e-9}


def kernel_check(m: int, n: int, r: int, memory_budget: int | None = None) -> dict:
    """Exact plateau and support of the (M, N) flat-top kernel, and its
    r-point discrete transform mean against 32*pi*(2+log(1+N/M))."""
    kern = flat_top_build(m, n)
    bad = property_violations(kern)
    mean = flat_top_discrete_l1(kern, r, memory_budget)
    bound = discrete_l1_bound(m, n)
    return {"m": m, "n": n, "violations": bad, "r": r, "discrete_mean": mean,
            "bound": bound, "ok": not bad and mean <= bound}


def criterion_03(seed: int, memory_budget: int | None = None) -> tuple[bool, dict]:
    """Discrete transform mean stays under 32*pi*(2+log(1+N/M))."""
    checks = [kernel_check(m, n, mult * (2 * n + 4 * m + 1), memory_budget)
              for m in (2, 5, 11) for n in (12, 23, 40) for mult in (1, 4, 16)]
    rows = [{"m": c["m"], "n": c["n"], "r": c["r"], "mean": c["discrete_mean"],
             "bound": c["bound"], "ok": c["ok"]} for c in checks]
    return all(c["ok"] for c in checks), {"rows": rows}


def criterion_04(seed: int, memory_budget: int | None = None) -> tuple[bool, dict]:
    """Riemann means of Dirichlet kernels obey the pi*d/N error bound, down
    to the coarsest alias-free grid N = 2d+1."""
    rows = []
    ok = True
    for d in (10, 50, 200):
        f = indicator_poly(IntegerSet.from_iterable(range(-d, d + 1)))
        reference = riemann_l1(f, 10 ** 6, memory_budget)
        for n_coarse in (2 * d + 1, 4 * math.ceil(4 * math.pi * d)):
            coarse = riemann_l1(f, n_coarse, memory_budget)
            allowed = riemann_rho(d, n_coarse) * reference
            err = abs(coarse - reference)
            good = err <= allowed
            ok = ok and good
            rows.append({"d": d, "grid": n_coarse, "coarse": coarse,
                         "reference": reference, "difference": err,
                         "allowed": allowed, "ok": good})
    interval = indicator_poly(IntegerSet.from_iterable(range(1, 102)))
    ref101 = riemann_l1(interval, 10 ** 6, memory_budget)
    band_ok = abs(ref101 - 2.856) <= 0.01
    ok = ok and band_ok
    return ok, {"rows": rows, "interval_101_mean": ref101,
                "interval_101_band": [2.846, 2.866], "interval_101_ok": band_ok}


def _random_poly(rng: np.random.Generator, max_degree: int = 64) -> TrigPoly:
    d = int(rng.integers(1, max_degree + 1))
    count = int(rng.integers(1, min(2 * d + 1, 24) + 1))
    freqs = rng.choice(2 * d + 1, size=count, replace=False) - d
    re = rng.standard_normal(count)
    im = rng.standard_normal(count)
    return TrigPoly(1, {int(f): complex(a, b) for f, a, b in zip(freqs, re, im)})


def criterion_05(seed: int, memory_budget: int | None = None) -> tuple[bool, dict]:
    """Derivative norms stay under 2*pi*d times the norm, 200 random polynomials."""
    rng = _rng(seed, 5)
    failures = []
    degrees = []
    for i in range(200):
        f = _random_poly(rng)
        res = bernstein_check(f, rel_err=0.1, memory_budget=memory_budget)
        degrees.append(f.degree[0])
        if not res.passed:
            failures.append({"index": i, "degree": f.degree[0],
                             "lhs_lo": res.lhs.lo, "rhs": res.rhs})
    return not failures, {"count": 200, "max_degree": max(degrees),
                          "failures": failures}


def good_modulus_sets(seed: int, count: int):
    """Criterion 6's seeded sets: sizes log-uniform in [8, 10^4], gaps up to
    a log-uniform maximum in [1, e^6], from a random start in [0, 1000)."""
    rng = _rng(seed, 6)
    for _ in range(count):
        size = int(round(math.exp(rng.uniform(math.log(8), math.log(10 ** 4)))))
        size = min(max(size, 8), 10 ** 4)
        max_gap = int(round(math.exp(rng.uniform(0.0, 6.0))))
        yield _random_increasing(rng, size, max_gap)


def good_modulus_check(I: IntegerSet) -> tuple[GoodModulusResult, dict]:
    """good_modulus on one set: its window bounds, and its (j0, |I(q;s)|)
    against brute force.  Returns the result and the verdict row."""
    res = good_modulus(I)
    brute = brute_force_modulus(I)
    agree = (res.j0, len(res.filtered)) == brute
    return res, {"size": len(I), "j0": res.j0, "filtered": len(res.filtered),
                 "brute": list(brute), "brute_agrees": agree,
                 "lower": res.lower_bound, "upper": res.upper_bound,
                 "bounds_ok": res.bounds_ok, "ok": res.bounds_ok and agree}


def criterion_06(seed: int, memory_budget: int | None = None) -> tuple[bool, dict]:
    """Good-modulus window bounds and brute-force agreement, 500 random sets."""
    rows = [good_modulus_check(I)[1] for I in good_modulus_sets(seed, 500)]
    bad = [{"index": i, **row} for i, row in enumerate(rows) if not row["ok"]]
    sizes = [row["size"] for row in rows]
    return not bad, {"count": 500, "min_size": min(sizes),
                     "max_size": max(sizes), "failures": bad}


def thinning_configs(seed: int, count: int):
    """Criterion 7's seeded block configurations (blocks, d1, d2, delta, q,
    s), each meeting every thinning hypothesis."""
    rng = _rng(seed, 7)
    for _ in range(count):
        while True:
            d1 = int(rng.integers(5, 13))
            delta = float(rng.uniform(0.4, 1.6))
            m = math.ceil(delta * d1 / 2)
            if 2 <= m < d1:
                break
        d2 = int(math.ceil((2 + 2 * delta) * d1 + 4)) + int(rng.integers(0, 8))
        q = int(rng.choice(np.array([4, 5, 7, 8, 13, 16])))
        isize = int(rng.integers(6, 21))
        index = _random_increasing(rng, isize, 3).translate(
            int(rng.integers(-10, 10)))
        blocks = {}
        for k in index:
            count_k = int(rng.integers(1, 2 * d1 + 2))
            freqs = rng.choice(2 * d1 + 1, size=count_k, replace=False) - d1
            re = rng.standard_normal(count_k)
            im = rng.standard_normal(count_k)
            blocks[k] = TrigPoly(1, {int(f): complex(a, b)
                                     for f, a, b in zip(freqs, re, im)})
        s = int(rng.choice(index.array)) % q
        yield blocks, d1, d2, delta, q, s


def thinning_check(blocks, d1: int, d2: int, delta: float, q: int, s: int,
                   rel_err: float, memory_budget: int | None = None) -> dict:
    """Thin one block configuration: the transform must equal direct block
    selection exactly (identity), its certified norm must not exceed
    factor * ||F||_1 (certified), and its upper end must stay within
    1 + 2*rel_err of factor times the upper end of ||F||_1 (slack)."""
    F = assemble_blocks(blocks, d2)
    thinned, factor = thinning_transform(F, d1, d2, delta, ResidueFilter(q, s))
    direct = {(k * d2 + l,): c for k, f_k in blocks.items() if k % q == s
              for (l,), c in f_k.terms.items()}
    identity = thinned.terms == direct
    norm_f = certified_l1(F, rel_err, memory_budget)
    norm_t = certified_l1(thinned, rel_err, memory_budget)
    certified = norm_t.lo <= factor * norm_f.hi
    slack = norm_t.hi <= factor * norm_f.hi * (1 + 2 * rel_err)
    return {"d1": d1, "d2": d2, "delta": delta, "q": q, "s": s,
            "identity": identity, "certified": certified, "slack": slack,
            "factor": factor, "ratio": norm_t.hi / norm_f.lo,
            "ok": identity and certified and slack}


def criterion_07(seed: int, memory_budget: int | None = None) -> tuple[bool, dict]:
    """Thinning identity is exact and the certified norm ratio bound holds."""
    rows = [thinning_check(*config, rel_err=0.05, memory_budget=memory_budget)
            for config in thinning_configs(seed, 50)]
    bad = [{"index": i, **row} for i, row in enumerate(rows) if not row["ok"]]
    return not bad, {"count": 50, "max_ratio": max(r["ratio"] for r in rows),
                     "min_factor": 32 * math.pi * 2, "failures": bad}


def mps_scan_family(seed: int) -> list[tuple[str, IntegerSet]]:
    """The criterion-8 corpus: every interval {1..N} for N in 4..512, the
    fixed rank-2 progressions, and seeded random 64-element sets."""
    fam = family_intervals(range(4, 513))
    fam += family_gaps(GAP_SPECS)
    fam += family_random_sets(12, 64, 10 ** 5, seed=seed * 11 + 8)
    fam += family_random_sets(3, 64, 10 ** 6, seed=seed * 11 + 9)
    return fam


def criterion_08(seed: int, memory_budget: int | None = None) -> tuple[bool, dict]:
    """Empirical coefficient-decay constant stays at or above 0.25."""
    report = constant_scan(mps_scan_family(seed), mode="mps", rel_err=0.1,
                           memory_budget=memory_budget)
    ok = report.min_ratio >= 0.25
    return ok, {"count": len(report.rows), "min_ratio": report.min_ratio,
                "median_ratio": report.median_ratio, "argmin": report.argmin,
                "threshold": 0.25}


def criterion_09(seed: int, memory_budget: int | None = None) -> tuple[bool, dict]:
    """The 32x32 box clears C^2 (ln 32)^2 with a certified margin."""
    A, cert = build_strong_lattice((32, 32))
    verdict = verify_multidim(A, cert, c_mps=0.25, rel_err=0.1, memory_budget=memory_budget)
    ok = verdict.certified and verdict.lhs.lo >= 0.751
    return ok, {"lhs": verdict.lhs.to_json_dict(), "rhs": verdict.rhs,
                "margin": verdict.margin, "certified": verdict.certified,
                "floor": 0.751}


def criterion_10(seed: int, memory_budget: int | None = None) -> tuple[bool, dict]:
    """Integer-flavor desk check: theoretical constant, empirical constant,
    and the size hypothesis correctly reported unmet."""
    A, cert = build_strong_integer((1.0,), (16, 16), shape="box")
    theory = verify_multidimz(A, cert, c_mps=0.25, rel_err=0.1, memory_budget=memory_budget)
    scan = constant_scan(family_intervals(range(4, 129, 4)), mode="mps",
                         rel_err=0.1, memory_budget=memory_budget)
    c_emp = scan.min_ratio
    empirical_constant = c_emp ** cert.rank / math.prod(
        2 + math.log(1 + 2 / d) for d in cert.deltas())
    empirical = verify_multidimz(A, cert, c_mps=0.25, rel_err=0.1,
                                 constant_override=empirical_constant,
                                 memory_budget=memory_budget)
    size_rows = [h for h in theory.hypotheses if h.condition.startswith("n_")]
    cert_rows = [h for h in theory.hypotheses
                 if h.condition == "certificate valid"]
    size_unmet = bool(size_rows) and not any(h.passed for h in size_rows)
    cert_ok = all(h.passed for h in cert_rows)
    ok = theory.passed and empirical.passed and size_unmet and cert_ok
    return ok, {"theoretical_rhs": theory.rhs,
                "theoretical_passed": theory.passed,
                "empirical_constant": empirical_constant,
                "empirical_rhs": empirical.rhs,
                "empirical_passed": empirical.passed,
                "lhs": theory.lhs.to_json_dict(),
                "size_hypothesis_unmet": size_unmet,
                "certificate_ok": cert_ok,
                "scan_min_ratio": c_emp}


_CRITERIA = (
    (1, "kernel-exactness", criterion_01, 10.0),
    (2, "transform-factorization", criterion_02, None),
    (3, "discrete-l1-bound", criterion_03, 30.0),
    (4, "riemann-error-bound", criterion_04, 60.0),
    (5, "derivative-norm-bound", criterion_05, 120.0),
    (6, "good-modulus", criterion_06, 30.0),
    (7, "thinning", criterion_07, 300.0),
    (8, "mps-empirical-constant", criterion_08, 300.0),
    (9, "multidim-desk-check", criterion_09, 600.0),
    (10, "multidimz-desk-check", criterion_10, 120.0),
)


def run_criterion(number: int, seed: int = DEFAULT_SEED,
                  inject_kernel_fault: bool = False,
                  memory_budget: int | None = None) -> CriterionResult:
    for num, name, fn, limit in _CRITERIA:
        if num == number:
            start = time.perf_counter()
            fault = {"inject_kernel_fault": inject_kernel_fault} if num == 1 else {}
            passed, details = fn(seed, memory_budget, **fault)
            elapsed = time.perf_counter() - start
            return CriterionResult(num, name, passed, elapsed, limit, details)
    raise ValueError(f"no criterion {number}")


@dataclass(frozen=True)
class SuiteReport:
    seed: int
    results: tuple[CriterionResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def lines(self) -> list[str]:
        return [r.line() for r in self.results]

    def to_json_dict(self, include_timing: bool = True) -> dict:
        return {"seed": self.seed, "all_passed": self.all_passed,
                "criteria": [r.to_json_dict(include_timing)
                             for r in self.results]}


def _stripped(results) -> str:
    return json.dumps([r.to_json_dict(include_timing=False) for r in results],
                      sort_keys=True)


def run_all(seed: int = DEFAULT_SEED, inject_kernel_fault: bool = False,
            determinism: bool = True, memory_budget: int | None = None) -> SuiteReport:
    """Run criteria 1-10, then replay them to check report determinism (11)."""
    results = [run_criterion(num, seed, inject_kernel_fault, memory_budget)
               for num, _, _, _ in _CRITERIA]
    if determinism:
        start = time.perf_counter()
        replay = [run_criterion(num, seed, inject_kernel_fault, memory_budget)
                  for num, _, _, _ in _CRITERIA]
        first, second = _stripped(results), _stripped(replay)
        elapsed = time.perf_counter() - start
        identical = first == second
        results.append(CriterionResult(
            11, "determinism", identical, elapsed, None,
            {"identical": identical, "report_bytes": len(first)}))
    return SuiteReport(seed, tuple(results))
