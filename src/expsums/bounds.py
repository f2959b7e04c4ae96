"""Lower-bound verdicts for L1 norms of exponential sums.

Every verdict compares a certified enclosure of the left-hand norm against
an explicitly computed right-hand side.  Comparisons are interval-safe: a
verdict passes only when the LOWER end of the enclosure clears an RHS
assembled from the safe side of every ingredient, and it is "certified"
only when every stated hypothesis also passed.  The one abstract constant
(the absolute constant of the coefficient-decay theorem) is a configuration
parameter, default 0.25, echoed into every report.
"""

from __future__ import annotations

import math
import statistics
import sys
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .core import (IntegerSet, LatticeSet, TrigPoly, _check_i64, _check_real, _first_non_number,
                   indicator_poly)
from .errors import HypothesisCheck, HypothesisError
from .modulus import ResidueFilter, residue_filter, thinning_bound_factor
from .quadrature import ZERO_INTERVAL, NormInterval, certified_l1, derivative
from .structures import (DimCertificate, build_strong_lattice, gap_rank2,
                         project_and_fibre, validate_certificate)

DEFAULT_C_MPS = 0.25


def _check_c_mps(c_mps) -> float:
    """``c_mps`` as a float; a ValueError naming it unless it is a finite
    number above 0."""
    c = _check_real(c_mps, "c_mps")
    if c <= 0:
        raise ValueError(f"c_mps must be a finite number above 0, got {c_mps!r}")
    return c


def _c_mps_power(base: float, k: int, c_mps: float) -> float:
    """base^k, for a ``base`` formed from ``c_mps``; a ValueError naming
    c_mps when the power passes float64 (an underflow gives 0.0)."""
    try:
        return base ** k
    except OverflowError:
        raise ValueError(f"c_mps {c_mps!r} is out of range: {base!r}^{k} "
                         "passes float64") from None


@dataclass(frozen=True)
class InequalityVerdict:
    """One inequality with its certificate trail; every ``verify`` theorem
    returns one.

    A lower bound (``sense`` ">=") passes when the lower end of ``lhs``
    clears ``rhs``, an upper bound ("<=") when it is at most ``rhs``;
    ``lhs`` is an enclosure or an exact number.  A verdict with no ``lhs``
    (a batch of checks) passes when every row's ``ok`` is true.  ``rows``
    holds one JSON object per instance or part.
    """

    name: str
    lhs: NormInterval | float | None = None
    rhs: float | None = None
    constant_used: float | None = None
    hypotheses: tuple[HypothesisCheck, ...] = ()
    extras: dict = field(default_factory=dict)
    rows: tuple[dict, ...] = ()
    sense: str = ">="

    def __post_init__(self):
        if self.sense not in (">=", "<="):
            raise ValueError(f"sense must be '>=' or '<=', got {self.sense!r}")

    @property
    def margin(self) -> float | None:
        if self.lhs is None:
            return None
        lo = self.lhs.lo if isinstance(self.lhs, NormInterval) else self.lhs
        return self.rhs - lo if self.sense == "<=" else lo - self.rhs

    @property
    def passed(self) -> bool:
        if self.lhs is None:
            return all(row["ok"] for row in self.rows)
        return self.margin >= 0

    @property
    def hypotheses_ok(self) -> bool:
        return all(h.passed for h in self.hypotheses)

    @property
    def certified(self) -> bool:
        return self.passed and self.hypotheses_ok

    def to_json_dict(self) -> dict:
        lhs = self.lhs.to_json_dict() if isinstance(self.lhs, NormInterval) else self.lhs
        out = {"name": self.name, "lhs": lhs,
               "rhs": self.rhs, "constant_used": self.constant_used,
               "margin": self.margin, "passed": self.passed,
               "certified": self.certified,
               "hypotheses": [h.to_json_dict() for h in self.hypotheses],
               "extras": self.extras}
        # left out at their defaults: a lower bound with no rows has the
        # nine keys above alone
        if self.sense != ">=":
            out["sense"] = self.sense
        if self.rows:
            out["rows"] = list(self.rows)
        return out


def as_poly(x) -> TrigPoly:
    """Coerce a set or polynomial argument to its exponential sum."""
    if isinstance(x, TrigPoly):
        return x
    if isinstance(x, (IntegerSet, LatticeSet)):
        return indicator_poly(x)
    raise TypeError(f"expected a set or polynomial, got {type(x).__name__}")


def mps_rhs(coeffs: Sequence[complex]) -> float:
    """sum_j |u_j| / j for coefficients listed in increasing frequency order.

    This is the coefficient-decay lower bound WITHOUT its absolute constant.
    ``coeffs`` is a flat sequence of finite numbers: a value that is not a
    number (a string, None, a sequence) or is not finite raises a ValueError
    naming its index, as :class:`~expsums.core.TrigPoly` names a frequency.
    """
    try:
        values = list(coeffs)
    except TypeError:  # not a sequence
        raise ValueError(f"coefficients must be a sequence of numbers, got {coeffs!r}") from None
    if not values:
        raise ValueError("need at least one coefficient")
    i = _first_non_number(values)
    if i is not None:
        raise ValueError(f"coefficient {values[i]!r} at index {i} is not a number")
    try:
        c = np.array(values, dtype=np.complex128)
    except OverflowError:  # an int past float64, which is not finite as a float
        c = np.array([math.inf if abs(v) > sys.float_info.max else v for v in values],
                     dtype=np.complex128)
    finite = np.isfinite(c)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError(f"coefficient {values[i]!r} at index {i} is not finite")
    return _decay_sum(c)


def _decay_sum(c: np.ndarray) -> float:
    # hypot is what abs(complex) computes, and cumsum adds left to right,
    # so this is the plain sum |u_1|/1 + |u_2|/2 + ... on every Python
    return float((np.hypot(c.real, c.imag) / np.arange(1, len(c) + 1)).cumsum()[-1])


def mps_rhs_of(f: TrigPoly) -> float:
    """mps_rhs over the nonzero coefficients of a rank-1 polynomial."""
    if f.rank != 1:
        raise ValueError("rank-1 polynomials only")
    if f.is_zero:
        raise ValueError("zero polynomial")
    return _decay_sum(f.coeffs)  # already a complex128 vector


def verify_mps(A, c_mps: float = DEFAULT_C_MPS, rel_err: float = 0.1,
               memory_budget: int | None = None) -> InequalityVerdict:
    """||f||_1 >= C * sum_j |u_j|/j for a rank-1 set or polynomial."""
    c_mps = _check_c_mps(c_mps)
    f = as_poly(A)
    if f.rank != 1:
        raise ValueError("rank-1 sets only")
    raw = mps_rhs_of(f)
    lhs = certified_l1(f, rel_err, memory_budget)
    return InequalityVerdict("mps", lhs, c_mps * raw, c_mps,
                             extras={"rhs_without_constant": raw,
                                     "terms": len(f)})


def verify_basic_multidim(A: LatticeSet, c_mps: float = DEFAULT_C_MPS, rel_err: float = 0.1,
                          memory_budget: int | None = None) -> InequalityVerdict:
    """Rank-r norm against C * sum_j ||fibre_j||_1 / j, fibres by first coordinate.

    The fibre norms enter through their certified LOWER ends, so the RHS is
    itself certified and the comparison stays one-sided.
    """
    c_mps = _check_c_mps(c_mps)
    if not isinstance(A, LatticeSet) or A.rank < 2:
        raise ValueError("lattice sets of rank >= 2 only")
    first, fibres = project_and_fibre(A, 1)
    rows = []
    raw = 0.0
    for j, a1 in enumerate(first, start=1):
        enc = certified_l1(indicator_poly(fibres[a1]), rel_err, memory_budget)
        raw += enc.lo / j
        rows.append({"j": j, "a1": a1, "fibre_size": len(fibres[a1]),
                     "norm": enc.to_json_dict()})
    lhs = certified_l1(indicator_poly(A), rel_err, memory_budget)
    return InequalityVerdict("basic-multidim", lhs, c_mps * raw, c_mps,
                             extras={"rhs_without_constant": raw,
                                     "fibres": rows})


def _certificate_checks(A, cert: DimCertificate) -> tuple[HypothesisCheck, ...]:
    report = validate_certificate(A, cert)
    detail = "" if report.ok else f"first failure: {report.first_failure}"
    return (HypothesisCheck("certificate valid", report.ok, detail),)


def verify_multidim(A: LatticeSet, cert: DimCertificate,
                    c_mps: float = DEFAULT_C_MPS, rel_err: float = 0.1,
                    memory_budget: int | None = None) -> InequalityVerdict:
    """Rank-r lattice norm against C^r * prod_i ln(n_i)."""
    c_mps = _check_c_mps(c_mps)
    hyps = _certificate_checks(A, cert)
    sizes = cert.sizes()
    raw = math.prod(math.log(n) for n in sizes)
    rhs = _c_mps_power(c_mps, cert.rank, c_mps) * raw
    lhs = certified_l1(indicator_poly(A), rel_err, memory_budget)
    return InequalityVerdict("multidim", lhs, rhs, c_mps, hyps,
                             extras={"sizes": list(sizes),
                                     "rhs_without_constant": raw})


def multidimz_constant(rank: int, deltas: Sequence[float],
                       c_mps: float = DEFAULT_C_MPS) -> float:
    """C^r (2^9 pi)^(-r) prod_j (2 + log(1 + 2/delta_j))^(-1)."""
    if len(deltas) != rank - 1:
        raise ValueError("need exactly rank - 1 deltas")
    c_mps = _check_c_mps(c_mps)
    c = _c_mps_power(c_mps / (2 ** 9 * math.pi), rank, c_mps)
    for d in deltas:
        c /= 2 + math.log(1 + 2 / d)
    return c


def multidimz_size_checks(sizes: Sequence[int], c_mps: float,
                          inverse_constant: bool = False) -> tuple[HypothesisCheck, ...]:
    """The size hypothesis n_i >= pi^3 2^21 C^3 prod_{j>=i} (ln n_j)^3.

    ``inverse_constant`` evaluates the C^(-3) reading instead (the literal
    C^3 weakens the requirement as C shrinks, which reads like a typo; both
    readings are reported, only the literal one gates certification).
    """
    c_mps = _check_c_mps(c_mps)
    cpow = _c_mps_power(c_mps, -3 if inverse_constant else 3, c_mps)
    tag = "C^-3" if inverse_constant else "C^3"
    out = []
    r = len(sizes)
    for i in range(r):
        need = math.pi ** 3 * 2 ** 21 * cpow
        need *= math.prod(math.log(sizes[j]) ** 3 for j in range(i, r))
        out.append(HypothesisCheck(
            f"n_{i + 1} >= pi^3 2^21 {tag} prod_(j>={i + 1}) ln(n_j)^3",
            sizes[i] >= need,
            f"n_{i + 1} = {sizes[i]}, required {need:.6g}"))
    return tuple(out)


def verify_multidimz(A: IntegerSet, cert: DimCertificate,
                     c_mps: float = DEFAULT_C_MPS, rel_err: float = 0.1,
                     constant_override: float | None = None,
                     memory_budget: int | None = None) -> InequalityVerdict:
    """Integer-set norm against C_(delta...) * prod_i ln(n_i).

    The theoretical constant is astronomically small, so the interesting
    output at desk scale is the hypothesis report (the size hypothesis
    fails for any set small enough to integrate) plus the empirical mode,
    where ``constant_override`` replaces the whole constant.
    """
    if constant_override is not None:
        constant_override = _check_real(constant_override, "constant_override")
    c_mps = _check_c_mps(c_mps)
    if cert.rank == 1:
        return verify_mps(A, c_mps, rel_err, memory_budget)
    hyps = _certificate_checks(A, cert)
    sizes = cert.sizes()
    deltas = cert.deltas()
    hyps = hyps + multidimz_size_checks(sizes, c_mps)
    inverse = multidimz_size_checks(sizes, c_mps, inverse_constant=True)
    raw = math.prod(math.log(n) for n in sizes)
    if constant_override is None:
        constant = multidimz_constant(cert.rank, deltas, c_mps)
    else:
        constant = constant_override
    lhs = certified_l1(indicator_poly(A), rel_err, memory_budget)
    return InequalityVerdict("multidimz", lhs, constant * raw, constant, hyps,
                             extras={"sizes": list(sizes),
                                     "deltas": list(deltas),
                                     "rhs_without_constant": raw,
                                     "theoretical_constant": multidimz_constant(
                                         cert.rank, deltas, c_mps),
                                     "c_mps": c_mps,
                                     "size_hypothesis_inverse_reading":
                                         [h.to_json_dict() for h in inverse]})


# The derivative inequality is attained with equality by single monomials,
# where both sides reduce to 2 pi d |c| computed along different float paths.
# Allow a few hundred ulps so the comparison cannot flip on rounding; this is
# eleven orders below the default rel_err.
_FP_SLACK = 1e-12


def bernstein_check(f: TrigPoly, rel_err: float = 0.1,
                    memory_budget: int | None = None) -> InequalityVerdict:
    """||f'||_1 <= 2 pi d ||f||_1 with certified enclosures (rank 1), an
    upper-bound verdict.

    Uses the conservative interval ends: lhs.lo against rhs = 2 pi d *
    hi(||f||_1), raised by ``_FP_SLACK``.  d is the degree of f as given
    (max |frequency|), which is what the derivative actually sees;
    ``extras`` holds it and the enclosure of ||f||_1.
    """
    if f.rank != 1:
        raise ValueError("rank-1 polynomials only")
    d = f.degree[0]
    if f.is_zero:
        lhs = norm = ZERO_INTERVAL
    else:
        df = derivative(f)
        lhs = ZERO_INTERVAL if df.is_zero else certified_l1(df, rel_err, memory_budget)
        norm = certified_l1(f, rel_err, memory_budget)
    return InequalityVerdict("bernstein", lhs, 2 * math.pi * d * norm.hi * (1 + _FP_SLACK),
                             2 * math.pi * d, sense="<=",
                             extras={"degree": d, "norm": norm.to_json_dict()})


def assemble_blocks(blocks: Mapping[int, TrigPoly], d2: int) -> TrigPoly:
    """F = sum_k f_k(t) e(d2 k t) from the block map."""
    parts = [TrigPoly(1)]  # the zero polynomial, so an empty map gives F = 0
    for k, f_k in blocks.items():
        if f_k.rank != 1:
            raise ValueError("blocks must be rank-1 polynomials")
        parts.append(f_k.shifted(int(k) * int(d2)))
    # overlapping blocks add up, in block order
    return TrigPoly.from_arrays(1, np.concatenate([g.freqs for g in parts]),
                                np.concatenate([g.coeffs for g in parts]))


def verify_main_prop(blocks: Mapping[int, TrigPoly], d1: int, d2: int,
                     delta: float, q: int, s: int,
                     c_mps: float = DEFAULT_C_MPS, rel_err: float = 0.1,
                     memory_budget: int | None = None) -> InequalityVerdict:
    """The residue-thinned block bound for F = sum_k f_k(t) e(d2 k t).

    Keys of ``blocks`` form the index set I; the surviving blocks are those
    with k = s mod q, enumerated k_1 < ... < k_J.  rhs = (T1 - T2) / factor
    where T1 = C * sum_j lo_j / (2j) collects the per-block coefficient-decay
    terms from the certified lower ends, and T2 = (2 pi d1 / (q d2)) * sum_j
    hi_j is the derivative error term from the upper ends.  ``extras`` holds
    t1, t2 and factor, and ``rows`` one row per surviving block, whose
    bracket C/(2j) - 2 pi d1/(q d2) is reported raw and may be negative.
    """
    d1, d2 = _check_i64(d1, "d1"), _check_i64(d2, "d2")
    delta, c_mps = _check_real(delta, "delta"), _check_c_mps(c_mps)
    flt = ResidueFilter(q, s)
    q = flt.q
    index = IntegerSet.from_iterable(blocks)
    survivors = residue_filter(index, flt.q, flt.s)
    hyps = [
        HypothesisCheck("(2+delta)*d1 < d2", (2 + delta) * d1 < d2,
                        f"(2+delta)*d1 = {(2 + delta) * d1}, d2 = {d2}"),
        HypothesisCheck("q > 4*pi", q > 4 * math.pi, f"q = {q}"),
        HypothesisCheck("I(q;s) nonempty", len(survivors) > 0,
                        f"I(q;{flt.s}) mod {flt.q} of |I| = {len(index)}"),
    ]
    for k, f_k in sorted(blocks.items()):
        deg = 0 if f_k.is_zero else f_k.degree[0]
        if deg > d1 or f_k.is_zero:
            hyps.append(HypothesisCheck("blocks supported in |n| <= d1, nonzero",
                                        False, f"block {k}: degree {deg}"))
            break
    if not all(h.passed for h in hyps):
        raise HypothesisError(next(h.condition for h in hyps if not h.passed),
                              next(h.detail for h in hyps if not h.passed))

    eps = 2 * math.pi * d1 / (q * d2)
    t1 = 0.0
    t2 = 0.0
    rows = []
    for j, k in enumerate(survivors, start=1):
        enc = certified_l1(blocks[k], rel_err, memory_budget)
        bracket = c_mps / (2 * j) - eps
        t1 += c_mps * enc.lo / (2 * j)
        t2 += eps * enc.hi
        rows.append({"j": j, "k": k, "b": (k - flt.s) // flt.q,
                     "norm": enc.to_json_dict(), "bracket": bracket})
    factor = thinning_bound_factor(delta)
    rhs = (t1 - t2) / factor
    F = assemble_blocks(blocks, d2)
    lhs = certified_l1(F, rel_err, memory_budget)
    return InequalityVerdict("main-prop", lhs, rhs, c_mps, tuple(hyps),
                             extras={"t1": t1, "t2": t2, "factor": factor},
                             rows=tuple(rows))


@dataclass(frozen=True)
class ScanRow:
    label: str
    ratio: float
    lhs_lo: float
    lhs_hi: float
    rhs_raw: float

    def to_json_dict(self) -> dict:
        return {"label": self.label, "ratio": self.ratio,
                "lhs_lo": self.lhs_lo, "lhs_hi": self.lhs_hi,
                "rhs_raw": self.rhs_raw}


@dataclass(frozen=True)
class ScanReport:
    """Empirical-constant scan: ratio lhs.lo / constant-free rhs per instance."""

    mode: str
    rows: tuple[ScanRow, ...]

    @property
    def min_ratio(self) -> float:
        return min(r.ratio for r in self.rows)

    @property
    def median_ratio(self) -> float:
        return float(statistics.median(r.ratio for r in self.rows))

    @property
    def argmin(self) -> str:
        return min(self.rows, key=lambda r: r.ratio).label

    def to_json_dict(self) -> dict:
        return {"mode": self.mode, "count": len(self.rows),
                "min_ratio": self.min_ratio, "median_ratio": self.median_ratio,
                "argmin": self.argmin,
                "rows": [r.to_json_dict() for r in self.rows]}


def constant_scan(family: Sequence[tuple[str, object]], mode: str = "mps", rel_err: float = 0.1,
                  memory_budget: int | None = None) -> ScanReport:
    """Scan a family and record lhs.lo / rhs-without-constant per instance.

    mps mode takes sets or rank-1 polynomials; multidim and multidimz modes
    take (set, certificate) pairs and divide by prod ln(n_i).  The minimum
    ratio over a family is an empirical estimate of the absolute constant.
    """
    if mode not in ("mps", "multidim", "multidimz"):
        raise ValueError(f"unknown mode {mode!r}")
    rows = []
    for label, inst in family:
        if mode == "mps":
            f = as_poly(inst)
            raw = mps_rhs_of(f)
        else:
            A, cert = inst
            f = as_poly(A)
            raw = math.prod(math.log(n) for n in cert.sizes())
        enc = certified_l1(f, rel_err, memory_budget)
        ratio = math.inf if raw == 0 else enc.lo / raw
        rows.append(ScanRow(label, ratio, enc.lo, enc.hi, raw))
    if not rows:
        raise ValueError("family is empty")
    return ScanReport(mode, tuple(rows))


def family_intervals(ns: Sequence[int]) -> list[tuple[str, IntegerSet]]:
    """The intervals {1..n}; these approach the conjectured sharp constant."""
    return [(f"interval:{n}", IntegerSet.from_iterable(range(1, n + 1)))
            for n in ns]


def family_gaps(specs: Sequence[tuple[int, int, int, int]]) -> list[tuple[str, IntegerSet]]:
    """Rank-2 progressions {a*i + b*j} from (a, b, M, N) rows."""
    return [(f"gap:{a},{b},{m},{n}", gap_rank2(a, b, m, n))
            for a, b, m, n in specs]


def family_random_sets(count: int, size: int, span: int,
                       seed: int = 0) -> list[tuple[str, IntegerSet]]:
    """Seeded random frequency sets: ``size`` distinct elements of [0, span)."""
    streams = np.random.SeedSequence(seed).spawn(count)
    out = []
    for i, ss in enumerate(streams):
        rng = np.random.default_rng(ss)
        els = np.sort(rng.choice(span, size=size, replace=False))
        out.append((f"random:{i}", IntegerSet.from_iterable(int(x) for x in els)))
    return out


def family_boxes(sides: Sequence[int], rank: int = 2) -> list[
        tuple[str, tuple[LatticeSet, DimCertificate]]]:
    """Box lattice sets {1..n}^rank with their certificates."""
    return [(f"box:{n}^{rank}", build_strong_lattice((n,) * rank))
            for n in sides]
