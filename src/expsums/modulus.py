"""Residue-class filtering, good-modulus selection, and block thinning.

``good_modulus`` walks the ladder q = 4, 16, 64, ... and at each level keeps
the residue class with the most elements, stopping at the first level where
that class has at most 2^j elements.  The stopping rule traps the surviving
class size in the window |I|^(1/3)/8 <= |I(q; s)| <= q^(1/2).

``thinning_transform`` multiplies a block-structured polynomial by a
periodized flat-top kernel.  Under its hypotheses the periodized kernel is
exactly 1 on every surviving frequency and exactly 0 on every other occupied
frequency (the kernel values are integers over M^2, so this is checked
exactly), so the transform equals direct selection of the blocks whose index
is congruent to s mod q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (_I64_MAX, IntegerSet, TrigPoly, _check_i64, _check_int, _check_positive,
                   _check_real)
from .errors import HypothesisError, SupportError
from .kernels import flat_top_build


@dataclass(frozen=True)
class ResidueFilter:
    """The congruence class s mod q."""

    q: int
    s: int

    def __post_init__(self):
        # any size: residue_filter takes a modulus past int64
        q = _check_int(self.q, "modulus q")
        if q < 1:
            raise ValueError("modulus q must be positive")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "s", _check_int(self.s, "residue s") % q)

    def to_json_dict(self) -> dict:
        return {"q": self.q, "s": self.s}


def residue_filter(I: IntegerSet, q: int, s: int) -> IntegerSet:
    """Elements of I congruent to s mod q (possibly empty)."""
    f = ResidueFilter(q, s)
    if f.q >= 2 ** 63:
        # q does not fit in int64, and every element k has |k| <= q, so
        # k = s mod q leaves only k = s or k = s - q
        return IntegerSet.from_iterable(k for k in (f.s, f.s - f.q) if k in I)
    return IntegerSet.from_iterable(I.array[I.array % f.q == f.s])


@dataclass(frozen=True)
class GoodModulusResult:
    """Outcome of the 4^j ladder: modulus, residue, and the survivors."""

    q: int
    s: int
    j0: int
    filtered: IntegerSet
    trace: tuple[tuple[int, int, int], ...]  # (q_j, best s_j, class size)
    source_size: int

    @property
    def lower_bound(self) -> float:
        return self.source_size ** (1 / 3) / 8

    @property
    def upper_bound(self) -> float:
        return math.sqrt(self.q)

    @property
    def bounds_ok(self) -> bool:
        return self.lower_bound <= len(self.filtered) <= self.upper_bound

    def to_json_dict(self) -> dict:
        return {"q": self.q, "s": self.s, "j0": self.j0,
                "filtered": self.filtered.to_json_dict(),
                "trace": [list(row) for row in self.trace],
                "source_size": self.source_size,
                "lower_bound": self.lower_bound,
                "upper_bound": self.upper_bound}


def _best_class(elements: np.ndarray, q: int) -> tuple[int, int]:
    """(smallest residue with the largest class, that class size) mod q."""
    residues, counts = np.unique(elements % q, return_counts=True)
    at = int(np.argmax(counts))
    return int(residues[at]), int(counts[at])


def good_modulus(I: IntegerSet) -> GoodModulusResult:
    """Pick q = 4^j0 and s so that |I(q; s)| lands in the certified window.

    For j = 1, 2, ... choose s_j as the smallest residue maximizing the
    class size mod 4^j; stop at the first j with that size at most 2^j.
    Requires |I| >= 8.
    """
    if len(I) < 8:
        raise HypothesisError("|I| >= 8", f"|I| = {len(I)}")
    trace: list[tuple[int, int, int]] = []
    j = 0
    while True:
        j += 1
        q = 4 ** j
        s, size = _best_class(I.array, q)
        trace.append((q, s, size))
        if size <= 2 ** j:
            filtered = residue_filter(I, q, s)
            return GoodModulusResult(q, s, j, filtered, tuple(trace), len(I))


def _block_index(F: TrigPoly, d1: int, d2: int) -> tuple[np.ndarray, np.ndarray]:
    """The unique k, l with f = k*d2 + l and |l| <= d1 < d2/2, for every
    frequency f of F (arrays in frequency order)."""
    f = F.freqs[:, 0]
    q, r = np.divmod(f, d2)
    up = r >= d2 - d2 // 2  # k = (f + d2//2) // d2 = q + up, without overflow
    l = r - d2 * up
    stray = np.abs(l) > d1
    if stray.any():
        raise SupportError(f"frequency {int(f[np.argmax(stray)])} is not within "
                           f"d1 = {d1} of a multiple of d2 = {d2}")
    return q + up, l


def block_structure(F: TrigPoly, d1: int, d2: int) -> dict[int, TrigPoly]:
    """Split F = sum_k f_k(t) e(d2*k*t) into its blocks {k: f_k}.

    Each f_k collects the coefficients at frequencies d2*k + l, |l| <= d1,
    re-indexed to l.  Raises SupportError if any frequency fits no block.
    """
    if F.rank != 1:
        raise ValueError("rank-1 polynomials only")
    if not 0 <= 2 * d1 < d2:
        raise ValueError("need 0 <= 2*d1 < d2 for unique block decomposition")
    k, l = _block_index(F, d1, d2)
    # frequencies are sorted, so every block is one contiguous run
    keys, starts = np.unique(k, return_index=True)
    return {key: TrigPoly.from_arrays(1, ls, cs) for key, ls, cs in
            zip(keys.tolist(), np.split(l, starts[1:]), np.split(F.coeffs, starts[1:]))}


def thinning_bound_factor(delta: float) -> float:
    """The guaranteed norm ratio 32*pi*(2 + log(1 + 2/delta))."""
    return 32 * math.pi * (2 + math.log(1 + 2 / _check_positive(delta, "delta")))


def thinning_transform(F: TrigPoly, d1: int, d2: int, delta: float,
                       filter: ResidueFilter) -> tuple[TrigPoly, float]:
    """Keep the blocks of F whose index is congruent to s mod q.

    The construction multiplies the (translated) coefficients by the
    qd2-periodized flat-top kernel with M = ceil(delta*d1/2), N = d1, then
    checks exactly that the result equals direct block selection; the two
    agreeing is the content of the thinning identity.  Returns the thinned
    polynomial (at its original frequencies) and the certified factor
    bounding ||thinned||_1 / ||F||_1.
    """
    d1, d2 = _check_i64(d1, "d1"), _check_i64(d2, "d2")
    delta = _check_real(delta, "delta")
    q, s = filter.q, filter.s
    if F.rank != 1:
        raise ValueError("rank-1 polynomials only")
    if not (2 + 2 * delta) * d1 + 4 <= d2:
        raise HypothesisError("(2+2*delta)*d1 + 4 <= d2",
                              f"(2+2*delta)*d1 + 4 = {(2 + 2 * delta) * d1 + 4}, "
                              f"d2 = {d2}")
    if q < 4:
        raise HypothesisError("q >= 4", f"q = {q}")
    m = math.ceil(delta * d1 / 2)
    n = d1
    if m < 2:
        raise HypothesisError("M >= 2", f"M = ceil(delta*d1/2) = {m}; "
                              "delta*d1 too small for a flat-top kernel")
    if not m < n:
        raise HypothesisError("M < N", f"M = {m}, N = d1 = {n}")
    period = q * d2
    if period < 2 * n + 4 * m + 1:
        raise HypothesisError("q*d2 >= 2N+4M+1",
                              f"q*d2 = {period}, 2N+4M+1 = {2 * n + 4 * m + 1}")

    block, _ = _block_index(F, d1, d2)  # validates the support shape
    kern = flat_top_build(m, n)
    shifted = F.shifted(-s * d2)
    g = shifted.freqs[:, 0]
    # the periodized kernel at g is K(r) + K(r - qd2), r = g mod qd2; a
    # period beyond int64 takes the residues as Python ints
    r = (g if period <= _I64_MAX else g.astype(object)) % period
    w = kern.numerators_at(r) + kern.numerators_at(r - period)
    stray = (w != 0) & (w != kern.denominator)
    if stray.any():
        at = int(np.argmax(stray))
        raise RuntimeError(
            f"periodized kernel is {w[at]}/{kern.denominator} at occupied "
            f"frequency {g[at]}; the exactness hypotheses should make this "
            "impossible")
    kept = w == kern.denominator
    by_kernel = TrigPoly.from_arrays(1, shifted.freqs[kept],
                                     shifted.coeffs[kept]).shifted(s * d2)

    chosen = block % q == s
    direct = TrigPoly.from_arrays(1, F.freqs[chosen], F.coeffs[chosen])

    if by_kernel != direct:
        raise RuntimeError("periodized kernel selection disagrees with direct "
                           "block selection")
    return direct, thinning_bound_factor(delta)


def brute_force_modulus(I: IntegerSet) -> tuple[int, int]:
    """Independent replay of the ladder by per-element counting.

    Returns (j0, class size at j0); used to cross-check good_modulus.
    """
    from collections import Counter

    j = 0
    while True:
        j += 1
        q = 4 ** j
        counts = Counter(k % q for k in I)
        size = max(counts.values())
        if size <= 2 ** j:
            return j, size
