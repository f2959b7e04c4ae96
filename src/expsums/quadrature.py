"""Grid evaluation of trigonometric polynomials and certified L1 enclosures.

Every enclosure rests on one quadrature bound.  Let the frequencies of f
span a window of diameter Delta_i on axis i, sample f on the uniform grid
of N_i > Delta_i points per axis, and let S be the grid mean
(1/|grid|) sum_j |f(j/N)|.  Then

    S / c  <=  ||f||_1  <=  S c,      c = prod_i sqrt(N_i / (N_i - Delta_i)).

This is the Marcinkiewicz-Zygmund inequality with de la Vallee-Poussin
means (Zygmund, *Trigonometric Series*, ch. X; Temlyakov, *Multivariate
Approximation*, ch. 1).

Proof in rank 1.  Let the frequencies of f lie in [a, a + Delta], N > Delta
and L = N - Delta.  Take V = (1/L) A B, where A sums e(kt) over the N
integers from a - L + 1 to a + Delta, and B sums e(kt) over 0 .. L-1.  The
coefficient of V at k is the number of ways to write k = i + j with i in
A's range and j in B's, over L: it is 1 on [a, a + Delta].  V's
frequencies lie in [a - L + 1, a + Delta + L - 1], so its coefficient is 0
at every k + mN with k in [a, a + Delta] and m != 0.  Hence

    f(t) = (1/N) sum_j f(j/N) V(t - j/N).

Upper end: by Cauchy-Schwarz and Parseval ||V||_1 <= (1/L) ||A||_2 ||B||_2
= sqrt(N/L), so ||f||_1 <= S ||V||_1 <= c S.  Lower end: f = f * V, so
f(j/N) = int f(s) V(j/N - s) ds and S <= int |f(s)| (1/N) sum_j
|V(j/N - s)| ds.  A's N frequencies have distinct residues mod N, and so
do B's L < N, so (1/N) sum_j |A(j/N - s)|^2 = N and (1/N) sum_j
|B(j/N - s)|^2 = L for every s, and the discrete Cauchy-Schwarz bounds
(1/N) sum_j |V(j/N - s)| by sqrt(N/L): S <= c ||f||_1.  No Bernstein step
is used, and no grid finer than N > Delta is needed.

Rank r.  The tensor product V(t) = prod_i V_i(t_i) of the axis kernels has
coefficient 1 on the product of the windows and 0 on every alias, and both
its L1 norm and its grid means of |V| factor over the axes, so the same
two steps give c = prod_i sqrt(N_i / (N_i - Delta_i)) directly.  Checked
against 2^20-point reference grids on Dirichlet kernels, 1 + e(Delta t),
two-term spikes and random polynomials, for every N in (Delta, 6 Delta),
the bound was used up to 0.988 of its width (1 + e(Delta t) at
N = 2 Delta): it is nearly tight.  |f| does not change when f is
multiplied by e(m t), so only the diameters matter; :func:`certified_l1`
recentres f first, which keeps every frequency small.

The grid rule.  :func:`certified_l1` asks for hi/lo = c^2 <= 1 + 2 rel_err,
spread evenly over the r axes: the axis target is t = (1 + 2 rel_err)^(1/r),
and N_i/(N_i - Delta_i) <= t exactly when N_i >= t Delta_i/(t - 1).
:func:`choose_grid` returns N_i = ceil(t Delta_i/(t - 1)), at least the
alias-free 2 d_i + 1 of the recentred degree d_i, and 1 on an axis with
Delta_i = 0.  The memory budget is checked against that grid before any
rounding.  A grid evaluated whole then rounds each N_i up to a 5-smooth
length, the fast sizes of both transforms; a rank-1 grid too large for one
block streams as P' rows of a 5-smooth length Q' with P' Q' >= N_0
(below).  Either way every axis keeps c_i^2 <= t, so the relative width
hi/lo - 1 is at most 2 rel_err.

Rounding.  c is rounded up: each N_i/(N_i - Delta_i) is moved one ulp up
after the division, its square root one ulp up, and each product over the
axes one ulp up (``math.nextafter``); each step covers one rounding to
nearest.  Then lo = S/c is moved one ulp down and hi = S c one ulp up.  A
constant (Delta_i = 0 on every axis) has c = 1 exactly, so its interval is
[S, S] widened by one ulp each way, which covers the one ``abs`` that
forms S = |c|.  A grid mean or an end that overflows float64 raises
:class:`~expsums.errors.GridOverflowError` instead of an infinite interval.

The pi d / N bound.  :func:`riemann_rho` is the older bound
| ||f||_1 - S | <= (pi d / N) ||f||_1 for a polynomial of degree d, from
Koksma's inequality on the centred grid and Bernstein's inequality in L1.
It still holds, and acceptance criterion 04 and ``verify --theorem
numerical`` check it, but no enclosure uses it: at equal N its half-width
is about pi times that of c.

Products.  Let g = c 1_A with A = A_0 x ... x A_{r-1}, r >= 2.  Then
g(t) = c prod_i f_i(t_i) with f_i the indicator polynomial of A_i, and by
Fubini ||g||_1 = |c| prod_i ||f_i||_1 exactly.  So :func:`certified_l1`
encloses each ||f_i||_1 with the rank-1 :func:`certified_l1` at the axis
target t, that is at rel_i = (t - 1)/2, and multiplies: an axis with one
value has |f_i| = 1 and contributes exactly 1.  The ends start at |c|
moved one ulp down and up, since ``abs`` errs by under an ulp, and after
each product lo is moved one ulp down and hi one up, which covers the
product's rounding (under half an ulp).  The mean S is |c| prod S_i in
floats; |g| factorizes, so in exact arithmetic that is the rank-r grid
mean on the grid of the factor grids, each the rank-1 rule's grid for its
factor.  Detection is exact: every coefficient must equal the first
(float equality), and the support must be a product, which its sorted
rows show in O(terms) without a sort (:func:`_product_axes`).  A
polynomial with unequal coefficients is left to the rank-r grid even when
its coefficient tensor has rank 1, since a float product cannot be tested
for equality exactly.  Constants keep the grid path.

Coset streaming.  :func:`riemann_l1` evaluates a grid that does not fit in
one block (``_BLOCK_BYTES``) one block of rows at a time.  On axis 0 it
writes N_0 = P Q, with Q the smallest divisor of N_0 such that
Q >= 2 d_0 + 1 and P <= 32 (``_MAX_COSETS``), so these rows are alias-free
and long.  Q is 5-smooth when N_0 is; if Q = N_0, the grid is one row and
is evaluated whole.  The grid points with j_0 = r + P i, for 0 <= i < Q,
form the coset row r mod P, and on it

    f((r + P i)/N_0, t') = sum_a [c_a e(a_0 r / N_0)] e(a_0 i / Q + a'.t'),

because P i / N_0 = i / Q.  So row r is one inverse FFT of shape
(Q, N_1, ...) of the twiddled coefficients c_a e(a_0 r / N_0), placed at
(a_0 mod Q, a' mod N').  Those residues are distinct since Q >= 2 d_0 + 1,
so plain assignment places them.  The grid sum is the sum of the P row
sums.  With real coefficients f(-t) = conj f(t), and
-(r + P i) = (P - r) + P (Q - 1 - i) mod N_0, so row P - r has the same
sum as row r.  Only rows 0 .. P//2 are evaluated, row 0 by a real-input
transform.  Rows 0 < r < P/2 count twice; rows 0 and (P even) P/2 are
their own mirrors and count once.

Streamed rank-1 grids.  The bound holds for every N > Delta, so a rank-1
grid of :func:`certified_l1` that does not fit in one block need not be
5-smooth: :func:`_sized_grid` takes the least N = P' Q' at or above the
rule's N_0 over rows of 5-smooth lengths Q' from 2d + 1 up to one block,
in any number P'.  A sparse set (terms^2 < 2d + 1) also tries shorter
rows, down to 32 points a term, on which its frequencies have distinct
residues, the one thing the coset identity needs.  The floor keeps a
row's O(terms) work (its twiddles and scatter) far below its transform's.
Short rows bring N within a fraction of a percent of N_0 and keep each
transform in cache: without them, rows of at least 2d + 1 points raised
the sparse benchmark's peak RSS from 78 to 111-114 MB.

The twiddles.  Every row r = 0 mod 32 is an anchor: its twiddles
c_a e(a_0 r / N_0) are computed afresh from the integer phase
a_0 r mod N_0, exact in int64.  The 31 rows after it follow by the
recurrence row_r = row_{r-1} * e(a_0 / N_0), a block at a time.  No block
crosses an anchor; a block's first row is the anchor's, or the row before
times e(a_0 / N_0); and rows r_0 + k to r_0 + 2k - 1 are rows r_0 to
r_0 + k - 1 times e(a_0 k / N_0), so each product doubles the rows done
and no loop runs over single rows.  Either way row A + k, for the anchor
A, is the anchor's row times k factors e(a_0 / N_0), formed with k
rounded products, as in the plain recurrence.  A factor e(m / N_0),
m < N_0, is exp of the angle 2 pi m / N_0 < 2 pi formed with three
roundings, so it lies within 6 pi u of e(m / N_0) from the angle, plus
about 2u from exp (u = 2^-53).  Each complex product adds at most
sqrt(5) u (Brent, Percival and Zimmermann, Math. Comp. 76, 2007).  So the
anchor's twiddles carry a relative error of at most about 23u, and each
step of the recurrence adds as much.  Row r sits at most 31 steps from
its anchor, so its coefficients err by at most 32 * 23u, about 8.2e-14
relatively, for any number of rows; each sample of the row moves by at
most that times sum |c_a|.  That is an error of the same kind as the
FFT's own rounding.  Measured on 2000 random steps with N_0 = 1,310,256,
the worst row was 2.2e2 u = 2.5e-14 off, whatever the block size.  Like
the FFT's rounding, this error is not yet part of a certified
floating-point term.

Everything here is pure and deterministic: grids are evaluated with a
zero-padded FFT and reduced with pairwise summation, coset rows are taken
in blocks in ascending order, and their sums are added by ``math.fsum``,
so results do not depend on scheduling.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
import scipy.fft

from .core import IntegerSet, TrigPoly, _run_starts, indicator_poly, recentre
from .errors import AliasingError, GridOverflowError, MemoryBudgetError

# complex128; a real-coefficient grid holds a float64 input and a half-size
# complex128 output, about the same
_BYTES_PER_SAMPLE = 16

DEFAULT_MEMORY_BUDGET = 2 * 2 ** 30  # bytes of samples

# riemann_l1 streams a grid in blocks of coset rows of at most this many
# bytes, each sample a complex128 value and its float64 modulus; a grid that
# fits in one block is transformed whole
_BLOCK_BYTES = 4 * 2 ** 20
_BLOCK_BYTES_PER_SAMPLE = 24
# the anchor interval: rows r = 0 mod 32 get their twiddles afresh, so the
# recurrence runs at most 31 steps (module docstring); also the most coset
# rows _coset_length gives a grid, and the points a term of the shortest
# rows of _sized_grid
_MAX_COSETS = 32


def _memory_budget(override: int | None) -> int:
    """``override``, else ``EXPSUMS_MEMORY_BUDGET``, else the default; a
    budget that is not a positive integer raises a ValueError naming it."""
    source, raw = "memory_budget", override
    if raw is None:
        source = "EXPSUMS_MEMORY_BUDGET"
        raw = os.environ.get(source)
        if not raw:
            return DEFAULT_MEMORY_BUDGET
    try:
        budget = int(raw)
    except (TypeError, ValueError, OverflowError):
        budget = 0
    if budget < 1 or (isinstance(raw, float) and raw != budget):
        raise ValueError(f"{source} must be a positive integer number of bytes, "
                         f"got {raw!r}")
    return budget


@dataclass(frozen=True)
class NormInterval:
    """Certified enclosure [lo, hi] of an L1 norm.

    ``riemann`` is the raw grid mean that produced it (for a Cartesian
    product, |c| times the product of the factor means), ``grid`` the per-axis
    sample counts and ``degree`` the per-axis (recentred) degrees, so
    0 <= lo <= riemann <= hi always holds.
    """

    lo: float
    hi: float
    riemann: float
    grid: tuple[int, ...]
    degree: tuple[int, ...]

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def to_json_dict(self) -> dict:
        return {"lo": self.lo, "hi": self.hi, "riemann": self.riemann,
                "grid": list(self.grid), "degree": list(self.degree)}


ZERO_INTERVAL = NormInterval(0.0, 0.0, 0.0, (1,), (0,))


@dataclass(frozen=True)
class GridEvaluation:
    """Samples f(j1/N1, ..., jr/Nr) on the uniform grid of size ``shape``.

    ``values`` holds the full grid, or, for a polynomial with real
    coefficients, only the columns j_r = 0 .. N_r//2 of the last axis: the
    other samples follow from f(-t) = conj f(t) and have the same modulus.
    """

    shape: tuple[int, ...]
    values: np.ndarray  # complex128, shape == self.shape or the half grid

    def abs_mean(self) -> float:
        if self.values.shape == self.shape:
            return float(np.mean(np.abs(self.values.ravel())))
        return _half_grid_abs_sum(self.values, self.shape[-1]) / math.prod(self.shape)


def _half_grid_abs_sum(values: np.ndarray, n_last: int) -> float:
    """sum |f| over the full grid from the columns j_r = 0 .. n_last//2 of
    the last axis (f with real coefficients)."""
    # column j_r stands for itself and for column N_r - j_r, except
    # j_r = 0 and (N_r even) j_r = N_r/2, which are their own mirrors
    a = np.abs(values)
    total = 2.0 * float(a.sum()) - float(a[..., 0].sum())
    if n_last % 2 == 0:
        total -= float(a[..., -1].sum())
    return total


def _normalize_shape(f: TrigPoly, shape) -> tuple[int, ...]:
    if isinstance(shape, (int, np.integer)):
        shape = (int(shape),) * f.rank
    shape = tuple(int(n) for n in shape)
    if len(shape) != f.rank:
        raise ValueError(f"grid has {len(shape)} axes, polynomial has rank {f.rank}")
    if any(n < 1 for n in shape):
        raise ValueError("grid sizes must be positive")
    return shape


def _recentred_degree(f: TrigPoly) -> tuple[int, ...]:
    # ceil(diameter/2) per axis: the degree after recentring
    return tuple((hi - lo + 1) // 2 for lo, hi in f.support_box)


def _checked_shape(f: TrigPoly, shape, memory_budget: int | None) -> tuple[int, ...]:
    """The normalised grid shape, after the alias-free and budget checks."""
    shape = _normalize_shape(f, shape)
    for ax, (n, d) in enumerate(zip(shape, _recentred_degree(f))):
        if n < 2 * d + 1:
            raise AliasingError(
                f"axis {ax}: {n} samples alias a recentred degree-{d} polynomial "
                f"(need >= {2 * d + 1})")
    _check_budget(shape, _memory_budget(memory_budget))
    return shape


def _check_budget(shape: tuple[int, ...], budget: int) -> None:
    needed = math.prod(shape) * _BYTES_PER_SAMPLE
    # an axis of 2^62 samples or more passes the int64 indices and the
    # 5-smooth lengths (_smooth_lengths) of every grid, whatever the budget
    if needed > budget or max(shape) >= 2 ** 62:
        raise MemoryBudgetError(shape, needed, budget)


def eval_grid(f: TrigPoly, shape, memory_budget: int | None = None) -> GridEvaluation:
    """Evaluate f on the uniform grid via a zero-padded inverse FFT.

    values[j] = sum_a c_a e(a . j/N) exactly as direct summation would give
    (frequencies only matter mod N on the grid).  Each N_i must be at least
    2*d_i + 1 for the recentred per-axis degree d_i, so sampling is
    alias-free and the grid determines the polynomial.

    When every coefficient is real, f(-t) = conj f(t), and only the
    non-redundant half of the last axis is computed, by a real-input FFT
    (see :class:`GridEvaluation`).
    """
    shape = _checked_shape(f, shape, memory_budget)
    idx = tuple((f.freqs % np.array(shape, dtype=np.int64)).T)
    if not f.coeffs.imag.any():
        # alias-free, so the residues are distinct and assignment suffices;
        # sum_a c_a e(-a.j/N) is the forward rfftn, and conj turns it into f
        coeffs = np.zeros(shape, dtype=np.float64)
        coeffs[idx] = f.coeffs.real
        values = scipy.fft.rfftn(coeffs)
        np.conjugate(values, out=values)
        return GridEvaluation(shape, values)
    coeffs = np.zeros(shape, dtype=np.complex128)
    np.add.at(coeffs, idx, f.coeffs)
    # coeffs is ours alone: transform in place, so one grid-sized array is live
    values = scipy.fft.ifftn(coeffs, norm="forward", overwrite_x=True)
    return GridEvaluation(shape, values)


def _coset_length(shape: tuple[int, ...], d0: int) -> int:
    """Q: N_0 itself for a grid that fits in one block, else the smallest
    divisor of N_0 with Q >= 2*d0 + 1, so each coset row is alias-free, and
    P = N_0/Q <= _MAX_COSETS (N_0 also when no divisor is alias-free, which
    eval_grid then reports as aliasing)."""
    n0 = shape[0]
    if math.prod(shape) * _BLOCK_BYTES_PER_SAMPLE <= _BLOCK_BYTES:
        return n0
    least = max(2 * d0 + 1, -(-n0 // _MAX_COSETS))
    return min((q for k in range(1, math.isqrt(n0) + 1) if n0 % k == 0
                for q in (k, n0 // k) if q >= least), default=n0)


def _coset_row_sums(f: TrigPoly, shape: tuple[int, ...], q: int) -> list[float]:
    """sum_i |f((r + P i)/N_0, t')| over each coset row r mod P = N_0/q, for
    r = 0 .. P-1, or r = 0 .. P//2 when every coefficient is real (the
    coset identity in the module docstring)."""
    n0, p = shape[0], shape[0] // q
    row_shape = (q,) + shape[1:]
    # residues first, so no product below can overflow int64
    res = f.freqs % np.array(shape, dtype=np.int64)
    idx = (res[:, 0] % q,) + tuple(res[:, 1:].T)
    real = not f.coeffs.imag.any()
    sums = []
    if real:
        # row 0 has real coefficients and a half-grid transform
        row0 = np.zeros(row_shape, dtype=np.float64)
        row0[idx] = f.coeffs.real
        sums.append(_half_grid_abs_sum(scipy.fft.rfftn(row0), row_shape[-1]))
        del row0  # freed before the block buffers exist
    # f(-t) = conj f(t) maps row r onto row P - r, so with real coefficients
    # rows 0 .. P//2 suffice; a complex row 0 is the first anchor row
    stop, first = p // 2 + 1 if real else p, len(sums)
    if first == stop:
        return sums
    scale = 2j * math.pi / n0
    step = np.exp(scale * res[:, 0])  # e(a_0 / N_0)
    # a_0 r mod N_0 at the anchor row r, exact in int64: it grows by
    # a_0 32 mod N_0 < 32 N_0 from one anchor to the next
    phase = 0
    carry = f.coeffs * step  # row 1
    row_bytes = math.prod(row_shape) * _BLOCK_BYTES_PER_SAMPLE
    rows = min(stop - first, _MAX_COSETS, max(1, _BLOCK_BYTES // row_bytes))
    block = np.empty((rows,) + row_shape, dtype=np.complex128)
    moduli = np.empty((rows,) + row_shape, dtype=np.float64)
    axes = tuple(range(1, block.ndim))
    # blocks of at most `rows` rows, none across an anchor row (r = 0 mod 32)
    for anchor in range(0, stop, _MAX_COSETS):
        if anchor:
            phase = (phase + res[:, 0] * _MAX_COSETS % n0) % n0
        for r0 in range(max(anchor, first), min(anchor + _MAX_COSETS, stop), rows):
            nb = min(rows, anchor + _MAX_COSETS - r0, stop - r0)
            # rows r0 .. r0+nb-1: row r0 from the anchor's exact integer
            # phase or from the row before; then row r0 + k + j is row
            # r0 + j times e(a_0 k / N_0), which doubles the rows done
            twiddled = np.empty((nb, len(step)), dtype=np.complex128)
            twiddled[0] = f.coeffs * np.exp(scale * phase) if r0 == anchor else carry
            k, power = 1, step  # power = e(a_0 k / N_0)
            while k < nb:
                np.multiply(twiddled[:min(k, nb - k)], power, out=twiddled[k:2 * k])
                k *= 2
                if k < nb:
                    power = power * power
            carry = twiddled[-1] * step
            # distinct residues mod q (q >= 2 d_0 + 1, or checked by
            # _sized_grid): assignment suffices
            blk = block[:nb]
            blk.fill(0)
            blk[(np.arange(nb)[:, None],) + idx] = twiddled
            values = scipy.fft.ifftn(blk, axes=axes, norm="forward", overwrite_x=True)
            mod = np.abs(values, out=moduli[:nb])
            sums.extend(mod.reshape(nb, -1).sum(axis=1).tolist())
    return sums


def _coset_mean(f: TrigPoly, shape: tuple[int, ...], q: int) -> float:
    """The grid mean of |f| from the coset row sums of :func:`_coset_row_sums`."""
    sums = _coset_row_sums(f, shape, q)
    # each row P - r missing from sums is the mirror of row r, same sum
    p = shape[0] // q
    return math.fsum(sums + sums[1:p - len(sums) + 1]) / math.prod(shape)


def riemann_l1(f: TrigPoly, shape, memory_budget: int | None = None) -> float:
    """The grid mean (1/|grid|) sum |f(j/N)| (0 for the zero polynomial).

    A grid that fits in one block is evaluated whole by :func:`eval_grid`;
    a larger one is streamed over the cosets of its first axis, so only one
    block of rows is live at a time (module docstring).
    """
    if f.is_zero:
        return 0.0
    shape = _normalize_shape(f, shape)
    q = _coset_length(shape, _recentred_degree(f)[0])
    if q == shape[0]:
        return eval_grid(f, shape, memory_budget).abs_mean()
    _checked_shape(f, shape, memory_budget)
    return _coset_mean(f, shape, q)


def riemann_rho(d: int, n: int) -> float:
    """The bound pi d / N on the relative error of the N-point grid mean of
    |f| for a degree-d polynomial f (Koksma and Bernstein; module docstring,
    "The pi d / N bound").  No enclosure uses it."""
    return math.pi * d / n


def choose_grid(diameter: Sequence[int], rel_err: float) -> tuple[int, ...]:
    """The least per-axis sample counts N_i with hi/lo = c^2 <= 1 + 2 rel_err
    for frequency diameters Delta_i (module docstring, "The grid rule").

    N_i = ceil(t Delta_i/(t - 1)) with t = (1 + 2 rel_err)^(1/r), at least
    the alias-free 2 d_i + 1 (d_i = ceil(Delta_i/2)), and 1 where
    Delta_i = 0.  Not rounded: a grid evaluated whole takes the next
    5-smooth lengths, a streamed rank-1 grid the rows of :func:`_sized_grid`.
    """
    if not 0 < rel_err < 1:
        raise ValueError("rel_err must be in (0, 1)")
    t = (1.0 + 2.0 * rel_err) ** (1.0 / len(diameter))
    return tuple(max(math.ceil(t * d / (t - 1.0)), 2 * ((d + 1) // 2) + 1) if d else 1
                 for d in diameter)


def _quadrature_factor(grid: Sequence[int], diameter: Sequence[int]) -> float:
    """c = prod_i sqrt(N_i/(N_i - Delta_i)), rounded up at every step
    (module docstring, "Rounding"); exactly 1 for a constant."""
    c = 1.0
    for n, d in zip(grid, diameter):
        if d:
            root = math.nextafter(math.sqrt(math.nextafter(n / (n - d), math.inf)),
                                  math.inf)
            c = math.nextafter(c * root, math.inf)
    return c


def _finite(enc: NormInterval) -> NormInterval:
    """``enc``, unless its mean or hi overflowed float64 (then lo <= hi is
    no enclosure either)."""
    if not (math.isfinite(enc.riemann) and math.isfinite(enc.hi)):
        raise GridOverflowError(
            f"the grid mean of |f| on grid {enc.grid} overflows float64 "
            f"(riemann {enc.riemann}, hi {enc.hi}); scale the coefficients down")
    return enc


def certified_l1(f: TrigPoly, rel_err: float = 0.1,
                 memory_budget: int | None = None) -> NormInterval:
    """Certified enclosure [S/c, S c] of ||f||_1 with hi/lo <= 1 + 2 rel_err.

    ``rel_err`` bounds the relative width: hi/lo = c^2 <= 1 + 2 rel_err, so
    (hi - lo)/lo <= 2 rel_err.  Recentres f first (translation preserves
    the norm and minimizes the degree), takes the grid of
    :func:`choose_grid`, and encloses the grid mean S by [S/c, S c] with
    c = prod_i sqrt(N_i/(N_i - Delta_i)) rounded up, lo moved one ulp down
    and hi one up (module docstring).  A constant gets [S, S] widened by one
    ulp each way.

    The memory budget is checked against the unrounded grid.  A rank-1 grid
    too large for one block then streams as P' Q' points in rows of a
    5-smooth length Q' (:func:`_sized_grid`); any other grid is rounded up
    to 5-smooth lengths.  A grid mean or an end that overflows float64
    raises :class:`~expsums.errors.GridOverflowError`.

    In rank >= 2, c times the indicator of a Cartesian product A_0 x ... x
    A_{r-1} is enclosed as |c| times the product of the rank-1 enclosures
    of the A_i, each at the axis target (1 + 2 rel_err)^(1/r), rounded
    outward (module docstring, "Products"); ``grid`` holds the factor grids,
    and the memory budget applies to each factor's grid alone.
    """
    if not 0 < rel_err < 1:
        raise ValueError("rel_err must be in (0, 1)")
    if f.is_zero:
        raise ValueError("certified_l1 needs a nonzero polynomial")
    g, _ = recentre(f)
    diameter = tuple(hi - lo for lo, hi in g.support_box)
    if g.rank > 1 and any(diameter):
        axes = _product_axes(g)
        if axes is not None:
            return _product_l1(g, axes, rel_err, memory_budget)
    budget = _memory_budget(memory_budget)
    want = choose_grid(diameter, rel_err)
    _check_budget(want, budget)
    if g.rank == 1 and want[0] * _BLOCK_BYTES_PER_SAMPLE > _BLOCK_BYTES:
        n, q = _sized_grid(g, want[0])
        grid = (n,)
        _check_budget(grid, budget)
        s = _coset_mean(g, grid, q)
    else:
        grid = tuple(scipy.fft.next_fast_len(n, real=True) for n in want)
        s = riemann_l1(g, grid, budget)
    c = _quadrature_factor(grid, diameter)
    return _finite(NormInterval(math.nextafter(s / c, 0.0), math.nextafter(s * c, math.inf),
                                s, grid, g.degree))


def _product_axes(g: TrigPoly) -> list[np.ndarray] | None:
    """The distinct values A_i of each axis of g when g is c times the
    indicator of A_0 x ... x A_{r-1} (one coefficient, and the support a
    product), else None; O(terms), no sort."""
    if not (g.coeffs == g.coeffs[0]).all():
        return None
    axes, rows = [], g.freqs
    # the rows are distinct and sorted lexicographically.  Cut them into as
    # many blocks of m rows as there are first coordinates; if every block
    # has the first block's tails B, the rows at one place in the blocks
    # share a tail, so they have distinct, increasing first coordinates, and
    # block j is the run of the j-th one: the rows are A_0 x B.  B is sorted
    # too and is split the same way
    while rows.shape[1] > 1:
        starts = np.flatnonzero(_run_starts(rows[:, 0]))
        if len(rows) % len(starts):
            return None
        tails = rows[:, 1:].reshape(len(starts), len(rows) // len(starts), -1)
        if not (tails == tails[0]).all():
            return None
        axes.append(rows[starts, 0])
        rows = tails[0]
    return axes + [rows[:, 0].copy()]


def _product_l1(g: TrigPoly, axes: list[np.ndarray], rel_err: float,
                memory_budget: int | None) -> NormInterval:
    """certified_l1 of g = c 1_{A_0 x ... x A_{r-1}}: |c| times the product
    of the rank-1 enclosures of the A_i, rounded outward (module docstring)."""
    c = abs(complex(g.coeffs[0]))
    # abs errs by under an ulp
    lo, hi, s = math.nextafter(c, 0.0), math.nextafter(c, math.inf), c
    # the axis target t = (1 + 2 rel_err)^(1/r) is hi/lo <= 1 + 2 rel for
    # rel = (t - 1)/2
    rel = ((1.0 + 2.0 * rel_err) ** (1.0 / g.rank) - 1.0) / 2.0
    grid = []
    for a in axes:
        if len(a) == 1:  # |e(a t)| = 1
            grid.append(1)
            continue
        enc = certified_l1(indicator_poly(IntegerSet._wrap(a)), rel, memory_budget)
        lo = math.nextafter(lo * enc.lo, 0.0)
        hi = math.nextafter(hi * enc.hi, math.inf)
        s *= enc.riemann
        grid += enc.grid
    return _finite(NormInterval(lo, hi, s, tuple(grid), g.degree))


def _sized_grid(g: TrigPoly, want: int) -> tuple[int, int]:
    """(N, Q'): the least grid N = P' Q' >= ``want`` for the recentred rank-1
    g, streamed as P' rows of length Q' (module docstring, "Streamed rank-1
    grids").

    Q' runs over the 5-smooth lengths from 2d + 1 up to one block (the least
    one from 2d + 1 if that is longer), and, when terms^2 < 2d + 1, over
    shorter ones down to 32 points a term on which the frequencies of g have
    distinct residues; P' is any number.  Of equal N, the plan that
    transforms the fewest samples (rows 0 .. P'//2 when the coefficients
    are real) wins, then the shorter row."""
    least, terms = 2 * g.degree[0] + 1, len(g.coeffs)
    low = least if terms * terms >= least else min(least, _MAX_COSETS * terms)
    smooth = _smooth_lengths()
    first, alias_free = (int(i) for i in np.searchsorted(smooth, [low, least]))
    stop = max(int(np.searchsorted(smooth, _BLOCK_BYTES // _BLOCK_BYTES_PER_SAMPLE,
                                   side="right")), alias_free + 1)
    lengths = smooth[first:stop]
    if alias_free > first:
        # each short length's residues of the frequencies, sorted: equal
        # neighbours are a clash
        short = alias_free - first
        res = np.sort(g.freqs[:, :1] % lengths[:short], axis=0)
        ok = np.ones(lengths.size, dtype=bool)
        ok[:short] = (np.diff(res, axis=0) != 0).all(axis=0)
        lengths = lengths[ok]
    p = -(-want // lengths)
    n = p * lengths
    real = not g.coeffs.imag.any()
    samples = (p // 2 + 1 if real else p) * lengths
    best = np.lexsort((lengths, samples, n))[0]
    return int(n[best]), int(lengths[best])


@functools.cache
def _smooth_lengths() -> np.ndarray:
    """Every 5-smooth number below 2^62, ascending: the lengths that
    ``scipy.fft.next_fast_len(n, real=True)`` returns.  Built on first use."""
    out, a = [], 1
    while a < 2 ** 62:
        b = a
        while b < 2 ** 62:
            c = b
            while c < 2 ** 62:
                out.append(c)
                c *= 5
            b *= 3
        a *= 2
    lengths = np.array(sorted(out), dtype=np.int64)
    lengths.flags.writeable = False
    return lengths


def derivative(f: TrigPoly, axis: int = 0) -> TrigPoly:
    """d/dt_axis: coefficient at frequency n becomes 2*pi*i*n_axis * c."""
    if not 0 <= axis < f.rank:
        raise ValueError(f"axis {axis} out of range for rank {f.rank}")
    # (2 pi i n) * c written out as Python's complex product forms it:
    # real -(2 pi n) Im c, imaginary (2 pi n) Re c
    k = (2 * math.pi) * f.freqs[:, axis].astype(np.float64)
    dc = np.empty_like(f.coeffs)
    dc.real = -(k * f.coeffs.imag)
    dc.imag = k * f.coeffs.real
    return TrigPoly.from_arrays(f.rank, f.freqs, dc)


class BernsteinCheck(NamedTuple):
    lhs: NormInterval
    rhs_bound: float
    passed: bool


# The derivative inequality is attained with equality by single monomials,
# where both sides reduce to 2 pi d |c| computed along different float paths.
# Allow a few hundred ulps so the comparison cannot flip on rounding; this is
# eleven orders below the default rel_err.
_FP_SLACK = 1e-12


def bernstein_check(f: TrigPoly, rel_err: float = 0.1) -> BernsteinCheck:
    """Check ||f'||_1 <= 2 pi d ||f||_1 with certified enclosures (rank 1).

    Uses the conservative interval ends: lhs.lo against 2 pi d * hi(||f||).
    d is the degree of f as given (max |frequency|), which is what the
    derivative actually sees.
    """
    if f.rank != 1:
        raise ValueError("rank-1 polynomials only")
    if f.is_zero:
        return BernsteinCheck(ZERO_INTERVAL, 0.0, True)
    df = derivative(f)
    lhs = ZERO_INTERVAL if df.is_zero else certified_l1(df, rel_err)
    d = f.degree[0]
    rhs = 2 * math.pi * d * certified_l1(f, rel_err).hi
    return BernsteinCheck(lhs, rhs, lhs.lo <= rhs * (1 + _FP_SLACK))
