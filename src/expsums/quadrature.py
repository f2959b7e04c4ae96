"""Grid evaluation of trigonometric polynomials and certified L1 enclosures.

The enclosure rests on the Riemann-sum error bound for a polynomial of
degree d (frequencies in [-d, d]) sampled at N uniform points:

    | ||f||_1 - (1/N) sum_j |f(j/N)| |  <=  (pi d / N) ||f||_1

so the grid mean S pins the true norm inside [S/(1+rho), S/(1-rho)] with
rho = pi d / N (:func:`riemann_rho`).

Proof.  Let g = |f|, a 1-periodic function.  The grid sum of g on the
points j/N equals the sum of h(t) = g(t - 1/(2N)) on the centred points
(j + 1/2)/N, and h has the same integral ||f||_1 and the same total
variation as g.  The centred points have star discrepancy 1/(2N), so
Koksma's inequality (Kuipers and Niederreiter, *Uniform Distribution of
Sequences*, ch. 2) bounds the error by V(h)/(2N) = V(|f|)/(2N).  Since
||f(s)| - |f(t)|| <= |f(s) - f(t)|, V(|f|) <= V(f) = ||f'||_1, and
Bernstein's inequality in L1 (Zygmund, *Trigonometric Series*, ch. X)
gives ||f'||_1 <= 2 pi d ||f||_1.  Together: error <= (pi d / N) ||f||_1.
|f| does not change when f is multiplied by e(m t), so d may be taken as
the recentred degree ceil(diameter/2) of the frequency support.

In rank r the bound is applied axis by axis: each slice with the other
coordinates fixed is a 1-D polynomial of the axis degree, so averaging
over one axis at a time moves the mean by a factor in [1 - rho_i, 1 + rho_i]
and the relative errors compound multiplicatively.

The additive bound.  The same Koksma step, stopped before Bernstein,
gives | ||f||_1 - S | <= ||f'||_1 / (2N).  By Cauchy-Schwarz on the unit
circle ||f'||_1 <= ||f'||_2, and by Parseval ||f'||_2 = D with

    D = 2 pi sqrt(sum_n n^2 |c_n|^2),

exact from the coefficients in O(terms) (:func:`_derivative_l2` rounds it
up).  Both [S/(1+rho), S/(1-rho)] and [S - D/(2N), S + D/(2N)] contain
||f||_1, so their intersection does; the relative one is used only while
rho < 1.  D is taken over the recentred frequencies, since |f| does not
change under recentring but f' does.  Bernstein's bound is attained by
single monomials, while D is often well below 2 pi d ||f||_1: on the
benchmark's sparse sets D / (2 pi d ||f||_1) is 0.62-0.73.

Sizing a rank-1 grid from D.  When the :func:`choose_grid` grid N_rel =
P_rel Q streams as coset rows (below), :func:`certified_l1` first sums row
0, the Q-point grid j/Q that every grid N = P Q shares, and takes its mean
m = S_0/Q as an estimate of ||f||_1.  The target is the N at which the
additive half-width D/(2N) is rho_rel m, taken 1% larger so that the
error of m (under 0.2% on the benchmark's sparse sets) leaves no width
above rho_rel's:

    N_want = 1.01 D Q / (2 S_0 rho_rel).

If N_want >= N_rel, the grid stays N_rel; if N_want <= Q, it is row 0
alone, where rho = pi d / Q is about pi/2 and only the additive interval
is used.  Otherwise :func:`_sized_grid` takes the least N = P' Q' >=
N_want over rows of length Q (row 0's sum reused) and rows of 5-smooth
lengths Q' < Q (started afresh) on which the frequencies have distinct
residues (below), in any number P'; or N_rel when that transforms no
more samples.  It streams that grid and returns the intersection above
for its N.  Whole rows of length Q alone, P = ceil(N_want / Q), would
overshoot N_want by up to Q, a tenth of the grid, so the width would fall
anywhere in a band about 10% below rho_rel's, by an amount that depends
on each polynomial's D/m.  Rows of 5-smooth lengths from 2d + 1 up to Q
alone leave N a median 1% and at most 6.5% above N_want on the
benchmark's sparse sets, whose Q is mostly within 5% of 2d + 1.  Sparse
sets (terms^2 < 2d + 1) also try rows below 2d + 1, down to a fixed floor
of 32 points a term, which bring N within 0.2% of N_want, so their widths
all sit close to the one asked for.  The floor keeps a row's O(terms)
work (its twiddles and scatter) far below its transform's.  The short
rows transform fewer samples, and in cache: on the benchmark's seed-1
sparse sets 31 of 32 grids take rows of 2,048-8,748 points, 56-547 of
them, where rows of at most 32 cosets were 16,875-64,800 points long.
The estimate m only chooses N; the interval is certified for any N >=
2d + 1, whatever m is.  So the grid is never larger than
:func:`choose_grid`'s, and N = P' Q' need not be 5-smooth (the
transforms have length Q').  Where D is large against 2 pi d m / P_rel
(Fejer kernels, say), N = N_rel and the relative interval is the
narrower one.  The proof of the additive bound in rank r, axis by axis,
is not written yet, so rank >= 2 keeps the relative interval alone.

Products.  Let g = c 1_A with A = A_0 x ... x A_{r-1}, r >= 2.  Then
g(t) = c prod_i f_i(t_i) with f_i the indicator polynomial of A_i, and by
Fubini ||g||_1 = |c| prod_i ||f_i||_1 exactly.  So :func:`certified_l1`
encloses each ||f_i||_1 with the rank-1 :func:`certified_l1` at rel_i =
(1 + rel_err)^(1/r) - 1, the split :func:`choose_grid` makes, and
multiplies: an axis with one value has |f_i| = 1 and contributes exactly 1.
The ends start at |c| moved one ulp down and up, since ``abs`` errs by
under an ulp, and after each product lo is moved one ulp down and hi one
up (``math.nextafter``), which covers the product's rounding (under half
an ulp).  The mean S is |c| prod S_i in floats; |g| factorizes, so in
exact arithmetic that is the rank-r grid mean on the grid of the factor
grids, which are :func:`choose_grid`'s unless a factor streams and is
sized from D.  Detection is exact: every coefficient must equal the first
(float equality), and the support must be a product, which its sorted
rows show in O(terms) without a sort (:func:`_product_axes`).
A polynomial with unequal coefficients is left to the rank-r grid even
when its coefficient tensor has rank 1, since a float product cannot be
tested for equality exactly.  Constants (recentred degree 0) keep the
path below.

A constant (a single term, recentred degree 0) needs no quadrature: its
norm is |c|, and S is one ``abs`` of c, which errs by less than one ulp.
Its interval is [S, S] widened by one ulp each way.

Coset streaming.  :func:`riemann_l1` evaluates a grid that does not fit in
one block (``_BLOCK_BYTES``) one block of rows at a time.  On axis 0 it
writes N_0 = P Q, with Q the smallest divisor of N_0 such that
Q >= 2 d_0 + 1 and P <= 32 (``_MAX_COSETS``), so these rows are alias-free
and long.  Q is 5-smooth when N_0 is; if Q = N_0, the grid is one row and
is evaluated whole.  The sized grids of :func:`_sized_grid` may have any
number of rows.  The grid points with j_0 = r + P i, for 0 <= i < Q, form
the coset row r mod P, and on it

    f((r + P i)/N_0, t') = sum_a [c_a e(a_0 r / N_0)] e(a_0 i / Q + a'.t'),

because P i / N_0 = i / Q.  So row r is one inverse FFT of shape
(Q, N_1, ...) of the twiddled coefficients c_a e(a_0 r / N_0), placed at
(a_0 mod Q, a' mod N').  Those residues are distinct since Q >= 2 d_0 + 1
(the sized grids of :func:`_sized_grid` may have shorter rows, whose
residues it checks), so plain assignment places them.  The grid sum is
the sum of the P row sums.  With real coefficients f(-t) = conj f(t), and
-(r + P i) = (P - r) + P (Q - 1 - i) mod N_0, so row P - r has the same
sum as row r.  Only rows 0 .. P//2 are evaluated.  Rows 0 < r < P/2 count
twice; rows 0 and (P even) P/2 are their own mirrors and count once.

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
from .errors import AliasingError, MemoryBudgetError

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
# rows of a choose_grid grid (_coset_length)
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
    needed = math.prod(shape) * _BYTES_PER_SAMPLE
    budget = _memory_budget(memory_budget)
    if needed > budget:
        raise MemoryBudgetError(shape, needed, budget)
    return shape


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


def _coset_row_sums(f: TrigPoly, shape: tuple[int, ...], q: int,
                    row0_sum: float | None = None) -> list[float]:
    """sum_i |f((r + P i)/N_0, t')| over each coset row r mod P = N_0/q, for
    r = 0 .. P-1, or r = 0 .. P//2 when every coefficient is real (the
    coset identity in the module docstring).  Row 0 is the q-point grid that
    every N_0 = P q shares; ``row0_sum`` is its sum when already known."""
    n0, p = shape[0], shape[0] // q
    row_shape = (q,) + shape[1:]
    # residues first, so no product below can overflow int64
    res = f.freqs % np.array(shape, dtype=np.int64)
    idx = (res[:, 0] % q,) + tuple(res[:, 1:].T)
    real = not f.coeffs.imag.any()
    if row0_sum is None and real:
        # row 0 has real coefficients and a half-grid transform
        row0 = np.zeros(row_shape, dtype=np.float64)
        row0[idx] = f.coeffs.real
        row0_sum = _half_grid_abs_sum(scipy.fft.rfftn(row0), row_shape[-1])
        del row0  # freed before the block buffers exist
    # f(-t) = conj f(t) maps row r onto row P - r, so with real coefficients
    # rows 0 .. P//2 suffice; a complex row 0 not yet summed is the first
    # anchor row
    stop = p // 2 + 1 if real else p
    sums, first = ([], 0) if row0_sum is None else ([row0_sum], 1)
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


def _coset_mean(f: TrigPoly, shape: tuple[int, ...], q: int,
                row0_sum: float | None = None) -> float:
    """The grid mean of |f| from the coset row sums of :func:`_coset_row_sums`."""
    sums = _coset_row_sums(f, shape, q, row0_sum)
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
    """Relative error bound pi d / N of the N-point grid mean of |f| for a
    degree-d polynomial f (see the module docstring for the proof)."""
    return math.pi * d / n


def choose_grid(degree: Sequence[int], rel_err: float) -> tuple[tuple[int, ...],
                                                                tuple[float, ...]]:
    """Per-axis sample counts for a target total relative error.

    Splits rel_err so the per-axis factors compound to at most (1 + rel_err):
    rho_i = (1+rel_err)^(1/r) - 1, N_i = ceil(pi d_i / rho_i) rounded up to
    a 5-smooth length (never below the alias-free 2 d_i + 1).  Returns
    the counts and the achieved per-axis rho_i = riemann_rho(d_i, N_i).
    """
    if not 0 < rel_err < 1:
        raise ValueError("rel_err must be in (0, 1)")
    r = len(degree)
    target = (1.0 + rel_err) ** (1.0 / r) - 1.0
    shape = []
    rhos = []
    for d in degree:
        if d == 0:
            shape.append(1)
            rhos.append(0.0)
            continue
        # the smallest N with riemann_rho(d, N) <= target, rounded up to a
        # 5-smooth length, which both the real and the complex FFT run fast
        n = scipy.fft.next_fast_len(max(math.ceil(riemann_rho(d, 1) / target),
                                        2 * d + 1), real=True)
        shape.append(n)
        rhos.append(riemann_rho(d, n))
    return tuple(shape), tuple(rhos)


def certified_l1(f: TrigPoly, rel_err: float = 0.1,
                 memory_budget: int | None = None) -> NormInterval:
    """Certified enclosure of ||f||_1 with relative width about 2*rel_err.

    Recentres f first (translation preserves the norm and minimizes the
    degree), picks the grid with :func:`choose_grid`, and brackets the grid
    mean S by [S / prod(1+rho_i), S / prod(1-rho_i)].

    A rank-1 grid too large for one block is sized again from the exact
    bound ||f'||_2 (module docstring): it becomes P' Q' points, no more
    than the :func:`choose_grid` grid, with rows of a 5-smooth length Q' but
    N = P' Q' not necessarily 5-smooth, and S is bracketed by the
    intersection of the relative and the additive interval.  A constant
    (recentred degree 0) gets [S, S] widened by one ulp each way.

    In rank >= 2, c times the indicator of a Cartesian product A_0 x ... x
    A_{r-1} is enclosed as |c| times the product of the rank-1 enclosures
    of the A_i, each at (1 + rel_err)^(1/r) - 1, rounded outward (module
    docstring, "Products"); ``grid`` holds the factor grids, and the
    memory budget applies to each factor's grid alone.
    """
    if not 0 < rel_err < 1:
        raise ValueError("rel_err must be in (0, 1)")
    if f.is_zero:
        raise ValueError("certified_l1 needs a nonzero polynomial")
    g, _ = recentre(f)
    degree = g.degree
    if g.rank > 1 and any(degree):
        axes = _product_axes(g)
        if axes is not None:
            return _product_l1(g, axes, rel_err, memory_budget)
    shape, rhos = choose_grid(degree, rel_err)
    if g.rank == 1 and degree[0]:
        q = _coset_length(shape, degree[0])
        if q < shape[0]:
            return _sized_l1(g, shape, rhos[0], q, memory_budget)
    s = riemann_l1(g, shape, memory_budget)
    if not any(degree):
        # one term: S = |c| from one abs, which errs by less than an ulp
        return NormInterval(math.nextafter(s, 0.0), math.nextafter(s, math.inf),
                            s, shape, degree)
    up = math.prod(1.0 + r for r in rhos)
    dn = math.prod(1.0 - r for r in rhos)
    return NormInterval(s / up, s / dn, s, shape, degree)


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
    rel = (1.0 + rel_err) ** (1.0 / g.rank) - 1.0  # choose_grid's split
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
    return NormInterval(lo, hi, s, tuple(grid), g.degree)


def _sized_l1(g: TrigPoly, shape: tuple[int, ...], rho_rel: float, q: int,
              memory_budget: int | None) -> NormInterval:
    """certified_l1 of a recentred rank-1 g whose :func:`choose_grid` grid
    ``shape`` (relative error ``rho_rel``) streams as P_rel rows of length
    q: the grid sized from row 0 and ||g'||_2 (module docstring)."""
    _checked_shape(g, shape, memory_budget)  # the budget of today's grid
    s0 = _coset_row_sums(g, (q,), q)[0]
    dl2 = _derivative_l2(g)
    # the least N whose allowance D / (2 N) is rho_rel times the row-0 mean
    # s0 / q, taken 1% larger so that the mean's error as an estimate of
    # the norm does not leave the width above rho_rel's; the sizing needs
    # no certificate, only the interval below
    want = 1.01 * dl2 * q / (2 * s0 * rho_rel) if s0 else math.inf
    n, row = _sized_grid(g, want, shape[0], q)
    s = _coset_mean(g, (n,), row, row0_sum=s0 if row == q else None)
    a = math.nextafter(dl2 / (2 * n), math.inf)
    lo = max(math.nextafter(s - a, -math.inf), 0.0)
    hi = math.nextafter(s + a, math.inf)
    rho = riemann_rho(g.degree[0], n)
    if rho < 1:
        lo, hi = max(lo, s / (1 + rho)), min(hi, s / (1 - rho))
    return NormInterval(lo, hi, s, (n,), g.degree)


def _sized_grid(g: TrigPoly, want: float, n_rel: int, q: int) -> tuple[int, int]:
    """(N, Q'): the grid N = P' Q' of the sized path for the recentred
    rank-1 g, streamed as rows of length Q', for the target N >= ``want``
    (module docstring).

    The :func:`choose_grid` grid n_rel = P_rel q if want >= n_rel, and row 0
    alone (N = q) if want <= q.  Otherwise the least N >= want over rows q
    long (row 0 reused) and rows of any 5-smooth length Q' < q on which the
    frequencies of g have distinct residues; of equal N, the one that
    transforms the fewest samples (rows 0 .. P'//2 when the coefficients
    are real); and n_rel if that transforms no more.  Every Q' >= 2d + 1
    has distinct residues; shorter rows are tried only when terms^2 < 2d + 1,
    where residues of spread-out frequencies mostly are distinct, and none
    shorter than 32 points a term, so the O(terms) work of a row stays far
    below its transform's."""
    if not want < n_rel:
        return n_rel, q
    if want <= q:
        return q, q
    least, terms = 2 * g.degree[0] + 1, len(g.coeffs)
    low = least if terms * terms >= least else min(least, _MAX_COSETS * terms)
    smooth = _smooth_lengths()
    lengths = smooth[np.searchsorted(smooth, low):np.searchsorted(smooth, q)]
    short = lengths[:np.searchsorted(lengths, least)]
    if short.size:
        # each length's residues of the frequencies, sorted: equal neighbours
        # are a clash
        res = np.sort(g.freqs[:, :1] % short, axis=0)
        ok = np.ones(lengths.size, dtype=bool)
        ok[:short.size] = (np.diff(res, axis=0) != 0).all(axis=0)
        lengths = lengths[ok]
    lengths = np.append(lengths, q)
    p = -(-math.ceil(want) // lengths)
    n = p * lengths
    real = not g.coeffs.imag.any()
    # samples transformed; row 0's sum is reused when the rows are q long
    samples = ((p // 2 + 1 if real else p) - (lengths == q)) * lengths
    best = np.lexsort((lengths, samples, n))[0]
    p_rel = n_rel // q
    if ((p_rel // 2 + 1 if real else p_rel) - 1) * q <= samples[best]:
        return n_rel, q
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


def _derivative_l2(f: TrigPoly) -> float:
    """An upper bound, a few ulps per term above it, of ||g'||_2 =
    2 pi sqrt(sum n^2 |c_n|^2) for the recentred g of a rank-1 f (Parseval;
    inf if it overflows)."""
    if f.is_zero:
        return 0.0
    (lo, hi), = f.support_box
    n = (f.freqs[:, 0] - np.int64((lo + hi) // 2)).astype(np.float64)
    # n Re c_n and n Im c_n, each one rounded product (the imaginary part of
    # n + 0j adds exact zeros), cheaper than hypot
    w = (f.coeffs * n).view(np.float64)
    top = max(float(w.max()), -float(w.min()))
    if not top or not math.isfinite(top):
        return top
    # in [-1, 1] now, so no square overflows, and each square that underflows
    # loses under 2^-1074 against a sum of at least 1
    w /= top
    # a ufunc sum, not np.dot: BLAS may split a long dot over threads and
    # wait for them, milliseconds on a busy host
    total = float(np.square(w, out=w).sum())
    # the conversion of n, the product and the division each err by at most
    # u relatively (u = 2^-53), the sum of the m = w.size nonnegative squares
    # by gamma_m, the underflow by m u, and the sqrt, tau and the products
    # by u each: a factor 1 + 4 (m + 8) u covers them all
    slack = 1.0 + 4 * (w.size + 8) * 2.0 ** -53
    return math.nextafter(math.tau * top * math.sqrt(total) * slack, math.inf)


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
