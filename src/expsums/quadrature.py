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
two-term spikes and random polynomials, for every N in (Delta, 6 Delta],
the norm always lay inside [S/c, S c].  For f = 1 + e(Delta t) it came
closest to an end: at N = 2 Delta, S = 1 and ||f||_1 = 4/pi is 0.900 of
S c, and over every N in (Delta, 6 Delta] for Delta = 3 .. 40 the larger
of ||f||_1/(S c) and S/(c ||f||_1) peaked at 0.934, at N = 6 Delta.  |f|
does not change when f is multiplied by e(m t), so only the diameters
matter; :func:`certified_l1` recentres f first, which keeps every
frequency small.

The grid rule.  :func:`certified_l1` asks for hi/lo = c^2 <= 1 + 2 rel_err,
spread evenly over the r axes: the axis target is t = (1 + 2 rel_err)^(1/r),
and N_i/(N_i - Delta_i) <= t exactly when N_i >= t Delta_i/(t - 1).
:func:`choose_grid` returns N_i = ceil(t Delta_i/(t - 1)), at least the
alias-free 2 d_i + 1 of the recentred degree d_i, and 1 on an axis with
Delta_i = 0.  The memory budget is checked against that grid before any
rounding, and then against the grid that every N_i is rounded up to: the
least 5-smooth length at or above it, the fast sizes of both transforms
(an N_i past the largest below 2^62 is refused, whatever the budget).
Every axis keeps c_i^2 <= t, so the relative width hi/lo - 1 is at most
2 rel_err.

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

Coset streaming.  A grid mean, of :func:`riemann_l1` as of
:func:`certified_l1`, sums the coset rows of axis 0, one block of rows at a
time.  :func:`_plan` alone decides, before any transform, how a grid is
taken (a :class:`GridPlan`), and :func:`_grid_mean` only executes the plan.
N_0 = P Q for a divisor Q of N_0 (Rows, below).  The grid points with
j_0 = r + P i, for 0 <= i < Q, form the coset row r mod P, and on it

    f((r + P i)/N_0, t') = sum_a [c_a e(a_0 r / N_0)] e(a_0 i / Q + a'.t'),

because P i / N_0 = i / Q.  So row r is one inverse FFT of shape
(Q, N_1, ...) of the twiddled coefficients c_a e(a_0 r / N_0), placed at
(a_0 mod Q, a' mod N').  Row 0's twiddles are 1: it is the plain transform
of its placed coefficients, real-input when every coefficient is real, and
the twiddled blocks start at row 1.  A grid within one block (``_BLOCK_BYTES``
at 24 bytes a sample) is the single row Q = N_0: one transform of the
coefficients at their residues, exactly as :func:`eval_grid` does, with no
twiddles and no block buffers.  The blocks of twiddled rows form one
queue.  When at least two rows are twiddled, a row fits in one block and
the process may run on two CPUs, the plan takes them on two threads
(``GridPlan.threads``), whether the rows are batched (several a
transform) or taken one a call: the caller submits a job to the module's
one worker thread, which takes blocks from the front of the queue, and the
caller takes row 0 and then blocks from the back, so the two balance
themselves and the worker keeps its head start while the caller forms row
0.  A row past one block (in rank >= 2, where no row that meets the floor
of "Rows" fits) stays on one thread, in fresh buffers.  Two threads assume
the second CPU is free: the plan counts the CPUs the process may use, not
the idle ones, and two threads spend about a quarter more CPU time on the
same rows.  With real
coefficients f(-t) = conj f(t), and -(r + P i) = (P - r) + P (Q - 1 - i)
mod N_0, so row P - r has the sum of row r: only rows 0 .. P//2 are
evaluated, and rows 0 < r < P/2 count twice.  The grid sum is the
``math.fsum`` of the row sums; a sample, row sum or total past float64
leaves it inf or nan, which :func:`certified_l1` reports.

Rows.  The identity holds for every divisor Q of N_0: frequencies with
equal residues mod Q have equal e(a_0 i / Q) on the row, so a row shorter
than 2 d_0 + 1 sums the twiddled coefficients that share a residue
(``np.add.at``; Bailey, J. Supercomputing 4, 1990).  Longer rows, the
one-block row and :func:`eval_grid` are alias-free and assign them, which
costs less.  :func:`_row_length` gives every larger grid its Q: of the
divisors of N_0 of at least min(2 d_0 + 1, 32 terms) along axis 0
(``_ROW_POINTS_PER_TERM``, which keeps a row's O(terms) twiddles and
scatter far below its transform) whose row fits in one block, the one
that transforms the fewest samples, then the shorter; when no row fits,
the least divisor that meets the floor (a prime N_0 is one row).

The twiddles.  Row r's twiddles come from the exact integer phase
m = a_0 r mod N_0 (int64 while N_0 (r + 1) < 2^63 for the block's last row
r, Python ints beyond) and two tables, lo[j] = e(j / N_0) for j < 2^k and
hi[j] = e(j 2^k / N_0) with 2^(2k) >= N_0: c_a e(a_0 r / N_0) is
c_a hi[m >> k] lo[m mod 2^k].  A table entry is the cosine and sine of the
angle theta = 2 pi (j / N_0), formed with three roundings (four for N_0
past 2^53), so with cos and sin within one ulp it lies within 4u theta + 2u
of e(j / N_0) (u = 2^-53); the two angles add up to 2 pi m / N_0 < 2 pi.
Each complex product adds at most sqrt(5) u (Brent, Percival and
Zimmermann, Math. Comp. 76, 2007).  So every twiddled coefficient errs by
at most (8 pi + 4 + 2 sqrt(5)) u < 34u, about 3.8e-15 relatively, in every
row, and a sample of the row by at most that times sum |c_a|: an error of
the FFT rounding's kind, and like it not yet part of a certified
floating-point term.

Residues and phases without int64 division.  A term's index on an axis of
n points is its frequency mod n.  When the axis's frequencies all lie in
(-n, n), as they do on axis 0 for every alias-free row of a recentred
polynomial (|a_0| <= d_0 < Q <= N_0), :func:`_reduced` adds n to the
negative ones; support_box tells, so nothing is scanned for it, and
frequencies outside (-n, n) (a polynomial :func:`riemann_l1` or
:func:`eval_grid` takes as given, far from 0) take ``%``.  In int64, each
row's phases are the row before's plus a_0 mod N_0, less N_0 where the sum
reaches N_0, so a block takes at most one ``%``, on its first row, and
none when that is row 1, whose phases are a_0 mod N_0 itself.  Both give
the integers ``%`` gives.  A column of fewer than ``_DIVIDE_BELOW`` (1024)
terms still takes one ``%`` (the phases of a whole block in one call),
which costs less than the calls that avoid it there.

The transforms.  Every transform is numpy.fft's, in place through
``out=``: a complex grid or block overwrites its coefficients, and a real
grid writes its half-size output into one array, so a sample takes the 16
bytes the budget charges.  One axis takes the 1-D functions, which cost
less a call than the n-D ones.  Several axes go to the n-D functions in
reverse order: numpy transforms the last axis given first, so the complex
axes are taken in ascending order, as scipy.fft takes them, and the
samples are scipy.fft's bit for bit (the tests keep scipy.fft as their
reference).  numpy keeps no plan cache.  Each thread that forms rows keeps
between calls its own workspace: block buffers of one block and twiddle
scratch of 2^14 (row, term) pairs, 768 KiB, in which a block's terms are
twiddled and placed a slice at a time.  It is allocated once, on the
thread's first streamed grid, and never reallocated; only the pages its
blocks touch are resident.  A two-thread plan gives each thread half of
``_BLOCK_ROWS``, half of the rows of ``_BLOCK_BYTES`` (but at least one
row) and half of the pairs, so each thread's block is at most one block,
formed in its own workspace, and no thread writes into another's.  The
worker keeps its workspace between calls, so a process that takes
two-thread plans holds up to a block and its scratch more than on one
thread, as far as the worker's blocks have touched it.  Coset rows of 2^14
samples or more are transformed one row a call, since numpy's batched path
allocates a buffer on every call.  numpy's complex FFT still allocates
scratch of about a row on every call, so the first such rows of a process
free one block once (:func:`_raise_malloc_thresholds`): glibc's mmap and
trim thresholds then follow it up, and the scratch stays in the heap
between calls.  Without these, glibc faults the buffers in afresh on every
call.  A workspace is allocated once, not grown with each larger block,
since a grown one is freed and allocated again in the worker's malloc
arena, which raises peak RSS (CHANGES.md has the measurements).

Everything here is pure and deterministic: the blocks are the same
whichever thread takes them, each row reduced by pairwise summation on its
own into its own place, and ``math.fsum`` adds the row sums in row order,
so results do not depend on scheduling or on which thread took a row: a
two-thread plan gives the row sums of one thread bit for bit.  Each
thread has its own block buffers, so threads may take grid means at once.
The worker is the one thread of a ``ThreadPoolExecutor(1)``, made by the
first two-thread plan of each process, so a process that never makes one
neither imports ``concurrent.futures`` nor starts a thread.  It takes one
caller's job at a time.  A caller whose job it has not begun, being busy
with another caller's rows, takes every block itself and then cancels the
job (``Future.cancel``), which never runs: no caller waits for another
caller's rows.  A job the worker has begun ends before its caller returns
or raises, and an exception raised in it is raised again in the caller.
A signal that cuts that wait short (KeyboardInterrupt) leaves the worker
to finish its blocks in its own buffers, with row sums and an outcome
that no later caller reads.  The thread is not a daemon: interpreter exit
joins it, and it is never more than one plan's blocks from idle.  A grid
mean taken after that, in an atexit handler say, takes every block on its
caller's thread.  A forked child, which inherits no thread but its
caller's, makes its own pool.
"""

from __future__ import annotations

import collections
import functools
import math
import operator
import os
import threading
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .core import (IntegerSet, TrigPoly, _check_int, _check_real, _run_starts, indicator_poly,
                   recentre)
from .errors import AliasingError, GridOverflowError, MemoryBudgetError

# complex128; a real-coefficient grid holds a float64 input and a half-size
# complex128 output, about the same
_BYTES_PER_SAMPLE = 16

DEFAULT_MEMORY_BUDGET = 2 * 2 ** 30  # bytes of samples

# a grid mean takes a grid that fits in this many bytes, each sample a
# complex128 value and its float64 modulus, as one transform, and streams a
# larger one in blocks of coset rows of at most this many bytes
_BLOCK_BYTES = 4 * 2 ** 20
_BLOCK_BYTES_PER_SAMPLE = 24
# at most this many coset rows a block: without the cap, short rows fill the
# block buffers to _BLOCK_BYTES, 1 MB more sparse peak RSS (CHANGES.md)
_BLOCK_ROWS = 32
# a coset row has at least this many points on axis 0 a term, unless it is
# alias-free with fewer, so that its twiddles and scatter stay far below its
# transform (module docstring, "Rows")
_ROW_POINTS_PER_TERM = 32
# coset rows of at least this many samples (256 KiB of complex128) are
# transformed one row a call: numpy's batched path allocates a two-row buffer
# on every call, which glibc faults in afresh each time once rows are this
# long.  Shorter rows stay one block a call, which costs fewer calls
_ROW_CALL_SAMPLES = 2 ** 14
# a block's twiddles are formed and placed at most this many (row, term)
# pairs at a time, in scratch of 48 bytes a pair (_twiddled)
_TWIDDLE_PAIRS = 2 ** 14
# an int64 column of fewer terms than this is reduced mod n with one `%`:
# below it one division call costs less than the two or three calls that
# avoid it (module docstring, "Residues and phases"; CHANGES.md)
_DIVIDE_BELOW = 1024

# each thread's block buffers and twiddle scratch, kept between calls: the
# block and its moduli, then phases, table indices, twiddles and lo entries
_workspace = threading.local()
_BUFFER_DTYPES = (np.complex128, np.float64, np.int64, np.int64, np.complex128, np.complex128)
_WORKSPACE_SIZES = (_BLOCK_BYTES // _BLOCK_BYTES_PER_SAMPLE,) * 2 + (_TWIDDLE_PAIRS,) * 4


def _memory_budget(override: int | None) -> int:
    """``override``, else ``EXPSUMS_MEMORY_BUDGET``, else the default; a budget
    that is not a positive integer (nor True) raises a ValueError naming it."""
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
    if budget < 1 or isinstance(raw, bool) or (isinstance(raw, float) and raw != budget):
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
        return _abs_sum(self.values, self.shape[-1]) / math.prod(self.shape)


def _abs_sum(values: np.ndarray, n_last: int) -> float:
    """sum |f| over a grid of n_last points on its last axis, from ``values``:
    all its samples, or (f with real coefficients) its columns 0 .. n_last//2."""
    a = np.abs(values)
    total = float(a.sum())
    if values.shape[-1] == n_last:  # the whole grid (or n_last <= 2)
        return total
    # column j_r stands for itself and for column N_r - j_r, except
    # j_r = 0 and (N_r even) j_r = N_r/2, which are their own mirrors; a row
    # has them as its two end samples
    if a.ndim == 1:
        first, last = float(a[0]), float(a[-1])
    else:
        first, last = float(a[..., 0].sum()), float(a[..., -1].sum())
    total = 2.0 * total - first
    if n_last % 2 == 0:
        total -= last
    return total


def _recentred_degree(f: TrigPoly) -> tuple[int, ...]:
    # ceil(diameter/2) per axis: the degree after recentring
    return tuple((hi - lo + 1) // 2 for lo, hi in f.support_box)


def _checked_shape(f: TrigPoly, shape, memory_budget: int | None) -> tuple[int, ...]:
    """The grid shape as a tuple, after the alias-free and budget checks."""
    if isinstance(shape, (str, bytes)):
        raise ValueError(f"grid shape {shape!r} is a string, not grid sizes")
    shape = tuple(_check_int(n, "grid size")
                  for n in (shape if np.iterable(shape) else (shape,) * f.rank))
    if len(shape) != f.rank:
        raise ValueError(f"grid has {len(shape)} axes, polynomial has rank {f.rank}")
    if any(n < 1 for n in shape):
        raise ValueError("grid sizes must be positive")
    for ax, (n, d) in enumerate(zip(shape, _recentred_degree(f))):
        if n < 2 * d + 1:
            raise AliasingError(
                f"axis {ax}: {n} samples alias a recentred degree-{d} polynomial "
                f"(need >= {2 * d + 1})")
    _check_budget(shape, _memory_budget(memory_budget))
    return shape


def _check_budget(shape: tuple[int, ...], budget: int) -> None:
    needed = math.prod(shape) * _BYTES_PER_SAMPLE
    # an axis past the largest 5-smooth length below 2^62 has none to be
    # rounded up to (_smooth_lengths), whatever the budget
    if needed > budget or max(shape) > _smooth_lengths()[-1]:
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

    The values API and the tests' reference: no grid mean calls it, though
    coset row 0 shares its transform (module docstring, "Coset streaming").
    """
    shape = _checked_shape(f, shape, memory_budget)
    real = not f.coeffs.imag.any()
    values = _grid_values(_placed(f, _residues(f, shape), shape, real))
    if real:
        np.conjugate(values, out=values)
    return GridEvaluation(shape, values)


def _residues(f: TrigPoly, shape: tuple[int, ...]) -> tuple:
    """The grid indices of f's terms on a grid of ``shape``: their
    frequencies' residues mod ``shape``, one index array per axis."""
    if len(f.freqs) < _DIVIDE_BELOW:  # one `%` an axis, the cheaper there
        if len(shape) == 1:  # a Python int modulus: no array to build for it
            return (f.freqs[:, 0] % shape[0],)
        return tuple((f.freqs % np.array(shape, dtype=np.int64)).T)
    return tuple(_reduced(f.freqs[:, i], n, f.support_box[i]) for i, n in enumerate(shape))


def _reduced(a: np.ndarray, n: int, box: tuple[int, int]) -> np.ndarray:
    """The int64 column ``a`` mod n, its entries lying in ``box`` = (min, max):
    n added to the negative entries when all lie in (-n, n), else ``%``
    (module docstring, "Residues and phases")."""
    if not (-n < box[0] and box[1] < n):
        return a % n
    out = a + n
    # read as unsigned, an entry a >= 0 is below a + n, and an entry a < 0 is
    # 2^63 or more, while a + n lies in [1, n): the lesser is a mod n
    u = out.view(np.uint64)
    np.minimum(a.view(np.uint64), u, out=u)
    return out


def _placed(f: TrigPoly, idx: tuple, shape: tuple[int, ...], real: bool,
            place=operator.setitem) -> np.ndarray:
    """f's coefficients, their real parts when ``real``, put at ``idx`` on a
    zero grid of ``shape`` by ``place``: assignment, or :func:`_fold`."""
    coeffs = np.zeros(shape, dtype=np.float64 if real else np.complex128)
    place(coeffs, idx, f.coeffs.real if real else f.coeffs)
    return coeffs


def _grid_values(coeffs: np.ndarray) -> np.ndarray:
    """The placed ``coeffs`` transformed: f's samples, in place, or, for
    float64 ``coeffs``, the conjugates of its columns 0 .. N_r//2 (rfftn)."""
    shape = coeffs.shape
    if coeffs.dtype == np.complex128:
        # coeffs is ours alone: transform in place, so one grid-sized array is live
        return _ifft(coeffs, tuple(range(len(shape))))
    # the half-size output given, so no axis after the real one needs another array
    out = np.empty(shape[:-1] + (shape[-1] // 2 + 1,), dtype=np.complex128)
    if len(shape) == 1:
        return np.fft.rfft(coeffs, out=out)
    # the complex axes in reverse, as in _ifft
    return np.fft.rfftn(coeffs, axes=tuple(range(len(shape) - 2, -1, -1)) + (len(shape) - 1,),
                        out=out)


def _ifft(x: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """x transformed in place by the unscaled inverse FFT over ``axes``.

    One axis takes numpy's 1-D function, which costs less a call than the
    n-D one.  Several axes go to the n-D function in reverse: it transforms
    the last axis given first, so the axes are taken in ascending order,
    which gives the same samples, bit for bit, as scipy.fft's order."""
    if len(axes) == 1:
        return np.fft.ifft(x, axis=axes[0], norm="forward", out=x)
    return np.fft.ifftn(x, axes=axes[::-1], norm="forward", out=x)


def _block_buffers(shape: tuple[int, ...], pairs: int) -> tuple[np.ndarray, ...]:
    """complex128 and float64 arrays of the block ``shape``, then the flat
    twiddle scratch of :func:`_twiddled` for ``pairs`` <= _TWIDDLE_PAIRS
    (row, term) pairs: views of this thread's workspace when the block fits
    in one block (_BLOCK_BYTES), else fresh.  The workspace is allocated
    once, on the thread's first streamed grid, at one block of samples and
    _TWIDDLE_PAIRS pairs, and never reallocated, so a pass neither faults
    these buffers in afresh on every call nor leaves freed ones in the
    thread's malloc arena; only the pages a block has touched are
    resident.  A block of rows transformed one a call first raises glibc's
    thresholds (:func:`_raise_malloc_thresholds`)."""
    shapes = (shape,) * 2 + ((pairs,),) * 4
    if math.prod(shape[1:]) >= _ROW_CALL_SAMPLES:  # rows transformed one a call
        _raise_malloc_thresholds()
    if math.prod(shape) * _BLOCK_BYTES_PER_SAMPLE > _BLOCK_BYTES:
        return tuple(np.empty(s, dtype=t) for s, t in zip(shapes, _BUFFER_DTYPES))
    kept = getattr(_workspace, "buffers", None)
    if kept is None:
        kept = _workspace.buffers = [np.empty(n, dtype=t)
                                     for n, t in zip(_WORKSPACE_SIZES, _BUFFER_DTYPES)]
    return tuple(b[:math.prod(s)].reshape(s) for b, s in zip(kept, shapes))


@functools.cache
def _raise_malloc_thresholds() -> None:
    """Allocate and free one block, once a process: glibc then raises its
    mmap threshold to that size and its trim threshold to twice it.  numpy's
    complex FFT allocates scratch of about a row on every call; under those
    thresholds glibc serves it from the heap and keeps it for the next call,
    where otherwise it maps it afresh, or trims it, and every call faults it
    in again (module docstring, "The transforms")."""
    np.empty(_BLOCK_BYTES, dtype=np.uint8)


def _row_length(shape: tuple[int, ...], d0: int, terms: int, real: bool) -> int:
    """Q, the length on axis 0 of the coset rows of a streamed grid, for
    ``terms`` terms of recentred degree d0 on axis 0 (module docstring,
    "Rows"): of the divisors of N_0 of at least min(2 d0 + 1, 32 terms)
    whose row fits in one block, the one that transforms the fewest samples,
    then the shortest; the least such divisor when no row fits."""
    n0 = shape[0]
    # every divisor of N_0, ascending (the square root of a square twice)
    k = np.arange(1, math.isqrt(n0) + 1)
    k = k[n0 % k == 0]
    q = np.concatenate([k, n0 // k[::-1]])
    # N_0 >= 2 d0 + 1 itself, so some divisor meets the floor
    q = q[q >= min(2 * d0 + 1, _ROW_POINTS_PER_TERM * terms)]
    fits = q[q <= _BLOCK_BYTES // (_BLOCK_BYTES_PER_SAMPLE * math.prod(shape[1:]))]
    if not fits.size:
        return int(q[0])
    p = n0 // fits
    # rows 0 .. P//2 are transformed when the coefficients are real; the
    # first of equal counts is the shortest row
    return int(fits[np.argmin((p // 2 + 1 if real else p) * fits)])


class GridPlan(NamedTuple):
    """How a checked grid is taken, decided by :func:`_plan` before any
    transform (module docstring, "Coset streaming" and "Rows")."""

    grid: tuple[int, ...]
    real: bool  # every coefficient real: real-input rows, rows 0 .. P//2 only
    q: int  # the coset row length on axis 0; N_0 for a grid within one block
    fold: bool  # rows shorter than 2 d_0 + 1 sum the coefficients of a residue
    rows: int  # twiddled rows a block of each thread (0 when only row 0 is evaluated)
    per_row: bool  # one transform a row (_ROW_CALL_SAMPLES), else one a block
    evaluated: int  # rows 0 .. evaluated - 1 are transformed
    width: int  # terms twiddled and placed at a time (_TWIDDLE_PAIRS a block, all threads)
    threads: int = 1  # 2: the caller and the worker take the blocks (_row_sums)


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _plan(f: TrigPoly, grid: tuple[int, ...]) -> GridPlan:
    """The plan of f's grid mean on the checked ``grid``: the one place that
    decides how a grid is taken.  Within one block it is the single row
    Q = N_0; beyond, the rows of :func:`_row_length`, on two threads when at
    least two are twiddled, a row fits in one block and the process may run
    on two CPUs.  Allocates nothing of grid size."""
    real = not np.count_nonzero(f.coeffs.imag)
    if math.prod(grid) * _BLOCK_BYTES_PER_SAMPLE <= _BLOCK_BYTES:
        # the single row Q = N_0, with no twiddled rows to plan
        return GridPlan(grid, real, grid[0], False, 0, False, 1, len(f.coeffs))
    d0 = _recentred_degree(f)[0]
    q = _row_length(grid, d0, len(f.coeffs), real)
    p = grid[0] // q
    # f(-t) = conj f(t) maps row r onto P - r: real coefficients need rows 0 .. P//2
    evaluated = p // 2 + 1 if real else p
    row = q * math.prod(grid[1:])
    per_row = row >= _ROW_CALL_SAMPLES
    # rows within one block, at least two of them twiddled, on the caller and
    # the worker; a row past one block stays on one thread
    threads = (2 if evaluated > 2 and row * _BLOCK_BYTES_PER_SAMPLE <= _BLOCK_BYTES
               and _cpus() > 1 else 1)
    # each thread a share of the twiddled rows, of _BLOCK_ROWS and of the
    # _BLOCK_BYTES rows, but at least one row: each thread's block is at most
    # one block, and both together too unless a row is over half a block
    rows = min(-(-(evaluated - 1) // threads), _BLOCK_ROWS // threads,
               max(1, _BLOCK_BYTES // threads // (row * _BLOCK_BYTES_PER_SAMPLE)))
    # the terms in near-equal slices of at most _TWIDDLE_PAIRS pairs a block,
    # shared by the threads, so that below 2^25 terms no slice of a one-row
    # block is one term: numpy rounds a one-element complex product unlike
    # the same product in a longer array
    most = _TWIDDLE_PAIRS // threads // max(rows, 1)
    width = -(-len(f.coeffs) // -(-len(f.coeffs) // most))
    # a row shorter than 2 d_0 + 1 may give two frequencies one residue: fold
    return GridPlan(grid, real, q, q < 2 * d0 + 1, rows, per_row, evaluated, width, threads)


def _phase_tables(n0: int) -> tuple[int, np.ndarray, np.ndarray]:
    """The least k with 2^(2k) >= N_0, and the tables lo[j] = e(j / N_0), j < 2^k,
    and hi[j] = e(j 2^k / N_0), j 2^k < N_0 (module docstring, "The twiddles")."""
    k = ((n0 - 1).bit_length() + 1) // 2
    angle = np.concatenate([np.arange(1 << k), np.arange(0, n0, 1 << k)]) / n0
    angle *= 2 * math.pi
    roots = np.empty(len(angle), dtype=np.complex128)
    np.cos(angle, out=roots.real)
    np.sin(angle, out=roots.imag)
    return k, roots[:1 << k], roots[1 << k:]


def _twiddled(coeffs: np.ndarray, res0: np.ndarray, rows: range, n0: int,
              tables: tuple[int, np.ndarray, np.ndarray],
              scratch: Sequence[np.ndarray]) -> np.ndarray:
    """The coefficients c_a e(a_0 r / N_0) of the coset rows r in ``rows``, from
    res0 = a_0 mod N_0 and the :func:`_phase_tables` of N_0, one row a row,
    formed in the flat ``scratch`` of at least len(rows) terms entries each:
    int64 phases and indices, complex128 twiddles and lo entries.  The
    phases a_0 r mod N_0 are exact: in int64 from _DIVIDE_BELOW terms on,
    the row before's plus res0, wrapped (module docstring, "Residues and
    phases")."""
    k, lo, hi = tables
    shape = (len(rows), len(coeffs))
    phase, index, twiddled, entries = (a[:math.prod(shape)].reshape(shape) for a in scratch)
    # a_0 r < N_0 rows.stop: int64 while that fits, Python ints beyond
    if n0 * rows.stop >= 2 ** 63:
        phase[...] = np.multiply.outer(np.arange(rows.start, rows.stop, dtype=object),
                                       res0.astype(object)) % n0
    elif len(coeffs) < _DIVIDE_BELOW:
        np.multiply.outer(np.arange(rows.start, rows.stop), res0, out=phase)
        np.remainder(phase, n0, out=phase)
    else:
        if rows.start == 1:
            phase[0] = res0
        else:
            np.remainder(np.multiply(res0, rows.start, out=phase[0]), n0, out=phase[0])
        # unsigned, a sum s < N_0 gives s - N_0 >= 2^64 - N_0 > s, and a sum
        # s >= N_0 gives s - N_0 < s: the lesser is s mod N_0 (N_0 < 2^62)
        step, u, wrapped = res0.view(np.uint64), phase.view(np.uint64), index[0].view(np.uint64)
        for i in range(1, len(rows)):
            np.add(u[i - 1], step, out=u[i])
            np.minimum(u[i], np.subtract(u[i], n0, out=wrapped), out=u[i])
    # mode="clip" takes into ``out`` unbuffered; every index is in range
    hi.take(np.right_shift(phase, k, out=index), out=twiddled, mode="clip")
    lo.take(np.bitwise_and(phase, (1 << k) - 1, out=index), out=entries, mode="clip")
    twiddled *= entries
    twiddled *= coeffs
    return twiddled


def _fold(a: np.ndarray, idx: tuple, values: np.ndarray) -> None:
    """a[idx] += values for the C-contiguous ``a``, summing the values
    whose indices coincide."""
    # flat indices take ufunc.at's fast path, which still costs more than
    # plain assignment (that keeps one of coinciding values): about 4x at 16
    # terms and 1.1-1.4x at 40,000 (numpy 2.4, one Xeon vCPU)
    np.add.at(a.reshape(-1), np.ravel_multi_index(idx, a.shape).ravel(), values.ravel())


# the pool of each process, by pid: a forked child, which inherits no thread
# but its caller's, makes its own
_pools: dict = {}


def _worker():
    """The pool of the one thread kept to take blocks of rows of two-thread
    plans (:attr:`GridPlan.threads`): a ``ThreadPoolExecutor(1)`` made on
    first use in each process."""
    pool = _pools.get(os.getpid())
    if pool is None:
        # imported here: 4 ms and 0.6 MB (it loads logging) that a process
        # without a two-thread plan never needs
        from concurrent.futures import ThreadPoolExecutor
        # two first callers at once may each make a pool: one is kept, and
        # the other, never given a job, never starts its thread
        pool = _pools.setdefault(os.getpid(),
                                 ThreadPoolExecutor(1, thread_name_prefix="expsums-rows"))
    return pool


# an overflow leaves inf or nan in the row sums, which certified_l1 reports
@np.errstate(over="ignore", invalid="ignore")
def _row_sums(f: TrigPoly, plan: GridPlan) -> list[float]:
    """sum_i |f((r + P i)/N_0, t')| over each coset row r = 0 .. evaluated - 1
    of ``plan`` (the coset identity in the module docstring); it reads the
    plan and decides nothing.  The twiddled rows are one queue of blocks: on
    two threads the worker takes them from the front, while the caller takes
    row 0 and then blocks from the back."""
    row_shape = (plan.q,) + plan.grid[1:]
    idx = _residues(f, row_shape)
    place = _fold if plan.fold else operator.setitem

    def first() -> float:
        # row 0's twiddles are 1: the plain transform of the row
        return _abs_sum(_grid_values(_placed(f, idx, row_shape, plan.real, place)),
                        row_shape[-1])

    if plan.evaluated == 1:
        return [first()]
    n0 = plan.grid[0]
    res0 = (f.freqs[:, 0] % n0 if len(f.freqs) < _DIVIDE_BELOW
            else _reduced(f.freqs[:, 0], n0, f.support_box[0]))
    run = functools.partial(_range_sums, f, plan, idx, place, res0, _phase_tables(n0))
    # the first rows of the blocks: all of them the caller's when the worker
    # is busy with another caller's rows (its job is then cancelled), and one
    # block at most the worker's when it waits for a CPU
    starts = collections.deque(range(1, plan.evaluated, plan.rows))
    sums = [0.0] * plan.evaluated
    try:
        job = _worker().submit(run, starts.popleft, sums) if plan.threads == 2 else None
    except RuntimeError:  # a pool shut down (atexit handlers run after it): one thread
        job = None
    try:
        sums[0] = first()
        run(starts.pop, sums)
    finally:
        # a job the worker has not begun never runs; one it has begun ends
        # before this call returns or raises, and its error is raised here
        if job is not None and not job.cancel():
            job.result()
    return sums


@np.errstate(over="ignore", invalid="ignore")
def _range_sums(f: TrigPoly, plan: GridPlan, idx: tuple, place, res0: np.ndarray,
                tables: tuple, pop, sums: list[float]) -> None:
    """Write into ``sums`` the sums of the twiddled coset rows of ``plan`` in
    the blocks that begin at the rows ``pop`` takes, until it raises
    IndexError, each plan.rows rows but none from plan.evaluated on, taken in
    the block buffers and twiddle scratch of the thread that runs it: one
    thread's share of :func:`_row_sums`.  A deque's pops are atomic, and each
    block writes its own slice of ``sums`` in one assignment, so two threads
    may take blocks from both ends."""
    n0 = plan.grid[0]
    block, moduli, *scratch = _block_buffers((plan.rows, plan.q) + plan.grid[1:],
                                             plan.rows * plan.width)
    # long rows one a call, short ones one block a call, with the block's
    # rows on axis 0
    first = 0 if plan.per_row else 1
    axes = tuple(range(first, first + len(plan.grid)))
    while True:
        try:
            r0 = pop()
        except IndexError:
            return
        nb = min(plan.rows, plan.evaluated - r0)
        blk = block[:nb]
        blk.fill(0)
        # the terms in slices of plan.width, in order, so that a fold adds
        # the coefficients of one residue in the same order as all at once
        for t in range(0, len(f.coeffs), plan.width):
            part = slice(t, t + plan.width)
            twiddled = _twiddled(f.coeffs[part], res0[part], range(r0, r0 + nb), n0, tables,
                                 scratch)
            place(blk, (np.arange(nb)[:, None],) + tuple(i[part] for i in idx), twiddled)
        for x in blk if plan.per_row else (blk,):
            _ifft(x, axes)
        mod = np.abs(blk, out=moduli[:nb])
        sums[r0:r0 + nb] = mod.reshape(nb, -1).sum(axis=1).tolist()


def _grid_mean(f: TrigPoly, plan: GridPlan) -> float:
    """The grid mean of |f| on ``plan.grid``, from the coset row sums of
    :func:`_row_sums`."""
    sums = _row_sums(f, plan)
    # each row P - r missing from sums is the mirror of row r, same sum
    try:
        total = math.fsum(sums + sums[1:plan.grid[0] // plan.q - len(sums) + 1])
    except OverflowError:  # finite row sums whose total passes float64
        total = math.inf
    return total / math.prod(plan.grid)


def riemann_l1(f: TrigPoly, shape, memory_budget: int | None = None) -> float:
    """The grid mean (1/|grid|) sum |f(j/N)| (0 for the zero polynomial).

    The grid is checked, planned and taken over the coset rows of its first
    axis: one row, one transform, within one block (module docstring).
    """
    shape = _checked_shape(f, shape, memory_budget)
    if f.is_zero:
        return 0.0
    return _grid_mean(f, _plan(f, shape))


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
    Delta_i = 0.  Not rounded: :func:`certified_l1` rounds each N_i up to
    the next 5-smooth length.
    """
    t = _axis_target(rel_err, len(diameter))
    return tuple(max(math.ceil(t * d / (t - 1.0)), 2 * ((d + 1) // 2) + 1) if d else 1
                 for d in diameter)


def _axis_target(rel_err: float, rank: int) -> float:
    """The axis target t = (1 + 2 rel_err)^(1/rank) (module docstring, "The
    grid rule"); a ValueError naming rel_err when it is not a real number in
    (0, 1) (:func:`~expsums.core._check_real`), or so small that t rounds to
    1 and no grid meets it."""
    try:
        # a float as it is (nan and inf fail the range below); anything else
        # must be a finite real number: not a string, None or a list
        rel = rel_err if type(rel_err) is float else _check_real(rel_err, "rel_err")
    except ValueError:
        rel = math.nan
    if not 0 < rel < 1:
        raise ValueError(f"rel_err must be in (0, 1), got {rel_err!r}")
    t = (1.0 + 2.0 * rel) ** (1.0 / rank)
    if t == 1.0:
        raise ValueError(f"rel_err {rel_err!r} is too small: (1 + 2 rel_err)^(1/{rank}) is 1.0")
    return t


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

    The memory budget is checked against the unrounded grid, then against
    the grid rounded up to 5-smooth lengths, which is taken whole within one
    block and streamed in coset rows beyond it (module docstring, "Rows").
    A grid mean or an end that overflows float64 raises
    :class:`~expsums.errors.GridOverflowError`.  A ``rel_err`` outside (0, 1),
    or too small for float64 (:func:`_axis_target`), raises a ValueError.

    In rank >= 2, c times the indicator of a Cartesian product A_0 x ... x
    A_{r-1} is enclosed as |c| times the product of the rank-1 enclosures
    of the A_i, each at the axis target (1 + 2 rel_err)^(1/r), rounded
    outward (module docstring, "Products"); ``grid`` holds the factor grids,
    and the memory budget applies to each factor's grid alone.
    """
    if f.is_zero:
        raise ValueError("certified_l1 needs a nonzero polynomial")
    # the shift hands g its support_box, so there is no second pass for it
    g, _ = recentre(f)
    diameter = tuple(hi - lo for lo, hi in g.support_box)
    if g.rank > 1 and any(diameter):
        axes = _product_axes(g)
        if axes is not None:
            return _product_l1(g, axes, rel_err, memory_budget)
    budget = _memory_budget(memory_budget)
    want = choose_grid(diameter, rel_err)
    _check_budget(want, budget)
    # every N_i >= 2 d_i + 1 (choose_grid): alias-free
    smooth = _smooth_lengths()
    grid = tuple(int(smooth[smooth.searchsorted(n)]) for n in want)
    _check_budget(grid, budget)
    s = _grid_mean(g, _plan(g, grid))
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
    try:
        c = abs(complex(g.coeffs[0]))
    except OverflowError:  # |c| past float64, which _finite reports
        c = math.inf
    # abs errs by under an ulp
    lo, hi, s = math.nextafter(c, 0.0), math.nextafter(c, math.inf), c
    # the axis target t is hi/lo <= 1 + 2 rel for rel = (t - 1)/2, whose
    # rank-1 target 1 + 2 rel is t again, exactly
    rel = (_axis_target(rel_err, g.rank) - 1.0) / 2.0
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


@functools.cache
def _smooth_lengths() -> np.ndarray:
    """Every 5-smooth number below 2^62, ascending: the fast lengths of the
    real and the complex FFT.  Built on first use."""
    lengths = np.ones(1, dtype=np.int64)
    for p in (2, 3, 5):
        # the numbers so far times p^k, k = 0, 1, ..., while below 2^62
        layer, layers = lengths, [lengths]
        while (layer := layer[layer <= (2 ** 62 - 1) // p] * p).size:
            layers.append(layer)
        lengths = np.concatenate(layers)
    lengths.sort()
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
