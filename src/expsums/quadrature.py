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

Everything here is pure and deterministic: grids are evaluated with a
zero-padded FFT and reduced with pairwise summation, so results do not
depend on scheduling.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
import scipy.fft

from . import backend
from .core import TrigPoly, recentre
from .errors import AliasingError, MemoryBudgetError

_BYTES_PER_SAMPLE = 16  # complex128

DEFAULT_MEMORY_BUDGET = 2 * 2 ** 30  # bytes of samples


def _memory_budget(override: int | None) -> int:
    if override is not None:
        return int(override)
    env = os.environ.get("EXPSUMS_MEMORY_BUDGET")
    return int(env) if env else DEFAULT_MEMORY_BUDGET


@dataclass(frozen=True)
class NormInterval:
    """Certified enclosure [lo, hi] of an L1 norm.

    ``riemann`` is the raw grid mean that produced it, ``grid`` the per-axis
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

    def overlaps(self, other: "NormInterval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def to_json_dict(self) -> dict:
        return {"lo": self.lo, "hi": self.hi, "riemann": self.riemann,
                "grid": list(self.grid), "degree": list(self.degree)}


ZERO_INTERVAL = NormInterval(0.0, 0.0, 0.0, (1,), (0,))


@dataclass(frozen=True)
class GridEvaluation:
    """Samples f(j1/N1, ..., jr/Nr) on the full uniform grid."""

    shape: tuple[int, ...]
    values: np.ndarray  # complex128, shape == self.shape

    def abs_mean(self) -> float:
        return backend.abs_mean(self.values.ravel())

    def abs_sq_mean(self) -> float:
        flat = self.values.ravel()
        return float(np.mean(np.abs(flat) ** 2))


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


def eval_grid(f: TrigPoly, shape, memory_budget: int | None = None) -> GridEvaluation:
    """Evaluate f on the uniform grid via a zero-padded inverse FFT.

    values[j] = sum_a c_a e(a . j/N) exactly as direct summation would give
    (frequencies only matter mod N on the grid).  Each N_i must be at least
    2*d_i + 1 for the recentred per-axis degree d_i, so sampling is
    alias-free and the grid determines the polynomial.
    """
    shape = _normalize_shape(f, shape)
    drec = _recentred_degree(f)
    for ax, (n, d) in enumerate(zip(shape, drec)):
        if n < 2 * d + 1:
            raise AliasingError(
                f"axis {ax}: {n} samples alias a recentred degree-{d} polynomial "
                f"(need >= {2 * d + 1})")
    needed = math.prod(shape) * _BYTES_PER_SAMPLE
    budget = _memory_budget(memory_budget)
    if needed > budget:
        raise MemoryBudgetError(shape, needed, budget)
    coeffs = np.zeros(shape, dtype=np.complex128)
    idx = f.freqs % np.array(shape, dtype=np.int64)
    np.add.at(coeffs, tuple(idx.T), f.coeffs)
    # coeffs is ours alone: transform in place, so one grid-sized array is live
    values = scipy.fft.ifftn(coeffs, norm="forward", overwrite_x=True)
    return GridEvaluation(shape, values)


def riemann_l1(f: TrigPoly, shape, memory_budget: int | None = None) -> float:
    """The grid mean (1/|grid|) sum |f(j/N)| (0 for the zero polynomial)."""
    if f.is_zero:
        return 0.0
    return eval_grid(f, shape, memory_budget).abs_mean()


def riemann_rho(d: int, n: int) -> float:
    """Relative error bound pi d / N of the N-point grid mean of |f| for a
    degree-d polynomial f (see the module docstring for the proof)."""
    return math.pi * d / n


def choose_grid(degree: Sequence[int], rel_err: float) -> tuple[tuple[int, ...],
                                                                tuple[float, ...]]:
    """Per-axis sample counts for a target total relative error.

    Splits rel_err so the per-axis factors compound to at most (1 + rel_err):
    rho_i = (1+rel_err)^(1/r) - 1, N_i = ceil(pi d_i / rho_i) rounded up to
    an FFT-friendly length (never below the alias-free 2 d_i + 1).  Returns
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
        # the smallest N with riemann_rho(d, N) <= target, made FFT-friendly
        n = scipy.fft.next_fast_len(max(math.ceil(riemann_rho(d, 1) / target),
                                        2 * d + 1))
        shape.append(n)
        rhos.append(riemann_rho(d, n))
    return tuple(shape), tuple(rhos)


def certified_l1(f: TrigPoly, rel_err: float = 0.1,
                 memory_budget: int | None = None) -> NormInterval:
    """Certified enclosure of ||f||_1 with relative width about 2*rel_err.

    Recentres f first (translation preserves the norm and minimizes the
    degree), picks the grid with :func:`choose_grid`, and brackets the grid
    mean S by [S / prod(1+rho_i), S / prod(1-rho_i)].
    """
    if not 0 < rel_err < 1:
        raise ValueError("rel_err must be in (0, 1)")
    if f.is_zero:
        raise ValueError("certified_l1 needs a nonzero polynomial")
    g, _ = recentre(f)
    degree = g.degree
    shape, rhos = choose_grid(degree, rel_err)
    s = riemann_l1(g, shape, memory_budget)
    up = math.prod(1.0 + r for r in rhos)
    dn = math.prod(1.0 - r for r in rhos)
    return NormInterval(s / up, s / dn, s, shape, degree)


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
