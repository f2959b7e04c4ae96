"""Dirichlet and Fejer kernels and the flat-top multiplier K_{M,N}.

K_{M,N} is 1 on {|k| <= N}, 0 outside {|k| < N+2M}, and its transform
factorizes as (1/M) * D_{N+M}(t) * F_{M-1}(t).  Every value is an integer
multiple of 1/M^2, so a kernel keeps int64 numerators over M^2 and the
plateau and support claims are tested with integer equality rather than a
tolerance; only the transform uses floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import quadrature
from .core import TrigPoly, _check_i64
from .errors import HypothesisError

# values of |sin(pi t)| below this are treated as the removable singularity
_SINGULARITY_TOL = 1e-12

_CHUNK_ELEMS = 1 << 22  # cap on points*terms per block of the direct sum


def _dirichlet_values(n: int, ts: np.ndarray) -> np.ndarray:
    s = np.sin(np.pi * ts)
    small = np.abs(s) < _SINGULARITY_TOL
    safe = np.where(small, 1.0, s)
    vals = np.sin(np.pi * (2 * n + 1) * ts) / safe
    return np.where(small, float(2 * n + 1), vals)


def _fejer_values(n: int, ts: np.ndarray) -> np.ndarray:
    s = np.sin(np.pi * ts)
    small = np.abs(s) < _SINGULARITY_TOL
    safe = np.where(small, 1.0, s)
    ratio = np.sin(np.pi * (n + 1) * ts) / safe
    return np.where(small, float(n + 1), ratio * ratio / (n + 1))


def _scalar_or_array(fn, t):
    if np.ndim(t) == 0:
        return float(fn(np.array([float(t)]))[0])
    return fn(np.asarray(t, dtype=np.float64))


def dirichlet(n: int, t):
    """D_n(t) = sum_{|k|<=n} e(kt) = sin(pi(2n+1)t)/sin(pi t); D_n(integer) = 2n+1.

    The removable singularity is handled by an explicit branch at
    |sin(pi t)| < 1e-12.  Accepts a scalar or an array of t.
    """
    if n < 0:
        raise ValueError("order must be >= 0")
    return _scalar_or_array(lambda ts: _dirichlet_values(int(n), ts), t)


def fejer(n: int, t):
    """F_n(t) = sum (1-|k|/(n+1)) e(kt) = (1/(n+1)) (sin(pi(n+1)t)/sin(pi t))^2.

    Nonnegative, bounded by n+1, unit mean over [0,1]; F_n(integer) = n+1.
    """
    if n < 0:
        raise ValueError("order must be >= 0")
    return _scalar_or_array(lambda ts: _fejer_values(int(n), ts), t)


@dataclass(frozen=True, eq=False)
class FlatTopKernel:
    """Flat-top multiplier with plateau half-width ``n`` and ramp scale ``m``.

    K(freqs[i]) = values[i] / M^2, and K is 0 at every frequency not in
    ``freqs``; both are int64 arrays, ``freqs`` strictly increasing.  The
    constructor does not re-verify the plateau/support properties (that
    allows deliberately corrupted kernels in negative-control tests); use
    :func:`property_violations` to check them.
    """

    m: int
    n: int
    freqs: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if self.m < 2 or self.m >= self.n:
            raise ValueError(f"need 2 <= M < N, got M={self.m}, N={self.n}")
        if not (self.freqs.dtype == self.values.dtype == np.int64
                and self.freqs.shape == self.values.shape and self.freqs.size):
            raise TypeError("freqs and values must be nonempty int64 arrays "
                            "of one shape")

    @property
    def support_limit(self) -> int:
        """Smallest L with values(k) = 0 required for |k| >= L (= N + 2M)."""
        return self.n + 2 * self.m

    @property
    def denominator(self) -> int:
        return self.m * self.m

    def numerators_at(self, ks) -> np.ndarray:
        """The numerators of K over M^2 at the frequencies ``ks`` (0 where
        none is stored)."""
        at = np.searchsorted(self.freqs, ks).clip(max=len(self.freqs) - 1)
        return np.where(self.freqs[at] == ks, self.values[at], 0)

    def value(self, k: int) -> Fraction:
        """K(k) as an exact Fraction."""
        return Fraction(int(self.numerators_at(k)), self.denominator)

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return self.freqs, self.values / self.denominator

    def coefficient_sum(self) -> int | Fraction:
        """sum_k K(k), exactly; an int whenever M^2 divides the numerators'
        sum, as it does for every kernel :func:`flat_top_build` makes."""
        total = int(self.values.sum())
        whole, rest = divmod(total, self.denominator)
        return whole if rest == 0 else Fraction(total, self.denominator)


def flat_top_build(m: int, n: int) -> FlatTopKernel:
    """Build K_{M,N}(k) = (1/M) sum_{|j|<=M-1, |j-k|<=N+M} (1 - |j|/M) exactly.

    M^2 K(k) is the sum of the integer weights M - |j| over a window, so the
    numerators are differences of one int64 prefix sum of the weights.
    """
    m, n = _check_i64(m, "M"), _check_i64(n, "N")
    if m < 2 or m >= n:
        raise ValueError(f"need 2 <= M < N, got M={m}, N={n}")
    # prefix[i] = sum of the weights M - |j| over -M <= j <= i - M (w(-M) = 0)
    prefix = np.cumsum(m - np.abs(np.arange(-m, m, dtype=np.int64)))
    ks = np.arange(1 - n - 2 * m, n + 2 * m, dtype=np.int64)
    hi = np.minimum(ks + (n + m), m - 1)
    lo = np.maximum(ks - (n + m) - 1, -m)
    return FlatTopKernel(m, n, ks, prefix[hi + m] - prefix[lo + m])


def property_violations(kern: FlatTopKernel) -> list[str]:
    """Exact integer check of the plateau/support/range invariants.

    Returns a list of violation descriptions, empty when the kernel is good:
    value 1 on |k| <= N, value 0 for |k| >= N+2M, all values in [0,1].
    """
    ks, nums, limit = kern.freqs, kern.values, kern.support_limit
    plateau = np.arange(-kern.n, kern.n + 1)
    out = [f"K({k}) = {kern.value(k)} != 1 inside the plateau"
           for k in plateau[kern.numerators_at(plateau) != kern.denominator].tolist()]
    out += [f"K({k}) = {kern.value(k)} != 0 outside |k| < {limit}"
            for k in ks[(np.abs(ks) >= limit) & (nums != 0)].tolist()]
    out += [f"K({k}) = {kern.value(k)} outside [0, 1]"
            for k in ks[(nums < 0) | (nums > kern.denominator)].tolist()]
    return out


def flat_top_transform(kern: FlatTopKernel, t):
    """The transform sum_k K(k) e(kt) via its factorization (1/M) D_{N+M} F_{M-1}.

    Agrees with direct summation of the stored values to ~1e-9 uniformly.
    Accepts a scalar or an array of t.
    """
    m, n = kern.m, kern.n

    def batch(ts):
        return _dirichlet_values(n + m, ts) * _fejer_values(m - 1, ts) / m

    return _scalar_or_array(batch, t)


def transform_from_values(kern: FlatTopKernel, ts) -> np.ndarray:
    """Direct summation sum_k K(k) e(kt) from the stored values (oracle path),
    at a 1-D array of t, in blocks of at most ``_CHUNK_ELEMS`` phases."""
    ks, vs = kern.arrays()
    freqs = ks.astype(np.float64)
    coeffs = vs.astype(np.complex128)
    ts = np.asarray(ts, dtype=np.float64)
    out = np.zeros(ts.shape[0], np.complex128)
    step = max(1, _CHUNK_ELEMS // max(1, len(ks)))
    for lo in range(0, ts.shape[0], step):
        phases = np.exp((2j * np.pi) * np.outer(ts[lo:lo + step], freqs))
        out[lo:lo + step] = phases @ coeffs
    return out


def discrete_l1_bound(m: int, n: int) -> float:
    """The guaranteed bound 32*pi*(2 + log(1 + N/M)) on the discrete mean."""
    return 32.0 * math.pi * (2.0 + math.log(1.0 + n / m))


def flat_top_discrete_l1(kern: FlatTopKernel, r: int,
                         memory_budget: int | None = None) -> float:
    """(1/R) sum_{j=1..R} |K^(j/R)|, evaluated from the stored coefficients.

    Requires R >= 2N + 4M + 1; the result is guaranteed at most
    :func:`discrete_l1_bound` for kernels produced by :func:`flat_top_build`.
    """
    threshold = 2 * kern.n + 4 * kern.m + 1
    if r < threshold:
        raise HypothesisError("R >= 2N+4M+1", f"R={r} < {threshold}")
    # the grid j/R, j = 0..R-1, is the same set of points mod 1, and R is
    # above the alias-free 2d+1 for the degree d = N+2M-1, so the FFT samples
    # are the transform's values
    return quadrature.riemann_l1(TrigPoly.from_arrays(1, *kern.arrays()), r,
                                 memory_budget)
