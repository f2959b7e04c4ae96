"""Dirichlet and Fejer kernels and the flat-top multiplier K_{M,N}.

K_{M,N} is 1 on {|k| <= N}, 0 outside {|k| < N+2M}, and its transform
factorizes as (1/M) * D_{N+M}(t) * F_{M-1}(t).  Values are kept as exact
rationals (denominator dividing M^2) so the plateau and support claims can
be tested with equality rather than a tolerance; only the transform uses
floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import quadrature
from .core import TrigPoly
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


@dataclass(frozen=True)
class FlatTopKernel:
    """Flat-top multiplier with plateau half-width ``n`` and ramp scale ``m``.

    ``values`` holds the nonzero coefficients only, as exact Fractions.
    The constructor does not re-verify the plateau/support properties (that
    allows deliberately corrupted kernels in negative-control tests); use
    :func:`property_violations` to check them.
    """

    m: int
    n: int
    values: dict[int, Fraction]

    def __post_init__(self):
        if self.m < 2 or self.m >= self.n:
            raise ValueError(f"need 2 <= M < N, got M={self.m}, N={self.n}")
        object.__setattr__(self, "values",
                           {int(k): Fraction(v) for k, v in self.values.items()
                            if Fraction(v) != 0})

    @property
    def support_limit(self) -> int:
        """Smallest L with values(k) = 0 required for |k| >= L (= N + 2M)."""
        return self.n + 2 * self.m

    def value(self, k: int) -> Fraction:
        return self.values.get(int(k), Fraction(0))

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        ks = np.array(sorted(self.values), dtype=np.int64)
        vs = np.array([float(self.values[int(k)]) for k in ks])
        return ks, vs

    def coefficient_sum(self) -> Fraction:
        return sum(self.values.values(), Fraction(0))


def flat_top_build(m: int, n: int) -> FlatTopKernel:
    """Build K_{M,N}(k) = (1/M) sum_{|j|<=M-1, |j-k|<=N+M} (1 - |j|/M) exactly.

    Each value is an integer multiple of 1/M^2; the window sums are computed
    with integer prefix sums, so construction is exact and fast.
    """
    if m < 2 or m >= n:
        raise ValueError(f"need 2 <= M < N, got M={m}, N={n}")
    # weights M - |j| for j = -(M-1) .. M-1, then prefix sums for O(1) windows
    js = list(range(-(m - 1), m))
    weights = [m - abs(j) for j in js]
    prefix = [0]
    for w in weights:
        prefix.append(prefix[-1] + w)

    def window_sum(lo: int, hi: int) -> int:
        # sum of weights for j in [lo, hi] intersected with [-(M-1), M-1]
        lo = max(lo, -(m - 1))
        hi = min(hi, m - 1)
        if lo > hi:
            return 0
        return prefix[hi + m] - prefix[lo + m - 1]

    values: dict[int, Fraction] = {}
    half = n + 2 * m
    for k in range(-half + 1, half):
        num = window_sum(k - (n + m), k + (n + m))
        if num:
            values[k] = Fraction(num, m * m)
    return FlatTopKernel(m, n, values)


def property_violations(kern: FlatTopKernel) -> list[str]:
    """Exact-equality check of the plateau/support/range invariants.

    Returns a list of violation descriptions, empty when the kernel is good:
    value 1 on |k| <= N, value 0 for |k| >= N+2M, all values in [0,1] with
    denominator dividing M^2.
    """
    out = []
    for k in range(-kern.n, kern.n + 1):
        if kern.value(k) != 1:
            out.append(f"K({k}) = {kern.value(k)} != 1 inside the plateau")
    limit = kern.support_limit
    for k in kern.values:
        if abs(k) >= limit:
            out.append(f"K({k}) = {kern.values[k]} != 0 outside |k| < {limit}")
    for k, v in kern.values.items():
        if not 0 <= v <= 1:
            out.append(f"K({k}) = {v} outside [0, 1]")
        if (kern.m * kern.m) % v.denominator != 0:
            out.append(f"K({k}) = {v} has denominator not dividing M^2")
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


def flat_top_discrete_l1(kern: FlatTopKernel, r: int) -> float:
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
    return quadrature.riemann_l1(TrigPoly.from_arrays(1, *kern.arrays()), r)
