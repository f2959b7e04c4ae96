"""Closed-form kernels and the exact flat-top window."""

import math
from fractions import Fraction

import numpy as np
import pytest

from expsums import kernels
from expsums.errors import HypothesisError
from expsums.kernels import (FlatTopKernel, dirichlet, discrete_l1_bound,
                             fejer, flat_top_build, flat_top_discrete_l1,
                             flat_top_transform, property_violations,
                             transform_from_values)


def _direct_dirichlet(n, t):
    return sum(np.exp(2j * np.pi * k * t) for k in range(-n, n + 1)).real


def _direct_fejer(n, t):
    return sum((1 - abs(k) / (n + 1)) * np.exp(2j * np.pi * k * t)
               for k in range(-n, n + 1)).real


def test_dirichlet_matches_direct_sum():
    rng = np.random.default_rng(202)
    for _ in range(30):
        n = int(rng.integers(1, 40))
        t = float(rng.random())
        assert dirichlet(n, t) == pytest.approx(_direct_dirichlet(n, t),
                                                abs=1e-9)


def test_dirichlet_peak_value():
    for n in (1, 5, 20):
        assert dirichlet(n, 0.0) == pytest.approx(2 * n + 1)
        # integer t hits the closed-form singularity, must still be exact
        assert dirichlet(n, 3.0) == pytest.approx(2 * n + 1)


def test_fejer_matches_direct_sum():
    rng = np.random.default_rng(203)
    for _ in range(30):
        n = int(rng.integers(1, 40))
        t = float(rng.random())
        assert fejer(n, t) == pytest.approx(_direct_fejer(n, t), abs=1e-9)


def test_fejer_nonnegative():
    n = 12
    t = np.linspace(0, 1, 501)
    assert np.all(fejer(n, t) > -1e-12)
    assert fejer(n, 0.0) == pytest.approx(n + 1)


def test_dirichlet_values_vector():
    n = 6
    got = dirichlet(n, np.array([0.0, 0.2, 0.5, 1.0]))
    assert got[0] == pytest.approx(2 * n + 1)
    # integer t is the removable singularity
    assert got[3] == pytest.approx(2 * n + 1)
    assert got[1] == pytest.approx(_direct_dirichlet(n, 0.2), abs=1e-10)
    assert got[2] == pytest.approx(_direct_dirichlet(n, 0.5), abs=1e-10)


def test_fejer_values_vector():
    n = 5
    got = fejer(n, np.array([0.0, 0.31, 2.0]))
    assert got[0] == pytest.approx(n + 1)
    assert got[1] == pytest.approx(_direct_fejer(n, 0.31), abs=1e-10)
    assert got[2] == pytest.approx(n + 1)


def test_dirichlet_vectorized_near_singularity():
    n = 7
    t = np.array([0.0, 1e-15, 0.5, 1.0 - 1e-15])
    v = dirichlet(n, t)
    assert v[0] == pytest.approx(2 * n + 1)
    assert v[1] == pytest.approx(2 * n + 1, rel=1e-6)
    assert v[3] == pytest.approx(2 * n + 1, rel=1e-6)


def test_flat_top_values_exact():
    # hand-checkable window: plateau over |k| <= 10, linear-in-squares decay
    k = flat_top_build(3, 10)
    assert k.value(0) == 1
    assert k.value(10) == 1
    assert k.value(-10) == 1
    assert k.value(12) == Fraction(8, 9)
    assert k.value(13) == Fraction(2, 3)
    assert k.value(14) == Fraction(1, 3)
    assert k.value(15) == Fraction(1, 9)
    assert k.value(16) == 0
    assert k.value(-16) == 0
    assert k.value(100) == 0


def test_flat_top_symmetry_and_range():
    for m, n in ((2, 5), (3, 10), (5, 23), (7, 8)):
        kern = flat_top_build(m, n)
        for j in range(n + 2 * m + 2):
            assert kern.value(j) == kern.value(-j)
            assert 0 <= kern.value(j) <= 1


def test_flat_top_denominators_divide_m_squared():
    # every value is an int64 numerator over M^2, so no other denominator
    # can occur
    for m, n in ((2, 5), (3, 10), (4, 9)):
        kern = flat_top_build(m, n)
        assert kern.freqs.dtype == kern.values.dtype == np.int64
        assert kern.denominator == m * m
        assert np.all((kern.values > 0) & (kern.values <= m * m))
        for k in kern.freqs.tolist():
            assert (m * m) % kern.value(k).denominator == 0


def test_flat_top_kernel_rejects_non_integer_values():
    kern = flat_top_build(3, 10)
    with pytest.raises(TypeError):
        FlatTopKernel(3, 10, kern.freqs, kern.values / 9)
    with pytest.raises(TypeError):
        FlatTopKernel(3, 10, kern.freqs, kern.values[:-1])
    with pytest.raises(TypeError):
        FlatTopKernel(3, 10, kern.freqs[:0], kern.values[:0])


def _reference_flat_top(m, n):
    """K_{M,N} as {k: Fraction}, one Python-int window sum per frequency:
    the reference the int64 builder must equal exactly."""
    js = list(range(-(m - 1), m))
    prefix = [0]
    for j in js:
        prefix.append(prefix[-1] + m - abs(j))

    def window_sum(lo, hi):
        lo, hi = max(lo, -(m - 1)), min(hi, m - 1)
        return 0 if lo > hi else prefix[hi + m] - prefix[lo + m - 1]

    values = {}
    for k in range(-(n + 2 * m) + 1, n + 2 * m):
        num = window_sum(k - (n + m), k + (n + m))
        if num:
            values[k] = Fraction(num, m * m)
    return values


# criterion 01's pairs (3 <= N <= 40) and the benchmark's audit pairs
# (3 <= N <= 60), all with 2 <= M < N
def test_flat_top_build_matches_fraction_reference():
    for n, m in ((n, m) for n in range(3, 61) for m in range(2, n)):
        kern = flat_top_build(m, n)
        want = _reference_flat_top(m, n)
        assert kern.freqs.tolist() == sorted(want)
        assert {k: kern.value(k) for k in kern.freqs.tolist()} == want
        floats = np.array([float(want[k]) for k in sorted(want)])
        assert np.array_equal(kern.arrays()[1].view(np.uint64),
                              floats.view(np.uint64))
        assert kern.coefficient_sum() == sum(want.values())


def test_flat_top_support_limit():
    kern = flat_top_build(4, 9)
    assert kern.support_limit == 9 + 8
    assert kern.value(kern.support_limit) == 0
    assert kern.value(kern.support_limit - 1) != 0


def test_property_violations_clean_kernel():
    assert property_violations(flat_top_build(3, 10)) == []


def _with_numerator(kern, k, numerator):
    """``kern`` with the numerator over M^2 at frequency k set, unverified."""
    terms = dict(zip(kern.freqs.tolist(), kern.values.tolist()))
    terms[k] = numerator
    ks = sorted(terms)
    return FlatTopKernel(kern.m, kern.n, np.array(ks, np.int64),
                         np.array([terms[k] for k in ks], np.int64))


def test_property_violations_detects_corruption():
    kern = flat_top_build(3, 10)
    assert property_violations(_with_numerator(kern, 0, 4))  # 4/9 on the plateau
    assert property_violations(_with_numerator(kern, 16, 1))  # 1/9 past the support
    assert property_violations(_with_numerator(kern, 13, 27))  # 3, out of range


def test_transform_factorization():
    """The window is (1/M) D_{N+M} F_{M-1} as a pointwise identity."""
    ts = np.arange(1000) / 1000
    for m, n in ((2, 5), (3, 10), (5, 23)):
        kern = flat_top_build(m, n)
        lhs = flat_top_transform(kern, ts)
        rhs = transform_from_values(kern, ts)
        assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_transform_scalar_matches_product():
    m, n = 3, 10
    kern = flat_top_build(m, n)
    for t in (0.01, 0.2, 0.77):
        expect = dirichlet(n + m, t) * fejer(m - 1, t) / m
        assert flat_top_transform(kern, t) == pytest.approx(expect, abs=1e-9)


def test_discrete_l1_bound_value():
    # 32 pi (2 + log(1 + 10/3)), frozen
    assert discrete_l1_bound(3, 10) == pytest.approx(348.4742102459971)


def test_discrete_l1_under_bound():
    rng = np.random.default_rng(204)
    for _ in range(15):
        n = int(rng.integers(3, 30))
        m = int(rng.integers(2, n))
        kern = flat_top_build(m, n)
        r = 2 * n + 4 * m + 1 + int(rng.integers(0, 50))
        mean = flat_top_discrete_l1(kern, r)
        assert mean <= discrete_l1_bound(m, n)


def test_discrete_l1_matches_direct_sum():
    # the FFT path against direct summation on the points j/R, j = 1..R
    rng = np.random.default_rng(17)
    for m, n in ((2, 3), (3, 10), (5, 23), (11, 40)):
        kern = flat_top_build(m, n)
        threshold = 2 * n + 4 * m + 1
        for r in (threshold, threshold + 1, 4 * threshold,
                  threshold + int(rng.integers(2, 200))):
            ts = np.arange(1, r + 1, dtype=np.float64) / r
            direct = float(np.mean(np.abs(transform_from_values(kern, ts))))
            assert flat_top_discrete_l1(kern, r) == pytest.approx(direct, rel=1e-12)


def test_transform_from_values_matches_per_term_sum(monkeypatch):
    kern = flat_top_build(3, 10)
    ks, _ = kern.arrays()
    # five points per block, so the 33 points take seven blocks
    monkeypatch.setattr(kernels, "_CHUNK_ELEMS", 5 * len(ks))
    ts = np.random.default_rng(810).random(33)
    want = np.zeros(33, complex)
    for k in ks.tolist():
        want += float(kern.value(k)) * np.exp(2j * np.pi * k * ts)
    assert np.allclose(transform_from_values(kern, ts), want, atol=1e-10)


def test_discrete_l1_requires_fine_grid():
    kern = flat_top_build(3, 10)
    with pytest.raises(HypothesisError):
        flat_top_discrete_l1(kern, 2 * 10 + 4 * 3)  # one short


def test_discrete_l1_grows_slowly():
    # log growth in n/m: doubling n far from doubles the bound
    b1 = discrete_l1_bound(2, 8)
    b2 = discrete_l1_bound(2, 16)
    assert b2 > b1
    assert b2 < 1.35 * b1


def test_flat_top_build_rejects_bad_shapes():
    with pytest.raises((ValueError, HypothesisError)):
        flat_top_build(0, 5)
    with pytest.raises((ValueError, HypothesisError)):
        flat_top_build(3, 0)


def test_flat_top_build_takes_integral_floats_only():
    # M and N are integers: an integral float is its integer, 3.5 raises naming M
    want = flat_top_build(3, 10)
    for m, n in ((3.0, 10), (3, 10.0), (np.float64(3.0), np.int64(10))):
        kern = flat_top_build(m, n)
        assert (kern.m, kern.n) == (3, 10) and type(kern.m) is int and type(kern.n) is int
        assert np.array_equal(kern.freqs, want.freqs) and np.array_equal(kern.values, want.values)
    with pytest.raises(ValueError, match="M 3.5 is not an integer"):
        flat_top_build(3.5, 10)
    with pytest.raises(ValueError, match="N 10.5 is not an integer"):
        flat_top_build(3, 10.5)
