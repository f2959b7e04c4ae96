"""Grid evaluation, certified norm enclosures, and the derivative bound."""

import functools
import gc
import json
import math
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
import scipy.fft
import scipy.special

from expsums import quadrature
from expsums.bounds import bernstein_check
from expsums.core import IntegerSet, TrigPoly, indicator_poly, recentre
from expsums.errors import AliasingError, GridOverflowError, MemoryBudgetError
from expsums.quadrature import (GridEvaluation, GridPlan, _grid_mean, _memory_budget, _plan,
                                _quadrature_factor, _recentred_degree, _row_length,
                                _row_sums, certified_l1, choose_grid,
                                derivative, eval_grid, riemann_l1)

# frozen 2^22-point Riemann oracles
REF_INTERVAL_101 = 2.859870343104319
REF_DIRICHLET_10 = 2.2233569241561897


def test_abs_mean_matches_numpy_oracle():
    # the reduction behind every grid mean, _abs_sum, through
    # GridEvaluation.abs_mean on a full grid, against numpy's mean of |v|
    rng = np.random.default_rng(808)
    # sizes straddle 128-element blocks and the pairwise-summation unroll
    for n in (1, 2, 127, 128, 129, 255, 256, 1000, 65536, 65537):
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        got = GridEvaluation((n,), v).abs_mean()
        assert got == pytest.approx(float(np.mean(np.abs(v))), rel=1e-13)
    v = rng.standard_normal((129, 7)) + 1j * rng.standard_normal((129, 7))
    assert GridEvaluation(v.shape, v).abs_mean() == pytest.approx(
        float(np.mean(np.abs(v))), rel=1e-13)


def test_abs_mean_numpy_path_directly():
    rng = np.random.default_rng(809)
    v = rng.standard_normal(500) + 1j * rng.standard_normal(500)
    assert GridEvaluation((500,), v).abs_mean() == pytest.approx(
        float(np.mean(np.abs(v))), rel=1e-13)


def test_eval_grid_matches_direct_rank1():
    f = TrigPoly(1, {3: 1.0, -5: 2j, 0: -0.5})
    n = 16
    vals = eval_grid(f, n).values
    for j in range(n):
        assert vals[j] == pytest.approx(f.eval_at(j / n), abs=1e-10)


def test_eval_grid_matches_direct_rank2():
    f = TrigPoly(2, {(1, -2): 1.0, (-3, 0): 1j, (2, 2): 0.25})
    shape = (8, 12)
    vals = eval_grid(f, shape).values
    for j in range(8):
        for k in range(12):
            assert vals[j, k] == pytest.approx(f.eval_at((j / 8, k / 12)),
                                               abs=1e-10)


def test_eval_grid_rejects_aliasing():
    f = TrigPoly(1, {7: 1.0, -7: 1.0})
    with pytest.raises(AliasingError):
        eval_grid(f, 14)  # needs 2*7+1
    eval_grid(f, 15)


def test_riemann_zero_poly():
    assert riemann_l1(TrigPoly(1, {}), 64) == 0.0
    # the grid is checked first, as eval_grid checks it
    for shape in (-5, (3, 4)):
        with pytest.raises(ValueError):
            eval_grid(TrigPoly(1), shape)
        with pytest.raises(ValueError):
            riemann_l1(TrigPoly(1), shape)


def test_grid_sizes_are_integers():
    f = indicator_poly(IntegerSet.from_iterable(range(1, 17)))
    want = riemann_l1(f, 96)
    # an integral float is its integer, a scalar or one axis of a sequence
    for shape in (96.0, (96.0,), np.float64(96), np.int64(96), [96]):
        assert riemann_l1(f, shape) == want, shape
    assert eval_grid(f, 33.0).shape == (33,)
    # a fraction is refused, not truncated, and a string is not its digits
    for shape, message in ((96.7, "grid size 96.7"), ((96.7,), "grid size 96.7"),
                           ((33.9,), "grid size 33.9"), ("96", "string"), (("96",), "'96'")):
        with pytest.raises(ValueError, match=message):
            riemann_l1(f, shape)
        with pytest.raises(ValueError, match=message):
            eval_grid(f, shape)


def test_riemann_monomial_is_exact():
    f = TrigPoly(1, {4: 3 - 4j})
    for n in (9, 16, 100):
        assert riemann_l1(f, n) == pytest.approx(5.0, abs=1e-12)


def test_riemann_error_bound_interval():
    # |mean - ||f||_1| <= (pi d / N) ||f||_1 against the frozen oracle
    f = indicator_poly(IntegerSet.from_iterable(range(1, 102)))
    d = 101
    n = 4 * math.ceil(4 * math.pi * d)
    mean = riemann_l1(f, n)
    rho = math.pi * d / n
    assert abs(mean - REF_INTERVAL_101) <= rho * REF_INTERVAL_101


def _fejer(n: int) -> TrigPoly:
    # F_n = sum_{|k|<=n} (1 - |k|/(n+1)) e(kt): nonnegative with mean 1
    return TrigPoly(1, {k: 1 - abs(k) / (n + 1) for k in range(-n, n + 1)})


def _empirical_polys():
    rng = np.random.default_rng(2024)
    for d in (5, 20, 80):
        yield indicator_poly(IntegerSet.from_iterable(range(-d, d + 1)))
        for _ in range(3):
            yield TrigPoly(1, {k: complex(*rng.standard_normal(2))
                               for k in range(-d, d + 1)})
        for c in (1.0, -1.0, 0.5j):
            yield TrigPoly(1, {0: 1.0, 2 * d: c})  # recentred degree d


def test_riemann_error_within_rho_empirically():
    # every alias-free grid from 2d+1 to 12d, against a 2^20-point reference;
    # the worst ratio seen is about 0.43 (Dirichlet kernel at N = 2d+1)
    worst = 0.0
    for f in _empirical_polys():
        (d,) = _recentred_degree(f)
        ref = riemann_l1(f, 2 ** 20)
        for n in range(2 * d + 1, 12 * d):
            err = abs(riemann_l1(f, n) - ref)
            worst = max(worst, err / (math.pi * d / n * ref))
    assert worst < 1


def _fast(shape):
    # the 5-smooth lengths a grid evaluated whole is rounded up to
    return tuple(scipy.fft.next_fast_len(n, real=True) for n in shape)


def test_choose_grid_resolution():
    for delta, rel in ((20, 0.1), (400, 0.02), (127, 0.5), (10 ** 6, 0.1)):
        (n,) = choose_grid((delta,), rel)
        t = 1 + 2 * rel
        # the least N with N / (N - Delta) <= t, up to the float rounding of
        # t Delta / (t - 1)
        assert n / (n - delta) <= t * (1 + 1e-12)
        assert (n - 2) / (n - 2 - delta) > t
        assert n >= 2 * ((delta + 1) // 2) + 1


def test_choose_grid_splits_budget_across_axes():
    shape = choose_grid((20, 7, 300), 0.1)
    assert len(shape) == 3
    # per-axis factors compose to the requested hi/lo
    assert math.prod(n / (n - d) for n, d in zip(shape, (20, 7, 300))) <= 1.2 * (1 + 1e-12)
    assert choose_grid((20, 20), 0.1)[0] > choose_grid((20,), 0.1)[0]


def test_choose_grid_degree_zero():
    assert choose_grid((0,), 0.1) == (1,)
    assert choose_grid((0, 9), 0.1)[0] == 1
    # the alias-free floor 2 d + 1 for a one-step span at a loose target
    assert choose_grid((1,), 0.99) == (3,)


def test_rel_err_too_small_for_float64_is_refused():
    # the axis target (1 + 2 rel_err)^(1/r) rounds to 1, so no grid meets
    # it: a ValueError naming rel_err on the grid path and the product path
    # alike, not a division by zero or "rel_err must be in (0, 1)"
    for rel_err, rank in [(1e-17, 1), (1e-300, 1), (1e-16, 2), (1.2e-16, 3)]:
        match = f"rel_err {rel_err!r} is too small"
        with pytest.raises(ValueError, match=match):
            choose_grid((9,) * rank, rel_err)
        freqs = np.array(list(np.ndindex((3,) * rank)))
        box = TrigPoly.from_arrays(rank, freqs, np.ones(len(freqs)))
        # one coefficient changed: no product, so the rank-r grid path
        other = TrigPoly.from_arrays(rank, freqs, np.arange(1.0, len(freqs) + 1))
        for f in (box, other):
            with pytest.raises(ValueError, match=match):
                certified_l1(f, rel_err)
    # a target just above 1 keeps the grid rule: a huge grid, which the
    # budget refuses
    t = 1.0 + 2.0 * 1e-16
    assert choose_grid((9,), 1e-16) == (math.ceil(t * 9 / (t - 1.0)),)
    with pytest.raises(MemoryBudgetError):
        certified_l1(indicator_poly(IntegerSet.from_iterable(range(10))), 1e-16)
    for bad in (0.0, 1.0, -0.5, math.nan):
        with pytest.raises(ValueError, match=r"rel_err must be in \(0, 1\)"):
            choose_grid((9,), bad)


@pytest.mark.parametrize("rel_err", ["0.1", None, [0.1], b"0.1", 1 + 0j, True, math.inf])
def test_rel_err_that_is_no_real_number_is_refused(rel_err):
    # a ValueError naming rel_err, as nan gets, not a bare TypeError from
    # the range comparison; on the grid, product and constant paths alike
    match = re.escape(f"rel_err must be in (0, 1), got {rel_err!r}")
    with pytest.raises(ValueError, match=match):
        choose_grid((9,), rel_err)
    for f in (indicator_poly(IntegerSet.from_iterable(range(10))),
              TrigPoly(2, {(0, 0): 1.0, (0, 1): 1.0, (1, 0): 1.0, (1, 1): 1.0}),
              TrigPoly(1, {3: 2.0})):
        with pytest.raises(ValueError, match=match):
            certified_l1(f, rel_err)


def test_certified_l1_contains_reference():
    f = indicator_poly(IntegerSet.from_iterable(range(1, 102)))
    for rel in (0.1, 0.02):
        enc = certified_l1(f, rel)
        assert enc.lo <= REF_INTERVAL_101 <= enc.hi
        # width = S * 2 rho / (1 - rho^2) <= 2 rho / (1 - rho) * ||f||
        assert enc.width <= 2 * rel / (1 - rel) * REF_INTERVAL_101 + 1e-9


def test_certified_l1_dirichlet_reference():
    f = indicator_poly(IntegerSet.from_iterable(range(-10, 11)))
    enc = certified_l1(f, 0.05)
    assert enc.lo <= REF_DIRICHLET_10 <= enc.hi


def test_certified_l1_monomial_exact():
    # recentring maps a lone frequency to a constant, both ends collapse
    f = TrigPoly(1, {37: 3 - 4j})
    enc = certified_l1(f, 0.1)
    assert enc.lo == pytest.approx(5.0, rel=1e-12)
    assert enc.hi == pytest.approx(5.0, rel=1e-12)


@pytest.mark.parametrize("rel", [0.9, 0.5, 0.1, 0.01])
def test_certified_l1_contains_closed_forms(rel):
    for n in (1, 4, 17, 60):
        assert certified_l1(_fejer(n), rel).contains(1.0)
    for c in (1.0, 3 - 4j, 1e-3j):
        assert certified_l1(TrigPoly(1, {-9: c}), rel).contains(abs(c))
    # |1 + e(t)| = 2 |cos(pi t)|, whose mean is 4/pi
    assert certified_l1(TrigPoly(1, {0: 1.0, 1: 1.0}), rel).contains(4 / math.pi)


@pytest.mark.parametrize("rel", [0.5, 0.1])
def test_certified_l1_contains_rank2_fejer_product(rel):
    for n, m in ((3, 5), (12, 1), (20, 20)):
        fx, fy = _fejer(n), _fejer(m)
        prod = TrigPoly(2, {(a, b): ca * cb for (a,), ca in fx.terms.items()
                            for (b,), cb in fy.terms.items()})
        assert certified_l1(prod, rel).contains(1.0)


def test_certified_l1_translation_invariant():
    base = indicator_poly(IntegerSet.from_iterable(range(0, 21)))
    far = indicator_poly(IntegerSet.from_iterable(range(10 ** 6,
                                                       10 ** 6 + 21)))
    e1 = certified_l1(base, 0.1)
    e2 = certified_l1(far, 0.1)
    assert e1.lo == pytest.approx(e2.lo, rel=1e-9)
    assert e1.hi == pytest.approx(e2.hi, rel=1e-9)
    assert e1.grid == e2.grid


def test_certified_l1_width_shrinks():
    f = indicator_poly(IntegerSet.from_iterable(range(1, 40)))
    wide = certified_l1(f, 0.2)
    tight = certified_l1(f, 0.02)
    assert tight.width < wide.width
    assert wide.lo <= tight.lo and tight.hi <= wide.hi + 1e-9


def test_certified_l1_rejects_zero_poly():
    with pytest.raises(ValueError):
        certified_l1(TrigPoly(1, {}), 0.1)


def test_norm_interval_json():
    enc = certified_l1(indicator_poly(IntegerSet.from_iterable([1, 2, 5])),
                       0.1)
    d = enc.to_json_dict()
    assert set(d) == {"lo", "hi", "riemann", "grid", "degree"}
    assert d["lo"] <= d["riemann"] <= d["hi"]


def test_memory_budget_enforced(monkeypatch):
    f = indicator_poly(IntegerSet.from_iterable(range(1, 102)))
    with pytest.raises(MemoryBudgetError) as err:
        certified_l1(f, 0.1, memory_budget=1000)
    assert err.value.needed_bytes > err.value.budget_bytes

    monkeypatch.setenv("EXPSUMS_MEMORY_BUDGET", "1000")
    with pytest.raises(MemoryBudgetError):
        certified_l1(f, 0.1)


@pytest.mark.parametrize("override, env, source", [
    (0, None, "memory_budget"), (2.5, None, "memory_budget"), (True, None, "memory_budget"),
    (None, "2e9", "EXPSUMS_MEMORY_BUDGET"),
    (None, "0", "EXPSUMS_MEMORY_BUDGET"), (None, "-1", "EXPSUMS_MEMORY_BUDGET")])
def test_memory_budget_must_be_positive_integer(monkeypatch, override, env,
                                                source):
    monkeypatch.setenv("EXPSUMS_MEMORY_BUDGET", env or "")
    with pytest.raises(ValueError, match=source):
        _memory_budget(override)


def test_derivative_coefficients():
    f = TrigPoly(1, {3: 2.0, -1: 1j})
    df = derivative(f)
    assert df.terms[(3,)] == pytest.approx(2j * math.pi * 3 * 2.0)
    assert df.terms[(-1,)] == pytest.approx(2j * math.pi * -1 * 1j)


def test_derivative_axis_selection():
    f = TrigPoly(2, {(2, 5): 1.0})
    assert derivative(f, 0).terms[(2, 5)] == pytest.approx(2j * math.pi * 2)
    assert derivative(f, 1).terms[(2, 5)] == pytest.approx(2j * math.pi * 5)
    with pytest.raises(ValueError):
        derivative(f, 2)


def test_derivative_kills_constant():
    assert derivative(TrigPoly(1, {0: 7.0})).is_zero


def test_bernstein_random_polynomials():
    rng = np.random.default_rng(404)
    for _ in range(40):
        d = int(rng.integers(1, 30))
        count = int(rng.integers(1, min(2 * d + 1, 8) + 1))
        freqs = rng.choice(2 * d + 1, size=count, replace=False) - d
        terms = {int(a): complex(x, y) for a, x, y in
                 zip(freqs, rng.standard_normal(count),
                     rng.standard_normal(count))}
        res = bernstein_check(TrigPoly(1, terms), rel_err=0.1)
        assert res.passed, (terms, res.lhs.lo, res.rhs)


def test_bernstein_monomial_tie():
    # equality case: both sides are 2 pi d |c| along different float paths
    for d in (1, 8, 24, 63):
        res = bernstein_check(TrigPoly(1, {d: 1.3 - 0.4j}), rel_err=0.1)
        assert res.passed
        assert res.lhs.lo == pytest.approx(res.rhs, rel=1e-10)


def test_bernstein_constant_poly():
    res = bernstein_check(TrigPoly(1, {0: 5.0}))
    assert res.passed
    assert res.lhs.hi == 0.0


def test_bernstein_rank2_rejected():
    with pytest.raises(ValueError):
        bernstein_check(TrigPoly(2, {(1, 1): 1.0}))


def _reference_grid(f, shape):
    # the per-term scatter and out-of-place transform the array path replaced
    coeffs = np.zeros(shape, dtype=np.complex128)
    for freq, c in f.terms.items():
        coeffs[tuple(fi % n for fi, n in zip(freq, shape))] += c
    return scipy.fft.ifftn(coeffs, norm="forward")


@pytest.mark.parametrize("rank,shape", [(1, (97,)), (1, (128,)), (2, (15, 16)),
                                        (3, (30, 40, 5))])
def test_eval_grid_bitwise_matches_reference_scatter(rank, shape):
    rng = np.random.default_rng(31 + rank)
    for _ in range(10):
        n = int(rng.integers(1, 30))
        # far from 0, so the residues mod N wrap around
        base = rng.integers(-2 ** 62, 2 ** 62, size=rank)
        freqs = base + rng.integers(-(min(shape) - 1) // 2, min(shape) // 2, size=(n, rank))
        coeffs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        f = TrigPoly(rank, {tuple(int(x) for x in fr): complex(c)
                            for fr, c in zip(freqs, coeffs)})
        got = eval_grid(f, shape).values
        assert got.shape == shape
        assert np.array_equal(got.view(np.uint64), _reference_grid(f, shape).view(np.uint64))


def test_derivative_bitwise_matches_python_complex_product():
    rng = np.random.default_rng(5)
    for rank in (1, 2):
        terms = {}
        for _ in range(300):
            fr = tuple(int(x) for x in rng.integers(-2 ** 40, 2 ** 40, size=rank))
            c = complex(*rng.standard_normal(2)) * 10.0 ** rng.integers(-12, 13)
            terms[fr] = c if rng.random() < 0.8 else complex(c.real, 0.0)
        terms[(0,) * rank] = 1.5 - 0.5j  # zero frequency: derivative drops it
        terms[(3,) + (0,) * (rank - 1)] = complex(-0.0, 2.0)
        f = TrigPoly(rank, terms)
        for axis in range(rank):
            ref = {fr: (2j * math.pi * fr[axis]) * c for fr, c in f.terms.items()}
            ref = {fr: 0 + c for fr, c in ref.items() if c != 0}
            assert repr(list(derivative(f, axis).terms.items())) == repr(sorted(ref.items()))


def _real_poly(rng, shape, base):
    # real coefficients on offsets 0 .. 2*((N-1)//2) per axis, the widest
    # support whose recentred degree is alias-free on N points
    n = int(rng.integers(1, 12))
    offsets = np.stack([rng.integers(0, 2 * ((m - 1) // 2) + 1, size=n)
                        for m in shape], axis=1)
    return TrigPoly.from_arrays(len(shape), base + offsets, rng.standard_normal(n))


@pytest.mark.parametrize("shape", [(97,), (128,), (1,), (2,), (15, 21), (14, 16),
                                   (9, 1), (1, 9)])
@pytest.mark.parametrize("far", [False, True])
def test_eval_grid_real_path_matches_reference(shape, far):
    rng = np.random.default_rng(sum(shape) + far)
    for _ in range(10):
        # near +-2^62, the residues mod N wrap around
        base = rng.integers(-2 ** 62, 2 ** 62, size=len(shape)) if far else 0
        f = _real_poly(rng, shape, base)
        got = eval_grid(f, shape)
        ref = _reference_grid(f, shape)
        assert got.shape == shape
        assert got.values.shape == shape[:-1] + (shape[-1] // 2 + 1,)
        assert np.max(np.abs(got.values - ref[..., :shape[-1] // 2 + 1])) <= 1e-12
        assert got.abs_mean() == pytest.approx(np.mean(np.abs(ref)), rel=1e-14)


@pytest.mark.parametrize("shape", [(97,), (128,), (15, 21), (30, 40, 5)])
def test_eval_grid_real_path_bitwise_matches_scipy(shape):
    # scipy.fft.rfftn, the independent reference, takes the complex axes in
    # ascending order; numpy's default order gives other last bits at (30, 40, 5)
    rng = np.random.default_rng(sum(shape))
    windows = np.array([2 * ((m - 1) // 2) + 1 for m in shape])
    for _ in range(5):
        base = rng.integers(-2 ** 62, 2 ** 62, size=len(shape))
        offsets = rng.integers(0, windows, size=(200, len(shape)))
        f = TrigPoly.from_arrays(len(shape), base + offsets, rng.standard_normal(200))
        coeffs = np.zeros(shape)
        coeffs[tuple((f.freqs % np.array(shape)).T)] = f.coeffs.real
        want = np.conjugate(scipy.fft.rfftn(coeffs))
        assert np.array_equal(eval_grid(f, shape).values.view(np.uint64),
                              want.view(np.uint64))


def test_eval_grid_one_complex_coefficient_keeps_full_grid():
    f = TrigPoly(2, {(0, 0): 1.0, (1, -2): 2.0, (-3, 1): 0.5 + 1e-300j})
    shape = (8, 12)
    got = eval_grid(f, shape)
    assert got.values.shape == shape
    assert np.array_equal(got.values.view(np.uint64),
                          _reference_grid(f, shape).view(np.uint64))


# --- the coset-streamed grid mean of riemann_l1 ---------------------------

def _window_poly(rng, shape, d0, real, base=0, terms=12):
    # terms on offsets 0 .. 2*d0 on axis 0 (recentred degree d0) and on the
    # widest alias-free window of the other axes
    widths = (2 * d0 + 1,) + tuple(2 * ((m - 1) // 2) + 1 for m in shape[1:])
    offsets = np.stack([rng.integers(0, w, size=terms) for w in widths], axis=1)
    offsets[0, 0], offsets[1, 0] = 0, 2 * d0  # the full axis-0 diameter
    coeffs = rng.standard_normal(terms)
    if not real:
        coeffs = coeffs + 1j * rng.standard_normal(terms)
    return TrigPoly.from_arrays(len(shape), base + offsets, coeffs)


def _plan_of(f, shape, q, rows, threads=1):
    # a hand-made plan of f on ``shape``: coset rows of length q, at most
    # ``rows`` of them a block (of each thread), one transform a block, all
    # terms at once, on ``threads`` threads
    real = not f.coeffs.imag.any()
    p = shape[0] // q
    evaluated = p // 2 + 1 if real else p
    return GridPlan(tuple(shape), real, q, q < 2 * _recentred_degree(f)[0] + 1,
                    min(rows, evaluated - 1), False, evaluated, len(f.coeffs), threads)


def _cpus(monkeypatch, n):
    # the number of CPUs that _plan finds this process may run on
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: n)


# (shape, d0, P): odd and even P, so that row P/2 is or is not a row of its own;
# the last two have rows shorter than 2 d0 + 1, where 12 terms must share residues
COSET_CASES = [((60,), 5, 5), ((60,), 4, 6), ((64,), 3, 8), ((90,), 7, 6),
               ((60, 9), 5, 5), ((60, 8), 4, 6), ((45, 4), 2, 9),
               ((60,), 20, 6), ((60, 8), 12, 6)]


@pytest.mark.parametrize("shape, d0, p", COSET_CASES)
@pytest.mark.parametrize("real", [True, False])
@pytest.mark.parametrize("rows", [1, 2, 4])
@pytest.mark.parametrize("far", [False, True])
def test_coset_mean_matches_whole_grid(shape, d0, p, real, rows, far):
    q = shape[0] // p
    rng = np.random.default_rng([sum(shape), d0, real, rows, far])
    for _ in range(5):
        # near +-2^62 the residues wrap around; no product may overflow int64
        base = rng.integers(-2 ** 62, 2 ** 62, size=len(shape)) if far else 0
        f = _window_poly(rng, shape, d0, real, base)
        assert _recentred_degree(f)[0] == d0
        want = eval_grid(f, shape).abs_mean()
        # the planner's plan (one block), and the case's rows of length q,
        # 1, 2 and 4 a block (row counts that are and are not multiples),
        # one transform a block and one a row
        assert riemann_l1(f, shape) == pytest.approx(want, rel=1e-13)
        plan = _plan_of(f, shape, q, rows)
        mean = _grid_mean(f, plan)
        assert mean == pytest.approx(want, rel=1e-13)
        assert _grid_mean(f, plan._replace(per_row=True)) == pytest.approx(want, rel=1e-13)
        # the terms twiddled and placed in two slices, the last of two
        # terms: the same bits, folded residues too
        n = len(f.coeffs)
        assert _grid_mean(f, plan._replace(width=n - 2 if n >= 4 else n)) == mean


@pytest.mark.parametrize("shape, d0, p", COSET_CASES)
@pytest.mark.parametrize("real", [True, False])
def test_coset_rows_match_grid_cosets(shape, d0, p, real):
    # each row sum is its own coset r mod P of the whole grid, not a mirror
    q = shape[0] // p
    rng = np.random.default_rng([sum(shape), d0, real])
    f = _window_poly(rng, shape, d0, real, base=rng.integers(-99, 99, size=len(shape)))
    grid = np.abs(_reference_grid(f, shape))
    sums = _row_sums(f, _plan_of(f, shape, q, 2))
    assert len(sums) == (p // 2 + 1 if real else p)
    for r, got in enumerate(sums):
        assert got == pytest.approx(grid[r::p].sum(), rel=1e-13), r


def test_coset_rows_keep_the_twiddle_bound_past_32_rows():
    # |f| = |c| everywhere for one term, so every row sum is q |c| up to the
    # twiddles' error, which takes one bound in every row (module docstring);
    # a twiddle recurrence over 4096 rows drifts to 1.6e-13 here
    q, p = 8, 4096
    for a in (1, 12_345, -77_777_777_777):
        for c in (0.7, 0.6 - 0.8j):
            f = TrigPoly(1, {a: c})
            sums = _row_sums(f, _plan_of(f, (q * p,), q, 32))
            assert len(sums) == (p // 2 + 1 if c.imag == 0 else p)
            assert np.max(np.abs(np.array(sums) / (q * abs(c)) - 1)) < 1e-14, (a, c)


# the relative error of a twiddled coefficient in any row (module docstring,
# "The twiddles"): (8 pi + 4 + 2 sqrt(5)) u < 34u
TWIDDLE_BOUND = 34 * 2.0 ** -53


def _twiddle_error(mpmath, coeffs, freqs0, rows, n0, got):
    # the largest |got - c_a e(a_0 r / N_0)| / |c_a|, with the phase
    # a_0 r mod N_0 in Python ints and e() in mpmath at 160 bits
    worst = 0.0
    with mpmath.workprec(160):
        for r, row in zip(rows, got.tolist()):
            for a, c, z in zip(freqs0, coeffs.tolist(), row):
                want = mpmath.mpc(c) * mpmath.expjpi(mpmath.mpf(2 * (a * r % n0)) / n0)
                worst = max(worst, float(abs(mpmath.mpc(z) - want)) / abs(c))
    return worst


def _twiddle_terms(rng, n0, terms=12):
    # frequencies on either side of 0, up to 3 N_0 away within int64, with the
    # residues 1 and N_0 - 1; coefficients of magnitudes 1e-3 .. 1e3
    span = min(3 * n0, 2 ** 63 - 1)
    freqs0 = [int(a) for a in rng.integers(-span, span, size=terms - 2)]
    freqs0 += [1, n0 - 1 - 2 * n0]
    coeffs = 10.0 ** rng.uniform(-3, 3, terms) * np.exp(2j * np.pi * rng.random(terms))
    return freqs0, coeffs, np.array(freqs0, dtype=np.int64) % n0


def _twiddled(coeffs, res0, rows, n0, tables):
    # quadrature._twiddled in scratch filled with junk and made for this
    # call alone, so that no two results share memory
    scratch = [np.full(len(rows) * len(coeffs) + 7, -1, dtype=t)
               for t in quadrature._BUFFER_DTYPES[2:]]
    return quadrature._twiddled(coeffs, res0, rows, n0, tables, scratch)


@pytest.mark.parametrize("n0, p", [(1_310_256, 4096), (2 ** 30, 2 ** 12), (3 ** 18, 3 ** 7),
                                   (10 ** 9, 4000), (999_999_937, 999_999_937)])
def test_twiddles_keep_their_bound_in_every_row(n0, p):
    # the tables alone, no transform: rows 1, P/2 and P - 1, each alone and
    # at the end of a block of up to 4096 rows from row 1 or before it; each
    # row lies within the docstring's bound whatever its distance from row 1,
    # and is the same, bit for bit, in every block that holds it
    mpmath = pytest.importorskip("mpmath")
    freqs0, coeffs, res0 = _twiddle_terms(np.random.default_rng(n0), n0)
    tables = quadrature._phase_tables(n0)
    k, lo, hi = tables
    assert 4 ** k >= n0 > 4 ** (k - 1) and len(lo) == 2 ** k and len(hi) == -(-n0 // 2 ** k)
    for r in (1, p // 2, p - 1):
        alone = _twiddled(coeffs, res0, range(r, r + 1), n0, tables)
        assert _twiddle_error(mpmath, coeffs, freqs0, [r], n0, alone) < TWIDDLE_BOUND, r
        start = max(1, r - 4095)
        block = _twiddled(coeffs, res0, range(start, r + 1), n0, tables)
        assert block.shape == (r + 1 - start, len(coeffs))
        assert np.array_equal(block[-1], alone[0]), r
    far = _twiddled(coeffs, res0, range(1, min(p, 4097)), n0, tables)
    rows = range(1, len(far) + 1)[::97]
    assert _twiddle_error(mpmath, coeffs, freqs0, rows, n0, far[::97]) < TWIDDLE_BOUND
    # the scratch changes no bit: the twiddles of fresh arrays, hi[] lo[] c
    phase = np.multiply.outer(np.arange(1, len(far) + 1), res0) % n0
    want = hi[phase >> k]
    want *= lo[phase & ((1 << k) - 1)]
    want *= coeffs
    assert np.array_equal(far, want)


class _RootsOnDemand:
    # the table entries e(j 2^shift / N_0) as _phase_tables forms them, for
    # the indices asked: the tables of an N_0 near 2^61 hold 2^31 entries each
    def __init__(self, n0, shift):
        self.n0, self.shift = n0, shift

    def __getitem__(self, j):
        angle = (j << self.shift) / self.n0
        angle *= 2 * math.pi
        return np.cos(angle) + 1j * np.sin(angle)

    def take(self, j, out, mode):
        # table.take(j, out=..., mode=...), as _twiddled calls it
        out[...] = self[j]
        return out


def test_twiddles_cross_the_int64_phase_limit():
    # a_0 r mod N_0 is exact in int64 while N_0 (r + 1) < 2^63, and taken in
    # Python ints beyond: with N_0 from 2^61 to 2^62 that is from row 2 to 4
    # on, where a_0 r for a residue near N_0 passes int64
    mpmath = pytest.importorskip("mpmath")
    small = 10 ** 6 + 3
    k, lo, hi = quadrature._phase_tables(small)
    assert np.array_equal(_RootsOnDemand(small, 0)[np.arange(len(lo))], lo)
    assert np.array_equal(_RootsOnDemand(small, k)[np.arange(len(hi))], hi)
    for n0 in (2 ** 61 - 1, 2 ** 61 + 2 ** 59, 2 ** 62 - 57):
        freqs0, coeffs, res0 = _twiddle_terms(np.random.default_rng(n0 % 1000), n0)
        k = ((n0 - 1).bit_length() + 1) // 2
        tables = (k, _RootsOnDemand(n0, 0), _RootsOnDemand(n0, k))
        for rows in (range(1, 3), range(1, 9), range(3, 5), range(6, 7)):
            got = _twiddled(coeffs, res0, rows, n0, tables)
            assert _twiddle_error(mpmath, coeffs, freqs0, rows, n0, got) < TWIDDLE_BOUND, \
                (n0, rows)


# --- residues and phases without int64 division -----------------------------

def _dividing(monkeypatch, divide):
    # every residue and phase by `%` (divide), or by the division-free forms
    # wherever their ranges allow, whatever the column's length
    monkeypatch.setattr(quadrature, "_DIVIDE_BELOW", 2 ** 62 if divide else 0)


def _wrap_terms(n0, w, rng):
    # residues mod N_0 whose multiples reach N_0 exactly (N_0/2, N_0/3, ...),
    # 0, 1 and N_0 - 1, the rest random
    special = [0, 1, n0 - 1, n0 // 2, n0 // 3, 2 * (n0 // 3), n0 // 4, n0 - n0 // 5]
    res0 = np.array(special + [int(x) for x in rng.integers(0, n0, w - len(special))],
                    dtype=np.int64)
    coeffs = rng.standard_normal(w) + 1j * rng.standard_normal(w)
    return res0, coeffs


@pytest.mark.parametrize("n0", [12_000, 1_119_744, 999_999_937, 2 ** 61 + 2 ** 59])
@pytest.mark.parametrize("rows", [range(1, 2), range(1, 3), range(1, 9), range(2, 4),
                                  range(37, 42), range(4, 6)])
def test_wrapped_phases_are_the_product_mod_n0(monkeypatch, n0, rows):
    # from _DIVIDE_BELOW terms on, each row's phases are the row before's
    # plus res0, less N_0 where the sum reaches it (exactly, for the
    # multiples of N_0/2 and N_0/3), and only a block's first row past row 1
    # takes a `%`: the phases are a_0 r mod N_0 in Python ints, and the
    # twiddles are those of the dividing path, bit for bit.  With N_0 near
    # 2^62, N_0 (r + 1) passes 2^63 from row 4 on, where the Python-int
    # phases are still taken
    rng = np.random.default_rng([n0 % 10 ** 6, rows.start, len(rows)])
    w = quadrature._DIVIDE_BELOW + 3
    res0, coeffs = _wrap_terms(n0, w, rng)
    k = ((n0 - 1).bit_length() + 1) // 2
    tables = (quadrature._phase_tables(n0) if n0 < 2 ** 40
              else (k, _RootsOnDemand(n0, 0), _RootsOnDemand(n0, k)))
    want_phase = (np.multiply.outer(np.arange(rows.start, rows.stop, dtype=object),
                                    res0.astype(object)) % n0).astype(np.int64)
    got = {}
    for divide in (True, False):
        _dividing(monkeypatch, divide)
        scratch = [np.full(len(rows) * w + 7, -1, dtype=t) for t in quadrature._BUFFER_DTYPES[2:]]
        got[divide] = quadrature._twiddled(coeffs, res0, rows, n0, tables, scratch).copy()
        assert np.array_equal(scratch[0][:len(rows) * w].reshape(len(rows), w), want_phase)
    monkeypatch.undo()
    # the default takes the division-free phases for this many terms
    assert w >= quadrature._DIVIDE_BELOW
    assert got[True].tobytes() == got[False].tobytes()


@pytest.mark.parametrize("n", [7, 1000, 12_000, 2 ** 61 + 1, 2 ** 62 - 57])
def test_division_free_residues_are_the_remainders(n):
    # within (-n, n) the residue of a negative entry is the entry plus n;
    # a column reaching -n or n, or int64's ends, takes `%`
    rng = np.random.default_rng(n % 1000)
    size = quadrature._DIVIDE_BELOW
    inner = [0, 1, -1, n - 1, -(n - 1)] + [int(x) for x in rng.integers(-n + 1, n, size)]
    for extra in ([], [-n], [n], [-n - 1], [n + 1], [2 * n], [-(2 ** 63)], [2 ** 63 - 1],
                  [-(2 ** 63), 2 ** 63 - 1]):
        column = np.array(inner + extra, dtype=np.int64).reshape(-1, 1)[:, 0]
        box = (int(column.min()), int(column.max()))
        got = quadrature._reduced(column, n, box)
        assert got.dtype == np.int64
        assert got.tolist() == [int(a) % n for a in column.tolist()], extra
    # a column of a rank-3 array: strided, as every axis of a rank-3 polynomial
    freqs = np.array([inner, inner[::-1], inner], dtype=np.int64).T
    for axis in range(3):
        got = quadrature._reduced(freqs[:, axis], n, (-n + 1, n - 1))
        assert got.tolist() == [a % n for a in freqs[:, axis].tolist()]


@pytest.mark.parametrize("side", [2 ** 63 - 1, -(2 ** 63)])
def test_eval_grid_at_the_int64_ends(side):
    # frequencies within 2500 of an end of int64 (so `%`) against the same
    # polynomial moved by a multiple of N into (-N, N) (division-free): the
    # same residues, the same samples, bit for bit
    rng = np.random.default_rng(side % 97)
    n = 5003
    offsets = np.unique(rng.integers(0, 2500, 1500))
    offsets[0], offsets[-1] = 0, 2499
    freqs = side - offsets if side > 0 else side + offsets
    coeffs = rng.standard_normal(len(freqs))
    f = TrigPoly.from_arrays(1, freqs, coeffs)
    m = side // n * n if side > 0 else -(-side // n * n)  # within int64
    near = TrigPoly.from_arrays(1, freqs - m, coeffs)
    lo, hi = near.support_box[0]
    assert -n < lo and hi < n and len(near) >= quadrature._DIVIDE_BELOW
    assert eval_grid(f, n).values.tobytes() == eval_grid(near, n).values.tobytes()
    assert np.allclose(eval_grid(f, n).values, _reference_grid(f, (n,))[:n // 2 + 1],
                       rtol=0, atol=1e-9)


@pytest.mark.parametrize("shape, d0, p", COSET_CASES)
@pytest.mark.parametrize("real", [True, False])
def test_division_free_row_sums_are_the_dividing_ones(monkeypatch, shape, d0, p, real):
    # every plan kind, its rows assigned or folded, in rank 1 and 2, with
    # the terms recentred (division-free where the rows are alias-free), at
    # 0 .. 2 d_0, moved left past the row or far out (`%`): the row sums,
    # grid means and samples of the dividing path, bit for bit, also through
    # riemann_l1, which takes the polynomial as given
    q = shape[0] // p
    rng = np.random.default_rng([sum(shape), d0, p, real, 40])
    f = _window_poly(rng, shape, d0, real, terms=quadrature._DIVIDE_BELOW + 5)
    polys = [recentre(f)[0], f, f.shifted((-2 * d0 - 7,) + (0,) * (len(shape) - 1)),
             f.shifted(tuple(int(x) for x in rng.integers(-2 ** 62, 2 ** 62, len(shape))))]
    within = [-q < g.support_box[0][0] and g.support_box[0][1] < q for g in polys]
    assert within == [q > d0, q > 2 * d0, False, False]
    for g in polys:
        got = {}
        for divide in (True, False):
            _dividing(monkeypatch, divide)
            got[divide] = ([_hex(_row_sums(g, _plan_of(g, shape, q, rows))) for rows in (1, 4)],
                           riemann_l1(g, shape).hex(), eval_grid(g, shape).values.tobytes())
        assert got[True] == got[False]


def test_coset_mean_p1_is_the_whole_grid():
    rng = np.random.default_rng(61)
    block = quadrature._BLOCK_BYTES // quadrature._BLOCK_BYTES_PER_SAMPLE
    for real in (True, False):
        f = _window_poly(rng, (61,), 6, real)
        # fits in one block: the single row Q = N_0, the one transform of
        # eval_grid, bit for bit
        assert _row_length((61,), 6, 12, real) == 61
        assert _plan(f, (61,)) == GridPlan((61,), real, 61, False, 0, False, 1, len(f.coeffs))
        assert riemann_l1(f, 61) == eval_grid(f, 61).abs_mean()
        # too large for a block, but 180,001 is prime: still one row
        n = 180_001
        assert n > block and _row_length((n,), 6, 12, real) == n
        assert _plan(f, (n,)) == GridPlan((n,), real, n, False, 0, True, 1, len(f.coeffs))
        assert riemann_l1(f, n) == eval_grid(f, n).abs_mean()


@functools.cache
def _divisors(n):
    small = [k for k in range(1, math.isqrt(n) + 1) if n % k == 0]
    return sorted(set(small + [n // k for k in small]))


def _rule_row(n0, rest, d0, terms, real):
    # the row rule by its definition, one divisor at a time
    floor = min(2 * d0 + 1, 32 * terms)
    divisors = [q for q in _divisors(n0) if q >= floor]
    block = quadrature._BLOCK_BYTES // quadrature._BLOCK_BYTES_PER_SAMPLE
    fits = [q for q in divisors if q * rest <= block]
    if not fits:
        return divisors[0]
    return min(fits, key=lambda q: ((n0 // q // 2 + 1 if real else n0 // q) * q, q))


@pytest.mark.parametrize("d", [1, 7, 64, 1000, 20_000, 37_615, 60_000])
def test_coset_length_is_least_alias_free_divisor(d):
    # the row rule of _row_length, which replaced _coset_length, for every N_0
    grids = [_fast(choose_grid((2 * d,), rel))[0] for rel in (0.1, 0.03)]
    block = quadrature._BLOCK_BYTES // quadrature._BLOCK_BYTES_PER_SAMPLE
    for n in grids + [10 ** 6, 2 ** 20, 1_200_007]:  # fine grids, and a prime
        if n < 2 * d + 1:
            continue
        # a grid within one block never asks (_plan takes it whole), but
        # the rule is the same for every N_0
        for rest, terms, real in ((1, 64, True), (1, 64, False), (1, 10 ** 5, True),
                                  (60, 3, False), (6000, 10 ** 4, True)):
            q = _row_length((n, rest), d, terms, real)
            assert q == _rule_row(n, rest, d, terms, real), (n, rest, terms, real)
            assert n % q == 0 and q >= min(2 * d + 1, 32 * terms)
            # within one block, unless no divisor that meets the floor is
            if q * rest > block:
                assert q == min(k for k in _divisors(n) if k >= min(2 * d + 1, 32 * terms))
            if n in grids and rest == 1 and n > block:
                assert q < n  # these 5-smooth lengths always split
    assert _row_length((1_200_007,), 5, 64, True) == 1_200_007


def test_coset_mean_is_deterministic():
    rng = np.random.default_rng(9)
    for real in (True, False):
        f = _window_poly(rng, (1_200_000,), 37_000, real, terms=64)
        assert _plan(f, (1_200_000,)).q < 1_200_000
        a, b = riemann_l1(f, 1_200_000), riemann_l1(f, 1_200_000)
        assert a.hex() == b.hex()
        assert a == pytest.approx(eval_grid(f, 1_200_000).abs_mean(), rel=1e-13)


def test_coset_mean_keeps_the_grid_checks():
    f = indicator_poly(IntegerSet.from_iterable(range(0, 60_001, 997)))
    with pytest.raises(MemoryBudgetError):
        riemann_l1(f, 1_200_000, memory_budget=10 ** 6)
    with pytest.raises(AliasingError):
        riemann_l1(TrigPoly(2, {(0, 0): 1.0, (5, 40): 1.0}), (1_200_000, 40))


def test_coset_mean_holds_a_quarter_of_the_grid():
    # a sparse-style grid: 64 elements of span 76e3 on 1.2M samples; the
    # whole grid would take N * 16 bytes at least
    rng = np.random.default_rng(7)
    els = np.sort(rng.choice(76_000, size=64, replace=False))
    g, _ = recentre(indicator_poly(IntegerSet.from_iterable(int(x) for x in els)))
    shape = (1_200_000,)
    n = math.prod(shape)
    for h in (g, TrigPoly.from_arrays(1, g.freqs, g.coeffs * (0.6 + 0.8j))):
        tracemalloc.start()
        try:
            riemann_l1(h, shape)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * 16 / 4, (peak, n)


# --- plans, made before any transform -----------------------------------------

def _planned(monkeypatch, f, grid, cpus=2):
    # _plan with every numpy.fft function failing, on ``cpus`` CPUs
    _cpus(monkeypatch, cpus)
    for name in np.fft.__all__:
        monkeypatch.setattr(np.fft, name, lambda *args, **kw: pytest.fail("a transform ran"))
    try:
        return _plan(f, grid)
    finally:
        monkeypatch.undo()


def test_plans_are_made_before_any_transform(monkeypatch):
    # the Fejer kernel F_20000 on certified_l1's grid (choose_grid asks for
    # 240,001 points): rows of 48,600 points, assigned, P = 5 with rows
    # 0 .. 2 evaluated, one a call; the two twiddled rows fit in one block
    # each, so on two threads, one row a block, the 40,001 terms in five
    # slices of at most 8001 (half the pairs); on 240,000 points, rows of
    # 48,000
    f = _fejer(20_000)
    (n,) = _fast(choose_grid((40_000,), 0.1))
    assert _planned(monkeypatch, f, (n,)) == \
        GridPlan((243_000,), True, 48_600, False, 1, True, 3, 8001, 2)
    assert _planned(monkeypatch, f, (240_000,)) == \
        GridPlan((240_000,), True, 48_000, False, 1, True, 3, 8001, 2)
    # one CPU: one thread, both twiddled rows a block
    assert _planned(monkeypatch, f, (240_000,), cpus=1) == \
        GridPlan((240_000,), True, 48_000, False, 2, True, 3, 8001, 1)
    # a complex rank-2 polynomial of recentred degrees (383, 1000): no row
    # fits in a block, so the least divisor of 6912 at or above 767
    rng = np.random.default_rng(4)
    freqs = np.stack([rng.integers(0, 767, 40), rng.integers(0, 2001, 40)], axis=1)
    freqs[0], freqs[1] = (0, 0), (766, 2000)
    f = TrigPoly.from_arrays(2, freqs, rng.standard_normal(40) + 1j * rng.standard_normal(40))
    assert _recentred_degree(f) == (383, 1000)
    assert _planned(monkeypatch, f, (6912, 5760)) == \
        GridPlan((6912, 5760), False, 768, False, 1, True, 9, 40, 1)
    # a 64-element sparse set: short rows that fold residues, many a block,
    # on two threads: rows 0 .. 40 evaluated, the 40 twiddled ones in blocks
    # of 16 rows (half of _BLOCK_ROWS) that both threads take; with complex
    # coefficients rows 0 .. 107
    g, _ = recentre(_sparse_poly(np.random.default_rng(5), 40_000, 64, True))
    grid = _fast(choose_grid((40_000,), 0.1))
    plan = _planned(monkeypatch, g, grid)
    assert plan.fold and plan.q < 2 * g.degree[0] + 1 and not plan.per_row
    assert plan.q == _row_length(grid, g.degree[0], 64, True)
    assert plan == GridPlan(grid, True, 3000, True, 16, False, 41, 64, 2)
    h = TrigPoly.from_arrays(1, g.freqs, g.coeffs * (0.6 + 0.8j))
    assert _planned(monkeypatch, h, grid) == \
        GridPlan(grid, False, 2250, True, 16, False, 108, 64, 2)
    # one CPU: one thread, with the whole _BLOCK_ROWS a block
    assert _planned(monkeypatch, g, grid, cpus=1) == plan._replace(rows=32, threads=1)
    # a grid within one block: the single row Q = N_0
    h = indicator_poly(IntegerSet.from_iterable(range(1, 17)))
    assert _planned(monkeypatch, h, (96,)) == \
        GridPlan((96,), True, 96, False, 0, False, 1, 16, 1)
    # no fft was left patched
    assert riemann_l1(h, 96) == eval_grid(h, 96).abs_mean()


# --- a grid within one block is one transform --------------------------------

def _known_norm_polys(rng, real):
    """Seeded random rank-1 polynomials with their L1 norms, some with
    frequencies near +-2^62: (f, norm, how the norm is known)."""
    def coeff():
        return float(rng.standard_normal()) if real else complex(*rng.standard_normal(2))

    for far in (False, True, True):
        base = int(rng.integers(-2 ** 62, 2 ** 62 - 10 ** 5)) if far else int(rng.integers(-99, 99))
        # ||c_1 e(a t) + c_2 e((a + k) t)||_1 = (2/pi)(|c_1| + |c_2|) E(m),
        # m = 4 |c_1| |c_2| / (|c_1| + |c_2|)^2, for every k != 0
        c1, c2, k = coeff(), coeff(), int(rng.integers(1, 3000))
        m = 4 * abs(c1) * abs(c2) / (abs(c1) + abs(c2)) ** 2
        yield (TrigPoly(1, {base: c1, base + k: c2}),
               2 / math.pi * (abs(c1) + abs(c2)) * scipy.special.ellipe(m), "two terms")
        # c e(a t) F_n(t) has norm |c|
        c, n = coeff(), int(rng.integers(1, 700))
        yield (TrigPoly(1, {base + j: c * (1 - abs(j) / (n + 1)) for j in range(-n, n + 1)}),
               abs(c), "Fejer")
    mpmath = pytest.importorskip("mpmath")
    for far in (False, True):
        base = int(rng.integers(-2 ** 62, 2 ** 62 - 100)) if far else 0
        freqs = base + np.unique(rng.integers(0, 40, size=12))
        f = TrigPoly(1, {int(a): coeff() for a in freqs})
        # 80 pieces of a period, each well within one oscillation
        norm = mpmath.quad(lambda t: abs(f.eval_at(float(t))), mpmath.linspace(0, 1, 81))
        yield f, float(norm), "mpmath"


@pytest.mark.parametrize("real", [True, False])
def test_one_block_grid_is_one_transform(monkeypatch, real):
    rng = np.random.default_rng([2026, real])
    for f, norm, how in _known_norm_polys(rng, real):
        g = recentre(f)[0]
        for name in ("_phase_tables", "_block_buffers"):
            monkeypatch.setattr(quadrature, name,
                                lambda *args: pytest.fail("a one-block grid streamed"))
        enc = certified_l1(f, 0.1)
        one = riemann_l1(f, enc.grid)
        monkeypatch.undo()
        assert enc.grid[0] * quadrature._BLOCK_BYTES_PER_SAMPLE <= quadrature._BLOCK_BYTES
        # the single coset row Q = N_0
        plan = _plan(g, enc.grid)
        assert plan.q == enc.grid[0] and plan.evaluated == 1, how
        # the whole grid of eval_grid, bit for bit
        assert enc.riemann == eval_grid(g, enc.grid).abs_mean(), how
        assert one == eval_grid(f, enc.grid).abs_mean(), how
        assert enc.contains(norm), (how, enc, norm)
        # the same polynomial streamed, one row a block, in the rows that
        # _row_length takes when no row fits: the least divisor at or above
        # its floor
        (n,), (d,) = enc.grid, g.degree
        q = min(k for k in _divisors(n) if k >= min(2 * d + 1, 32 * len(g.coeffs)))
        assert q < n, how
        s = _grid_mean(g, _plan_of(g, enc.grid, q, 1))
        c = _quadrature_factor(enc.grid, _diameter(g))
        assert math.nextafter(s / c, 0.0) <= norm <= math.nextafter(s * c, math.inf), \
            (how, s, norm)
        assert s == pytest.approx(enc.riemann, rel=1e-13)


# --- single terms: [S, S] widened by an ulp each way -------------------------

@pytest.mark.parametrize("f", [TrigPoly(1, {5: 0.1 + 0.2j}),
                               TrigPoly(2, {(7, -3): 0.1 + 0.2j}),
                               TrigPoly(2, {(0, 4): -1e-3 + 3.3j}),
                               TrigPoly(1, {-9: 0.1})])
def test_certified_l1_degree_zero_contains_exact_modulus(f):
    enc = certified_l1(f, 0.1)
    (c,) = f.coeffs
    exact_sq = Fraction(c.real) ** 2 + Fraction(c.imag) ** 2
    assert Fraction(enc.lo) ** 2 <= exact_sq <= Fraction(enc.hi) ** 2
    assert 0 < enc.lo < enc.riemann < enc.hi
    assert enc.hi == math.nextafter(math.nextafter(enc.lo, math.inf), math.inf)


# --- the de la Vallee-Poussin bound: ||f||_1 in [S/c, S c] ----------------

def _mean_abs(f, shape):
    # the grid mean of |f| on any grid with N_i > Delta_i, where the
    # residues are distinct but eval_grid would ask for 2 d_i + 1
    coeffs = np.zeros(shape, dtype=np.complex128)
    coeffs[tuple((f.freqs % np.array(shape)).T)] = f.coeffs
    return float(np.mean(np.abs(scipy.fft.ifftn(coeffs, norm="forward"))))


def _diameter(f):
    return tuple(hi - lo for lo, hi in f.support_box)


def _bound(f, shape):
    # [S/c, S c] on ``shape``, in floats
    s = _mean_abs(f, shape)
    c = math.prod(math.sqrt(n / (n - d)) for n, d in zip(shape, _diameter(f)))
    return s / c, s * c


def _dvp_families(delta):
    rng = np.random.default_rng(delta)
    k = np.arange(delta + 1)
    yield "dirichlet", TrigPoly.from_arrays(1, k[:, None], np.ones(delta + 1))
    yield "real", TrigPoly.from_arrays(1, k[:, None], rng.standard_normal(delta + 1))
    yield "complex", TrigPoly.from_arrays(
        1, k[:, None], rng.standard_normal(delta + 1) + 1j * rng.standard_normal(delta + 1))
    yield "spike", TrigPoly(1, {0: 1.0, delta: 0.3 - 0.2j})


@pytest.mark.parametrize("delta", [3, 8, 21, 40])
def test_dvp_bound_contains_the_norm_for_every_n(delta):
    # every N in (Delta, 6 Delta], against a 2^16-point reference whose own
    # interval is 3e-4 wide or less
    for name, f in _dvp_families(delta):
        ref_lo, ref_hi = _bound(f, (2 ** 16,))
        assert ref_hi / ref_lo < 1 + 1.3e-3
        for n in range(delta + 1, 6 * delta + 1):
            lo, hi = _bound(f, (n,))
            assert lo <= ref_lo and ref_hi <= hi, (name, n)


@pytest.mark.parametrize("delta", [1, 2, 5, 16, 77])
def test_dvp_bound_near_equality(delta):
    # 1 + e(Delta t) on N = 2 Delta: the samples are |1 + (-1)^j|, so S = 1,
    # c = sqrt 2, and ||f||_1 = 4/pi uses 0.900 of the upper end
    f = TrigPoly(1, {0: 1.0, delta: 1.0})
    lo, hi = _bound(f, (2 * delta,))
    assert lo == pytest.approx(1 / math.sqrt(2), rel=1e-12)
    assert hi == pytest.approx(math.sqrt(2), rel=1e-12)
    assert lo <= 4 / math.pi <= hi
    assert 4 / math.pi / hi > 0.9
    enc = certified_l1(f, 0.1)
    assert enc.contains(4 / math.pi)


def test_dvp_bound_rank2_unequal_axes():
    # Delta = (6, 23): every grid with 6 < N_0 <= 30 and 23 < N_1 <= 60 in
    # steps, against a 512 x 1024 reference; then certified_l1 itself
    rng = np.random.default_rng(19)
    pts = np.stack([rng.integers(0, 7, 40), rng.integers(0, 24, 40)], axis=1)
    pts[0], pts[1] = (0, 0), (6, 23)
    for coeffs in (np.ones(40), rng.standard_normal(40) + 1j * rng.standard_normal(40)):
        f = TrigPoly(2, {tuple(int(x) for x in p): complex(c) for p, c in zip(pts, coeffs)})
        assert _diameter(f) == (6, 23)
        ref_lo, ref_hi = _bound(f, (512, 1024))
        for n0 in range(7, 31, 3):
            for n1 in range(24, 61, 4):
                lo, hi = _bound(f, (n0, n1))
                assert lo <= ref_lo and ref_hi <= hi, (n0, n1)
        g, _ = recentre(f)
        assert quadrature._product_axes(g) is None
        enc = certified_l1(f, 0.1)
        assert enc.grid == _fast(choose_grid((6, 23), 0.1))
        assert enc.grid[0] < enc.grid[1]
        assert enc.lo <= ref_lo and ref_hi <= enc.hi
        assert enc.hi / enc.lo <= 1.2 * (1 + 1e-12)


def test_quadrature_factor_is_rounded_up():
    for shape, diameter in (((601,), (100,)), ((7, 1000), (3, 617)), ((5, 1), (4, 0)),
                            ((1,), (0,)), ((2 ** 40 + 3,), (2 ** 39,))):
        c = _quadrature_factor(shape, diameter)
        exact = math.prod(Fraction(n, n - d) for n, d in zip(shape, diameter))
        assert Fraction(c) ** 2 >= exact
        assert c <= math.sqrt(float(exact)) * (1 + 1e-15)
    assert _quadrature_factor((1, 1), (0, 0)) == 1.0


@pytest.mark.parametrize("rel", [0.9, 0.5, 0.1, 0.01])
def test_certified_l1_is_the_dvp_interval(rel):
    # the interval is [S/c, S c] with c from the grid, rounded outward, and
    # its relative width hi/lo - 1 is at most 2 rel_err
    for f in (_fejer(30), indicator_poly(IntegerSet.from_iterable([0, 4, 9, 33])),
              TrigPoly(2, {(0, 0): 1.0, (3, 1): 2j, (1, 5): -0.5})):
        enc = certified_l1(f, rel)
        g, _ = recentre(f)
        assert enc.grid == _fast(choose_grid(_diameter(g), rel))
        c = _quadrature_factor(enc.grid, _diameter(g))
        assert enc.riemann == riemann_l1(g, enc.grid)
        assert enc.lo == math.nextafter(enc.riemann / c, 0.0)
        assert enc.hi == math.nextafter(enc.riemann * c, math.inf)
        assert enc.hi / enc.lo <= (1 + 2 * rel) * (1 + 1e-12)


# --- streamed rank-1 grids: 5-smooth N, coset rows of the one rule -----------

def _sparse_poly(rng, span, terms, real):
    freqs = np.sort(rng.choice(span + 1, size=terms, replace=False))
    freqs[0], freqs[-1] = 0, span
    coeffs = np.ones(terms)
    if not real:
        coeffs = rng.standard_normal(terms) + 1j * rng.standard_normal(terms)
    return TrigPoly.from_arrays(1, freqs[:, None], coeffs)


def _streams(g, grid):
    # more than the one coset row Q = N_0
    return _plan(g, grid).q < grid[0]


def _sized_interval(enc, diameter):
    # the documented interval of a streamed grid, from its S and N
    c = _quadrature_factor(enc.grid, (diameter,))
    return math.nextafter(enc.riemann / c, 0.0), math.nextafter(enc.riemann * c, math.inf)


@pytest.mark.parametrize("real", [True, False])
def test_sized_grid_is_smaller_narrower_and_contains_the_norm(real):
    rng = np.random.default_rng([31, real])
    g, _ = recentre(_sparse_poly(rng, 40_000, 64, real))
    rel = 0.1
    enc = certified_l1(g, rel)
    assert _streams(g, enc.grid)
    # the pi d / N rule needed N >= pi d / rho at rho = rel_err, for a
    # relative width 2 rho / (1 - rho)
    assert enc.grid[0] < math.pi * g.degree[0] / rel / 2.5
    assert enc.hi / enc.lo - 1 <= 2 * rel * (1 + 1e-12) < 2 * rel / (1 - rel)
    # a 20x finer grid's own interval lies inside
    n = 20 * enc.grid[0]
    ref, cf = riemann_l1(g, n), _quadrature_factor((n,), (40_000,))
    assert enc.lo <= ref / cf and ref * cf <= enc.hi
    assert 0 <= enc.lo <= enc.riemann <= enc.hi
    assert (enc.lo, enc.hi) == _sized_interval(enc, 40_000)


def test_sized_grid_keeps_the_fejer_report():
    # the Fejer kernel of degree 20,000: 40,001 real terms, norm 1; its report
    # is the documented interval on the next 5-smooth grid N >= want
    f = _fejer(20_000)
    (want,) = choose_grid((40_000,), 0.1)
    assert _streams(f, _fast((want,)))
    enc = certified_l1(f, 0.1)
    assert enc.contains(1.0) and enc.grid == _fast((want,))
    assert enc.riemann == pytest.approx(riemann_l1(f, enc.grid), rel=1e-13)
    lo, hi = _sized_interval(enc, 40_000)
    assert (json.dumps(enc.to_json_dict())
            == json.dumps({"lo": lo, "hi": hi, "riemann": enc.riemann,
                           "grid": list(enc.grid), "degree": [20_000]}))


def test_sized_grid_keeps_the_budget_of_the_choose_grid_grid():
    g, _ = recentre(_sparse_poly(np.random.default_rng(5), 40_000, 64, True))
    (want,) = choose_grid((40_000,), 0.1)
    (n,) = certified_l1(g, 0.1).grid
    assert n > want  # so the two checks below name different grids
    # the unrounded choose_grid grid is checked first ...
    with pytest.raises(MemoryBudgetError) as err:
        certified_l1(g, 0.1, memory_budget=want * 16 - 1)
    assert err.value.needed_grid == (want,)
    assert (err.value.needed_bytes, err.value.budget_bytes) == (want * 16, want * 16 - 1)
    # ... then the 5-smooth grid it is rounded up to
    with pytest.raises(MemoryBudgetError) as err:
        certified_l1(g, 0.1, memory_budget=n * 16 - 1)
    assert err.value.needed_grid == (n,)
    assert err.value.needed_bytes == n * 16


@pytest.mark.parametrize("real", [True, False])
def test_sized_grid_width_is_the_one_asked_for(real):
    # a streamed grid is the next 5-smooth length, like every other grid, so
    # every relative width hi/lo - 1 is at most 2 rel_err
    rng = np.random.default_rng([53, real])
    (want,) = choose_grid((40_000,), 0.1)
    for _ in range(8):
        g, _ = recentre(_sparse_poly(rng, 40_000, 64, real))
        enc = certified_l1(g, 0.1)
        assert enc.grid == _fast((want,))
        assert enc.hi / enc.lo - 1 <= 0.2 * (1 + 1e-12)


@pytest.mark.parametrize("real", [True, False])
def test_sized_grid_plan(real):
    # the rows of streamed grids: the rule's, at most one block long, none
    # below 32 points a term, and shorter than 2d + 1 only when 32 terms is
    rng = np.random.default_rng([59, real])
    block = quadrature._BLOCK_BYTES // quadrature._BLOCK_BYTES_PER_SAMPLE
    for terms in (64, 2000):
        g, _ = recentre(_sparse_poly(rng, 40_000, terms, real))
        d = g.degree[0]
        least = 2 * d + 1
        short = 0
        for want in np.linspace(block + 1, 30 * block, 200).astype(int).tolist():
            (n,) = _fast((want,))
            row = _row_length((n,), d, terms, real)
            assert row == _rule_row(n, 1, d, terms, real)
            assert n % row == 0 and min(least, 32 * terms) <= row <= block
            short += row < least
        assert short > 100 if terms == 64 else short == 0


def test_sized_grid_beyond_a_block_of_rows():
    # 2d + 1 and 32 points a term both above one block: no row fits, so the
    # rows are the least divisor of N at or above the floor
    g, _ = recentre(_sparse_poly(np.random.default_rng(3), 400_000, 12_000, True))
    (n,) = _fast(choose_grid((400_000,), 0.1))
    floor = min(400_001, 32 * 12_000)
    row = _row_length((n,), g.degree[0], 12_000, True)
    assert row * quadrature._BLOCK_BYTES_PER_SAMPLE > quadrature._BLOCK_BYTES
    assert row == min(q for q in _divisors(n) if q >= floor) < n


@pytest.mark.parametrize("real", [True, False])
def test_sized_grid_of_hundreds_of_rows(real):
    # short rows: more than 64 coset rows evaluated, in three blocks or more,
    # each taking its twiddles from exact integer phases
    g, _ = recentre(_sparse_poly(np.random.default_rng([71, real]), 60_000, 64, real))
    enc = certified_l1(g, 0.1)
    (n,), plan = enc.grid, _plan(g, enc.grid)
    # real coefficients evaluate rows 0 .. P/2 only; these rows fold residues
    p = n // plan.q
    assert plan.evaluated == (p // 2 + 1 if real else p) > 64
    assert plan.evaluated - 1 > 2 * plan.rows
    assert plan.fold and plan.q < 2 * g.degree[0] + 1
    assert enc.riemann == pytest.approx(eval_grid(g, (n,)).abs_mean(), rel=1e-13)
    # a 20x finer grid's own interval lies inside
    ref, cf = riemann_l1(g, 20 * n), _quadrature_factor((20 * n,), (60_000,))
    assert enc.lo <= ref / cf and ref * cf <= enc.hi


# --- spans and means beyond float64 -------------------------------------------

def test_huge_span_is_a_budget_error():
    # the rule's grid for a span of 2^62 is 6 * 2^62 points, past int64 and
    # past every 5-smooth length the planners know; the budget names it
    f = TrigPoly(1, {0: 1.0, 2 ** 62: 1.0})
    with pytest.raises(MemoryBudgetError) as err:
        certified_l1(f, 0.1)
    (n,) = err.value.needed_grid
    assert n == choose_grid((2 ** 62,), 0.1)[0] > 5 * 2 ** 62
    assert err.value.needed_bytes == 16 * n
    with pytest.raises(MemoryBudgetError):
        certified_l1(TrigPoly(2, {(0, 0): 1.0, (2 ** 62, 3): 1.0}), 0.1)
    # no budget admits an axis past int64
    with pytest.raises(MemoryBudgetError) as err:
        certified_l1(f, 0.1, memory_budget=10 ** 24)
    assert err.value.needed_grid == (n,)


def test_axis_past_the_smooth_lengths_is_a_budget_error(monkeypatch):
    # a span of 7.68e17: its grid of 4.608e18 + 1024 points is within a
    # budget of 2^70 bytes, but past 4,608,000,000,000,000,000, the largest
    # 5-smooth length below 2^62, so nothing can round it up.  No plan may
    # be made: the divisors of so long an axis would take about 17 GB
    top = int(quadrature._smooth_lengths()[-1])
    assert top == 4_608_000_000_000_000_000
    for name in ("_plan", "_row_length"):
        monkeypatch.setattr(quadrature, name, lambda *args: pytest.fail("a grid was planned"))
    f = indicator_poly(IntegerSet.from_iterable([0, 768_000_000_000_000_001]))
    with pytest.raises(MemoryBudgetError) as err:
        certified_l1(f, memory_budget=2 ** 70)
    (n,) = err.value.needed_grid
    assert n == choose_grid((768_000_000_000_000_001,), 0.1)[0] > top
    assert err.value.needed_bytes == 16 * n < 2 ** 70
    assert str(top) in str(err.value)
    # riemann_l1 and eval_grid refuse such an axis the same way
    for evaluate in (riemann_l1, eval_grid):
        with pytest.raises(MemoryBudgetError):
            evaluate(TrigPoly(1, {0: 1.0}), top + 1, memory_budget=2 ** 70)


@pytest.mark.parametrize("f", [TrigPoly(1, {0: 1.0, 7: 1e307}),
                               TrigPoly(1, {0: 1e308, 1: 1e308, 2: 1e308}),
                               TrigPoly(2, {(0, 0): 1.5e308, (0, 1): 1.5e308,
                                            (1, 0): 1.5e308, (1, 1): 1.5e308}),
                               TrigPoly(2, {(0, 0): 1.5e308 + 1.5e308j,
                                            (0, 1): 1.5e308 + 1.5e308j})])
def test_overflowing_grid_mean_is_an_error(f):
    # a mean that overflows (or an end past float64) is no enclosure; the
    # last two are the product path, the last with |c| past float64
    with pytest.raises(GridOverflowError, match="overflows float64"):
        certified_l1(f, 0.1)
    assert issubclass(GridOverflowError, ValueError)


def _scaled(f, k):
    # 2^k f, exact while every coefficient stays finite
    c = np.empty_like(f.coeffs)
    c.real, c.imag = np.ldexp(f.coeffs.real, k), np.ldexp(f.coeffs.imag, k)
    return TrigPoly.from_arrays(f.rank, f.freqs, c)


@pytest.mark.parametrize("real", [True, False])
@pytest.mark.parametrize("rank", [1, 2])
def test_scaled_enclosure_is_exact_or_an_overflow_error(rank, real):
    # scaling by 2^k is exact in every step of certified_l1 until something
    # overflows; from there on it must raise GridOverflowError (never a bare
    # OverflowError, say from fsum over the streamed rows, nor a warning)
    rng = np.random.default_rng(1003)
    if rank == 1:  # span 40,000: a streamed grid of many rows
        freqs = np.concatenate([[0, 40_000], rng.integers(1, 40_000, size=62)])
    else:  # one block
        freqs = np.concatenate([[[0, 0], [30, 20]], rng.integers(0, 30, size=(20, 2))])
    coeffs = rng.uniform(-1, 1, size=len(freqs))
    if not real:
        coeffs = coeffs + 1j * rng.uniform(-1, 1, size=len(freqs))
    f = TrigPoly.from_arrays(rank, freqs, coeffs)
    enc = certified_l1(f, 0.1)
    exact, raised = [], []
    for k in range(990, 1024):
        try:
            got = certified_l1(_scaled(f, k), 0.1)
        except GridOverflowError:
            raised.append(k)
            continue
        assert (got.lo, got.hi, got.riemann) == (
            math.ldexp(enc.lo, k), math.ldexp(enc.hi, k), math.ldexp(enc.riemann, k)), k
        assert got.grid == enc.grid
        exact.append(k)
    assert exact and raised, (exact, raised)


# --- Cartesian products: a product of rank-1 enclosures ----------------------

def _product_poly(axes, c=1.0):
    # c times the indicator of axes[0] x ... x axes[-1]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))
    return TrigPoly.from_arrays(len(axes), pts, np.full(len(pts), c, dtype=complex))


def _grid_enclosure(g, shape):
    # the enclosure of the rank-r grid mean on ``shape``, as for a non-product
    s = riemann_l1(g, shape)
    c = _quadrature_factor(shape, _diameter(g))
    return math.nextafter(s / c, 0.0), math.nextafter(s * c, math.inf), s


def _box(*sides):
    return [np.arange(1, n + 1) for n in sides]


_RNG = np.random.default_rng(61)
PRODUCTS = ([(_box(n, n), 1.0, 0.1) for n in range(2, 13)]
            + [(_box(4, 5, 6), 1.0, 0.5), (_box(1, 9), 1.0, 0.1),
               (_box(7, 1), 1.0, 0.1), (_box(9, 6), 0.3 - 0.4j, 0.1),
               ([np.sort(_RNG.choice(40, 7, replace=False)),
                 np.sort(_RNG.choice(50, 5, replace=False)) - 20], 1.0, 0.1)])


@pytest.mark.parametrize("axes, c, rel", PRODUCTS)
def test_product_matches_the_grid_enclosure(axes, c, rel):
    g, _ = recentre(_product_poly(axes, c))
    enc = certified_l1(g, rel)
    # the same per-axis grids as the rank-r path, and its interval to 1e-12
    shape = _fast(choose_grid(_diameter(g), rel))
    assert enc.grid == shape and enc.degree == g.degree
    lo, hi, s = _grid_enclosure(g, shape)
    assert enc.lo == pytest.approx(lo, rel=1e-12)
    assert enc.hi == pytest.approx(hi, rel=1e-12)
    assert enc.riemann == pytest.approx(s, rel=1e-12)
    assert 0 < enc.lo <= enc.riemann <= enc.hi
    # a finer rank-r grid's own interval lies inside: 8x per axis in rank 2,
    # 2x per axis (8x the points) in rank 3
    fine = tuple(n * (8 if g.rank == 2 else 2) for n in shape)
    ref_lo, ref_hi, _ = _grid_enclosure(g, fine)
    assert enc.lo <= ref_lo and ref_hi <= enc.hi


def test_product_rounds_the_factors_outward():
    axes = [np.arange(5), np.arange(3, 14)]
    c = 0.3 - 0.4j
    enc = certified_l1(_product_poly(axes, c), 0.1)
    rel = (1.2 ** 0.5 - 1) / 2  # hi/lo <= sqrt(1 + 2 rel_err) per factor
    lo, hi, s = math.nextafter(abs(c), 0), math.nextafter(abs(c), math.inf), abs(c)
    for a in axes:
        fac = certified_l1(indicator_poly(IntegerSet.from_iterable(a.tolist())), rel)
        lo, hi = math.nextafter(lo * fac.lo, 0), math.nextafter(hi * fac.hi, math.inf)
        s *= fac.riemann
    assert (enc.lo, enc.hi, enc.riemann) == (lo, hi, s)


@pytest.mark.parametrize("change", ["drop", "coefficient"])
def test_non_product_keeps_the_grid_path(change):
    f = _product_poly(_box(9, 11))
    freqs, coeffs = f.freqs, f.coeffs.copy()
    if change == "drop":
        freqs, coeffs = freqs[1:], coeffs[1:]
    else:
        coeffs[17] = 1 + 1e-15
    g, _ = recentre(TrigPoly.from_arrays(2, freqs, coeffs))
    assert quadrature._product_axes(g) is None
    enc = certified_l1(g, 0.1)
    shape = _fast(choose_grid(_diameter(g), 0.1))
    lo, hi, s = _grid_enclosure(g, shape)
    assert enc.grid == shape
    assert enc.riemann.hex() == riemann_l1(g, shape).hex() == s.hex()
    assert (enc.lo, enc.hi) == (lo, hi)


def test_product_axes_match_the_set_definition():
    # against the definition: the support equals the product of its distinct
    # axis values; random subsets of small boxes, most of them not products
    rng = np.random.default_rng(73)
    found = 0
    for rank in (2, 3):
        for _ in range(300):
            axes = [np.sort(rng.choice(6, size=rng.integers(1, 4), replace=False))
                    for _ in range(rank)]
            pts = _product_poly(axes).freqs
            if rng.random() < 0.7:
                pts = pts[rng.random(len(pts)) < 0.8]
            if not len(pts):
                continue
            g = TrigPoly.from_arrays(rank, pts, np.ones(len(pts)))
            distinct = [np.unique(pts[:, i]) for i in range(rank)]
            is_product = math.prod(len(a) for a in distinct) == len(pts)
            got = quadrature._product_axes(g)
            assert (got is not None) == is_product
            if got is not None:
                found += 1
                assert all(np.array_equal(a, b) for a, b in zip(got, distinct))
    assert found > 100


def test_product_beyond_the_grid_budget():
    # the 400 x 400 grid needs 340 MB; its factors need 74 kB each
    g = _product_poly(_box(400, 400))
    budget = 10 ** 6
    enc = certified_l1(g, 0.1, memory_budget=budget)
    fac = certified_l1(indicator_poly(IntegerSet.from_iterable(range(1, 401))),
                       (1.2 ** 0.5 - 1) / 2)
    assert enc.grid == fac.grid * 2 == (4608, 4608)
    assert math.prod(enc.grid) * 16 > budget
    assert 0 < enc.lo <= enc.riemann <= enc.hi
    assert enc.lo <= fac.lo ** 2 and fac.hi ** 2 <= enc.hi


def test_product_factor_budget_names_the_factor_grid():
    g = _product_poly(_box(32, 32))
    # a factor's unrounded rank-1 grid at hi/lo <= sqrt(1.2)
    (n,) = choose_grid((31,), (1.2 ** 0.5 - 1) / 2)
    assert n == choose_grid((31, 31), 0.1)[0]
    with pytest.raises(MemoryBudgetError) as err:
        certified_l1(g, 0.1, memory_budget=1000)
    assert err.value.needed_grid == (n,)
    assert err.value.needed_bytes == 16 * n


# --- two threads over coset rows -------------------------------------------

# (shape, d0, P) of hand-made plans: assigned and folded rows, rank 1 and
# rank 2, odd and even P, 2 twiddled rows (P = 5 real, P = 3 complex) and
# more than 100 (P = 256 and 257); each with real and complex coefficients
# where that leaves at least two twiddled rows for two threads
SPLIT_CASES = [(case, real)
               for case in [((60,), 5, 5), ((60,), 20, 6), ((45, 4), 2, 9), ((60, 8), 12, 6),
                            ((36,), 5, 3), ((2056,), 3, 257), ((2048,), 10, 256),
                            ((1024, 3), 5, 128)]
               for real in (True, False) if (case[2] // 2 + 1 if real else case[2]) > 2]


def _hex(sums):
    return [x.hex() for x in sums]


@pytest.mark.parametrize("case, real", SPLIT_CASES)
def test_split_row_sums_are_the_one_thread_sums(case, real):
    shape, d0, p = case
    q = shape[0] // p
    rng = np.random.default_rng([sum(shape), d0, p, real])
    f = _window_poly(rng, shape, d0, real, base=rng.integers(-2 ** 40, 2 ** 40, size=len(shape)))
    one = _plan_of(f, shape, q, 32)
    assert one.fold == (q < 2 * d0 + 1)
    want = _hex(_row_sums(f, one))
    assert len(want) == one.evaluated
    # one thread and two, each thread 1, 3 or 16 rows a block, the terms
    # in one or two slices
    n = len(f.coeffs)
    for threads in (1, 2):
        for rows in (1, 3, 16):
            for width in (n, n - 2):
                plan = _plan_of(f, shape, q, rows, threads)._replace(width=width)
                assert _hex(_row_sums(f, plan)) == want, (threads, rows, width)
    # the worker busy with another caller's rows: all of them here, and the
    # caller does not wait for the worker
    plan = _plan_of(f, shape, q, 16, 2)
    held = threading.Event()
    busy = quadrature._worker().submit(held.wait, 20)
    try:
        assert _hex(_row_sums(f, plan)) == want
        assert not busy.done()
    finally:
        held.set()


def _long_row_polys():
    # (f, grid) of plans of one transform a row, every row within one block
    # and at least two of them twiddled: rank 1 real (the Fejer kernel
    # F_20000, P = 5, rows 0 .. 2) and complex (2,000 terms, P = 6), and a
    # complex rank-2 row of 400 x 400 points (3.84 MB, P = 3)
    rng = np.random.default_rng(21)
    yield _fejer(20_000), (243_000,)
    yield _window_poly(rng, (243_000,), 20_000, False, terms=2000), (243_000,)
    yield _window_poly(rng, (1200, 400), 150, False), (1200, 400)


@pytest.mark.parametrize("case", range(3), ids=["rank1-real", "rank1-complex", "rank2-complex"])
def test_long_row_sums_are_the_one_thread_sums(monkeypatch, case):
    # rows taken one a call, split between the caller and the worker: every
    # row sum is the one-thread one, bit for bit, since a row's transform,
    # modulus and sum do not depend on the thread that forms it
    f, grid = list(_long_row_polys())[case]
    _cpus(monkeypatch, 2)
    two = _plan(f, grid)
    assert two.per_row and two.threads == 2 and two.evaluated > 2
    row = two.q * math.prod(grid[1:])
    assert row >= quadrature._ROW_CALL_SAMPLES
    assert row * quadrature._BLOCK_BYTES_PER_SAMPLE <= quadrature._BLOCK_BYTES
    _cpus(monkeypatch, 1)
    one = _plan(f, grid)
    assert one == two._replace(rows=one.rows, width=one.width, threads=1)
    want = _hex(_row_sums(f, one))
    assert _hex(_row_sums(f, two._replace(threads=1))) == want
    for _ in range(3):
        assert _hex(_row_sums(f, two)) == want
    assert riemann_l1(f, grid).hex() == quadrature._grid_mean(f, two).hex()


def test_row_past_one_block_stays_on_one_thread(monkeypatch):
    # a complex rank-2 polynomial on (1800, 400): no row of at least 384
    # points on axis 0 fits in one block, so rows of 450 x 400 points
    # (4.32 MB), P = 4 with three twiddled, stay on one thread, in fresh
    # block buffers; one point less on axis 1 and the rows fit, on two
    rng = np.random.default_rng(22)
    f = _window_poly(rng, (1800, 400), 250, False)
    _cpus(monkeypatch, 2)
    plan = _plan(f, (1800, 400))
    assert plan == GridPlan((1800, 400), False, 450, True, 1, True, 4, 12, 1)
    assert 450 * 400 * quadrature._BLOCK_BYTES_PER_SAMPLE > quadrature._BLOCK_BYTES
    g = _window_poly(rng, (1800, 388), 250, False)
    assert _plan(g, (1800, 388)).threads == 2
    assert 450 * 388 * quadrature._BLOCK_BYTES_PER_SAMPLE <= quadrature._BLOCK_BYTES
    assert riemann_l1(f, (1800, 400)) == pytest.approx(eval_grid(f, (1800, 400)).abs_mean(),
                                                        rel=1e-13)


def test_workspace_is_allocated_once_at_one_block(monkeypatch):
    # a thread's first streamed grid allocates its workspace, one block of
    # complex128 and float64 samples and _TWIDDLE_PAIRS pairs of scratch;
    # a smaller grid and then a larger one keep the same arrays
    _cpus(monkeypatch, 1)
    rng = np.random.default_rng(23)
    small = _sparse_poly(rng, 40_000, 64, False)
    large = _fejer(20_000)

    def buffers_after(*polys):
        kept = []
        for f in polys:
            certified_l1(f)
            kept.append(list(quadrature._workspace.buffers))
        return kept

    with ThreadPoolExecutor(1) as pool:  # a thread with no workspace yet
        assert pool.submit(getattr, quadrature._workspace, "buffers", None).result() is None
        first, second = pool.submit(buffers_after, small, large).result(timeout=120)
    samples = quadrature._BLOCK_BYTES // quadrature._BLOCK_BYTES_PER_SAMPLE
    assert [(b.dtype, b.size) for b in first] == \
        [(np.complex128, samples), (np.float64, samples)] + \
        [(t, quadrature._TWIDDLE_PAIRS) for t in (np.int64, np.int64, np.complex128,
                                                   np.complex128)]
    assert all(a is b for a, b in zip(first, second, strict=True))


def test_long_rows_raise_the_malloc_thresholds(monkeypatch):
    # rows transformed one a call, on one thread or two, first free one
    # block so that numpy's per-call FFT scratch stays in glibc's heap;
    # batched short rows and one-block grids do not
    raised = []
    monkeypatch.setattr(quadrature, "_raise_malloc_thresholds", lambda: raised.append(1))
    rng = np.random.default_rng(24)
    for cpus in (1, 2):
        _cpus(monkeypatch, cpus)
        certified_l1(_sparse_poly(rng, 40_000, 64, False))
        certified_l1(indicator_poly(IntegerSet.from_iterable(range(1, 102))))
        assert not raised
        certified_l1(_fejer(20_000))
        assert raised
        raised.clear()


def _wait_for_worker():
    # the worker free: a no-op job submitted now runs within 60 s, after
    # every job before it
    quadrature._worker().submit(int).result(timeout=60)


def test_plan_splits_only_on_two_cpus(monkeypatch):
    g, _ = recentre(_sparse_poly(np.random.default_rng(8), 60_000, 64, False))
    grid = _fast(choose_grid((60_000,), 0.1))
    _cpus(monkeypatch, 2)
    two = _plan(g, grid)
    assert two.threads == 2 and two.rows <= quadrature._BLOCK_ROWS // 2
    # both threads' blocks together are at most one block
    assert 2 * two.rows * two.q * quadrature._BLOCK_BYTES_PER_SAMPLE <= quadrature._BLOCK_BYTES
    _cpus(monkeypatch, 1)
    assert _plan(g, grid).threads == 1
    # no affinity call: the CPU count
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert _plan(g, grid).threads == 1
    _cpus(monkeypatch, 2)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert _plan(g, grid) == two


@pytest.mark.parametrize("side", ["worker", "caller"])
def test_split_errors_reach_the_caller(monkeypatch, side):
    rng = np.random.default_rng(12)
    f = _window_poly(rng, (2056,), 3, False)
    plan = _plan_of(f, (2056,), 8, 16, 2)
    want = _hex(_row_sums(f, plan._replace(threads=1)))
    caller = threading.get_ident()
    twiddled = quadrature._twiddled
    planted = threading.Event()

    def planting(*args):
        if (threading.get_ident() == caller) == (side == "caller"):
            planted.set()
            raise ZeroDivisionError(f"planted in the {side}")
        # the caller takes no block before the worker has raised, so that
        # the worker has a block to raise in
        assert side == "caller" or planted.wait(60)
        return twiddled(*args)

    monkeypatch.setattr(quadrature, "_twiddled", planting)
    with pytest.raises(ZeroDivisionError, match=f"planted in the {side}"):
        _row_sums(f, plan)
    monkeypatch.undo()
    # the worker is free again and holds no stale result
    _wait_for_worker()
    assert _hex(_row_sums(f, plan)) == want


def _held_blocks(monkeypatch, held):
    # the sums of a two-thread plan of 16 blocks, with the worker or the
    # caller held back until the other has taken every block: (the sums,
    # the one-thread sums, the (caller's?, first row) of each block in the
    # order taken)
    rng = np.random.default_rng(15)
    f = _window_poly(rng, (2056,), 3, False)
    plan = _plan_of(f, (2056,), 8, 16, 2)
    want = _hex(_row_sums(f, plan._replace(threads=1)))
    # the worker free, so that it takes this plan's job
    _wait_for_worker()
    caller = threading.get_ident()
    range_sums = quadrature._range_sums
    begun, taken = threading.Event(), threading.Event()
    formed, ran = [], []

    def holding(*args):
        mine = threading.get_ident() == caller
        ran.append(mine)
        if mine:
            # the worker has begun its job, which the caller then cannot cancel
            assert begun.wait(60)
        else:
            begun.set()
        if (held == "worker") != mine:
            assert taken.wait(60)
        *head, pop, sums = args

        def logged():
            r0 = pop()
            formed.append((mine, r0))
            return r0

        range_sums(*head, logged, sums)
        taken.set()

    monkeypatch.setattr(quadrature, "_range_sums", holding)
    got = _hex(_row_sums(f, plan))
    assert sorted(ran) == [False, True]
    return got, want, formed


def test_caller_takes_every_block_while_the_worker_is_held(monkeypatch):
    # the worker held back until the caller, after row 0, has taken every
    # block from the back: the caller forms every row, and the sums are the
    # one-thread ones
    got, want, formed = _held_blocks(monkeypatch, "worker")
    assert got == want
    assert formed == [(True, r0) for r0 in reversed(range(1, 257, 16))]


def test_worker_takes_every_block_while_the_caller_is_held(monkeypatch):
    # the caller held back after row 0 until the worker has taken every
    # block from the front: the worker forms every twiddled row, and the
    # sums are the one-thread ones
    got, want, formed = _held_blocks(monkeypatch, "caller")
    assert got == want
    assert formed == [(False, r0) for r0 in range(1, 257, 16)]


def test_each_thread_forms_its_rows_in_its_own_workspace(monkeypatch):
    # the worker, having formed every twiddled row of a two-thread plan,
    # keeps block buffers and twiddle scratch of its own, none of which
    # shares memory with the caller's
    got, want, formed = _held_blocks(monkeypatch, "caller")
    assert got == want and formed and not any(mine for mine, _ in formed)
    caller = quadrature._workspace.buffers
    worker = quadrature._worker().submit(
        lambda: getattr(quadrature._workspace, "buffers", None)).result(timeout=60)
    assert caller and worker
    assert not any(np.shares_memory(a, b) for a in caller for b in worker)


def test_caller_waits_for_the_block_the_worker_has_begun(monkeypatch):
    # the worker takes the first block and holds it until the caller has
    # taken every other one: the caller returns only once the worker's job
    # has ended, with that block's sums in place
    rng = np.random.default_rng(16)
    f = _window_poly(rng, (2056,), 3, False)
    plan = _plan_of(f, (2056,), 8, 16, 2)
    want = _hex(_row_sums(f, plan._replace(threads=1)))
    _wait_for_worker()
    caller = threading.get_ident()
    range_sums = quadrature._range_sums
    begun, drained, ended = threading.Event(), threading.Event(), threading.Event()

    def holding(*args):
        *head, pop, sums = args
        if threading.get_ident() == caller:
            assert begun.wait(60)
            range_sums(*args)
            drained.set()
            return

        def held():
            r0 = pop()
            if not begun.is_set():
                begun.set()
                # a caller that does not wait returns in this time
                assert drained.wait(60)
                time.sleep(0.05)
            return r0

        range_sums(*head, held, sums)
        ended.set()

    monkeypatch.setattr(quadrature, "_range_sums", holding)
    got = _hex(_row_sums(f, plan))
    assert ended.is_set()
    assert got == want


def test_interrupted_wait_leaves_no_stale_result(monkeypatch):
    # a KeyboardInterrupt that cuts the caller's wait for the worker short:
    # the worker finishes its blocks unread, in its own buffers, the
    # caller's thread keeps its workspace, and every later call, on two
    # threads or one, is exact
    rng = np.random.default_rng(13)
    f = _window_poly(rng, (2056,), 3, False)
    g = _window_poly(rng, (2048,), 10, True)
    cut, other = _plan_of(f, (2056,), 8, 16, 2), _plan_of(g, (2048,), 8, 16, 2)
    want_f = _hex(_row_sums(f, cut._replace(threads=1)))
    want_g = _hex(_row_sums(g, other._replace(threads=1)))
    kept = list(quadrature._workspace.buffers)
    pool = quadrature._worker()

    class Interrupted:
        # the pool, with a job whose wait a KeyboardInterrupt cuts short
        def submit(self, *args):
            self.job = pool.submit(*args)
            return self

        def cancel(self):
            return False

        def result(self):
            raise KeyboardInterrupt

    monkeypatch.setattr(quadrature, "_worker", Interrupted)
    with pytest.raises(KeyboardInterrupt):
        _row_sums(f, cut)
    monkeypatch.undo()
    assert all(a is b for a, b in zip(quadrature._workspace.buffers, kept, strict=True))
    # the worker perhaps still busy with the cut half
    assert _hex(_row_sums(g, other)) == want_g
    # and once it is free
    _wait_for_worker()
    assert _hex(_row_sums(g, other)) == want_g
    assert _hex(_row_sums(f, cut)) == want_f


def _last_job_of_idle_worker(monkeypatch, cancelled):
    # a weak reference to the polynomial of a two-thread call whose job the
    # worker ran, or whose caller cancelled it, the worker then left idle
    rng = np.random.default_rng(14)
    f = _window_poly(rng, (2056,), 3, False)
    plan = _plan_of(f, (2056,), 8, 16, 2)
    _wait_for_worker()
    held = threading.Event()
    if cancelled:
        # the job queued behind one that holds the worker
        quadrature._worker().submit(held.wait, 20)
    else:
        # the caller takes no block before the worker has begun its job
        caller, begun, range_sums = threading.get_ident(), threading.Event(), quadrature._range_sums

        def after_the_worker(*args):
            if threading.get_ident() == caller:
                assert begun.wait(60)
            else:
                begun.set()
            range_sums(*args)

        monkeypatch.setattr(quadrature, "_range_sums", after_the_worker)
    _row_sums(f, plan)
    monkeypatch.undo()
    held.set()
    return weakref.ref(f)


def test_idle_worker_keeps_nothing_of_its_last_job(monkeypatch):
    # once idle, with no later job, the worker holds neither the last
    # caller's polynomial nor views of its workspace, whether it ran the job
    # or its caller cancelled it
    for cancelled in (False, True):
        gone = _last_job_of_idle_worker(monkeypatch, cancelled)
        # the worker drops a job it ran just after its caller's wait ends,
        # and a cancelled one when it reaches it in the queue
        deadline = time.monotonic() + 60
        while gone() is not None and time.monotonic() < deadline:
            gc.collect()
            time.sleep(0.01)
        assert gone() is None, cancelled


def test_shut_down_pool_leaves_every_block_to_the_caller(monkeypatch):
    # interpreter exit shuts the pool down before atexit handlers run: a
    # grid mean taken in one takes every block on its caller's thread
    rng = np.random.default_rng(17)
    f = _window_poly(rng, (2056,), 3, False)
    plan = _plan_of(f, (2056,), 8, 16, 2)
    want = _hex(_row_sums(f, plan._replace(threads=1)))
    pool = ThreadPoolExecutor(1)
    pool.shutdown()
    monkeypatch.setattr(quadrature, "_worker", lambda: pool)
    assert _hex(_row_sums(f, plan)) == want


@pytest.mark.parametrize("pool_made", [True, False], ids=["pool-made", "pool-in-handler"])
def test_grid_mean_at_interpreter_exit(pool_made):
    # an atexit handler takes a two-thread grid mean at real interpreter
    # exit, with the pool made before exit (and shut down by then) or with
    # the first two-thread plan inside the handler: it gives the live mean
    code = f"""
import atexit
import numpy as np
from expsums import TrigPoly, quadrature, riemann_l1
quadrature._cpus = lambda: 2
rng = np.random.default_rng(3)
f = TrigPoly.from_arrays(1, rng.choice(100_000, 64, replace=False),
                         rng.standard_normal(64) + 1j * rng.standard_normal(64))
grid = (720_000,)
assert quadrature._plan(f, grid).threads == 2
atexit.register(lambda: print(riemann_l1(f, grid).hex()))
if {pool_made}:
    quadrature._worker()
"""
    rng = np.random.default_rng(3)
    f = TrigPoly.from_arrays(1, rng.choice(100_000, 64, replace=False),
                             rng.standard_normal(64) + 1j * rng.standard_normal(64))
    src = os.path.dirname(os.path.dirname(quadrature.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == riemann_l1(f, (720_000,)).hex()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
def test_forked_child_takes_split_rows():
    # the parent's worker is running when it forks; the child, which
    # inherits no thread but the caller, starts its own, which runs jobs
    code = """
import os
import signal
import threading
import warnings
import numpy as np
from expsums import TrigPoly, quadrature, riemann_l1
quadrature._cpus = lambda: 2
rng = np.random.default_rng(3)
f = TrigPoly.from_arrays(1, rng.choice(100_000, 64, replace=False),
                         rng.standard_normal(64) + 1j * rng.standard_normal(64))
grid = (720_000,)
assert quadrature._plan(f, grid).threads == 2
want = riemann_l1(f, grid).hex()
assert any(t.name.startswith("expsums-rows") for t in threading.enumerate())
read, write = os.pipe()
with warnings.catch_warnings():
    # Python 3.12 warns of fork() in a process with threads
    warnings.simplefilter("ignore", DeprecationWarning)
    pid = os.fork()
if pid == 0:
    signal.alarm(60)  # a child stuck on the parent's worker ends
    os.close(read)
    got = riemann_l1(f, grid).hex()
    assert quadrature._worker().submit(os.getpid).result(timeout=30) == os.getpid()
    os.write(write, got.encode())
    os._exit(0)
os.close(write)
got = os.read(read, 100).decode()
assert os.waitpid(pid, 0)[1] == 0
assert got == want, (got, want)
print(got)
"""
    src = os.path.dirname(os.path.dirname(quadrature.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip().startswith("0x1.")


# --- the FFT backend and its per-thread block buffers ---------------------------

def test_no_scipy_at_run_time():
    # every transform runs on numpy.fft: importing the package and taking
    # each kind of grid (whole, streamed rank-1, rank-2 complex and real)
    # loads no scipy module.  Importing it makes no worker pool either
    code = """
import json
import sys
import threading
import numpy as np
from expsums import IntegerSet, TrigPoly, certified_l1, indicator_poly
assert "concurrent.futures" not in sys.modules
assert threading.active_count() == 1
rng = np.random.default_rng(1)
box = rng.integers(-30, 30, size=(40, 2))
polys = [indicator_poly(IntegerSet.from_iterable(range(1, 102))),
         indicator_poly(IntegerSet(rng.choice(100_000, 64, replace=False))),
         TrigPoly.from_arrays(2, box, rng.standard_normal(40) + 1j * rng.standard_normal(40)),
         TrigPoly.from_arrays(2, box, rng.standard_normal(40))]
print(json.dumps([certified_l1(f).grid for f in polys]))
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded
"""
    src = os.path.dirname(os.path.dirname(quadrature.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       env=dict(os.environ, PYTHONPATH=path))
    assert r.returncode == 0, r.stderr
    grids = json.loads(r.stdout)
    assert grids[0] == [625] and grids[1][0] > 174_762  # one row, and streamed
    assert all(len(g) == 2 for g in grids[2:])


def test_block_workspace_is_per_thread(monkeypatch):
    # four threads, more than the cores, stream dense sets (rows of one
    # transform a call) and sparse ones (blocks of short rows), each plan
    # shared with the one worker, which a caller that finds it busy does
    # without, interleaved, each through its own block buffers: every
    # enclosure is the serial one-thread one, bit for bit
    rng = np.random.default_rng(77)
    polys = []
    for _ in range(2):
        polys.append(indicator_poly(IntegerSet(np.flatnonzero(rng.random(40_000) < 0.5))))
        polys.append(TrigPoly.from_arrays(1, rng.choice(120_000, 64, replace=False),
                                          rng.standard_normal(64)
                                          + 1j * rng.standard_normal(64)))
    _cpus(monkeypatch, 1)
    serial = [certified_l1(f) for f in polys]
    _cpus(monkeypatch, 2)
    for k, (f, enc) in enumerate(zip(polys, serial)):
        plan = _plan(recentre(f)[0], enc.grid)
        assert plan.evaluated > 1 and plan.per_row == (k % 2 == 0)
        assert plan.threads == 2
    start = threading.Barrier(len(polys), timeout=60)

    def work(f):
        start.wait()
        return [certified_l1(f) for _ in range(4)]

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # hand the GIL over often
    try:
        with ThreadPoolExecutor(len(polys)) as pool:
            futures = [pool.submit(work, f) for f in polys]
            runs = [fut.result(timeout=300) for fut in futures]
    finally:
        sys.setswitchinterval(switch)
    for encs, want in zip(runs, serial):
        assert len(encs) == 4
        for enc in encs:
            assert (enc.lo.hex(), enc.hi.hex(), enc.riemann.hex()) == \
                (want.lo.hex(), want.hi.hex(), want.riemann.hex())
