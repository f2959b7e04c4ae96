"""Grid evaluation, certified norm enclosures, and the derivative bound."""

import math

import numpy as np
import pytest
import scipy.fft

from expsums.core import IntegerSet, TrigPoly, indicator_poly
from expsums.errors import AliasingError, MemoryBudgetError
from expsums.quadrature import (_recentred_degree, bernstein_check,
                                certified_l1, choose_grid, derivative,
                                eval_grid, riemann_l1)

# frozen 2^22-point Riemann oracles
REF_INTERVAL_101 = 2.859870343104319
REF_DIRICHLET_10 = 2.2233569241561897


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


def test_choose_grid_resolution():
    for d, rel in ((10, 0.1), (200, 0.02), (64, 0.5)):
        (n,), (rho,) = choose_grid((d,), rel)
        target = (1.0 + rel) - 1.0  # the one-axis split of rel
        assert rho == pytest.approx(math.pi * d / n)
        assert rho <= target
        assert n >= 2 * d + 1
        assert n == scipy.fft.next_fast_len(math.ceil(math.pi * d / target))


def test_choose_grid_splits_budget_across_axes():
    shape, rhos = choose_grid((10, 10), 0.1)
    assert len(shape) == 2
    # per-axis errors compose to the requested total
    assert math.prod(1 + r for r in rhos) <= 1.1 + 1e-9


def test_choose_grid_degree_zero():
    (n,), (rho,) = choose_grid((0,), 0.1)
    assert n == 1
    assert rho == 0.0


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
        assert res.passed, (terms, res.lhs.lo, res.rhs_bound)


def test_bernstein_monomial_tie():
    # equality case: both sides are 2 pi d |c| along different float paths
    for d in (1, 8, 24, 63):
        res = bernstein_check(TrigPoly(1, {d: 1.3 - 0.4j}), rel_err=0.1)
        assert res.passed
        assert res.lhs.lo == pytest.approx(res.rhs_bound, rel=1e-10)


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


@pytest.mark.parametrize("rank,shape", [(1, (97,)), (1, (128,)), (2, (15, 16))])
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
