"""Exact norm identities across code paths.

Polynomials whose L1 norms are equal by proof must get intersecting
certified enclosures, whichever way their grids are taken: whole in one
block, streamed in coset rows that assign their residues, or streamed in
shorter rows that fold them.  Inputs come from seeded numpy generators.
Dirichlet kernels, whose norms are known exactly, must have them inside
their enclosures on every kind of plan.
"""

import functools

import mpmath
import numpy as np
import pytest

from expsums import quadrature
from expsums.core import IntegerSet, TrigPoly, indicator_poly
from expsums.quadrature import _plan, certified_l1, riemann_l1

# (terms, span): a sparse polynomial and a dense one
FAMILIES = [(40, 100), (1500, 3000)]
# dilations t -> q t: from one block to streamed rows of at least 2d + 1
# points (the dense family up to q = 15), and to rows that fold residues
DILATIONS = [1, 3, 10, 20, 300]


def _poly(rng, terms, span, real):
    freqs = np.sort(rng.choice(span + 1, size=terms, replace=False))
    freqs[0], freqs[-1] = 0, span
    coeffs = rng.standard_normal(terms)
    if not real:
        coeffs = coeffs + 1j * rng.standard_normal(terms)
    return TrigPoly.from_arrays(1, freqs[:, None], coeffs)


def _path(f, enc):
    """How the grid of ``enc`` was taken for f, as its plan says."""
    plan = _plan(f, enc.grid)
    if plan.q == enc.grid[0]:
        return "one block"
    return "folded rows" if plan.fold else "rows"


def _meet(a, b, what):
    assert max(a.lo, b.lo) <= min(a.hi, b.hi), (what, a, b)


@pytest.mark.parametrize("real", [True, False])
def test_norm_identities_give_intersecting_enclosures(real):
    rng = np.random.default_rng([2003, 1561, real])
    pairs, paths = 0, set()
    for terms, span in FAMILIES * 3:
        f = _poly(rng, terms, span, real)
        base = certified_l1(f)
        # dilation: ||f(q t)||_1 = ||f||_1
        for q in DILATIONS:
            g = TrigPoly.from_arrays(1, f.freqs * q, f.coeffs)
            enc = certified_l1(g)
            paths.add(_path(g, enc))
            _meet(base, enc, ("dilation", terms, q))
            # reflection: conj g(-t) has the norm of g
            _meet(enc, certified_l1(TrigPoly.from_arrays(1, -g.freqs, g.coeffs.conj())),
                  ("reflection", terms, q))
            pairs += 2
        # translation by m near +-2^62: ||e(m t) f||_1 = ||f||_1
        for m in (2 ** 62 - span - 1, -(2 ** 62), int(rng.integers(2 ** 61, 2 ** 62 - span))):
            h = f.shifted(m)
            _meet(base, certified_l1(h), ("translation", terms, m))
            pairs += 1
    assert paths == {"one block", "rows", "folded rows"}
    assert pairs == 78


@pytest.mark.parametrize("real", [True, False])
def test_translation_keeps_the_streamed_grid_mean(real):
    # riemann_l1 takes f where it lies: near +-2^62 the residues and twiddle
    # phases wrap, yet |e(m t) f| = |f| at every grid point
    rng = np.random.default_rng([2003, 62, real])
    f = _poly(rng, 64, 40_000, real)
    shape = (360_000,)
    assert _plan(f, shape).q < shape[0]
    want = riemann_l1(f, shape)
    for m in (2 ** 62 - 40_001, -(2 ** 62), int(rng.integers(-2 ** 62, 2 ** 62 - 40_000))):
        assert riemann_l1(f.shifted(m), shape) == pytest.approx(want, rel=1e-12), m


@functools.cache
def _lebesgue(n):
    """||D_n||_1 for the Dirichlet kernel D_n, the indicator polynomial of
    {-n..n}, to 30 digits by Fejer's formula:
    1/(2n+1) + (2/pi) sum_{k=1..n} tan(pi k/(2n+1))/k."""
    with mpmath.workdps(30):
        return 1 / mpmath.mpf(2 * n + 1) + 2 / mpmath.pi * mpmath.fsum(
            mpmath.tan(mpmath.pi * k / (2 * n + 1)) / k for k in range(1, n + 1))


def test_lebesgue_constant_oracle():
    # the formula against known values, and against direct quadrature of
    # |D_5(t)| = |sin((2n+1) pi t)/sin(pi t)| between its zeros
    assert mpmath.nstr(_lebesgue(1), 9) == "1.43599112"
    assert mpmath.nstr(_lebesgue(50), 9) == "2.85987034"
    with mpmath.workdps(30):
        zeros = [mpmath.mpf(k) / 11 for k in range(12)]
        direct = mpmath.quad(
            lambda t: abs(mpmath.sin(11 * mpmath.pi * t) / mpmath.sin(mpmath.pi * t)), zeros)
        assert abs(direct - _lebesgue(5)) < mpmath.mpf(10) ** -28


# (n, m, rel_err, plan kind on two CPUs) for the dilate by m of {-n..n}
EXACT_CASES = [(1, 1, 0.1, "one block"), (5, 1, 0.01, "one block"),
               (50, 1, 0.01, "one block"), (50, 7, 0.01, "one block"),
               (2000, 30, 0.1, "long rows"), (30000, 1, 0.01, "long rows"),
               (50, 1000, 0.1, "two threads"), (50, 1000, 0.02, "two threads")]


@pytest.mark.parametrize("cpus", [1, 2])
def test_dirichlet_kernels_contain_the_exact_norm(monkeypatch, cpus):
    # ||D_n(m t)||_1 = ||D_n||_1, known exactly, inside the enclosure of
    # every plan kind, on one CPU and on two
    monkeypatch.setattr(quadrature, "_cpus", lambda: cpus)
    for n, m, rel_err, kind in EXACT_CASES:
        f = indicator_poly(IntegerSet(np.arange(-n, n + 1) * m))
        enc = certified_l1(f, rel_err)
        plan = _plan(f, enc.grid)
        got = ("one block" if plan.q == enc.grid[0] else "long rows" if plan.per_row
               else "two threads" if plan.threads == 2 else "short rows")
        assert got == (kind if cpus == 2 or kind != "two threads" else "short rows"), (n, m)
        assert enc.hi / enc.lo <= 1 + 2 * rel_err
        assert enc.lo <= _lebesgue(n) <= enc.hi, (n, m, enc)
