"""Exact norm identities across code paths.

Polynomials whose L1 norms are equal by proof must get intersecting
certified enclosures, whichever way their grids are taken: whole in one
block, streamed in coset rows that assign their residues, or streamed in
shorter rows that fold them.  Inputs come from seeded numpy generators.
"""

import numpy as np
import pytest

from expsums.core import TrigPoly
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
