"""Residue-class selection and the block-thinning transform."""

import math

import numpy as np
import pytest

from expsums import modulus
from expsums.core import IntegerSet, TrigPoly, indicator_poly
from expsums.errors import HypothesisError, SupportError
from expsums.kernels import FlatTopKernel, flat_top_build
from expsums.modulus import (ResidueFilter, block_structure,
                             brute_force_modulus, good_modulus,
                             residue_filter, thinning_bound_factor,
                             thinning_transform)


def test_residue_filter_reduces_s():
    assert ResidueFilter(10, 13).s == 3
    assert ResidueFilter(4, -1).s == 3
    assert ResidueFilter(7, 7).s == 0


def test_residue_filter_set():
    I = IntegerSet.from_iterable(range(20))
    assert residue_filter(I, 5, 2).elements == (2, 7, 12, 17)
    assert residue_filter(I, 25, 21).elements == ()


def test_good_modulus_interval_8():
    # 8 evenly spread residues force the second rung of the 4^j ladder
    res = good_modulus(IntegerSet.from_iterable(range(8)))
    assert (res.q, res.s, res.j0) == (4, 0, 1)
    assert res.filtered.elements == (0, 4)
    assert res.trace == ((4, 0, 2),)


def test_good_modulus_interval_64():
    res = good_modulus(IntegerSet.from_iterable(range(64)))
    assert (res.q, res.s, res.j0) == (16, 0, 2)
    assert res.filtered.elements == (0, 16, 32, 48)


def test_good_modulus_window_bounds():
    res = good_modulus(IntegerSet.from_iterable(range(8)))
    assert res.lower_bound == pytest.approx(8 ** (1 / 3) / 8)
    assert res.upper_bound == pytest.approx(2.0)
    assert res.bounds_ok


def test_good_modulus_requires_eight_elements():
    with pytest.raises(HypothesisError) as err:
        good_modulus(IntegerSet.from_iterable(range(7)))
    assert "|I| >= 8" in err.value.condition


def test_good_modulus_tie_prefers_smallest_residue():
    # all residues mod 4 equally occupied, class 0 must win the tie
    res = good_modulus(IntegerSet.from_iterable(range(16)))
    assert res.s == 0


def test_good_modulus_brute_force_agreement():
    rng = np.random.default_rng(606)
    for _ in range(50):
        size = int(rng.integers(8, 400))
        gaps = rng.integers(1, 30, size=size)
        I = IntegerSet.from_iterable(int(x) for x in np.cumsum(gaps))
        res = good_modulus(I)
        assert res.bounds_ok, (len(I), res.q, len(res.filtered))
        assert (res.j0, len(res.filtered)) == brute_force_modulus(I)


def test_good_modulus_sparse_set():
    # a geometric set: every residue class eventually singles out
    I = IntegerSet.from_iterable(2 ** k for k in range(3, 20))
    res = good_modulus(I)
    assert res.bounds_ok
    assert len(res.filtered) <= res.upper_bound


def test_good_modulus_json_fields():
    d = good_modulus(IntegerSet.from_iterable(range(8))).to_json_dict()
    assert set(d) == {"q", "s", "j0", "filtered", "trace", "source_size",
                      "lower_bound", "upper_bound"}


def test_block_structure_round_trip():
    F = TrigPoly(1, {0: 1.0, 1: 2.0, 25: 1j, -24: -3.0})
    blocks = block_structure(F, 2, 25)
    assert blocks[0].terms == {(0,): 1 + 0j, (1,): 2 + 0j}
    assert blocks[1].terms == {(0,): 1j}
    assert blocks[-1].terms == {(1,): -3 + 0j}
    rebuilt = {(k * 25 + l,): c for k, f_k in blocks.items()
               for (l,), c in f_k.terms.items()}
    assert rebuilt == F.terms


def test_block_structure_rejects_stray_frequency():
    with pytest.raises(SupportError):
        block_structure(TrigPoly(1, {3: 1.0}), 2, 25)


def test_block_structure_parameter_guard():
    with pytest.raises(ValueError):
        block_structure(TrigPoly(1, {0: 1.0}), 5, 10)  # needs 2*d1 < d2


def test_thinning_bound_factor_frozen():
    # 32 pi (2 + log 3)
    assert thinning_bound_factor(1.0) == pytest.approx(311.5064832768893)


def test_thinning_bound_factor_monotone():
    assert thinning_bound_factor(0.5) > thinning_bound_factor(1.0)
    assert thinning_bound_factor(1.0) > thinning_bound_factor(2.0)


def test_thinning_selects_exact_blocks():
    """Surviving blocks keep their coefficients bit for bit."""
    d1, d2, delta, q = 5, 25, 1.0, 4
    blocks = {k: TrigPoly(1, {k % 3 - 1: float(k + 1), 4: 0.5j})
              for k in range(10)}
    F = TrigPoly(1, {(k * d2 + l,): c for k, f_k in blocks.items()
                     for (l,), c in f_k.terms.items()})
    thinned, factor = thinning_transform(F, d1, d2, delta,
                                         ResidueFilter(q, 2))
    expect = {(k * d2 + l,): c for k, f_k in blocks.items() if k % q == 2
              for (l,), c in f_k.terms.items()}
    assert thinned.terms == expect
    assert factor == pytest.approx(thinning_bound_factor(delta))


def test_thinning_empty_survivor_class():
    d1, d2 = 5, 25
    F = indicator_poly(IntegerSet.from_iterable([0, d2, 2 * d2]))
    thinned, _ = thinning_transform(F, d1, d2, 1.0, ResidueFilter(4, 3))
    assert thinned.is_zero


def test_thinning_seeded_identity_sweep():
    rng = np.random.default_rng(707)
    for _ in range(20):
        d1 = int(rng.integers(4, 10))
        delta = float(rng.uniform(0.5, 1.5))
        m = math.ceil(delta * d1 / 2)
        if not 2 <= m < d1:
            continue
        d2 = int(math.ceil((2 + 2 * delta) * d1 + 4)) + int(rng.integers(0, 5))
        q = int(rng.choice([4, 5, 8, 13]))
        s = int(rng.integers(0, q))
        keys = sorted(int(k) for k in
                      rng.choice(30, size=int(rng.integers(3, 12)),
                                 replace=False))
        blocks = {}
        for k in keys:
            cnt = int(rng.integers(1, 2 * d1 + 2))
            fr = rng.choice(2 * d1 + 1, size=cnt, replace=False) - d1
            blocks[k] = TrigPoly(1, {int(f): complex(x, y) for f, x, y in
                                     zip(fr, rng.standard_normal(cnt),
                                         rng.standard_normal(cnt))})
        F = TrigPoly(1, {(k * d2 + l,): c for k, f_k in blocks.items()
                         for (l,), c in f_k.terms.items()})
        thinned, _ = thinning_transform(F, d1, d2, delta, ResidueFilter(q, s))
        expect = {(k * d2 + l,): c for k, f_k in blocks.items()
                  if k % q == s for (l,), c in f_k.terms.items()}
        assert thinned.terms == expect


def test_thinning_rejects_inexact_periodized_kernel(monkeypatch):
    # K(25) = 4/9 on block 1, which q = 4, s = 0 drops: the kernel selection
    # and direct block selection still agree, so only the exactness check
    # can see the stray value
    def corrupted(m, n):
        kern = flat_top_build(m, n)
        return FlatTopKernel(m, n, np.append(kern.freqs, 25),
                             np.append(kern.values, 4))

    monkeypatch.setattr(modulus, "flat_top_build", corrupted)
    F = TrigPoly(1, {0: 1.0, 25: 1.0})
    with pytest.raises(RuntimeError, match="periodized kernel is 4/9 at "
                                           "occupied frequency 25"):
        thinning_transform(F, 5, 25, 1.0, ResidueFilter(4, 0))


@pytest.mark.parametrize("q, s", [(2 ** 62, 0), (2 ** 62 + 5, 3)])
def test_thinning_period_beyond_int64(q, s):
    # q*d2 does not fit in int64, so the residues mod q*d2 are Python ints
    d1, d2 = 10, 44
    F = TrigPoly(1, {(k * d2 + l,): float(k % 7 + l + 20)
                     for k in (-3, 0, 3, 5, 2 ** 40) for l in (-10, 0, 7)})
    thinned, _ = thinning_transform(F, d1, d2, 1.0, ResidueFilter(q, s))
    expect = {(f,): c for (f,), c in F.terms.items()
              if ((f + d2 // 2) // d2) % q == s}
    assert expect and thinned.terms == expect


def test_fractional_moduli_and_degrees_are_refused():
    # int() would truncate each of these: s = 2.5 to 2, q = 4.5 to 4 and
    # d1, d2 = 10.9, 44.5 to 10, 44; an integral float is the integer it names
    with pytest.raises(ValueError, match="residue s 2.5 is not an integer"):
        ResidueFilter(13, 2.5)
    assert ResidueFilter(13.0, 15.0) == ResidueFilter(13, 2)
    I = IntegerSet.from_iterable(range(20))
    with pytest.raises(ValueError, match="modulus q 4.5 is not an integer"):
        residue_filter(I, 4.5, 1)
    assert residue_filter(I, 4.0, 1.0) == residue_filter(I, 4, 1)
    F = TrigPoly(1, {(k * 44 + l,): 1.0 for k in range(6) for l in (-3, 0, 5)})
    for d1, d2, what in ((10.9, 44, "d1 10.9"), (10, 44.5, "d2 44.5")):
        with pytest.raises(ValueError, match=f"{what} is not an integer"):
            thinning_transform(F, d1, d2, 1.0, ResidueFilter(4, 0))
    assert (thinning_transform(F, 10.0, 44.0, 1.0, ResidueFilter(4, 0))
            == thinning_transform(F, 10, 44, 1.0, ResidueFilter(4, 0)))


def test_thinning_hypothesis_guards():
    F = TrigPoly(1, {0: 1.0})
    cases = [
        ((5, 23, 1.0, 4), "(2+2*delta)*d1 + 4 <= d2"),
        ((5, 40, 1.0, 3), "q >= 4"),
        ((5, 40, 0.2, 4), "M >= 2"),
        ((5, 44, 2.5, 4), "M < N"),
    ]
    for (d1, d2, delta, q), cond in cases:
        with pytest.raises(HypothesisError) as err:
            thinning_transform(F, d1, d2, delta, ResidueFilter(q, 0))
        assert err.value.condition == cond


def test_brute_force_modulus_known():
    # {0,4,8,12}: classes mod 16 are singletons, two rungs needed
    assert brute_force_modulus(IntegerSet.from_iterable([0, 4, 8, 12])) \
        == (2, 1)


@pytest.mark.parametrize("d1,d2", [(3, 1000), (3, 7)])
def test_block_structure_matches_per_term_split_near_int64_limits(d1, d2):
    rng = np.random.default_rng(4)
    centres = [-(2 ** 63) // d2 + 1, -5, 0, 7, (2 ** 63 - 1) // d2 - 1]
    terms = {k * d2 + int(l): complex(*rng.standard_normal(2))
             for k in centres for l in rng.integers(-d1, d1 + 1, size=4)}
    F = TrigPoly(1, terms)
    expect = {}
    for (f,), c in F.terms.items():
        k = (f + d2 // 2) // d2
        expect.setdefault(k, {})[(f - k * d2,)] = c
    blocks = block_structure(F, d1, d2)
    assert list(blocks) == sorted(expect)
    assert {k: dict(b.terms) for k, b in blocks.items()} == expect
    if 2 * d1 + 1 < d2:  # otherwise every integer fits a block
        stray = d2 * 10 ** 15 + d1 + 1
        with pytest.raises(SupportError, match=str(stray)):
            block_structure(TrigPoly(1, {0: 1.0, stray: 1.0}), d1, d2)


def test_residue_filter_modulus_beyond_int64():
    I = IntegerSet.from_iterable([5, -3, 7, -(2 ** 63)])
    for q, s in ((2 ** 64, 5), (2 ** 64, 2 ** 64 - 3), (2 ** 63, 0), (2 ** 70, 1)):
        expect = tuple(k for k in I if k % q == s % q)
        assert residue_filter(I, q, s).elements == expect
