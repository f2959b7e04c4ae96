"""Sets, trigonometric polynomials, and their JSON round trips."""

import json
import math

import numpy as np
import pytest

from expsums.core import (IntegerSet, LatticeSet, TrigPoly, char_e, dumps,
                          from_json_obj, indicator_poly, loads, recentre)


def test_char_e_basic_values():
    assert char_e(0) == pytest.approx(1.0)
    assert char_e(0.5) == pytest.approx(-1.0)
    assert char_e(0.25) == pytest.approx(1j)
    # period 1
    for t in (0.1, 0.37, 2.9):
        assert char_e(t + 1) == pytest.approx(char_e(t))


def test_char_e_vectorized():
    t = np.linspace(0, 1, 7)
    v = char_e(t)
    assert v.shape == (7,)
    assert np.allclose(np.abs(v), 1.0)


def test_integer_set_sorts_and_dedupes():
    A = IntegerSet.from_iterable([5, 1, 3, 1, 5])
    assert A.elements == (1, 3, 5)
    assert len(A) == 3
    assert 3 in A and 2 not in A


def test_integer_set_accessors():
    A = IntegerSet.from_iterable([-4, 10, 2])
    assert A.min == -4
    assert A.max == 10
    assert A.diameter == 14
    assert A.translate(3).elements == (-1, 5, 13)


def test_integer_set_membership():
    A = IntegerSet.from_iterable([-7, 0, 3, 10 ** 12])
    for x in (-7, 0, 3, 10 ** 12, np.int64(3)):
        assert x in A
    for x in (-8, -1, 1, 4, 10 ** 12 - 1):
        assert x not in A
    # past both ends
    assert -(2 ** 70) not in A and 2 ** 70 not in A
    assert 0 not in IntegerSet.from_iterable([])


def test_integer_set_empty_is_allowed():
    A = IntegerSet.from_iterable([])
    assert len(A) == 0
    assert A.elements == ()


def test_integer_set_rejects_wide_values():
    with pytest.raises((OverflowError, ValueError)):
        IntegerSet.from_iterable([2 ** 70])


def test_integer_set_json_round_trip():
    A = IntegerSet.from_iterable([3, -1, 7])
    d = A.to_json_dict()
    assert d == {"elements": [-1, 3, 7]}
    assert from_json_obj(d) == A


def test_lattice_set_lex_order_and_coordinates():
    L = LatticeSet.from_iterable(2, [(2, 1), (1, 3), (1, 2)])
    assert L.points == ((1, 2), (1, 3), (2, 1))
    assert L.rank == 2
    # coordinates are 1-based axes
    assert L.coordinates(1) == (1, 2)
    assert L.coordinates(2) == (1, 2, 3)


def test_lattice_set_json_round_trip():
    L = LatticeSet.from_iterable(2, [(0, 5), (-2, 3)])
    back = from_json_obj(L.to_json_dict())
    assert back == L


def test_trig_poly_normalizes_rank1_keys():
    f = TrigPoly(1, {3: 1.0, -2: 2j})
    assert set(f.terms) == {(3,), (-2,)}
    assert f.degree == (3,)
    assert f.support_box == ((-2, 3),)


def test_trig_poly_eval_matches_direct_sum():
    rng = np.random.default_rng(101)
    for _ in range(20):
        n = int(rng.integers(1, 9))
        freqs = rng.integers(-30, 31, size=n)
        coeffs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        f = TrigPoly(1, {})
        terms = {}
        for a, c in zip(freqs, coeffs):
            terms[int(a)] = terms.get(int(a), 0) + complex(c)
        f = TrigPoly(1, terms)
        t = float(rng.random())
        direct = sum(c * char_e(a * t) for (a,), c in f.terms.items())
        assert f.eval_at(t) == pytest.approx(direct, abs=1e-12)


def test_trig_poly_rank2_eval():
    f = TrigPoly(2, {(1, -1): 1.0, (0, 2): 1j})
    t = (0.3, 0.7)
    direct = char_e(1 * 0.3 + -1 * 0.7) + 1j * char_e(2 * 0.7)
    assert f.eval_at(t) == pytest.approx(direct, abs=1e-12)


def test_trig_poly_shift():
    f = TrigPoly(1, {3: 1.0, -2: 2j})
    g = f.shifted((5,))
    assert set(g.terms) == {(8,), (3,)}
    # shifting multiplies by a unimodular factor pointwise, norm data unchanged
    t = 0.19
    assert abs(g.eval_at(t)) == pytest.approx(abs(f.eval_at(t)), abs=1e-12)


def test_trig_poly_zero():
    z = TrigPoly(1, {})
    assert z.is_zero
    assert not TrigPoly(1, {0: 1.0}).is_zero


def test_trig_poly_arrays_sorted():
    f = TrigPoly(1, {5: 1.0, -3: 2.0, 0: 3.0})
    freqs, coeffs = f.arrays()
    assert freqs[:, 0].tolist() == [-3, 0, 5]
    assert coeffs.tolist() == [2.0, 3.0, 1.0]


def test_trig_poly_json_round_trip():
    f = TrigPoly(2, {(1, -4): 1 + 2j, (0, 0): -1.5})
    obj = json.loads(dumps(f))
    assert obj["rank"] == 2
    # each term is [[frequencies], [re, im]]
    assert loads(dumps(f)) == f


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf,
                                 complex(1, math.nan), complex(math.inf, 0)])
def test_trig_poly_rejects_non_finite_coefficient(bad):
    with pytest.raises(ValueError, match=r"frequency \(3,\)"):
        TrigPoly(1, {(0,): 1, (3,): bad})


def test_trig_poly_rejects_overflowing_duplicate_terms():
    with pytest.raises(ValueError, match="not finite"):
        TrigPoly(1, [((2,), 1e308), ((2,), 1e308)])


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_trig_poly_json_rejects_non_finite(literal):
    text = ('{"rank": 2, "terms": [[[0, 0], [1.0, 0.0]], '
            f'[[1, -2], [0.5, {literal}]]]}}')
    with pytest.raises(ValueError, match=r"frequency \(1, -2\)"):
        TrigPoly.from_json_dict(json.loads(text))
    with pytest.raises(ValueError):
        loads(text)


def test_indicator_poly_integer_set():
    A = IntegerSet.from_iterable([1, 4])
    f = indicator_poly(A)
    assert f.terms == {(1,): 1 + 0j, (4,): 1 + 0j}


def test_indicator_poly_lattice_set():
    L = LatticeSet.from_iterable(2, [(1, 1), (2, 5)])
    f = indicator_poly(L)
    assert set(f.terms) == {(1, 1), (2, 5)}
    assert f.rank == 2


def test_indicator_poly_rejects_empty():
    with pytest.raises(ValueError):
        indicator_poly(IntegerSet.from_iterable([]))


def test_recentre_halves_degree():
    f = indicator_poly(IntegerSet.from_iterable(range(100, 121)))
    g, shift = recentre(f)
    assert shift == (110,)
    assert g.degree == (10,)
    # moduli agree pointwise
    for t in (0.0, 0.21, 0.83):
        assert abs(g.eval_at(t)) == pytest.approx(abs(f.eval_at(t)), abs=1e-12)


def test_recentre_rank2():
    f = TrigPoly(2, {(10, -6): 1.0, (14, -2): 1.0})
    g, shift = recentre(f)
    assert shift == (12, -4)
    assert g.support_box == ((-2, 2), (-2, 2))


def test_from_json_obj_dispatch():
    assert isinstance(from_json_obj({"elements": [1, 2]}), IntegerSet)
    assert isinstance(from_json_obj({"rank": 2, "points": [[1, 2]]}), LatticeSet)
    assert isinstance(from_json_obj({"rank": 1, "terms": [[[3], [1, 0]]]}),
                      TrigPoly)
    with pytest.raises((KeyError, ValueError)):
        from_json_obj({"bogus": 1})
