"""Sets, trigonometric polynomials, and their JSON round trips."""

import cmath
import json
import math
import re
import warnings
from decimal import Decimal
from fractions import Fraction
from types import MappingProxyType

import numpy as np
import pytest

from expsums import core
from expsums.core import (IntegerSet, LatticeSet, TrigPoly, _int64_rows, _run_starts,
                          char_e, dumps, from_json_obj, indicator_poly, loads, recentre)


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


def test_trig_poly_json_sums_repeated_frequency():
    f = TrigPoly.from_json_dict({"rank": 1, "terms": [[[0], [1, 0]], [[0], [2, 0]]]})
    assert f.terms == {(0,): 3 + 0j}
    g = TrigPoly.from_json_dict({"rank": 2, "terms": [[[1, -1], [1, 2]], [[0, 0], [5, 0]],
                                                      [[1, -1], [0.5, -1]]]})
    assert g == TrigPoly(2, {(0, 0): 5, (1, -1): 1.5 + 1j})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf,
                                 complex(1, math.nan), complex(math.inf, 0)])
def test_trig_poly_rejects_non_finite_coefficient(bad):
    with pytest.raises(ValueError, match=r"frequency \(3,\)"):
        TrigPoly(1, {(0,): 1, (3,): bad})


@pytest.mark.parametrize("big", [10 ** 400, -(10 ** 400), Fraction(10 ** 400, 3)],
                         ids=["int", "negative-int", "fraction"])
def test_coefficient_past_float64_is_not_finite(big):
    # numpy's conversion raised a bare OverflowError for these
    message = r"coefficient \(inf\+0j\) at frequency \(1,\) is not finite"
    for make in (lambda: TrigPoly(1, {1: big}), lambda: TrigPoly(1, {0: 1j, 1: big}),
                 lambda: TrigPoly.from_arrays(1, [1], [big]),
                 lambda: TrigPoly.from_arrays(1, [0, 1], [0.5, big])):
        with pytest.raises(ValueError, match=message):
            make()


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


@pytest.mark.parametrize("part, shown", [("true", "True"), ("false", "False"),
                                         ('"1"', "'1'"), ("null", "None"), ("[1]", "[1]"),
                                         ("1" + "0" * 400, "1" + "0" * 400)],
                         ids=["true", "false", "string", "null", "list", "int-past-float64"])
@pytest.mark.parametrize("where", ["real", "imag"])
def test_trig_poly_json_coefficient_part_must_be_a_finite_number(part, shown, where):
    # complex() read true as 1 and false as 0, and raised a bare TypeError
    # for a string or null and an OverflowError past float64
    pair = f"[{part}, 0.0]" if where == "real" else f"[1.0, {part}]"
    text = f'{{"rank": 2, "terms": [[[0, 0], [1.0, 0.0]], [[1, -2], {pair}]]}}'
    with pytest.raises(ValueError, match=re.escape(
            f"coefficient part at frequency (1, -2) must be a finite number, got {shown}")):
        TrigPoly.from_json_dict(json.loads(text))
    # integers within float64 are numbers, as they always were
    text = '{"rank": 1, "terms": [[[3], [2, -1]]]}'
    assert TrigPoly.from_json_dict(json.loads(text)) == TrigPoly(1, {3: 2 - 1j})


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


# --- the array representation -------------------------------------------


def _reference_terms(rank, terms):
    """The dict normalization the array constructor replaced, kept as the
    reference: coerce each key, sum duplicates in input order, drop zeros."""
    out = {}
    for freq, coeff in (terms.items() if isinstance(terms, dict) else terms):
        if isinstance(freq, (int, np.integer)):
            freq = (int(freq),)
        freq = tuple(int(f) for f in freq)
        assert len(freq) == rank
        coeff = complex(coeff)
        if coeff == 0:
            continue
        total = out.get(freq, 0) + coeff
        if not cmath.isfinite(total):
            raise ValueError(f"coefficient {total} at frequency {freq} is not finite")
        if total == 0:
            del out[freq]
        else:
            out[freq] = total
    return out


def _bits(items):
    # repr keeps the sign of zero and every bit of a float
    return repr(sorted(items))


def _random_key(rng, rank, lo, hi):
    if rank == 1:
        kind = int(rng.integers(3))
        v = int(rng.integers(lo, hi))
        return (v, np.int64(v), (v,))[kind]
    return tuple(int(x) for x in rng.integers(lo, hi, size=rank))


@pytest.mark.parametrize("rank", [1, 2])
def test_constructor_matches_reference_normalization(rank):
    rng = np.random.default_rng(2024 + rank)
    for trial in range(200):
        n = int(rng.integers(0, 40))
        span = int(rng.integers(1, 12))
        pairs = []
        for _ in range(n):
            c = complex(*rng.standard_normal(2)) * 10.0 ** rng.integers(-12, 13)
            pick = int(rng.integers(6))
            if pick == 0:
                c = 0j
            elif pick == 1:
                c = complex(-0.0, c.imag)
            elif pick == 2 and pairs:
                c = -pairs[-1][1]  # cancels the previous term when keys agree
            pairs.append((_random_key(rng, rank, -span, span + 1), c))
        ref = _reference_terms(rank, pairs)
        f = TrigPoly(rank, pairs)
        assert _bits(f.terms.items()) == _bits(ref.items())
        assert list(f.terms) == sorted(ref)
        assert f.freqs.shape == (len(ref), rank) and f.freqs.dtype == np.int64
        assert f.coeffs.dtype == np.complex128
        as_dict = dict(pairs)
        assert _bits(TrigPoly(rank, as_dict).terms.items()) == _bits(
            _reference_terms(rank, as_dict).items())
        g = TrigPoly.from_arrays(rank, [k if isinstance(k, tuple) else (k,)
                                        for k, _ in pairs] or np.zeros((0, rank)),
                                 [c for _, c in pairs])
        assert g == f


def test_duplicates_sum_in_input_order():
    rng = np.random.default_rng(7)
    coeffs = [complex(*rng.standard_normal(2)) * 10.0 ** rng.integers(-12, 13)
              for _ in range(200)]
    pairs = [(5, c) for c in coeffs] + [(1, 1e16), (1, 1.0), (1, -1e16)]
    ref = _reference_terms(1, pairs)
    assert _bits(TrigPoly(1, pairs).terms.items()) == _bits(ref.items())
    assert (1,) not in ref  # 1e16 + 1 rounds back to 1e16, then cancels


def test_constructor_mixed_key_types_and_overflowing_duplicates():
    f = TrigPoly(1, [(3, 1.0), (np.int64(3), 2.0), ((3,), 0.5), (-1, 1j)])
    assert f.terms == {(-1,): 1j, (3,): 3.5 + 0j}
    with pytest.raises(ValueError, match=r"frequency \(7,\)"):
        TrigPoly(1, [(7, 1e308), (np.int64(7), 1e308), (1, 1.0)])
    with pytest.raises(ValueError, match="rank 2"):
        TrigPoly(2, {(1, 2): 1.0, 3: 1.0})
    with pytest.raises(OverflowError):
        TrigPoly(1, {2 ** 63: 1.0})


def test_from_arrays_checks_shapes():
    f = TrigPoly.from_arrays(1, [4, -2, 4], [1.0, 2j, 0.5])
    assert f.terms == {(-2,): 2j, (4,): 1.5 + 0j}
    with pytest.raises(ValueError, match="shape"):
        TrigPoly.from_arrays(1, [[1, 2], [3, 4]], [1.0, 1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="shape"):
        TrigPoly.from_arrays(2, [[1, 2]], [1.0, 2.0])


@pytest.mark.parametrize("coeffs, shape", [
    ([[1.0], [2.0]], "(2, 1)"), (np.ones((2, 1)), "(2, 1)"),
    (np.ones((1, 2)), "(1, 2)"), (np.float64(3.0), "()"), ([[1.0, 2.0]], "(1, 2)")])
def test_from_arrays_takes_one_coefficient_per_frequency(coeffs, shape):
    # flattened, a column of two values would pass for two coefficients; the
    # constructor refuses a sequence as a coefficient, and so does this
    freqs = [1] if shape == "()" else [1, 2]
    with pytest.raises(ValueError, match=rf"coefficients of shape {re.escape(shape)}"):
        TrigPoly.from_arrays(1, freqs, coeffs)
    with pytest.raises(ValueError, match="shape"):
        TrigPoly.from_arrays(2, [[1, 2], [3, 4]], np.ones((2, 1)))
    assert TrigPoly.from_arrays(1, [1, 2], [1.0, 2.0]) == TrigPoly(1, {1: 1.0, 2: 2.0})


def test_non_integral_frequencies_and_elements_are_rejected():
    # int() would round each of these down in silence
    makers = [lambda: TrigPoly(1, {2.5: 1.0}),
              lambda: IntegerSet([1, 2.5]),
              lambda: IntegerSet(np.array([1.5, 2.5])),
              lambda: LatticeSet(2, [(1, 2.7)]),
              lambda: TrigPoly.from_arrays(1, np.array([2.5]), [1.0]),
              lambda: TrigPoly.from_json_dict({"rank": 1,
                                               "terms": [[[2.5], [1.0, 0.0]]]})]
    for make, bad in zip(makers, ("2.5", "2.5", "1.5", "2.7", "2.5", "2.5")):
        with pytest.raises(ValueError, match=f"{bad} is not an integer"):
            make()
    # integral floats stay accepted
    assert TrigPoly(1, {2.0: 1.0}) == TrigPoly(1, {2: 1.0})
    assert IntegerSet(np.array([1.0, 2.0])) == IntegerSet([1, 2])
    assert LatticeSet(2, [(1, 2.0)]) == LatticeSet(2, [(1, 2)])
    assert TrigPoly.from_arrays(1, np.array([2.0]), [1.0]) == TrigPoly(1, {2: 1.0})
    assert TrigPoly.from_json_dict({"rank": 1, "terms": [[[2.0], [1.0, 0.0]]]}) \
        == TrigPoly(1, {2: 1.0})


def test_int64_range_error_is_also_a_value_error():
    # an overflow to whoever asks for one, and a bad value to callers that
    # map ValueError (the CLI's exit 2)
    with pytest.raises(OverflowError, match="side 20{23} outside") as info:
        core._check_i64(2 * 10 ** 23, "side")
    assert isinstance(info.value, ValueError)
    with pytest.raises(ValueError, match="outside the signed 64-bit range"):
        IntegerSet.from_iterable([2 ** 63])


def test_from_arrays_refuses_unsigned_frequencies_past_int64():
    # astype(np.int64) would wrap 2^63 + 5 to -2^63 + 5 in silence
    with pytest.raises(OverflowError, match=str(2 ** 63 + 5)):
        TrigPoly.from_arrays(1, np.array([2 ** 63 + 5], dtype=np.uint64), [1.0])
    assert TrigPoly.from_arrays(1, np.array([5, 3], dtype=np.uint64), [1.0, 2.0]) \
        == TrigPoly(1, {3: 2.0, 5: 1.0})


def test_non_integral_queries_find_nothing():
    # int() would round 2.5 down to the element 2
    A = IntegerSet([2])
    assert 2.5 not in A
    assert 2.0 in A and np.int64(2) in A
    f = TrigPoly(1, {2: 1.0})
    assert f.coefficient((2.5,)) == 0
    assert f.coefficient((2.0,)) == 1 and f.coefficient(2) == 1


@pytest.mark.parametrize("cls, key", [(TrigPoly, "terms"), (LatticeSet, "points")])
def test_json_rank_must_be_an_integer(cls, key):
    for bad in (1.5, 2.7):
        with pytest.raises(ValueError, match=f"rank {bad} is not an integer"):
            cls.from_json_dict({"rank": bad, key: []})
    assert cls.from_json_dict({"rank": 2.0, key: []}).rank == 2


def test_degree_of_most_negative_frequency():
    f = TrigPoly(1, {-2 ** 63: 1, 5: 1})
    assert f.degree == (2 ** 63,)
    assert f.support_box == ((-2 ** 63, 5),)
    assert all(type(x) is int for x in f.degree)


def test_shift_and_translate_refuse_to_wrap():
    f = TrigPoly(1, {2 ** 63 - 10: 1.0, 0: 1.0})
    with pytest.raises(OverflowError):
        f.shifted(11)
    assert f.shifted(9).support_box == ((9, 2 ** 63 - 1),)
    g = TrigPoly(2, {(0, -2 ** 63 + 3): 1.0})
    with pytest.raises(OverflowError):
        g.shifted((0, -4))
    A = IntegerSet.from_iterable([-2 ** 63 + 1, 7])
    with pytest.raises(OverflowError):
        A.translate(-2)
    with pytest.raises(OverflowError):
        IntegerSet.from_iterable([2 ** 63 - 1]).translate(1)
    # a shift outside int64 is fine when the result fits
    B = IntegerSet.from_iterable([2 ** 62, 2 ** 63 - 1])
    assert B.translate(-2 ** 63 - 2 ** 62 + 5).elements == (-2 ** 63 + 5,
                                                          -2 ** 62 + 4)


def test_shift_and_translate_take_integer_shifts():
    # a shift is an integer: 2.5 raises, naming it, and 2.0 is 2
    f = TrigPoly(1, {0: 1.0})
    for bad in ((2.5,), (np.float64(2.5),), 2.5):
        with pytest.raises(ValueError, match="shift 2.5 is not an integer"):
            f.shifted(bad)
    with pytest.raises(ValueError, match="shift 2.5 is not an integer"):
        TrigPoly(2, {(0, 0): 1.0}).shifted((1, 2.5))
    with pytest.raises(ValueError, match="shift 2.5 is not an integer"):
        IntegerSet([1, 2]).translate(2.5)
    assert f.shifted((2.0,)).support_box == f.shifted(2.0).support_box == ((2, 2),)
    assert type(f.shifted((2.0,)).support_box[0][0]) is int
    assert IntegerSet([1, 2]).translate(2.0).elements == (3, 4)
    assert IntegerSet([1, 2]).translate(np.int64(2)).elements == (3, 4)


def test_recentre_near_int64_limits():
    lo, hi = -2 ** 62 - 3, 2 ** 62 + 5
    f = TrigPoly(1, {lo: 1.0, hi: 2j, 2 ** 62: 0.5})
    g, shift = recentre(f)
    assert shift == ((lo + hi) // 2,)
    assert list(g.terms) == [(lo - shift[0],), (2 ** 62 - shift[0],), (hi - shift[0],)]
    assert g.degree == (2 ** 62 + 4,)
    top = TrigPoly(2, {(2 ** 62, -2 ** 62): 1.0, (2 ** 63 - 1, -2 ** 63): 1.0})
    g, shift = recentre(top)
    assert shift == ((2 ** 62 + 2 ** 63 - 1) // 2, (-2 ** 62 - 2 ** 63) // 2)
    assert g.support_box == ((2 ** 62 - shift[0], 2 ** 63 - 1 - shift[0]),
                             (-2 ** 63 - shift[1], -2 ** 62 - shift[1]))
    # the recentred degree is ceil(diameter / 2) on both axes
    assert g.degree == (2 ** 61, 2 ** 61)


def test_arrays_and_views_are_read_only():
    f = TrigPoly(2, {(1, 2): 1.0, (0, 5): 2j})
    freqs, coeffs = f.arrays()
    assert freqs is f.freqs and coeffs is f.coeffs
    for arr in (freqs, coeffs):
        with pytest.raises(ValueError):
            arr[0] = 0
    with pytest.raises(TypeError):
        f.terms[(1, 2)] = 3.0
    with pytest.raises(AttributeError):
        f.rank = 3
    g = indicator_poly(IntegerSet.from_iterable([4, 9]))
    with pytest.raises(ValueError):
        g.coeffs[0] = 5.0
    A = IntegerSet.from_iterable([3, 1])
    L = LatticeSet.from_iterable(2, [(1, 1)])
    for arr in (A.array, L.array):
        with pytest.raises(ValueError):
            arr[0] = 0
    with pytest.raises(AttributeError):
        A.array = np.array([0])


def test_equality_and_hashing():
    f = TrigPoly(1, {2: 1.0, 3: 1j})
    assert f == TrigPoly(1, [(3, 0.5j), ((2,), 1.0), (3, 0.5j)])
    assert f != TrigPoly(1, {2: 1.0})
    assert f != TrigPoly(2, {(2, 0): 1.0, (3, 0): 1j})
    with pytest.raises(TypeError):
        hash(f)
    A = IntegerSet.from_iterable([5, 1, 3])
    B = IntegerSet((1, 3, 5))
    assert A == B and hash(A) == hash(B) and len({A, B}) == 1
    assert A != IntegerSet.from_iterable([1, 3, 6])
    assert A != A.elements
    L = LatticeSet.from_iterable(2, [(0, -1), (-1, 5)])
    assert L == LatticeSet(2, ((-1, 5), (0, -1))) and len({L, L}) == 1
    with pytest.raises(ValueError, match="duplicate"):
        IntegerSet((1, 1))
    with pytest.raises(ValueError, match="duplicate"):
        LatticeSet(2, ((1, 1), (1, 1)))


def test_sets_from_mixed_and_signed_input():
    A = IntegerSet.from_iterable(x for x in [np.int64(-3), 7, -3, 2 ** 62])
    assert A.elements == (-3, 7, 2 ** 62)
    assert all(type(x) is int for x in A)
    L = LatticeSet.from_iterable(2, [(0, -3), (-1, 5), (0, -3), (-1, -5)])
    assert L.points == ((-1, -5), (-1, 5), (0, -3))
    assert L.to_json_dict() == {"rank": 2, "points": [[-1, -5], [-1, 5], [0, -3]]}
    with pytest.raises(OverflowError):
        LatticeSet.from_iterable(2, [(0, 2 ** 63)])


def test_eval_at_reduces_large_phases_exactly():
    # the phase 2^40 * t must be reduced mod 1 before rounding; the float
    # product 2^40 * t is off by about 6e-5 of a turn
    t = 0.1234567
    exact = Fraction(2 ** 40) * Fraction(t) % 1
    ref = cmath.exp(2j * cmath.pi * float(exact))
    assert abs(TrigPoly(1, {2 ** 40: 1}).eval_at(t) - ref) <= 1e-15
    f = TrigPoly(2, {(2 ** 50, -(2 ** 45)): 1.0, (3, 1): 0.5})
    s = (0.3, 0.7)
    ph = [Fraction(2 ** 50) * Fraction(s[0]) - Fraction(2 ** 45) * Fraction(s[1]),
          Fraction(3) * Fraction(s[0]) + Fraction(s[1])]
    ref = cmath.exp(2j * cmath.pi * float(ph[0] % 1)) + 0.5 * cmath.exp(
        2j * cmath.pi * float(ph[1] % 1))
    assert abs(f.eval_at(s) - ref) <= 1e-15


@pytest.mark.parametrize("point, rank", [(math.inf, 1), (-math.inf, 1), (math.nan, 1),
                                         (np.float64("inf"), 1), ((0.5, math.nan), 2),
                                         ((math.inf, 0.25), 2)])
def test_eval_at_refuses_a_point_that_is_not_finite(point, rank):
    # a ValueError naming the point, not "cannot convert Infinity to integer
    # ratio" (an OverflowError) or "cannot convert NaN to integer ratio"
    f = TrigPoly(rank, {(1,) * rank: 1.0, (3,) * rank: 2j})
    with pytest.raises(ValueError, match=re.escape(f"point {point!r} is not finite")):
        f.eval_at(point)
    # the zero polynomial too
    with pytest.raises(ValueError, match="is not finite"):
        TrigPoly(rank, {}).eval_at(point)


@pytest.mark.parametrize("point, rank", [("05", 2), ("0.5", 1), (b"05", 2), (None, 1),
                                         (("0", "5"), 2), ((0.5, None), 2)],
                         ids=["str", "float-str", "bytes", "None", "str-coordinates",
                              "None-coordinate"])
def test_eval_at_refuses_a_point_that_is_no_number(point, rank):
    # float() parsed each character of "05" as a coordinate, "0.5" raised
    # numpy's "could not convert string to float: '.'" and None a bare TypeError
    for f in (TrigPoly(rank, {(1,) * rank: 1.0}), TrigPoly(rank, {})):
        with pytest.raises(ValueError, match=re.escape(
                f"point {point!r} is not a number or a sequence of numbers")):
            f.eval_at(point)
    # numbers of any kind still evaluate
    f = TrigPoly(1, {1: 1.0})
    for t in (0.25, np.float32(0.25), Fraction(1, 4), Decimal("0.25"), [0.25], np.array([0.25])):
        assert f.eval_at(t) == f.eval_at(0.25)


# --- sorted input skips the sort --------------------------------------------

def _sorted_path(it):
    """The path every input took before the strictly increasing fast path:
    sort, then keep the first of each run."""
    arr = np.sort(_int64_rows(it, 1, "element", scalars=True)[:, 0])
    return IntegerSet._wrap(arr[_run_starts(arr)])


@pytest.fixture
def sorts(monkeypatch):
    # counts the calls of _run_starts, which only the sorting path makes
    calls = []
    real = core._run_starts
    monkeypatch.setattr(core, "_run_starts", lambda a: calls.append(len(a)) or real(a))
    return calls


@pytest.mark.parametrize("given", [[-7, 0, 3, 2 ** 62], (1, 2, 5), range(-3, 40, 4),
                                   np.array([4, 9, 11]), [5], [], [False, 2, np.int64(3)],
                                   [np.uint64(2 ** 63 - 1)]])
def test_increasing_input_skips_the_sort(sorts, given):
    A = IntegerSet.from_iterable(given)
    assert sorts == []
    want = _sorted_path(given)
    assert A == want and A.elements == want.elements
    assert A.array.dtype == np.int64 and not A.array.flags.writeable


@pytest.mark.parametrize("given", [[3, 1, 2], [1, 2, 2, 3], (5, 5), [2, 1, 1, 0],
                                   np.array([9, 4, 4])])
def test_unsorted_or_repeated_input_is_sorted(sorts, given):
    A = IntegerSet.from_iterable(given)
    assert sorts  # the sorting path
    assert A == _sorted_path(given)
    assert A.elements == tuple(sorted(set(int(x) for x in given)))


def test_increasing_check_does_not_wrap():
    # np.diff wraps at int64: this pair's wrapped difference is positive
    pair = [2 ** 62 + 5, -(2 ** 62) - 5]
    assert np.diff(np.array(pair))[0] > 0
    A = IntegerSet.from_iterable(pair)
    assert A.elements == (-(2 ** 62) - 5, 2 ** 62 + 5)
    assert A == _sorted_path(pair)


def test_sorted_input_keeps_the_integer_checks():
    # an integral float is its integer on either path; 2.5 is refused on both
    assert IntegerSet.from_iterable([1, 2.0, 3]).elements == (1, 2, 3)
    assert IntegerSet.from_iterable([3, 2.0, 1]).elements == (1, 2, 3)
    for bad in ([1, 2.5, 3], [3, 2.5, 1]):
        with pytest.raises(ValueError, match="element 2.5 is not an integer"):
            IntegerSet.from_iterable(bad)


def test_sorted_input_array_stays_the_callers():
    given = np.array([1, 5, 8], dtype=np.int64)
    A = IntegerSet.from_iterable(given)
    assert given.flags.writeable
    given[0] = 100  # no effect on the set
    assert A.elements == (1, 5, 8)
    freqs = np.array([[1], [5], [8]], dtype=np.int64)
    f = TrigPoly.from_arrays(1, freqs, np.ones(3))
    assert freqs.flags.writeable and not f.freqs.flags.writeable
    freqs[0, 0] = 100
    assert f.freqs[:, 0].tolist() == [1, 5, 8]


def test_sorted_terms_keep_the_sign_of_zero():
    # each coefficient is 0 + c on either path, so an imaginary -0.0 prints
    # as 0.0, as the JSON always showed it
    c = complex(1, -0.0)
    for f in (TrigPoly(1, {3: c}), TrigPoly(1, {1: 2.0, 3: c}), TrigPoly(1, {3: c, 1: 2.0}),
              TrigPoly.from_arrays(1, [1, 3], [2.0, c])):
        assert json.dumps(f.to_json_dict()["terms"][-1]) == "[[3], [1.0, 0.0]]"
        assert math.copysign(1.0, f.coeffs[-1].imag) == 1.0


def test_sorted_terms_match_the_sorting_path():
    rng = np.random.default_rng(404)
    for _ in range(50):
        freqs = np.unique(rng.integers(-2 ** 62, 2 ** 62, size=int(rng.integers(1, 30))))
        coeffs = rng.standard_normal(len(freqs)) + 1j * rng.standard_normal(len(freqs))
        coeffs[rng.random(len(freqs)) < 0.3] = 0  # dropped on both paths
        fast = TrigPoly.from_arrays(1, freqs, coeffs)
        order = rng.permutation(len(freqs))  # not increasing: the sort runs
        slow = TrigPoly.from_arrays(1, freqs[order], coeffs[order])
        assert np.array_equal(fast.freqs, slow.freqs)
        assert fast.coeffs.tobytes() == slow.coeffs.tobytes()


def _numpy_column(values):
    # the conversion the constructor made before it packed real columns: one
    # np.array to complex128, then 0 + c and the zeros dropped
    column = np.array(values, dtype=np.complex128) + 0.0
    return column[column != 0]


_INTS = [int(x) for x in np.random.default_rng(80).integers(-2 ** 62, 2 ** 62, 2000)
         * np.random.default_rng(81).integers(1, 2 ** 17, 2000).astype(object)]
_REAL_VALUES = [2 ** 53 + 1, -(2 ** 53) - 1, 2 ** 63, -(2 ** 63), 2 ** 64 + 3,
                np.uint64(2 ** 64 - 1), np.int64(-(2 ** 63)), np.float32(0.1), Fraction(1, 3),
                Decimal("0.1"), True, False, np.True_, -0.0, 0.0, 5e-324, -5e-324, 1e308,
                np.float64(0.3), np.float16(0.1), np.array(2.5)]
_COMPLEX_VALUES = [1 + 2j, complex(-0.0, 1.0), np.complex128(0.5 - 0.25j),
                   np.complex64(0.1 + 0.2j), 3j]


@pytest.mark.parametrize("first", [0.5, 7, 1j], ids=["float", "int", "complex"])
@pytest.mark.parametrize("values", [_INTS, _REAL_VALUES, _REAL_VALUES + _COMPLEX_VALUES,
                                    _COMPLEX_VALUES + _REAL_VALUES,
                                    _COMPLEX_VALUES[2:4] + _REAL_VALUES,
                                    [np.complex128(1 + 2j)], [np.complex64(1 + 2j)]],
                         ids=["ints-to-2^80", "reals", "reals-then-complex", "complex-first",
                              "numpy-complex-first", "np.complex128", "np.complex64"])
def test_coefficients_convert_as_numpy_does_bit_for_bit(first, values):
    # a column that starts with a float packs as C doubles (struct), any
    # other takes numpy's complex128 conversion: every value, float, int past
    # 2^53 or 2^63, numpy scalar, Fraction, Decimal, bool, -0.0 or subnormal,
    # lands on the same bits either way, and as the reference dict gives it.
    # With warnings shown, not raised: a numpy complex scalar packed by its
    # __float__ would lose its imaginary part with only a ComplexWarning
    values = [first] + list(values)
    want = _numpy_column(values)
    ref = _reference_terms(1, dict(enumerate(values)))
    with warnings.catch_warnings(record=True) as shown:
        warnings.simplefilter("always")
        polys = (TrigPoly(1, dict(enumerate(values))), TrigPoly(1, list(enumerate(values))),
                 TrigPoly.from_arrays(1, list(range(len(values))), values),
                 TrigPoly.from_arrays(1, np.arange(len(values)),
                                      np.array(values, dtype=object)))
    assert not shown
    for f in polys:
        assert f.coeffs.dtype == np.complex128 and f.coeffs.tobytes() == want.tobytes()
        assert _bits(f.terms.items()) == _bits(ref.items())


def test_real_column_sum_that_overflows_warns_of_nothing():
    # the realness check adds the values: numpy scalars whose sum passes
    # float64 neither warn nor change a coefficient
    values = [1e308, np.float64(1e308), np.float64(-np.inf), np.float64(np.inf)]
    with warnings.catch_warnings(record=True) as shown:
        warnings.simplefilter("always")
        f = TrigPoly(1, dict(enumerate(values[:2])))
        with pytest.raises(ValueError, match=r"\(-inf\+0j\) at frequency \(2,\) is not finite"):
            TrigPoly(1, dict(enumerate(values)))
    assert not shown
    assert f.coeffs.tobytes() == _numpy_column(values[:2]).tobytes()


@pytest.mark.parametrize("rank", [1, 2])
@pytest.mark.parametrize("order", ["sorted", "unsorted", "repeated"])
def test_real_columns_match_the_complex_path(rank, order):
    # real coefficients give the bits of the same values given as complex
    # numbers (numpy's path), for sorted and unsorted keys, repeated keys
    # summed in input order, Mappings and pairs, in rank 1 and 2
    rng = np.random.default_rng(["sorted", "unsorted", "repeated"].index(order) + 10 * rank)
    n = 3000
    keys = (np.unique(rng.integers(-10 ** 6, 10 ** 6, (n, rank)), axis=0) if order == "sorted"
            else rng.integers(-40 if order == "repeated" else -10 ** 6,
                              40 if order == "repeated" else 10 ** 6, (n, rank)))
    keys = [k[0] if rank == 1 else tuple(k) for k in keys.tolist()]
    values = (rng.standard_normal(len(keys)) * 10.0 ** rng.integers(-300, 300, len(keys))).tolist()
    values[::7] = [0.0] * len(values[::7])
    values[3::11] = [-0.0] * len(values[3::11])
    pairs = list(zip(keys, values))
    as_dict = dict(pairs)  # the last of repeated keys
    for terms, as_complex in ((pairs, [(k, complex(v)) for k, v in pairs]),
                              (as_dict, {k: complex(v) for k, v in as_dict.items()})):
        want = TrigPoly(rank, as_complex)
        assert _bits(want.terms.items()) == _bits(_reference_terms(rank, as_complex).items())
        given = ((terms, iter(terms)) if isinstance(terms, list)
                 else (terms, MappingProxyType(terms)))
        for f in (TrigPoly(rank, t) for t in given):
            assert np.array_equal(f.freqs, want.freqs)
            assert f.coeffs.tobytes() == want.coeffs.tobytes()


def test_real_column_drops_zeros_and_keeps_the_error_messages():
    # a zero and -0.0 are dropped on the packed path too; a nan, an inf and
    # an overflowing sum name their frequency as the complex path does
    f = TrigPoly(1, {1: 0.5, 2: 0.0, 3: -0.0, 4: -2.0})
    assert f.terms == {(1,): 0.5 + 0j, (4,): -2 + 0j}
    assert all(math.copysign(1.0, c.imag) == 1.0 for c in f.coeffs.tolist())
    for bad, shown in ((math.nan, r"\(nan\+0j\)"), (math.inf, r"\(inf\+0j\)"),
                       (-math.inf, r"\(-inf\+0j\)")):
        with pytest.raises(ValueError, match=shown + r" at frequency \(3,\) is not finite"):
            TrigPoly(1, {1: 0.5, 3: bad})
        with pytest.raises(ValueError, match=shown + r" at frequency \(3,\) is not finite"):
            TrigPoly(1, {1: 0.5, 3: complex(bad)})
    for terms in ([(2, 1e308), (2, 1e308)], [(2, 1e308 + 0j), (2, 1e308 + 0j)]):
        with pytest.raises(ValueError, match=r"\(inf\+0j\) at frequency \(2,\) is not finite"):
            TrigPoly(1, [(5, 1.0)] + terms)


@pytest.mark.parametrize("bad", ["1.0", "1+2j", b"3", None, np.str_("2"), np.bytes_(b"2"),
                                 [1.0], (1.0,), np.array([1.0]), object()],
                         ids=["str", "complex-str", "bytes", "None", "np.str_", "np.bytes_",
                              "list", "tuple", "1-d-array", "object"])
@pytest.mark.parametrize("first", [0.5, 1j, None], ids=["after-float", "after-complex", "alone"])
def test_coefficient_that_is_no_number_is_refused(bad, first):
    # numpy's conversion would parse a string or bytes, read None as nan and
    # a one-element sequence as its element: each is refused, naming its
    # frequency and showing the value, on the packed path and numpy's
    # (with warnings shown, not raised, as outside this suite: a one-element
    # array after a float packs by its __float__ with a DeprecationWarning)
    terms = ({} if first is None else {(0, 0): first}) | {(1, 2): bad}
    shown = re.escape(repr(bad))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(ValueError, match=f"coefficient {shown} at frequency \\(1, 2\\) is not a number"):
            TrigPoly(2, terms)
        with pytest.raises(ValueError, match=f"coefficient {shown} at frequency \\(1, 2\\) is not a number"):
            TrigPoly(2, list(terms.items()))
    column = np.empty(len(terms), dtype=object)
    column[:] = list(terms.values())
    for coeffs in (list(terms.values()), column):
        # a list of sequences may read as an array of more than one axis
        nested = np.ndim(bad) and coeffs is not column
        with pytest.raises(ValueError, match=r"coefficients of shape \(\d, 1\)" if nested and first is None
                           else f"coefficient {shown} at frequency \\(1, 2\\) is not a number"):
            TrigPoly.from_arrays(2, list(terms), coeffs)


def test_string_arrays_are_refused_by_from_arrays():
    for coeffs in (np.array(["1.0", "2"]), np.array([b"1", b"2"]), ["1.0", 2.0]):
        with pytest.raises(ValueError, match=r"coefficient .*'1.*' at frequency \(4,\) is not a number"):
            TrigPoly.from_arrays(1, [4, 5], coeffs)
