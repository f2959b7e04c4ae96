"""Inequality right-hand sides, verdicts, and empirical-constant scans."""

import math
from dataclasses import replace

import numpy as np
import pytest

from expsums.bounds import (InequalityVerdict, assemble_blocks, constant_scan,
                            family_boxes, family_gaps, family_intervals,
                            family_random_sets, mps_rhs, mps_rhs_of, multidimz_constant,
                            multidimz_size_checks, verify_basic_multidim,
                            verify_main_prop, verify_mps, verify_multidim,
                            verify_multidimz)
from expsums.core import IntegerSet, TrigPoly, indicator_poly
from expsums.errors import HypothesisError, MemoryBudgetError
from expsums.structures import build_strong_integer, build_strong_lattice

# frozen: harmonic number H_101 and the 2^22-point Riemann oracle
H_101 = 5.1972785077386305
REF_INTERVAL_101 = 2.859870343104319


def test_mps_rhs_values():
    assert mps_rhs([1, 1, 1]) == pytest.approx(1 + 1 / 2 + 1 / 3)
    assert mps_rhs([2j]) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        mps_rhs([])


def test_mps_rhs_bitwise_matches_left_to_right_sum():
    rng = np.random.default_rng(12)
    for n in (1, 2, 7, 1000, 20000):
        mags = 10.0 ** rng.uniform(-12, 12, size=n)
        coeffs = mags * np.exp(2j * np.pi * rng.random(n))
        ref = 0.0
        for j, u in enumerate(coeffs.tolist(), start=1):
            ref += abs(complex(u)) / j  # the plain loop, no compensation
        assert mps_rhs(coeffs) == ref
        assert mps_rhs(coeffs.tolist()) == ref


def test_mps_rhs_of_interval_is_harmonic():
    f = indicator_poly(IntegerSet.from_iterable(range(1, 102)))
    assert mps_rhs_of(f) == pytest.approx(H_101, rel=1e-12)


def test_mps_rhs_uses_magnitudes_in_frequency_order():
    f = TrigPoly(1, {5: 3 - 4j, 100: 1.0})
    # |3-4j|/1 + |1|/2, frequency order not frequency value
    assert mps_rhs_of(f) == pytest.approx(5.0 + 0.5)


def test_verify_mps_interval():
    v = verify_mps(IntegerSet.from_iterable(range(1, 102)))
    assert v.rhs == pytest.approx(0.25 * H_101)
    assert v.lhs.lo <= REF_INTERVAL_101 <= v.lhs.hi
    assert v.passed and v.certified
    assert v.margin > 1.0


_INTERVAL_BLOCKS = ({k: indicator_poly(IntegerSet.from_iterable(range(-10, 11)))
                     for k in range(26)}, 10, 44, 1.0, 13, 0)


@pytest.mark.parametrize("verdict", [
    lambda budget: verify_mps(IntegerSet.from_iterable(range(1, 102)), memory_budget=budget),
    lambda budget: verify_basic_multidim(build_strong_lattice((30, 40))[0],
                                         memory_budget=budget),
    lambda budget: verify_multidim(*build_strong_lattice((30, 40)), memory_budget=budget),
    lambda budget: verify_multidimz(*build_strong_integer((1.0,), (8, 8), shape="box"),
                                    memory_budget=budget),
    lambda budget: verify_multidimz(*build_strong_integer((), (101,)), memory_budget=budget),
    lambda budget: verify_main_prop(*_INTERVAL_BLOCKS, memory_budget=budget),
    lambda budget: constant_scan(family_intervals([101]), memory_budget=budget)],
    ids=["mps", "basic-multidim", "multidim", "multidimz", "multidimz-rank-1", "main-prop", "scan"])
def test_verdicts_take_the_memory_budget_argument(monkeypatch, verdict):
    monkeypatch.delenv("EXPSUMS_MEMORY_BUDGET", raising=False)
    with pytest.raises(MemoryBudgetError, match="budget is 1000 "):
        verdict(1000)
    # the argument wins over the variable
    monkeypatch.setenv("EXPSUMS_MEMORY_BUDGET", "1000")
    verdict(10 ** 9)


@pytest.mark.parametrize("c_mps", [0, 0.0, -1.0, math.nan, math.inf, -math.inf, True, "0.25"])
def test_c_mps_must_be_a_finite_number_above_0(c_mps):
    # every verdict and helper that takes c_mps refuses it, naming it, before
    # any norm is taken: no ZeroDivisionError, no verdict on a negative or
    # non-finite right-hand side
    lattice, lattice_cert = build_strong_lattice((4, 4))
    zset, zcert = build_strong_integer((1.0,), (4, 4), shape="box")
    calls = [lambda: verify_mps(IntegerSet.from_iterable(range(1, 11)), c_mps),
             lambda: verify_basic_multidim(lattice, c_mps),
             lambda: verify_multidim(lattice, lattice_cert, c_mps),
             lambda: verify_multidimz(zset, zcert, c_mps),
             lambda: verify_multidimz(*build_strong_integer((), (10,)), c_mps),
             lambda: verify_main_prop(*_INTERVAL_BLOCKS, c_mps),
             lambda: multidimz_constant(2, (1.0,), c_mps),
             lambda: multidimz_size_checks((4, 4), c_mps),
             lambda: multidimz_size_checks((4, 4), c_mps, inverse_constant=True)]
    for call in calls:
        with pytest.raises(ValueError, match="c_mps must be a finite number"):
            call()


@pytest.mark.parametrize("delta", [True, "1.0", math.nan, math.inf])
def test_main_prop_delta_must_be_a_finite_number(delta):
    # not read as 1.0 by float(), and no hypothesis checked against nan
    blocks, d1, d2, _, q, s = _INTERVAL_BLOCKS
    with pytest.raises(ValueError, match="delta must be a finite number"):
        verify_main_prop(blocks, d1, d2, delta, q, s)


def test_verify_mps_absurd_constant_fails():
    v = verify_mps(IntegerSet.from_iterable(range(1, 102)), c_mps=10.0)
    assert not v.passed


def test_verify_mps_verdict_json():
    d = verify_mps(IntegerSet.from_iterable([1, 2, 3])).to_json_dict()
    assert set(d) >= {"name", "lhs", "rhs", "constant_used", "passed",
                      "certified", "margin", "hypotheses", "extras"}
    assert d["name"] == "mps"


def test_verify_basic_multidim_box():
    A, _ = build_strong_lattice((8, 8))
    v = verify_basic_multidim(A)
    assert v.passed and v.certified
    rows = v.extras["fibres"]
    assert len(rows) == 8
    assert [r["j"] for r in rows] == list(range(1, 9))
    # RHS assembled from certified lower fibre ends
    raw = sum(r["norm"]["lo"] / r["j"] for r in rows)
    assert v.extras["rhs_without_constant"] == pytest.approx(raw)


def test_verify_basic_multidim_rejects_rank1():
    with pytest.raises(ValueError):
        verify_basic_multidim(IntegerSet.from_iterable([1, 2]))


def test_verify_multidim_box():
    A, cert = build_strong_lattice((8, 8))
    v = verify_multidim(A, cert)
    assert v.passed and v.certified and v.hypotheses_ok
    # rhs carries C^2 against a product of logs
    assert v.rhs == pytest.approx(0.25 ** 2 * math.log(8) ** 2, rel=1e-9)


def test_verify_multidim_corrupt_certificate():
    A, cert = build_strong_lattice((8, 8))
    v = verify_multidim(A, replace(cert, n1=9))
    assert not v.hypotheses_ok
    assert not v.certified
    assert any(not h.passed for h in v.hypotheses)


def test_multidimz_constant_formula():
    # (C / (2^9 pi))^r / prod(2 + log(1 + 2/delta))
    assert multidimz_constant(1, ()) == pytest.approx(0.25 / (2 ** 9 * math.pi))
    assert multidimz_constant(2, (1.0,)) == pytest.approx(
        7.796022989142052e-09, rel=1e-12)
    expect = (0.25 / (2 ** 9 * math.pi)) ** 3 \
        / ((2 + math.log(3)) * (2 + math.log(5)))
    assert multidimz_constant(3, (1.0, 0.5)) == pytest.approx(expect)


def test_multidimz_size_checks_small_sizes_unmet():
    checks = multidimz_size_checks((16, 16), 0.25)
    assert len(checks) == 2
    assert all(c.condition.startswith("n_") for c in checks)
    assert not any(c.passed for c in checks)


def test_multidimz_size_checks_astronomical_sizes_met():
    checks = multidimz_size_checks((10 ** 30, 10 ** 30), 0.25)
    assert all(c.passed for c in checks)


def test_multidimz_size_checks_inverse_reading_is_stricter():
    # C^-3 = 64 vs C^3 = 1/64 at C = 1/4: inverse thresholds are larger
    sizes = (10 ** 9, 10 ** 9)
    literal = multidimz_size_checks(sizes, 0.25)
    inverse = multidimz_size_checks(sizes, 0.25, inverse_constant=True)
    for lit, inv in zip(literal, inverse):
        if inv.passed:
            assert lit.passed


def test_verify_multidimz_box():
    A, cert = build_strong_integer((1.0,), (6, 6))
    v = verify_multidimz(A, cert)
    assert v.passed
    assert set(v.extras) >= {"theoretical_constant",
                             "size_hypothesis_inverse_reading",
                             "rhs_without_constant"}
    # the size hypotheses are present and honestly reported unmet here
    size_rows = [h for h in v.hypotheses if h.condition.startswith("n_")]
    assert size_rows and not any(h.passed for h in size_rows)


def test_verify_multidimz_constant_override():
    A, cert = build_strong_integer((1.0,), (6, 6))
    v = verify_multidimz(A, cert, constant_override=100.0)
    assert v.constant_used == 100.0
    assert not v.passed


@pytest.mark.parametrize("override", [True, "1e-3", math.nan, math.inf, 10 ** 400])
@pytest.mark.parametrize("sizes", [(6, 6), (8,)])
def test_verify_multidimz_override_must_be_a_finite_number(sizes, override):
    # not read as 1.0 or 0.001, on every rank
    A, cert = build_strong_integer((1.0,) * (len(sizes) - 1), sizes)
    with pytest.raises(ValueError, match="constant_override must be a finite number"):
        verify_multidimz(A, cert, constant_override=override)


def test_verify_multidimz_rank1_delegates():
    A, cert = build_strong_integer((), (8,))
    v = verify_multidimz(A, cert)
    assert v.name == "mps"
    assert v.passed


def test_assemble_blocks_round_trip():
    blocks = {0: TrigPoly(1, {-1: 1.0, 1: 2.0}), 3: TrigPoly(1, {0: 1j})}
    F = assemble_blocks(blocks, 25)
    assert F.terms == {(-1,): 1 + 0j, (1,): 2 + 0j, (75,): 1j}


def test_verify_main_prop_interval_blocks():
    blocks = {k: indicator_poly(IntegerSet.from_iterable(range(-10, 11)))
              for k in range(26)}
    r = verify_main_prop(blocks, 10, 44, 1.0, 13, 0)
    assert r.passed and r.certified
    assert r.factor == pytest.approx(311.5064832768893)
    assert len(r.rows) == 2  # keys 0 and 13 survive s=0 mod 13
    assert r.lhs.lo >= r.rhs
    # bracket of the first surviving block: C/(2j) - eps
    eps = 2 * math.pi * 10 / (13 * 44)
    assert r.rows[0]["bracket"] == pytest.approx(0.25 / 2 - eps)


def test_verify_main_prop_rejects_fractional_integers():
    # int() would report "(2+delta)*d1 = 30.0" for d1 = 10.5 and "q = 13" for
    # q = 13.7, and pass; an integral float is the integer it names
    blocks = {k: indicator_poly(IntegerSet.from_iterable(range(-10, 11)))
              for k in range(26)}
    for args, what in (((10.5, 44, 13), "d1 10.5"), ((10, 44.5, 13), "d2 44.5"),
                       ((10, 44, 13.7), "modulus q 13.7")):
        with pytest.raises(ValueError, match=f"{what} is not an integer"):
            verify_main_prop(blocks, *args[:2], 1.0, args[2], 0)
    with pytest.raises(ValueError, match="residue s 0.5 is not an integer"):
        verify_main_prop(blocks, 10, 44, 1.0, 13, 0.5)
    assert (verify_main_prop(blocks, 10.0, 44.0, 1.0, 13.0, 0.0).to_json_dict()
            == verify_main_prop(blocks, 10, 44, 1.0, 13, 0).to_json_dict())


def test_verify_main_prop_is_an_inequality_verdict():
    blocks = {k: indicator_poly(IntegerSet.from_iterable(range(-10, 11)))
              for k in range(26)}
    r = verify_main_prop(blocks, 10, 44, 1.0, 13, 0)
    assert isinstance(r, InequalityVerdict)
    # the report keeps its own JSON: t1, t2, factor and rows at the top
    # level, no extras
    assert r.to_json_dict() == {
        "name": "main-prop", "lhs": r.lhs.to_json_dict(), "rhs": r.rhs,
        "t1": r.t1, "t2": r.t2, "factor": r.factor, "constant_used": 0.25,
        "margin": r.lhs.lo - r.rhs, "passed": True, "certified": True,
        "rows": list(r.rows),
        "hypotheses": [h.to_json_dict() for h in r.hypotheses]}
    assert r.rhs == (r.t1 - r.t2) / r.factor
    assert [h.condition for h in r.hypotheses] == [
        "(2+delta)*d1 < d2", "q > 4*pi", "I(q;s) nonempty"]


def test_verify_main_prop_positive_rhs():
    blocks = {k: indicator_poly(IntegerSet.from_iterable(range(-10, 11)))
              for k in range(26)}
    r = verify_main_prop(blocks, 10, 44, 1.0, 64, 0)
    assert r.rhs > 0
    assert len(r.rows) == 1
    assert r.passed


def test_verify_main_prop_hypothesis_guards():
    blocks = {k: indicator_poly(IntegerSet.from_iterable(range(-10, 11)))
              for k in range(26)}
    cases = [
        ((blocks, 10, 30, 1.0, 13, 0), "(2+delta)*d1 < d2"),
        ((blocks, 10, 44, 1.0, 12, 0), "q > 4*pi"),
        ((blocks, 10, 44, 1.0, 64, 63), "I(q;s) nonempty"),
    ]
    for args, cond in cases:
        with pytest.raises(HypothesisError) as err:
            verify_main_prop(*args)
        assert err.value.condition == cond
    with pytest.raises(HypothesisError):
        verify_main_prop({0: TrigPoly(1, {11: 1.0})}, 10, 44, 1.0, 13, 0)


def test_constant_scan_intervals():
    rep = constant_scan(family_intervals(range(4, 33)), mode="mps",
                        rel_err=0.1)
    assert len(rep.rows) == 29
    assert 0.25 <= rep.min_ratio <= rep.median_ratio
    assert rep.argmin.startswith("interval:")
    rows = rep.csv_rows()
    assert len(rows) == 29
    assert len(rows[0]) == len(rep.CSV_HEADER)


def test_constant_scan_multidim_mode():
    rep = constant_scan(family_boxes([2, 3]), mode="multidim", rel_err=0.1)
    assert [r.label for r in rep.rows] == ["box:2^2", "box:3^2"]
    assert rep.min_ratio > 1.0  # tiny boxes sit far above C^2 log products


def test_constant_scan_empty_family():
    with pytest.raises(ValueError):
        constant_scan([], mode="mps")


def test_family_generators_seeded():
    a = family_random_sets(3, 16, 1000, seed=5)
    b = family_random_sets(3, 16, 1000, seed=5)
    c = family_random_sets(3, 16, 1000, seed=6)
    assert [s.elements for _, s in a] == [s.elements for _, s in b]
    assert [s.elements for _, s in a] != [s.elements for _, s in c]
    assert [l for l, _ in a] == ["random:0", "random:1", "random:2"]


def test_family_gaps_labels():
    fam = family_gaps([(1, 100, 3, 2)])
    assert fam[0][0] == "gap:1,100,3,2"
    assert fam[0][1].elements == (101, 102, 103, 201, 202, 203)
