"""Structured set generators and certificate validation."""

import json
import math

import numpy as np
import pytest

from expsums.core import IntegerSet, LatticeSet
from expsums.errors import CollisionError, HypothesisError
from expsums.structures import (DimCertificate, build_strong_integer,
                                build_strong_lattice, gap_rank2,
                                project_and_fibre, validate_certificate)


def test_gap_rank2_known_set():
    A = gap_rank2(1, 10, 3, 2)
    assert A.elements == (11, 12, 13, 21, 22, 23)


def test_gap_rank2_element_formula():
    a, b, m, n = 3, 100, 4, 5
    A = gap_rank2(a, b, m, n)
    expect = sorted(i * a + j * b for i in range(1, m + 1)
                    for j in range(1, n + 1))
    assert list(A.elements) == expect


def test_gap_rank2_guard_and_force():
    with pytest.raises(HypothesisError) as err:
        gap_rank2(2, 4, 3, 2)
    assert "a*m < b" in err.value.condition
    # collision at 2*1+4*2 = 2*3+4*1 = 10
    with pytest.raises(CollisionError) as cerr:
        gap_rank2(2, 4, 3, 2, force=True)
    assert cerr.value.collisions == [(10, [(1, 2), (3, 1)])]
    # overlap without an actual collision builds fine under force
    assert gap_rank2(2, 3, 3, 2, force=True).elements == (5, 7, 8, 9, 10, 12)


def test_gap_rank2_rejects_nonpositive():
    for args in ((0, 10, 3, 2), (1, 10, 0, 2), (1, 10, 3, 0), (1, -5, 3, 2)):
        with pytest.raises(ValueError):
            gap_rank2(*args)


def test_generators_reject_fractional_integers():
    # int() would truncate each of these to a smaller set; an integral float
    # is still the integer it names
    for args in ((1.5, 10, 3, 2), (1, 10.5, 3, 2), (1, 10, 3.5, 2), (1, 10, 3, 2.5)):
        with pytest.raises(ValueError, match="is not an integer"):
            gap_rank2(*args)
    assert gap_rank2(1.0, 10.0, 3.0, 2.0) == gap_rank2(1, 10, 3, 2)
    for build in (build_strong_lattice, lambda sizes: build_strong_integer((1.0,), sizes)):
        with pytest.raises(ValueError, match="size 2.7 is not an integer"):
            build((2.7, 3))
        assert build((2.0, 3)) == build((2, 3))


def test_lattice_box_points():
    A, cert = build_strong_lattice((2, 3))
    assert A.points == ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3))
    assert cert.rank == 2
    assert cert.n1 == 2
    assert cert.sizes() == (2, 3)
    assert validate_certificate(A, cert).ok


def test_lattice_box_rank3():
    A, cert = build_strong_lattice((2, 2, 2))
    assert len(A) == 8
    assert cert.sizes() == (2, 2, 2)
    assert validate_certificate(A, cert).ok


def test_lattice_random_is_valid_and_seeded():
    A1, c1 = build_strong_lattice((4, 5), mode="random", seed=11)
    A2, c2 = build_strong_lattice((4, 5), mode="random", seed=11)
    A3, c3 = build_strong_lattice((4, 5), mode="random", seed=12)
    assert A1 == A2
    assert A1 != A3
    assert validate_certificate(A1, c1).ok
    assert validate_certificate(A3, c3).ok
    # every first-coordinate fibre carries the claimed size
    idx, fibres = project_and_fibre(A1, 1)
    assert len(idx) == 4
    assert all(len(f.points) == 5 for f in fibres.values())


def test_validate_lattice_detects_missing_point():
    A, cert = build_strong_lattice((3, 3))
    broken = LatticeSet.from_iterable(2, A.points[:-1])
    report = validate_certificate(broken, cert)
    assert not report.ok
    assert report.first_failure is not None


def test_validate_lattice_detects_wrong_claim():
    A, cert = build_strong_lattice((3, 3))
    from dataclasses import replace
    report = validate_certificate(A, replace(cert, n1=4))
    assert not report.ok


def test_integer_box_small():
    A, cert = build_strong_integer((1.0,), (3, 4))
    assert A.elements == (-1, 0, 1, 2, 6, 7, 8, 9, 13, 14, 15, 16)
    assert cert.flavor == "integer"
    assert (cert.d1, cert.d2, cert.delta) == (2, 7, 1.0)
    assert cert.d2 > (2 + cert.delta) * cert.d1
    assert cert.keys == (0, 1, 2)
    assert validate_certificate(A, cert).ok


def test_integer_box_rank3():
    A, cert = build_strong_integer((1.0, 0.5), (3, 3, 3))
    assert len(A) == 27
    assert cert.sizes() == (3, 3, 3)
    assert cert.deltas() == (1.0, 0.5)
    assert validate_certificate(A, cert).ok


@pytest.mark.parametrize("deltas, stretch, what", [
    ((True,), 1.0, "delta"), (("1e-3",), 1.0, "delta"), ((float("nan"),), 1.0, "delta"),
    ((1.0,), True, "stretch"), ((1.0,), "2", "stretch"), ((1.0,), 10 ** 400, "stretch")])
def test_integer_deltas_and_stretch_must_be_finite_numbers(deltas, stretch, what):
    # not read as 1.0 or 0.001; a NaN delta passed the "deltas must be
    # positive" check
    with pytest.raises(ValueError, match=f"{what} must be a finite number"):
        build_strong_integer(deltas, (4, 4), stretch=stretch)
    # numpy numbers and ints are numbers
    A, cert = build_strong_integer((np.float64(1.0),), (4, 4), stretch=np.int64(2))
    assert cert.deltas() == (1.0,) and validate_certificate(A, cert).ok


def test_integer_random_is_valid_and_seeded():
    A1, c1 = build_strong_integer((1.0,), (4, 6), shape="random", seed=7)
    A2, _ = build_strong_integer((1.0,), (4, 6), shape="random", seed=7)
    A3, c3 = build_strong_integer((1.0,), (4, 6), shape="random", seed=8)
    assert A1 == A2
    assert A1 != A3
    assert validate_certificate(A1, c1).ok
    assert validate_certificate(A3, c3).ok


def test_integer_stretch_scales_d2():
    _, base = build_strong_integer((1.0,), (3, 4))
    _, far = build_strong_integer((1.0,), (3, 4), stretch=3.0)
    assert far.d2 >= 3 * base.d2
    assert far.d1 == base.d1


def test_validate_integer_detects_tampering():
    A, cert = build_strong_integer((1.0,), (4, 4))
    # drop one element: block contents no longer reproduce A
    broken = IntegerSet.from_iterable(A.elements[1:])
    assert not validate_certificate(broken, cert).ok

    # shrink d2 below the separation threshold via the JSON round trip
    obj = cert.to_json_dict()
    obj["d2"] = int((2 + cert.delta) * cert.d1)
    assert not validate_certificate(A, DimCertificate.from_json_dict(obj)).ok


def test_validate_integer_detects_out_of_range_block():
    A, cert = build_strong_integer((1.0,), (3, 3))
    obj = cert.to_json_dict()
    # move one element of the first block outside [-d1, d1]
    block0 = obj["children"][0][1]
    block0["elements"][0] = cert.d1 + 1
    bad = DimCertificate.from_json_dict(obj)
    assert not validate_certificate(A, bad).ok


def test_validation_report_shape():
    A, cert = build_strong_integer((1.0,), (3, 4))
    report = validate_certificate(A, cert)
    assert report.ok
    assert report.first_failure is None
    names = [name for name, _, _ in report.checks]
    assert len(names) == len(set(names))  # stable distinct check names
    d = report.to_json_dict()
    assert d["ok"] is True
    assert len(d["checks"]) == len(report.checks)


def test_certificate_json_round_trip():
    for builder in (lambda: build_strong_lattice((3, 4), mode="random",
                                                 seed=3),
                    lambda: build_strong_integer((0.5,), (3, 5),
                                                 shape="random", seed=4)):
        _, cert = builder()
        wire = json.dumps(cert.to_json_dict(), sort_keys=True)
        assert DimCertificate.from_json_dict(json.loads(wire)) == cert


@pytest.mark.parametrize("path", [
    ("rank",), ("n1",), ("d1",), ("d2",), ("children", 0, 0),
    ("children", 0, 2, "n1")])
def test_certificate_from_json_rejects_fractional_integers(path):
    # rank 1.5 must not be read as rank 1
    _, cert = build_strong_integer((0.5,), (3, 5), shape="random", seed=4)
    obj = json.loads(json.dumps(cert.to_json_dict()))
    *parents, last = path
    holder = obj
    for key in parents:
        holder = holder[key]
    holder[last] += 0.5
    with pytest.raises(ValueError, match="is not an integer"):
        DimCertificate.from_json_dict(obj)


@pytest.mark.parametrize("delta", [True, "0.5", math.nan])
def test_certificate_from_json_rejects_a_delta_that_is_no_number(delta):
    # true and "0.5" must not be read as 1.0 and 0.5
    _, cert = build_strong_integer((0.5,), (3, 5), shape="random", seed=4)
    obj = json.loads(json.dumps(cert.to_json_dict()))
    obj["delta"] = delta
    with pytest.raises(ValueError, match="delta must be a finite number"):
        DimCertificate.from_json_dict(obj)


def test_certificate_children_sorted():
    _, cert = build_strong_integer((1.0,), (5, 3), shape="random", seed=9)
    keys = [k for k, _, _ in cert.children]
    assert keys == sorted(keys)


def test_project_and_fibre_box():
    A, _ = build_strong_lattice((2, 3))
    idx, fibres = project_and_fibre(A, 1)
    assert idx.elements == (1, 2)
    for f in fibres.values():
        assert f.rank == 1
        assert f.points == ((1,), (2,), (3,))


def test_project_and_fibre_axis_bounds():
    A, _ = build_strong_lattice((2, 2))
    with pytest.raises(ValueError):
        project_and_fibre(A, 0)
    with pytest.raises(ValueError):
        project_and_fibre(A, 3)
    # a rank-1 set has no fibres
    with pytest.raises(ValueError, match="rank-1"):
        project_and_fibre(LatticeSet(1, [(1,), (4,)]), 1)


def test_rank1_certificate_flavor_enforced():
    with pytest.raises(ValueError):
        DimCertificate(rank=1, n1=3, flavor="integer", d1=None, d2=None,
                       delta=None, children=())


@pytest.mark.parametrize("axis", [1, 2, 3])
def test_project_and_fibre_matches_per_point_buckets(axis):
    rng = np.random.default_rng(axis)
    A = LatticeSet.from_iterable(3, (tuple(int(x) for x in p)
                                     for p in rng.integers(-4, 5, size=(200, 3))))
    buckets = {}
    for p in A.points:
        buckets.setdefault(p[axis - 1], []).append(p[:axis - 1] + p[axis:])
    idx, fibres = project_and_fibre(A, axis)
    assert idx.elements == tuple(sorted(buckets))
    assert list(fibres) == sorted(buckets)
    for a, pts in buckets.items():
        assert fibres[a] == LatticeSet(2, pts)
    assert sum(len(f) for f in fibres.values()) == len(A)
