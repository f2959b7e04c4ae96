"""Acceptance gate: every release criterion with its runtime budget.

The full battery runs once per session; each test reports one pass/fail
line and holds the corresponding criterion to its time limit.
"""

import pytest

from expsums import acceptance
from expsums.core import IntegerSet, indicator_poly
from expsums.errors import MemoryBudgetError
from expsums.kernels import flat_top_build, flat_top_discrete_l1
from expsums.quadrature import bernstein_check


@pytest.fixture(scope="session")
def suite_report(request):
    report = acceptance.run_all(acceptance.DEFAULT_SEED, determinism=True)
    capman = request.config.pluginmanager.getplugin("capturemanager")
    if capman is not None:
        with capman.global_and_fixture_disabled():
            print()
            for line in report.lines():
                print(line)
    return report


def _criterion(report, number):
    for r in report.results:
        if r.number == number:
            return r
    raise AssertionError(f"criterion {number} missing from the suite")


def _check(report, number):
    r = _criterion(report, number)
    print(r.line())
    assert r.passed, r.details
    if r.limit is not None:
        assert r.runtime < r.limit, r.line()
    return r


def test_criterion_01_kernel_exactness(suite_report):
    r = _check(suite_report, 1)
    assert r.details["pairs"] == 741


def test_criterion_02_transform_factorization(suite_report):
    _check(suite_report, 2)


def test_criterion_03_discrete_l1_bound(suite_report):
    _check(suite_report, 3)


def test_criterion_04_riemann_error_bound(suite_report):
    r = _check(suite_report, 4)
    # the bound is also checked on the coarsest alias-free grid
    coarsest = {row["d"]: row for row in r.details["rows"]
                if row["grid"] == 2 * row["d"] + 1}
    assert set(coarsest) == {10, 50, 200}
    assert all(row["ok"] for row in coarsest.values())


def test_criterion_05_derivative_norm_bound(suite_report):
    r = _check(suite_report, 5)
    assert r.details["count"] == 200


def test_criterion_06_good_modulus(suite_report):
    r = _check(suite_report, 6)
    assert r.details["count"] == 500


def test_criterion_07_thinning(suite_report):
    r = _check(suite_report, 7)
    assert r.details["count"] == 50


def test_criterion_08_mps_empirical_constant(suite_report):
    r = _check(suite_report, 8)
    assert r.details["min_ratio"] >= 0.25


def test_criterion_09_multidim_desk_check(suite_report):
    r = _check(suite_report, 9)
    assert r.details["lhs"]["lo"] >= 0.751


def test_criterion_10_multidimz_desk_check(suite_report):
    r = _check(suite_report, 10)
    assert r.details["theoretical_passed"] and r.details["empirical_passed"]
    assert r.details["size_hypothesis_unmet"]


def test_criterion_11_determinism(suite_report):
    _check(suite_report, 11)


def test_whole_suite_passes(suite_report):
    assert suite_report.all_passed


def test_injected_fault_is_caught():
    r = acceptance.run_criterion(1, inject_kernel_fault=True)
    assert not r.passed
    assert r.details["fault_injected"]


@pytest.mark.parametrize("check", [
    lambda budget: acceptance.kernel_check(5, 23, 4 * 67, budget),
    lambda budget: acceptance.thinning_check(*next(acceptance.thinning_configs(1729, 1)),
                                             0.05, budget),
    lambda budget: flat_top_discrete_l1(flat_top_build(5, 23), 4 * 67, budget),
    lambda budget: bernstein_check(indicator_poly(IntegerSet.from_iterable(range(101))),
                                   memory_budget=budget),
    lambda budget: acceptance.run_criterion(3, memory_budget=budget),
    lambda budget: acceptance.run_criterion(9, memory_budget=budget)],
    ids=["kernel", "thinning", "discrete-l1", "bernstein", "criterion-3", "criterion-9"])
def test_checks_take_the_memory_budget_argument(monkeypatch, check):
    monkeypatch.delenv("EXPSUMS_MEMORY_BUDGET", raising=False)
    with pytest.raises(MemoryBudgetError, match="budget is 1000 "):
        check(1000)
    # the argument wins over the variable
    monkeypatch.setenv("EXPSUMS_MEMORY_BUDGET", "1000")
    check(10 ** 9)
