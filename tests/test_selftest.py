import pytest

from idemap.selftest import SUITES, run_all


def test_all_suites_pass_at_small_budget():
    results = run_all(seed=5, budget=24, tol_scale=1.0)
    assert len(results) == len(SUITES) == 8
    for r in results:
        assert r.passed, (r.name, r.failures)
        assert r.cases > 0


def test_zero_budget_is_vacuous():
    results = run_all(seed=5, budget=0)
    assert all(r.passed and r.cases == 0 for r in results)
    assert all("vacuous" in r.detail for r in results)


def test_impossible_tolerance_fails():
    results = run_all(seed=5, budget=16, tol_scale=1e-12)
    failed = [r for r in results if not r.passed]
    assert failed
    assert all(r.failures and r.failures[0].startswith("case ") for r in failed)


def test_negative_budget_raises():
    with pytest.raises(ValueError):
        run_all(seed=5, budget=-3)


def test_deterministic_given_seed():
    a = run_all(seed=9, budget=16)
    b = run_all(seed=9, budget=16)
    assert [(r.name, r.passed, r.cases, r.detail) for r in a] == \
           [(r.name, r.passed, r.cases, r.detail) for r in b]
