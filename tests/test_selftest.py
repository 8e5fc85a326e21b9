import dataclasses
import re

import numpy as np
import pytest

from idemap import selftest
from idemap.core import SemilinearOperator
from idemap.idempotents import FiniteRankIdempotent
from idemap.selftest import SUITES, run_all
from idemap.transform import RayPair, extend, from_ray_pair


def test_all_suites_pass_at_small_budget():
    results = run_all(seed=5, budget=24)
    assert len(results) == len(SUITES) == 8
    for r in results:
        assert r.passed, (r.name, r.failures)
        assert r.cases > 0


def test_zero_budget_is_vacuous():
    results = run_all(seed=5, budget=0)
    assert all(r.passed and r.cases == 0 for r in results)
    assert all("vacuous" in r.detail for r in results)


def _moved_operator(func):
    """``func`` with the operator of its result moved by ``1e-5 I``: a
    wrong result that only the suite's distance threshold can catch."""
    def moved(*args, **kwargs):
        result = func(*args, **kwargs)
        m = result.A.matrix
        return dataclasses.replace(
            result, A=SemilinearOperator(m + 1e-5 * np.eye(len(m)), result.A.auto))
    return moved


def _moved_constant(func):
    """``func`` with the constant of its characterization off by a relative 1e-6."""
    def moved(*args, **kwargs):
        ch = func(*args, **kwargs)
        return dataclasses.replace(ch, constant=ch.constant * (1 + 1e-6))
    return moved


@pytest.mark.parametrize("suite, name, patch", [
    (selftest.suite_roundtrip, "reconstruct", _moved_operator),
    (selftest.suite_sufficiency, "characterize", _moved_constant),
    (selftest.suite_recovery, "recover_inducing_operator", _moved_operator),
], ids=("roundtrip", "sufficiency", "recovery"))
def test_suite_fails_a_result_beyond_its_threshold(suite, name, patch, monkeypatch):
    monkeypatch.setattr(selftest, name, patch(getattr(selftest, name)))
    result = suite(np.random.default_rng(5), 16)
    assert not result.passed
    assert len(result.failures) == result.cases
    assert all(re.match(r"case \d+ \(", f) for f in result.failures), result.failures


def test_negative_budget_raises():
    with pytest.raises(ValueError):
        run_all(seed=5, budget=-3)


def test_deterministic_given_seed():
    a = run_all(seed=9, budget=16)
    b = run_all(seed=9, budget=16)
    assert [(r.name, r.passed, r.cases, r.detail) for r in a] == \
           [(r.name, r.passed, r.cases, r.detail) for r in b]


def test_extension_threshold_is_relative_to_the_extension():
    # At seed 87 and the default budget, case 52 (rank 2, n = 7, real)
    # disagrees by 1.47e-7 with ||ext P||_F = 2.6e4, about 6e-12 relative
    # and rounding noise.  An absolute 1e-8 failed it.
    rng = np.random.default_rng(87)
    for suite in SUITES[:SUITES.index(selftest.suite_extension)]:
        suite(rng, 200)
    result = selftest.suite_extension(rng, 200)
    assert result.passed, result.failures
    worst = re.search(r"worst relative disagreement (\S+)", result.detail)
    assert float(worst.group(1)) < 1e-10


def _wrong_functional_side(a):
    """``x -> A x`` with ``f -> A f`` instead of ``(A^{-1})' f``: the pieces'
    images are no longer mutually orthogonal."""
    m = a.matrix
    return from_ray_pair(RayPair(lambda x: m @ a.auto.apply(x), lambda f: m @ a.auto.apply(f)),
                         a.n, a.field)


def _decomposition_dependent(phi, p, decomposition):
    """The true extension moved by a similarity that depends on the first
    piece of the decomposition: still an idempotent, off by about 1e-6."""
    x = decomposition[0].x
    s = np.eye(len(x)) + 1e-6 * np.outer(x, x.conj()) / np.vdot(x, x).real
    m = extend(phi, p, decomposition=decomposition).matrix
    return FiniteRankIdempotent(s @ m @ np.linalg.inv(s))


@pytest.mark.parametrize("name, patch, reason", [
    ("induce", _wrong_functional_side, "ExtensionInconsistent"),
    ("extend", _decomposition_dependent, "relative disagreement"),
], ids=("wrong-functional-side", "decomposition-dependent"))
def test_extension_suite_fails_a_wrong_extension(name, patch, reason, monkeypatch):
    monkeypatch.setattr(selftest, name, patch)
    result = selftest.suite_extension(np.random.default_rng(0), 24)
    assert not result.passed
    assert len(result.failures) == result.cases
    assert all(reason in f for f in result.failures)
