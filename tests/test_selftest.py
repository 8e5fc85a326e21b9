import dataclasses
import re

import numpy as np
import pytest

from idemap import selftest
from idemap.core import AutomorphismTag, ScalarField, SemilinearOperator
from idemap.errors import NotInduced
from idemap.idempotents import FiniteRankIdempotent
from idemap.indefinite import induced_ray_map
from idemap.selftest import SUITES, run_all
from idemap.transform import RayPair, SampleReport, extend, from_ray_pair, identity_handle, \
    induce, transpose_handle


def test_all_suites_pass_at_small_budget():
    results = run_all(seed=5, budget=24)
    assert len(results) == len(SUITES) == 8
    for r in results:
        assert r.passed, (r.name, r.failures)
        assert r.cases > 0


def test_near_singular_hermitian_metric_is_shifted(monkeypatch):
    """The Hermitian metric ``h = m + m*`` of a well-conditioned ``m`` can
    be singular; ``_metric`` then returns ``h + 2 I``.  Here ``m`` is a
    rotation block beside 1, so ``h = diag(0, 0, 2)``."""
    m = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0]], dtype=complex)
    monkeypatch.setattr(selftest, "random_invertible", lambda rng, n, field, max_cond: m)
    eta, non_self_adjoint = selftest._metric(None, 3, ScalarField.COMPLEX, 3)
    assert not non_self_adjoint
    np.testing.assert_array_equal(eta, np.diag([2.0, 2.0, 4.0]))


def test_suites_run_at_a_patched_dims(monkeypatch):
    """Every suite reads ``DIMS`` at its call, the symmetry suites cycling over
    its first four entries by their own count: with ``DIMS = (3,)`` all eight
    pass and every metric is 3 x 3, where indexing ``DIMS[i % 4]`` raised
    ``IndexError`` in the three symmetry suites."""
    monkeypatch.setattr(selftest, "DIMS", (3,))
    sizes, make = [], selftest.IndefiniteSpace

    def space(eta):
        sizes.append(len(eta))
        return make(eta)

    monkeypatch.setattr(selftest, "IndefiniteSpace", space)
    for r in run_all(seed=1, budget=4):
        assert r.passed and r.cases > 0, (r.name, r.failures)
    assert sizes and set(sizes) == {3}


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


def _raising(error):
    def raising(*args, **kwargs):
        raise error
    return raising


def _other_tag(a):
    """The map induced by ``a`` with the other ring automorphism, over the complex field."""
    if a.field is ScalarField.REAL:
        return induce(a)
    flipped = {AutomorphismTag.IDENTITY: AutomorphismTag.CONJUGATION,
               AutomorphismTag.CONJUGATION: AutomorphismTag.IDENTITY}[a.auto]
    return induce(SemilinearOperator(a.matrix, flipped))


def _sheared_ray_map(u):
    """The ray map of a shear, which no metric of the suites keeps."""
    return induced_ray_map(SemilinearOperator(np.eye(u.n) + 2 * np.eye(u.n, k=1)))


#: Per failure branch of a suite: the suite, the name patched in ``selftest``,
#: its replacement, and the pattern every reason of the failing suite matches.
_BROKEN_CASES = {
    "roundtrip-raises": (selftest.suite_roundtrip, "reconstruct",
                         _raising(NotInduced("refused")), r"case \d+: NotInduced: refused$"),
    "preservation-violations": (selftest.suite_preservation, "induce",
                                lambda a: transpose_handle(a.n, a.field),
                                r"case [0-3] \(n=\d, \w+, \w+\): [1-9]\d* violations "
                                r"in 20/20 pairs$"),
    "preservation-transpose-passes": (selftest.suite_preservation, "transpose_handle",
                                      identity_handle,
                                      r"case 4 \(transpose, n=3\): no violation in 20 pairs$"),
    "trace-identity-error": (selftest.suite_trace_identity, "induce", _other_tag,
                             r"case \d+ \(n=\d, complex, \w+\): error \S+$"),
    "majorant-raises": (selftest.suite_majorant, "majorant", _raising(ValueError("no majorant")),
                        r"case \d+: ValueError: no majorant$"),
    "majorant-not-dominating": (selftest.suite_majorant, "majorant", lambda p1, p2: p1,
                                r"case \d+ \(n=\d, \w+\): rank \d, P1 <= P: True, "
                                r"P2 <= P: False$"),
    "sufficiency-violations": (selftest.suite_sufficiency, "induced_ray_map", _sheared_ray_map,
                               r"case \d+ \(n=\d, \w+\): [1-9]\d* violations in 20/20 pairs$"),
    "sufficiency-corpus": (selftest.suite_sufficiency, "_metric",
                           lambda rng, n, field, index: (np.eye(n, dtype=field.dtype), False),
                           r"only 0 non-self-adjoint metrics$"),
    "necessity-characterized": (selftest.suite_necessity, "random_semilinear",
                                lambda rng, n, field, auto: SemilinearOperator(np.eye(n)),
                                r"case \d+ \(n=\d, \w+\): characterized linear with "
                                r"constant \S+, expected none$"),
    "necessity-no-violation": (selftest.suite_necessity, "is_symmetry",
                               lambda space, t, sample_count, seed: SampleReport((), sample_count),
                               r"case \d+ \(n=\d, \w+\): no violation in 20 pairs$"),
    "recovery-raises": (selftest.suite_recovery, "recover_inducing_operator",
                        _raising(NotInduced("refused")), r"case \d+: NotInduced: refused$"),
}


@pytest.mark.parametrize("case", sorted(_BROKEN_CASES))
def test_suite_fails_a_broken_case(case, monkeypatch):
    """Each way a suite can fail gives the suite's own reason, not a crash."""
    suite, name, patch, reason = _BROKEN_CASES[case]
    monkeypatch.setattr(selftest, name, patch)
    result = suite(np.random.default_rng(5), 20)
    assert not result.passed
    assert result.failures and all(re.match(reason, f) for f in result.failures), result.failures


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
