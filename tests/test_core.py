import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import idemap.core as core
from idemap.core import (
    AutomorphismTag,
    ScalarField,
    SemilinearOperator,
    conjugation_operator,
    identity_operator,
    kernel_and_range,
    pair,
    tensor,
    trace,
    up_to_scalar_distance,
)
from idemap.errors import DimensionMismatch, SingularOperator
from idemap.sampling import random_semilinear, random_vector

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])
E3 = np.array([0.0, 0.0, 1.0])


class TestPair:
    def test_dual_basis(self):
        assert pair(E1, E1) == 1.0

    def test_coordinate_pick(self):
        assert pair([1, 1, 0], [0, 1, 0]) == 1.0

    def test_complex_evaluation(self):
        # i*1 + 1*(1-i) + 0 = 1, bilinear: no conjugation anywhere
        assert pair([1j, 1, 0], [1, 1 - 1j, 0]) == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            pair([1, 0], [1, 0, 0])

    @settings(max_examples=50, deadline=None)
    @given(
        alpha=st.floats(-1e3, 1e3), beta=st.floats(-1e3, 1e3),
        seed=st.integers(0, 2**16),
    )
    def test_bilinearity(self, alpha, beta, seed):
        rng = np.random.default_rng(seed)
        x = random_vector(rng, 4, ScalarField.COMPLEX)
        y = random_vector(rng, 4, ScalarField.COMPLEX)
        f = random_vector(rng, 4, ScalarField.COMPLEX)
        left = pair(alpha * x + beta * y, f)
        right = alpha * pair(x, f) + beta * pair(y, f)
        assert abs(left - right) <= 1e-12 * (1 + abs(left) + abs(right))


class TestTensor:
    def test_basis_tensor(self):
        m = tensor(E1, E1)
        expected = np.zeros((3, 3))
        expected[0, 0] = 1.0
        np.testing.assert_allclose(m, expected)

    def test_direct_formula(self):
        m = tensor([1, 1, 0], [1, 0, 0])
        np.testing.assert_allclose(m, [[1, 0, 0], [1, 0, 0], [0, 0, 0]])

    def test_nilpotent(self):
        m = tensor(E2, E3)
        assert trace(m) == 0.0
        np.testing.assert_allclose(m @ m, np.zeros((3, 3)))

    def test_trace_matches_pair(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = random_vector(rng, 5, ScalarField.COMPLEX)
            f = random_vector(rng, 5, ScalarField.COMPLEX)
            assert trace(tensor(x, f)) == pytest.approx(pair(x, f))

    def test_rank_one_product_rule(self):
        # tensor(x,f) @ tensor(y,g) == pair(y,f) * tensor(x,g)
        rng = np.random.default_rng(1)
        for _ in range(50):
            x, f, y, g = (random_vector(rng, 4, ScalarField.COMPLEX) for _ in range(4))
            left = tensor(x, f) @ tensor(y, g)
            right = pair(y, f) * tensor(x, g)
            assert np.linalg.norm(left - right) <= 1e-12 * (1 + np.linalg.norm(left))


class TestTraceRepresentation:
    def test_sum_of_tensors(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            xs = [random_vector(rng, 4, ScalarField.COMPLEX) for _ in range(3)]
            fs = [random_vector(rng, 4, ScalarField.COMPLEX) for _ in range(3)]
            total = sum(tensor(x, f) for x, f in zip(xs, fs))
            by_pairs = sum(pair(x, f) for x, f in zip(xs, fs))
            assert trace(total) == pytest.approx(by_pairs)


class TestSemilinearOperator:
    def test_identity_apply(self):
        op = identity_operator(3)
        x = np.array([1j, 2.0, -1.0])
        np.testing.assert_allclose(op(x), x)

    def test_conjugation_apply(self):
        op = conjugation_operator(3)
        np.testing.assert_allclose(op([1j, 0, 0]), [-1j, 0, 0])

    def test_diagonal_apply(self):
        op = SemilinearOperator(np.diag([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(op([1, 1, 1]), [1, 2, 3])

    def test_singular_rejected(self):
        with pytest.raises(SingularOperator):
            SemilinearOperator(np.diag([1.0, 1.0, 0.0]))

    def test_overflowed_singular_values_are_refused(self):
        # s_max overflows to inf: the singularity test is UNDECIDED, and the
        # refusal says so.
        a = 1.5e308
        with pytest.raises(SingularOperator, match="arithmetic overflowed"):
            SemilinearOperator([[a, a, 0], [a, -a, 0], [0, 0, a]])

    def test_conjugation_needs_complex(self):
        with pytest.raises(ValueError):
            SemilinearOperator(np.eye(3), AutomorphismTag.CONJUGATION)

    def test_adjoint_identity_tag(self):
        assert np.allclose(identity_operator(3).adjoint().matrix, np.eye(3))

    def test_adjoint_permutation(self):
        p23 = np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=float)
        op = SemilinearOperator(p23)
        np.testing.assert_allclose(op.adjoint()([0, 1, 0]), [0, 0, 1])

    def test_adjoint_conjugate_scaling(self):
        op = SemilinearOperator(1j * np.eye(3), AutomorphismTag.CONJUGATION)
        f = np.array([1.0 + 0j, 0, 0])
        np.testing.assert_allclose(op.adjoint()(f), [-1j, 0, 0])
        # identity <A x, f> = h(<x, A' f>) on x = e1
        x = np.array([1.0 + 0j, 0, 0])
        lhs = pair(op(x), f)
        rhs = np.conj(pair(x, op.adjoint()(f)))
        assert lhs == pytest.approx(rhs)

    @pytest.mark.parametrize("auto", [AutomorphismTag.IDENTITY,
                                      AutomorphismTag.CONJUGATION])
    def test_adjoint_pairing_identity(self, auto):
        rng = np.random.default_rng(3)
        for _ in range(30):
            op = random_semilinear(rng, 4, ScalarField.COMPLEX, auto=auto)
            x = random_vector(rng, 4, ScalarField.COMPLEX)
            f = random_vector(rng, 4, ScalarField.COMPLEX)
            lhs = pair(op(x), f)
            rhs = op.auto.apply(pair(x, op.adjoint()(f)))
            assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs))

    def test_composition_matches_pointwise(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            a = random_semilinear(rng, 4, ScalarField.COMPLEX)
            b = random_semilinear(rng, 4, ScalarField.COMPLEX)
            ab = a.compose(b)
            x = random_vector(rng, 4, ScalarField.COMPLEX)
            np.testing.assert_allclose(ab(x), a(b(x)), atol=1e-10)

    def test_inverse_composes_to_identity(self):
        rng = np.random.default_rng(5)
        op = random_semilinear(rng, 4, ScalarField.COMPLEX,
                               auto=AutomorphismTag.CONJUGATION)
        composite = op.compose(op.inverse())
        assert composite.auto is AutomorphismTag.IDENTITY
        np.testing.assert_allclose(composite.matrix, np.eye(4), atol=1e-10)


class TestKernelAndRange:
    def test_zero_matrix(self):
        ker, rng_ = kernel_and_range(np.zeros((3, 3)))
        assert ker.shape == (3, 3)
        assert rng_.shape == (3, 0)

    def test_basis_idempotent(self):
        ker, rng_ = kernel_and_range(tensor(E1, E1))
        assert rng_.shape == (3, 1)
        np.testing.assert_allclose(np.abs(rng_[:, 0]), E1)
        assert ker.shape == (3, 2)
        assert np.allclose(ker[0, :], 0)

    def test_oblique_rank_one(self):
        m = tensor([1, 1, 0], [1, 0, 0])
        ker, rng_ = kernel_and_range(m)
        assert rng_.shape == (3, 1)
        # range is the line through (1,1,0)
        v = rng_[:, 0]
        np.testing.assert_allclose(v / v[0], [1, 1, 0])
        np.testing.assert_allclose(m @ ker, np.zeros((3, 2)), atol=1e-12)

    def test_dimensions_add_up(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            m = rng.standard_normal((5, 5))
            ker, rng_ = kernel_and_range(m)
            assert ker.shape[1] + rng_.shape[1] == 5


def test_up_to_scalar_distance():
    a = np.diag([1.0, 2.0, 3.0])
    an = a / np.linalg.norm(a)
    assert up_to_scalar_distance(5j * an, an) <= 1e-12
    b = np.eye(3) / np.sqrt(3)
    assert up_to_scalar_distance(b, an) > 0.1


#: ``(residual, holds_to, fails_from, answer)`` of :func:`idemap.core._verdict`.
VERDICT_CASES = {
    "at-holds_to": (1.0, 1.0, None, core.HOLDS),
    "below": (0.25, 1.0, None, core.HOLDS),
    "zero": (0.0, 0.0, None, core.HOLDS),
    "just-above": (np.nextafter(1.0, 2.0), 1.0, None, core.FAILS),
    "gap": (50.0, 1.0, 100.0, core.UNDECIDED),
    "gap-just-above": (np.nextafter(1.0, 2.0), 1.0, 100.0, core.UNDECIDED),
    "at-fails_from": (100.0, 1.0, 100.0, core.FAILS),
    "at-holds_to-with-gap": (1.0, 1.0, 100.0, core.HOLDS),
    "nan-residual": (np.nan, 1.0, None, core.UNDECIDED),
    "inf-residual": (np.inf, 1.0, None, core.UNDECIDED),
    "inf-residual-with-gap": (np.inf, 1.0, 100.0, core.UNDECIDED),
    "inf-holds_to": (0.25, np.inf, None, core.UNDECIDED),
    "nan-holds_to": (0.25, np.nan, None, core.UNDECIDED),
    "inf-fails_from": (0.25, 1.0, np.inf, core.UNDECIDED),
}


@pytest.mark.parametrize("residual, holds_to, fails_from, answer", VERDICT_CASES.values(),
                         ids=VERDICT_CASES.keys())
def test_verdict(residual, holds_to, fails_from, answer):
    """One answer for Python floats, and the same answer per entry of an
    array: HOLDS at or below ``holds_to``, FAILS above it and at or above
    ``fails_from``, UNDECIDED in the gap and on a NaN or infinite number."""
    args = (float(residual), float(holds_to)) + (() if fails_from is None else (fails_from,))
    got = core._verdict(*args)
    assert type(got) is int and got == answer
    rows = [np.full(3, value) for value in args]
    rows[0][1] = 0.0  # a residual of 0 HOLDS below any finite bound
    want = [answer, core.HOLDS if np.isfinite(args[1:]).all() else core.UNDECIDED, answer]
    assert core._verdict(*rows).tolist() == want


def test_readme_tolerance_table_lists_the_rules_of_core():
    """The README's "Tolerances" table has one row per rule of ``core``'s
    tolerance table (its public float constants), with its value."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("### Tolerances\n", 1)[1].split("\n#", 1)[0]
    listed = [(name, float(value)) for name, value
              in re.findall(r"^\| `([A-Z_]+)` \| `([-+.e\d]+)` \|", section, re.M)]
    rules = [(name, value) for name, value in vars(core).items()
             if name.isupper() and not name.startswith("_") and isinstance(value, float)]
    assert sorted(listed) == sorted(rules)
