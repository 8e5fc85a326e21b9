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
    orthonormal_columns,
    pair,
    tensor,
    trace,
    up_to_scalar_distance,
)
from idemap.errors import DimensionMismatch, SingularOperator
from idemap.idempotents import FiniteRankIdempotent, RankOneIdempotent, decompose, majorant, \
    rank_one_from_pair
from idemap.indefinite import IndefiniteSpace, Ray, SymmetryKind, characterize, \
    generate_eta_isometry, rays_equal
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

    @pytest.mark.parametrize("call, message", [
        (lambda: SemilinearOperator(np.ones(3)), "operator must be 2-d, got shape (3,)"),
        (lambda: SemilinearOperator(np.ones((3, 4))), "operator must be square, got shape (3, 4)"),
        (lambda: identity_operator(3)([1.0, 0.0]),
         "operator of dimension 3 applied to vector of dimension 2"),
        (lambda: identity_operator(3).compose(identity_operator(4)),
         "composition of operators of different dimension"),
        (lambda: identity_operator(3).conjugate(np.eye(4)), "conjugation dimension mismatch"),
    ], ids=("not-2-d", "not-square", "call", "compose", "conjugate"))
    def test_wrong_shapes_are_refused(self, call, message):
        with pytest.raises(DimensionMismatch, match=re.escape(message)):
            call()

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

    @pytest.mark.parametrize("auto", list(AutomorphismTag), ids=lambda a: a.value)
    def test_an_operator_stores_only_its_matrix_and_tag(self, auto):
        """Reading the inverse changes nothing on the operator: ``inverse_matrix``
        is ``inv(matrix)`` bit for bit on every access, read-only and not assignable."""
        op = random_semilinear(np.random.default_rng(6), 4, ScalarField.COMPLEX, auto=auto)
        before = dict(vars(op))
        assert set(before) == {"_matrix", "_auto"}
        want = np.linalg.inv(op.matrix).tobytes()
        for _ in range(2):
            inv = op.inverse_matrix
            assert inv.tobytes() == want
            assert not inv.flags.writeable
        op.inverse()
        op.conjugate(np.eye(4))
        assert vars(op) == before
        with pytest.raises(AttributeError):
            op.inverse_matrix = np.eye(4)


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


@pytest.mark.parametrize("dtype", (float, complex))
def test_orthonormal_columns_of_no_columns(dtype):
    """A block with no columns spans the zero subspace: its basis is an empty
    copy of it, of the same dtype, with no SVD to take."""
    m = np.zeros((4, 0), dtype=dtype)
    basis = orthonormal_columns(m)
    assert basis.shape == (4, 0) and basis.dtype == m.dtype and basis is not m


def test_up_to_scalar_distance():
    a = np.diag([1.0, 2.0, 3.0])
    an = a / np.linalg.norm(a)
    assert up_to_scalar_distance(5j * an, an) <= 1e-12
    b = np.eye(3) / np.sqrt(3)
    assert up_to_scalar_distance(b, an) > 0.1
    # Against the zero matrix every multiple is zero: the distance is ||b||.
    assert up_to_scalar_distance(3 * b, np.zeros((3, 3))) == float(np.linalg.norm(3 * b))


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


def _one_expression_rule(residual, holds_to, fails_from=None):
    """The rule of :func:`idemap.core._verdict` as one expression for both forms,
    the reference that its two-way body (``fails_from`` None) must equal."""
    hi = holds_to if fails_from is None else fails_from
    finite = (holds_to < np.inf) & (hi < np.inf) & (residual < np.inf)
    return finite * ((residual <= holds_to) * 1 - ((residual > holds_to) & (residual >= hi)))


#: Floats where the rule turns (zeros, a tie and its neighbour, NaN, both
#: infinities), mixed with any float.
RULE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, float(np.nextafter(1.0, 2.0)), 100.0,
                     np.nan, np.inf, -np.inf]),
    st.floats())


@settings(derandomize=True, max_examples=400, deadline=None)
@given(rows=st.lists(st.tuples(RULE_FLOATS, RULE_FLOATS, RULE_FLOATS), min_size=1, max_size=6),
       gap=st.booleans())
def test_verdict_is_the_one_rule(rows, gap):
    """Both bodies of ``_verdict`` give the one-expression rule's answers and
    types, on Python floats and on arrays, with and without ``fails_from``."""
    for args in [*rows, tuple(map(np.array, zip(*rows)))]:
        args = args if gap else args[:2]
        got, want = core._verdict(*args), _one_expression_rule(*args)
        assert type(got) is type(want)
        assert np.asarray(got).dtype == np.asarray(want).dtype
        assert np.asarray(got).tolist() == np.asarray(want).tolist()


@pytest.mark.parametrize("make, text", [
    (lambda: SemilinearOperator(np.eye(3), AutomorphismTag.IDENTITY),
     "SemilinearOperator(n=3, field=real, auto=id)"),
    (lambda: conjugation_operator(4), "SemilinearOperator(n=4, field=complex, auto=conj)"),
    (lambda: FiniteRankIdempotent(np.diag([1.0, 1.0, 0.0])), "FiniteRankIdempotent(n=3, rank=2)"),
    (lambda: IndefiniteSpace(np.diag([1.0, 1.0, -1.0])), "IndefiniteSpace(n=3, field=real)"),
    (lambda: Ray([1j, 0.0, 2.0]), "Ray(n=3)"),
], ids=("operator", "conjugation", "finite-rank", "space", "ray"))
def test_reprs_name_the_shape(make, text):
    assert repr(make()) == text


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


def _third(dtype):
    """1/3, times ``1 + i`` for a complex kind, in ``dtype`` (from its longdouble
    value, so a longdouble keeps digits that ``float64`` rounds off)."""
    third = np.longdouble(1) / 3
    return np.asarray(third * (1 + 1j) if np.dtype(dtype).kind == "c" else third).astype(dtype)


@pytest.mark.parametrize("dtype", [*np.typecodes["AllFloat"], int, bool], ids=str)
def test_every_array_is_read_as_float64_or_complex128(dtype):
    """The one dtype rule of the boundary (``core._as_array``): each public
    constructor stores ``complex128`` for a complex kind and ``float64`` for
    any other dtype, equal to the input read in that dtype (a longdouble
    rounded), and read-only."""
    field = np.complex128 if np.dtype(dtype).kind == "c" else np.float64
    c = _third(dtype)
    vector = np.array([1, c, 0], dtype)
    upper = np.eye(3, dtype=dtype)
    upper[0, 1] = c
    metric = upper.copy()
    metric[2, 2] = -1  # True for bool: the metric stays invertible
    idempotent = np.zeros((3, 3), dtype)
    idempotent[0, :2] = 1, c
    e1 = np.eye(3, dtype=dtype)[0]
    stored = {
        "rank-one": (RankOneIdempotent(vector, e1).x, vector),
        "rank-one f": (RankOneIdempotent(vector, e1).f, e1),
        "ray": (Ray(vector).representative, vector),
        "from pair": (rank_one_from_pair(vector, e1).x, vector),
        "operator": (SemilinearOperator(upper).matrix, upper),
        "space": (IndefiniteSpace(metric).eta, metric),
    }
    for name, (got, given) in stored.items():
        assert got.dtype == field, name
        assert np.array_equal(got, given.astype(field)), name
        assert not got.flags.writeable, name
    p = FiniteRankIdempotent(idempotent)
    assert p.rank == 1
    for row in p.rows:
        assert row.dtype == field and not row.flags.writeable
    assert np.abs(p.matrix - idempotent.astype(field)).max() <= 1e-15
    assert up_to_scalar_distance(upper, metric) == up_to_scalar_distance(
        upper.astype(field), metric.astype(field))


def _exact_idempotents():
    """``P = S diag(1,1,1,0,0,0) S^{-1}`` and ``Q = S diag(0,0,1,1,0,0) S^{-1}``
    for a product ``S`` of integer shears: ``P @ P == P`` holds exactly, and the
    largest entry of ``P`` is 36, so both are exact in every float dtype."""
    s = np.eye(6)
    for i, j, m in [(0, 1, 2), (1, 2, -1), (2, 3, 3), (3, 4, 1), (4, 5, -2), (5, 0, 1),
                    (1, 4, 1), (3, 0, -1)]:
        shear = np.eye(6)
        shear[i, j] = m
        s = s @ shear
    s_inv = np.round(np.linalg.inv(s))
    return (s @ np.diag([1.0, 1, 1, 0, 0, 0]) @ s_inv,
            s @ np.diag([0.0, 0, 1, 1, 0, 0]) @ s_inv)


SINGLE_AND_HALF = (np.float32, np.float16, np.complex64)


@pytest.mark.parametrize("dtype", SINGLE_AND_HALF, ids=lambda d: d.__name__)
def test_single_precision_idempotents_get_the_double_answers(dtype):
    """An idempotent given in single or half precision is read as its exact
    ``float64`` (``complex128``) value: it has rank 3 and 3 pieces, where a
    single-precision QR refused it (``NotIdempotent``)."""
    p, _ = _exact_idempotents()
    assert np.array_equal(p @ p, p) and np.abs(p).max() == 36
    assert FiniteRankIdempotent(p.astype(dtype)).rank == 3
    assert len(decompose(p.astype(dtype))) == 3


@pytest.mark.parametrize("dtype", SINGLE_AND_HALF, ids=lambda d: d.__name__)
def test_single_precision_majorants_have_least_rank(dtype):
    """The least majorants of single- or half-precision idempotents have the
    ranks of their exact values, 4 for ``(P, Q)`` and 3 for ``(P, P)``, where
    single-precision QRs gave 6 and 5."""
    p, q = (m.astype(dtype) for m in _exact_idempotents())
    assert majorant(p, q).rank == 4
    assert majorant(p, p).rank == 3


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_narrow_and_wide_dtypes_read_without_warnings_or_type_errors():
    """A float32 metric and rank-one pair and a float16 ray are read at a safe
    scale without an overflow in a cast (the ``2^+-500`` bounds of
    ``core._range_exponent``), and a longdouble metric constructs instead of
    failing in ``linalg`` with an untyped ``TypeError``."""
    signature = np.diag([1.0, 1.0, -1.0])
    for eta in (signature.astype(np.float32), signature.astype(np.longdouble)):
        space = IndefiniteSpace(eta)
        assert space.eta.dtype == np.float64 and np.array_equal(space.eta, signature)
    e1 = np.eye(3, dtype=np.float32)[0]
    assert np.array_equal(rank_one_from_pair(e1, e1).matrix, np.diag([1.0, 0, 0]))
    assert rays_equal(Ray(np.eye(3, dtype=np.float16)[0]), Ray(np.eye(3)[0]))


def test_single_precision_metric_generates_as_its_double_value():
    """Generation from a float32 metric is generation from its ``float64``
    value, bit for bit, and characterizes as linear, where the float32
    arithmetic missed the isometry certificate (``ArithmeticError``)."""
    t = np.eye(6) + 0.5 * np.triu(np.random.default_rng(1).standard_normal((6, 6)), 1)
    single = IndefiniteSpace(t.astype(np.float32))
    v = generate_eta_isometry(single, 3)
    assert characterize(single, v).kind is SymmetryKind.LINEAR
    want = generate_eta_isometry(IndefiniteSpace(t.astype(np.float32).astype(np.float64)), 3)
    assert v.matrix.tobytes() == want.matrix.tobytes()
