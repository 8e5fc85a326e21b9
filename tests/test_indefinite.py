import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from idemap.core import (
    RELATION_TOL,
    AutomorphismTag,
    ScalarField,
    SemilinearOperator,
    _as_vector,
    conjugation_operator,
    up_to_scalar_distance,
)
from idemap.errors import DegenerateImage, DegenerateProbe, DimensionMismatch, NotInduced, \
    SingularOperator
import idemap.indefinite as indefinite
from idemap.indefinite import (
    Characterization,
    IndefiniteSpace,
    Ray,
    RayMap,
    SymmetryKind,
    characterize,
    eta_orthogonal_partner,
    eta_product,
    generate_eta_isometry,
    induced_ray_map,
    is_symmetry,
    ray_eta_orthogonal,
    rays_equal,
    recover_inducing_operator,
)
from idemap.sampling import random_invertible, random_matrix, random_semilinear, random_vector
from idemap.selftest import _metric
from idemap.transform import TransformHandle, reconstruction_probe_set

MINKOWSKI = np.diag([1.0, 1.0, -1.0])


def hyperbolic_rotation():
    c, s = np.cosh(1.0), np.sinh(1.0)
    return SemilinearOperator(np.array([[1.0, 0, 0], [0, c, s], [0, s, c]]))


def nonsa_eta(n=3, dtype=float):
    strict_upper = np.triu(np.ones((n, n)), 1)
    return np.eye(n, dtype=dtype) + 0.4 * strict_upper.astype(dtype)


FIELDS = (ScalarField.REAL, ScalarField.COMPLEX)
FIELD_IDS = ("real", "complex")


def corpus_metric(rng, n, field, kind):
    """The four kinds of metric of the benchmark's corpus: a signature
    matrix, identity plus a strict upper triangle, a Hermitian indefinite
    congruence, and a generic Gaussian matrix."""
    if kind == 0:
        d = np.ones(n)
        d[n // 2:] = -1.0
        return np.diag(d).astype(field.dtype)
    if kind == 1:
        return np.eye(n) + 0.5 * np.triu(random_matrix(rng, (n, n), field), 1)
    if kind == 2:
        d = np.ones(n)
        d[: n // 3 + 1] = -1.0
        s = random_invertible(rng, n, field, max_cond=1e2)
        return s.conj().T @ (d[:, None] * s)
    return random_invertible(rng, n, field, max_cond=1e3)


#: Metrics whose Hermitian pencil ``H + iB`` has ``B_t = 0`` at some phase.
PHASE_FAMILIES = ("phase-signature", "phase-hermitian", "skew")


def phase_metric(rng, n, field, family):
    """``1j * signature`` and ``exp(0.3j) * Hermitian`` (complex only), or
    the symplectic ``J`` (even ``n`` only)."""
    if family == "skew":
        eye = np.eye(n // 2)
        zero = np.zeros_like(eye)
        return np.block([[zero, eye], [-eye, zero]]).astype(field.dtype)
    if family == "phase-signature":
        return 1j * corpus_metric(rng, n, ScalarField.COMPLEX, 0)
    return np.exp(0.3j) * corpus_metric(rng, n, ScalarField.COMPLEX, 2)


def eta_skew_basis(space):
    """Orthonormal (realified) basis of ``{K : eta K + K* eta = 0}``: the
    nullspace of the constraint on the ``float64`` view of ``K`` (it is only
    real-linear over the complex field), a ``2n^2 x 2n^2`` system (``n^2 x
    n^2`` over the reals) solved by SVD in ``O(n^6)``.  A singular value at
    most ``1e-9 max(1, ||eta||)`` counts as zero."""
    n, field, eta = space.n, space.field, space._safe_eta
    dim = 2 * n * n if field is ScalarField.COMPLEX else n * n
    cols = []
    for k in range(dim):
        kmat = np.eye(1, dim, k).view(field.dtype).reshape(n, n)
        cols.append((eta @ kmat + kmat.conj().T @ eta).view(np.float64).ravel())
    _, s, vh = np.linalg.svd(np.column_stack(cols))
    return vh[int(np.sum(s > 1e-9 * max(1.0, np.linalg.norm(eta)))):].conj().T


def nullspace_isometry(space, seed, scale=1.0):
    """Reference for :func:`generate_eta_isometry`: the seeded Gaussian
    projected onto the nullspace basis of the realified constraint."""
    n, field = space.n, space.field
    basis = eta_skew_basis(space)
    g = random_matrix(np.random.default_rng(seed), (n, n), field)
    k = (basis @ (basis.T @ g.view(np.float64).ravel())).view(field.dtype).reshape(n, n)
    return scipy.linalg.expm(k / np.linalg.norm(k)) * np.sqrt(scale)


def assert_generates(eta, seed, scale=2.0):
    """The seeded projection, corrected, meets its certificate ``||eta K + K*
    eta|| <= 1e-10 ||eta|| ||K||`` (``K`` as projected), and generation gives
    a nontrivial isometry of ``eta`` within its own certificate."""
    space = IndefiniteSpace(eta)
    route = indefinite._closed_form_or_pencil(space._safe_eta) or (lambda g: g)
    k = route(random_matrix(np.random.default_rng(seed), eta.shape, space.field))
    corrected = indefinite._corrected(eta, k)
    resid = np.linalg.norm(eta @ corrected + corrected.conj().T @ eta)
    assert resid <= 1e-10 * np.linalg.norm(eta) * np.linalg.norm(k)
    v = generate_eta_isometry(space, seed, scale).matrix
    resid = np.linalg.norm(v.conj().T @ eta @ v - scale * eta)
    assert resid <= 1e-9 * scale * (1 + np.linalg.norm(eta))
    assert np.linalg.norm(v / np.sqrt(scale) - np.eye(len(eta))) > 1e-3


class TestEtaProduct:
    def test_definite_case(self):
        space = IndefiniteSpace(np.eye(3))
        assert eta_product(space, [1, 0, 0], [1, 0, 0]) == 1.0

    def test_negative_direction(self):
        space = IndefiniteSpace(MINKOWSKI)
        assert eta_product(space, [0, 0, 1], [0, 0, 1]) == -1.0

    def test_null_vector(self):
        space = IndefiniteSpace(MINKOWSKI)
        x = [1.0, 0.0, 1.0]
        assert eta_product(space, x, x) == 0.0

    @pytest.mark.parametrize("x, y", [([1.0, 0], [1.0, 0, 0]), ([1.0, 0, 0], [1.0, 0, 0, 0])],
                             ids=("x", "y"))
    def test_dimension_mismatch(self, x, y):
        with pytest.raises(DimensionMismatch, match="eta_product dimension mismatch"):
            eta_product(IndefiniteSpace(MINKOWSKI), x, y)

    def test_sesquilinearity(self):
        # linear in the first slot, conjugate-linear in the second
        space = IndefiniteSpace(np.eye(3, dtype=complex))
        x = np.array([1.0, 1j, 0])
        y = np.array([0.5, 2.0, 1j])
        assert eta_product(space, 1j * x, y) == pytest.approx(
            1j * eta_product(space, x, y)
        )
        assert eta_product(space, x, 1j * y) == pytest.approx(
            -1j * eta_product(space, x, y)
        )


class TestRayOrthogonality:
    def test_definite_orthogonal(self):
        space = IndefiniteSpace(np.eye(3))
        assert ray_eta_orthogonal(space, Ray([1, 0, 0]), Ray([0, 1, 0]))

    def test_self_orthogonal_null_ray(self):
        space = IndefiniteSpace(MINKOWSKI)
        r = Ray([1.0, 0, 1.0])
        assert ray_eta_orthogonal(space, r, r)

    def test_not_orthogonal(self):
        space = IndefiniteSpace(MINKOWSKI)
        assert not ray_eta_orthogonal(space, Ray([1, 0, 0]), Ray([1, 0, 0]))

    @settings(max_examples=40, deadline=None)
    @given(
        a=st.floats(0.01, 100.0), b=st.floats(0.01, 100.0),
        flip=st.booleans(), seed=st.integers(0, 2**16),
    )
    def test_homogeneity(self, a, b, flip, seed):
        rng = np.random.default_rng(seed)
        space = IndefiniteSpace(MINKOWSKI)
        x = random_vector(rng, 3, ScalarField.REAL)
        y = random_vector(rng, 3, ScalarField.REAL)
        sa = -a if flip else a
        base = ray_eta_orthogonal(space, Ray(x), Ray(y))
        scaled = ray_eta_orthogonal(space, Ray(sa * x), Ray(b * y))
        assert base == scaled

    def test_scale_is_invisible(self):
        # ||eta e1|| = 1e200 squares to infinity unless read at a safe scale.
        e1, big = Ray([1.0, 0, 0]), Ray([1e200, 0, 0])
        assert not ray_eta_orthogonal(IndefiniteSpace(1e200 * MINKOWSKI), e1, e1)
        assert not ray_eta_orthogonal(IndefiniteSpace(MINKOWSKI), big, big)

    def test_crafted_partner_is_orthogonal(self):
        rng = np.random.default_rng(0)
        space = IndefiniteSpace(nonsa_eta(4, complex))
        for _ in range(50):
            x = random_vector(rng, 4, ScalarField.COMPLEX)
            y = eta_orthogonal_partner(space, x, rng)
            assert ray_eta_orthogonal(space, Ray(x), Ray(y))

    @pytest.mark.parametrize("x, error", [
        ([1.0, 0.0, 0.0], DimensionMismatch),
        (np.eye(4), DimensionMismatch),
        (np.zeros(4), ValueError),
        ([1.0, np.nan, 0.0, 0.0], ValueError),
        ("abcd", ValueError),
    ], ids=("wrong-length", "2-d", "zero", "nan", "string"))
    def test_partner_refuses_an_invalid_vector(self, x, error):
        # Refused before any draw: a generator that is never called.
        space = IndefiniteSpace(nonsa_eta(4, complex))
        with pytest.raises(error):
            eta_orthogonal_partner(space, x, rng=None)


class TestIsSymmetry:
    def test_identity_operator(self):
        space = IndefiniteSpace(MINKOWSKI)
        t = induced_ray_map(SemilinearOperator(np.eye(3)))
        assert is_symmetry(space, t, sample_count=300, seed=1).ok

    def test_hyperbolic_rotation(self):
        space = IndefiniteSpace(MINKOWSKI)
        u = hyperbolic_rotation()
        np.testing.assert_allclose(u.matrix.T @ MINKOWSKI @ u.matrix, MINKOWSKI,
                                   atol=1e-12)
        assert is_symmetry(space, induced_ray_map(u), sample_count=300, seed=2).ok

    def test_generic_triangular_violates(self):
        space = IndefiniteSpace(np.eye(3))
        u = SemilinearOperator(np.array([[1.0, 2.0, 0], [0, 1.0, 3.0], [0, 0, 1.0]]))
        report = is_symmetry(space, induced_ray_map(u), sample_count=300, seed=3)
        assert len(report.violations) >= 1

    def test_conjugate_linear_symmetries_pass(self):
        # plain conjugation over the definite metric, and a real isometry
        # of a real non-symmetric metric carrying the conjugation tag
        space = IndefiniteSpace(np.eye(3, dtype=complex))
        assert is_symmetry(space, induced_ray_map(conjugation_operator(3)),
                           sample_count=300, seed=13).ok
        eta = nonsa_eta(3, float)
        v = generate_eta_isometry(IndefiniteSpace(eta), seed=14)
        u = SemilinearOperator(v.matrix.astype(complex),
                               AutomorphismTag.CONJUGATION)
        space2 = IndefiniteSpace(eta.astype(complex))
        assert is_symmetry(space2, induced_ray_map(u),
                           sample_count=300, seed=15).ok


@pytest.mark.parametrize("op_scale, eta_scale", [(1e155, 1.0), (1.0, 1e200)],
                         ids=("operator", "metric"))
def test_is_symmetry_does_not_see_the_scale(op_scale, eta_scale):
    """The verdicts at a scale whose squares overflow are those at scale 1."""
    a = np.array([[1.0, 0.5, 0], [0, 1.0, 0], [0, 0, 1.0]])
    want = is_symmetry(IndefiniteSpace(MINKOWSKI), induced_ray_map(SemilinearOperator(a)))
    got = is_symmetry(IndefiniteSpace(eta_scale * MINKOWSKI),
                      induced_ray_map(SemilinearOperator(op_scale * a)))
    assert len(want.violations) == len(got.violations) == 250
    assert all(np.isfinite([v.source_margin, v.image_margin]).all() for v in got.violations)


def test_wrapped_ray_map_does_not_see_the_scale():
    """A wrapped ray map whose images square to infinity gets the verdict
    of the native map, with finite margins."""
    a = np.array([[1.0, 0.5, 0], [0, 1.0, 0], [0, 0, 1.0]])
    got = is_symmetry(IndefiniteSpace(MINKOWSKI),
                      RayMap(lambda r: Ray(1e155 * (a @ r.representative))))
    assert len(got.violations) == 250
    assert all(np.isfinite([v.source_margin, v.image_margin]).all() for v in got.violations)


class TestCharacterize:
    def test_identity_is_linear_symmetry(self):
        space = IndefiniteSpace(nonsa_eta(3, complex))
        ch = characterize(space, SemilinearOperator(np.eye(3, dtype=complex)))
        assert ch.kind is SymmetryKind.LINEAR and ch.is_symmetry
        assert ch.constant == pytest.approx(1.0)

    def test_scaled_hyperbolic(self):
        space = IndefiniteSpace(MINKOWSKI)
        u = SemilinearOperator(2.0 * hyperbolic_rotation().matrix)
        ch = characterize(space, u)
        assert ch.kind is SymmetryKind.LINEAR
        assert ch.constant == pytest.approx(4.0)

    def test_plain_conjugation(self):
        space = IndefiniteSpace(np.eye(3, dtype=complex))
        ch = characterize(space, conjugation_operator(3))
        assert ch.kind is SymmetryKind.CONJUGATE and ch.is_symmetry
        assert ch.constant == pytest.approx(1.0)

    def test_generic_is_none(self):
        rng = np.random.default_rng(4)
        space = IndefiniteSpace(MINKOWSKI)
        ch = characterize(space, SemilinearOperator(
            random_invertible(rng, 3, ScalarField.REAL)))
        assert ch.kind is SymmetryKind.NONE and not ch.is_symmetry
        assert ch.constant is None

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch, match="operator dimension does not match the space"):
            characterize(IndefiniteSpace(MINKOWSKI), SemilinearOperator(np.eye(4)))

    @pytest.mark.parametrize("scale, m", [(1e160, np.eye(3))], ids=("identity",))
    def test_overflow_is_refused(self, scale, m):
        # The constant, 1e320, overflows; an infinite one would be reported.
        u = SemilinearOperator(scale * np.asarray(m))
        with pytest.raises(ValueError, match="overflow"):
            characterize(IndefiniteSpace(MINKOWSKI), u)

    @pytest.mark.parametrize("m_scale, eta_scale", [
        (1e155, 1.0), (1e140, 1e140), (2.0**-350, 2.0**-350),
    ], ids=("non-isometry", "both-large", "both-small"))
    def test_far_scales_are_answered(self, m_scale, eta_scale):
        """A non-isometry is no symmetry where ``M^H eta M`` once overflowed
        (``ValueError``) or fell among the subnormals: ``M`` is read at unit
        scale, so only a constant out of range is refused."""
        u = SemilinearOperator(m_scale * np.array([[1, 0.5, 0], [0, 1, 0], [0, 0, 1]]))
        assert characterize(IndefiniteSpace(eta_scale * MINKOWSKI), u).kind is SymmetryKind.NONE

    def test_constant_matches_trace_formula(self):
        rng = np.random.default_rng(5)
        for i in range(20):
            n = 3 + i % 3
            eta = nonsa_eta(n, complex) if i % 2 else np.eye(n, dtype=complex)
            space = IndefiniteSpace(eta)
            scale = float(rng.uniform(0.5, 3.0))
            v = generate_eta_isometry(space, seed=i, scale=scale)
            ch = characterize(space, v)
            assert ch.kind is SymmetryKind.LINEAR
            m = v.matrix
            fitted = np.trace(np.linalg.inv(eta) @ m.conj().T @ eta @ m) / n
            assert abs(ch.constant - fitted) <= 1e-8 * max(1.0, abs(fitted))


#: The fields and tags of an operator; conjugation needs complex coordinates.
FIELD_TAGS = pytest.mark.parametrize("field, auto", [
    (ScalarField.REAL, AutomorphismTag.IDENTITY),
    (ScalarField.COMPLEX, AutomorphismTag.IDENTITY),
    (ScalarField.COMPLEX, AutomorphismTag.CONJUGATION),
], ids=("real-id", "complex-id", "complex-conj"))
SPLIT_ETA = np.diag([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])


@FIELD_TAGS
@pytest.mark.parametrize("m_scale, eta_scale", [
    (1e-5, 1.0), (1e-100, 1.0), (1e-200, 1.0), (1.0, 1e-10), (1.0, 1e-200),
])
def test_small_inputs_are_not_symmetries(field, auto, m_scale, eta_scale):
    """A Gaussian ``G`` (``default_rng(0)``; ``G + iH`` over the complex field)
    is no symmetry of ``diag(I_3, -I_3)``, and neither scale changes that.  An
    absolute term in the bound once made ``characterize`` call a small ``G``, or
    ``G`` on a small metric, a symmetry: ``LINEAR`` with constant 5.1e-10 at
    ``1e-5 G``, 5.12 on ``1e-10 eta``."""
    g = random_matrix(np.random.default_rng(0), (6, 6), field)
    space = IndefiniteSpace(eta_scale * SPLIT_ETA.astype(field.dtype))
    assert characterize(space, SemilinearOperator(m_scale * g, auto)).kind is SymmetryKind.NONE


@FIELD_TAGS
def test_scaled_isometry_reports_the_scaled_constant(field, auto):
    """A symmetry ``U`` scaled by ``2^k`` reports exactly ``2^2k`` times its
    constant, also beyond the safe scale (``k = +-510``) and with the metric
    scaled by ``2^k`` too (where ``M^H eta M`` once fell among the subnormals
    at ``k = -350`` and the symmetry read ``NONE``); on a metric scaled by
    ``2^k`` alone it reports the constant itself.  A constant out of the normal
    double range (``k = +-530``, ``+-600``, and ``1e-200 U``, which read as
    ``LINEAR`` with constant 0) is refused."""
    # A real isometry of a real metric, times a phase over the complex field,
    # is a symmetry for either tag.
    u = generate_eta_isometry(IndefiniteSpace(SPLIT_ETA), seed=3)
    m = u.matrix * (np.exp(0.7j) if field is ScalarField.COMPLEX else 1.0)
    eta = SPLIT_ETA.astype(field.dtype)
    space = IndefiniteSpace(eta)
    base = characterize(space, SemilinearOperator(m, auto))
    assert base.is_symmetry
    assert type(base.constant) is (complex if field is ScalarField.COMPLEX else float)
    for k in (40, -40, 510, -510):
        got = characterize(space, SemilinearOperator(m * 2.0**k, auto))
        assert got.kind is base.kind and got.constant == base.constant * 2.0**(2 * k)
        got = characterize(IndefiniteSpace(eta * 2.0**k), SemilinearOperator(m, auto))
        assert got.kind is base.kind and got.constant == base.constant
    for k in (350, -350, 500, -500):
        got = characterize(IndefiniteSpace(eta * 2.0**k), SemilinearOperator(m * 2.0**k, auto))
        assert got.kind is base.kind and got.constant == base.constant * 2.0**(2 * k)
    for s in (2.0**530, 2.0**-530, 2.0**600, 2.0**-600, 1e-200):
        with pytest.raises(ValueError, match="overflows or underflows"):
            characterize(space, SemilinearOperator(s * m, auto))


def characterize_by_basis_pairs(space, u, tol=RELATION_TOL):
    """Reference for :func:`characterize`: both sides of its identity
    evaluated on each of the ``n^2`` basis pairs."""
    n = space.n
    eye = np.eye(n, dtype=space.field.dtype)
    images = [u(eye[i]) for i in range(n)]
    lhs = np.empty((n, n), dtype=np.complex128)
    rhs = np.empty((n, n), dtype=np.complex128)
    eta_star = space.eta.conj().T
    for i in range(n):
        for j in range(n):
            lhs[i, j] = np.vdot(images[j], space.eta @ images[i])
            if u.auto is AutomorphismTag.IDENTITY:
                rhs[i, j] = np.vdot(eye[j], space.eta @ eye[i])
            else:
                rhs[i, j] = np.vdot(eye[i], eta_star @ eye[j])
    ref = np.unravel_index(int(np.argmax(np.abs(rhs))), rhs.shape)
    constant = lhs[ref] / rhs[ref]
    scale = np.abs(lhs).max() + abs(constant) * np.abs(rhs).max()
    if np.abs(lhs - constant * rhs).max() > tol * scale:
        return Characterization(SymmetryKind.NONE, None)
    kind = SymmetryKind.LINEAR if u.auto is AutomorphismTag.IDENTITY \
        else SymmetryKind.CONJUGATE
    return Characterization(kind, constant)


@pytest.mark.parametrize("field", (ScalarField.REAL, ScalarField.COMPLEX), ids=("real", "complex"))
@pytest.mark.parametrize("auto", (AutomorphismTag.IDENTITY, AutomorphismTag.CONJUGATION),
                         ids=("id", "conj"))
def test_characterize_matches_basis_pair_loop(field, auto):
    rng = np.random.default_rng(31)
    kinds = set()
    for i in range(40):
        n = 3 + i % 6
        # A conjugate-linear symmetry V h(x) needs V* eta V = c conj(eta):
        # a real isometry of a real metric, times a phase.
        metric_field = field if auto is AutomorphismTag.IDENTITY else ScalarField.REAL
        eta, _ = _metric(rng, n, metric_field, i)
        matrix = generate_eta_isometry(IndefiniteSpace(eta), seed=i,
                                       scale=float(rng.uniform(0.5, 4.0))).matrix
        if i % 3 == 2:
            matrix = random_invertible(rng, n, metric_field)
        if auto is AutomorphismTag.CONJUGATION:
            matrix = np.exp(1j * rng.uniform(0, 2 * np.pi)) * matrix
        space = IndefiniteSpace(eta.astype(field.dtype))
        u = SemilinearOperator(matrix, auto)
        got, want = characterize(space, u), characterize_by_basis_pairs(space, u)
        assert got.kind is want.kind
        kinds.add(got.kind)
        if want.constant is not None:
            assert abs(got.constant - want.constant) <= 1e-12 * abs(want.constant)
    assert SymmetryKind.NONE in kinds and len(kinds) == 2


class TestGenerateEtaIsometry:
    def test_definite_case_gives_unitary(self):
        space = IndefiniteSpace(np.eye(4, dtype=complex))
        v = generate_eta_isometry(space, seed=6, scale=1.0)
        np.testing.assert_allclose(v.matrix.conj().T @ v.matrix, np.eye(4),
                                   atol=1e-9)

    def test_minkowski_metric_preserved(self):
        space = IndefiniteSpace(MINKOWSKI)
        v = generate_eta_isometry(space, seed=7, scale=1.0)
        np.testing.assert_allclose(v.matrix.T @ MINKOWSKI @ v.matrix, MINKOWSKI,
                                   atol=1e-9)
        assert np.linalg.norm(v.matrix - np.eye(3)) > 1e-3  # nontrivial draw

    def test_scaled_output(self):
        space = IndefiniteSpace(MINKOWSKI)
        v = generate_eta_isometry(space, seed=8, scale=4.0)
        ch = characterize(space, v)
        assert ch.kind is SymmetryKind.LINEAR
        assert abs(ch.constant - 4.0) <= 1e-8

    def test_non_self_adjoint_metric(self):
        for dtype in (float, complex):
            space = IndefiniteSpace(nonsa_eta(4, dtype))
            v = generate_eta_isometry(space, seed=9, scale=2.0)
            resid = np.linalg.norm(
                v.matrix.conj().T @ space.eta @ v.matrix - 2.0 * space.eta
            )
            assert resid <= 1e-9 * 2.0 * (1 + np.linalg.norm(space.eta))
            assert np.linalg.norm(v.matrix / np.sqrt(2.0) - np.eye(4)) > 1e-3

    def test_singular_hermitian_part_starts_from_the_identity(self):
        """``eta = I + 2 e_1 e_2^T`` is invertible, but its Hermitian part,
        which the pencil keeps as ``H_t``, is singular: the closed form is
        ``None``, and both the route and the correction start from the
        identity.  The isometry still meets its certificate."""
        eta = np.eye(3) + 2.0 * np.outer(np.eye(3)[0], np.eye(3)[1])
        h, _, h_t, vanishes = indefinite._hermitian_pencil(eta)
        assert not vanishes and h_t is h
        assert indefinite._self_adjoint_projection(h) is None
        v = generate_eta_isometry(IndefiniteSpace(eta), seed=9, scale=2.0).matrix
        assert np.linalg.norm(v.T @ eta @ v - 2.0 * eta) <= 1e-9 * 2.0 * (1 + np.linalg.norm(eta))
        assert np.linalg.norm(v / np.sqrt(2.0) - np.eye(3)) > 1e-3

    def test_scalar_multiples_stay_symmetries(self):
        rng = np.random.default_rng(10)
        space = IndefiniteSpace(nonsa_eta(3, complex))
        v = generate_eta_isometry(space, seed=11, scale=1.5)
        c = complex(rng.standard_normal(), rng.standard_normal())
        scaled = SemilinearOperator(c * v.matrix)
        report = is_symmetry(space, induced_ray_map(scaled), sample_count=300,
                             seed=12)
        assert report.ok

    @pytest.mark.parametrize("eta_scale", [1e200, 1e-200])
    def test_scale_of_the_metric_is_invisible(self, eta_scale):
        # At 1e200 the residual and its bound overflow to inf, which passes
        # the certificate unchecked.
        want = generate_eta_isometry(IndefiniteSpace(MINKOWSKI), 3, 2.0).matrix
        got = generate_eta_isometry(IndefiniteSpace(eta_scale * MINKOWSKI), 3, 2.0).matrix
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("scale", (1e200, 1e250))
    def test_large_scale_is_certified_before_scaling(self, scale):
        # Certified at ``scale``, the residual overflowed to inf (refused) or
        # to NaN (returned unchecked, with RuntimeWarnings).
        space = IndefiniteSpace(1e100 * np.diag([1.0, 1, 1, -1, -1, -1]))
        v = generate_eta_isometry(space, seed=0, scale=scale)
        e = generate_eta_isometry(space, seed=0).matrix
        np.testing.assert_array_equal(v.matrix, e * np.sqrt(scale))
        resid = np.linalg.norm(e.conj().T @ space.eta @ e - space.eta)
        assert resid <= 1e-9 * np.linalg.norm(space.eta)

    def test_certificate_refuses_a_non_isometry(self, monkeypatch):
        # The exponential is certified against the metric, not trusted: a
        # wrong one (here 2 exp(K)) is refused, not returned.
        expm = scipy.linalg.expm
        monkeypatch.setattr(scipy.linalg, "expm", lambda k: 2 * expm(k))
        with pytest.raises(ArithmeticError, match="isometry generation failed, residual"):
            generate_eta_isometry(IndefiniteSpace(MINKOWSKI), seed=13)

    def test_bad_scale_rejected(self):
        space = IndefiniteSpace(MINKOWSKI)
        with pytest.raises(ValueError):
            generate_eta_isometry(space, seed=13, scale=0.0)

    @pytest.mark.parametrize("scale", (np.nan, np.inf, -np.inf), ids=("nan", "inf", "-inf"))
    def test_non_finite_scale_rejected(self, scale):
        # nan passes ``scale <= 0`` and the residual check (comparisons
        # with nan are false), so it needs its own refusal
        with pytest.raises(ValueError, match="finite|positive"):
            generate_eta_isometry(IndefiniteSpace(MINKOWSKI), seed=3, scale=scale)

    @pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
    def test_matches_the_nullspace_projection(self, field):
        rng = np.random.default_rng(16)
        metrics = [_metric(rng, 3 + i % 6, field, i)[0] for i in range(30)]
        metrics += [corpus_metric(rng, 16, field, kind) for kind in range(4)]
        metrics += [phase_metric(rng, n, field, family) for n in range(3, 9)
                    for family in PHASE_FAMILIES
                    if (field is ScalarField.COMPLEX or family == "skew")
                    and (family != "skew" or n % 2 == 0)]
        # ``H`` = diag(1, 0, 0, 0) is exactly singular: the pencil solve fails
        metrics.append((phase_metric(rng, 4, field, "skew")
                        + np.diag([1.0, 0, 0, 0])).astype(field.dtype))
        for i, eta in enumerate(metrics):
            space = IndefiniteSpace(eta)
            scale = float(rng.uniform(0.5, 4.0))
            want = nullspace_isometry(space, seed=i, scale=scale)
            got = generate_eta_isometry(space, seed=i, scale=scale).matrix
            assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want), (i, eta.shape)

    @pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
    def test_repeated_cosquare_eigenvalue_takes_the_fallback(self, field):
        # The Hermitian block gives the pencil eigenvalue 0 (the cosquare
        # eigenvalue 1) three times: the pencil refuses.
        rng = np.random.default_rng(17)
        h = random_matrix(rng, (3, 3), field)
        eta = scipy.linalg.block_diag(h + h.conj().T, nonsa_eta(3, field.dtype))
        assert indefinite._closed_form_or_pencil(eta) is None
        space = IndefiniteSpace(eta)
        want = nullspace_isometry(space, seed=18)
        got = generate_eta_isometry(space, seed=18).matrix
        assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)
        assert np.linalg.norm(got - np.eye(6)) > 1e-3

    @pytest.mark.parametrize("field, n, seed", ((ScalarField.COMPLEX, 32, 427),
                                                (ScalarField.REAL, 45, 26)), ids=("complex", "real"))
    def test_hermitian_beside_triangle_at_the_old_range_edge(self, field, n, seed):
        # The largest sizes the SVD nullspace took.  The complex Hermitian
        # block has an eigenvalue at 3.1e-3 (``cond(eta)`` 4.6e3): LSQR on all
        # of ``K`` needs 23456 iterations, above the cap; restricted to the
        # ``H``-skew matrices, 3202.
        rng = np.random.default_rng(seed)
        h = random_matrix(rng, (n // 2, n // 2), field)
        t = np.eye(n - n // 2) + 0.5 * np.triu(random_matrix(rng, (n - n // 2,) * 2, field), 1)
        space = IndefiniteSpace(scipy.linalg.block_diag(h + h.conj().T, t))
        assert indefinite._closed_form_or_pencil(space.eta) is None
        want = nullspace_isometry(space, seed=5)
        got = generate_eta_isometry(space, seed=5).matrix
        assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)

    @pytest.mark.parametrize("seed", (11, 25))
    def test_complex_n64_inaccurate_pencil_is_corrected(self, seed):
        # Identity plus a Gaussian strict upper triangle: at these seeds the
        # pencil eigenvectors miss the certificate by about 2x, and a few
        # LSQR iterations correct the projection (8192 realified unknowns).
        eta = corpus_metric(np.random.default_rng(seed), 64, ScalarField.COMPLEX, 1)
        assert_generates(eta, seed=0)

    def test_complex_n64_block_scalar_metric(self):
        # ``S* diag(I, -I, (1+i) I) S`` repeats the pencil eigenvalues 0 and
        # 1: no route, and LSQR projects the Gaussian's ``H``-skew part.
        # ``cond(S)`` is about 10.
        s = np.eye(64) + random_matrix(np.random.default_rng(24), (64, 64), ScalarField.COMPLEX) / 16
        d = np.repeat([1, -1, 1 + 1j], [22, 21, 21])
        eta = s.conj().T @ (d[:, None] * s)
        assert indefinite._closed_form_or_pencil(eta) is None
        assert_generates(eta, seed=0)

    @pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
    @pytest.mark.parametrize("sign", (1, -1), ids=("definite", "indefinite"))
    @pytest.mark.parametrize("units", (1e4, 1e5, 1e6))
    def test_close_pencil_eigenvalues_are_refused_or_accurate(self, field, sign, units):
        # ``eta = W^{-*} M W^{-1}`` with ``M`` made of 2 x 2 blocks ``[[s, m],
        # [-m, s]]`` has the pencil eigenvalues ``+-m`` (``+-im`` over the
        # reals).  The first two ``m`` lie ``units`` eigenvalue-error
        # estimates ``eps cond(W) max|m|`` apart: the spectral certificate
        # passes, but the eigenvectors are too inaccurate to meet 1e-9.
        rng = np.random.default_rng(23)
        for _ in range(3):
            w = random_invertible(rng, 6, field, max_cond=10)
            m = np.array([0.5, 0.5, rng.uniform(1.0, 2.0)])
            m[1] += units * np.finfo(float).eps * np.linalg.cond(w, "fro") * m.max()
            w_inv = np.linalg.inv(w)
            eta = w_inv.conj().T @ scipy.linalg.block_diag(
                *([[s, x], [-x, s]] for s, x in zip((1, sign, -1), m))) @ w_inv
            project = indefinite._closed_form_or_pencil(eta)
            if project is not None:
                k = indefinite._corrected(eta, project(random_matrix(rng, (6, 6), field)))
                resid = np.linalg.norm(eta @ k + k.conj().T @ eta)
                assert resid <= 1e-10 * np.linalg.norm(eta) * np.linalg.norm(k)
            space = IndefiniteSpace(eta)
            for seed in range(3):
                generate_eta_isometry(space, seed, scale=2.0)

    @pytest.mark.parametrize(
        "kind", (0, 1, 2, 3, *PHASE_FAMILIES),
        ids=("signature", "triangle", "hermitian", "gaussian", *PHASE_FAMILIES))
    def test_complex_n64_without_the_nullspace(self, kind, monkeypatch):
        # The closed form and the certified pencil need no LSQR correction
        # at this seed.  The skew metric is real.
        def no_correction(*args, **kwargs):
            raise AssertionError("projection needed the LSQR correction")

        monkeypatch.setattr(scipy.sparse.linalg, "lsqr", no_correction)
        rng = np.random.default_rng(19)
        if kind in PHASE_FAMILIES:
            field = ScalarField.REAL if kind == "skew" else ScalarField.COMPLEX
            eta = phase_metric(rng, 64, field, kind)
        else:
            eta = corpus_metric(rng, 64, ScalarField.COMPLEX, kind)
        assert_generates(eta, seed=20)

    @pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
    def test_no_svd_after_the_space_is_built(self, field, monkeypatch):
        # The isometry, its adjoint and its inverse keep the condition
        # number of checked matrices, so none repeats the SVD check.
        rng = np.random.default_rng(21)
        spaces = [IndefiniteSpace(corpus_metric(rng, 5, field, kind)) for kind in (1, 2)]
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
        for space in spaces:
            v = generate_eta_isometry(space, seed=22)
            v.adjoint().inverse().adjoint()
            v.inverse()
        assert not calls


class TestRecovery:
    def test_identity(self):
        space = IndefiniteSpace(MINKOWSKI)
        t = induced_ray_map(SemilinearOperator(np.eye(3)))
        result = recover_inducing_operator(space, t, validation_count=15, seed=0)
        assert up_to_scalar_distance(result.A.matrix, np.eye(3) / np.sqrt(3)) <= 1e-7

    def test_hyperbolic_rotation(self):
        space = IndefiniteSpace(MINKOWSKI)
        u = hyperbolic_rotation()
        result = recover_inducing_operator(space, induced_ray_map(u),
                                           validation_count=15, seed=1)
        assert result.residual <= 1e-7
        assert up_to_scalar_distance(
            result.A.matrix, u.matrix / np.linalg.norm(u.matrix)
        ) <= 1e-7

    def test_conjugation(self):
        space = IndefiniteSpace(np.eye(3, dtype=complex))
        result = recover_inducing_operator(
            space, induced_ray_map(conjugation_operator(3)),
            validation_count=15, seed=2,
        )
        assert result.A.auto is AutomorphismTag.CONJUGATION
        assert up_to_scalar_distance(result.A.matrix, np.eye(3) / np.sqrt(3)) <= 1e-7

    def test_conjugate_symmetry_with_real_nonsymmetric_eta(self):
        eta = nonsa_eta(3, float)
        real_space = IndefiniteSpace(eta)
        v = generate_eta_isometry(real_space, seed=3)
        u = SemilinearOperator(v.matrix.astype(complex),
                               AutomorphismTag.CONJUGATION)
        space = IndefiniteSpace(eta.astype(complex))
        result = recover_inducing_operator(space, induced_ray_map(u),
                                           validation_count=15, seed=4)
        assert result.A.auto is AutomorphismTag.CONJUGATION
        assert up_to_scalar_distance(
            result.A.matrix, u.matrix / np.linalg.norm(u.matrix)
        ) <= 1e-6

    @pytest.mark.parametrize("eta_scale", [1e200, 1e-200])
    def test_scale_of_the_metric_is_invisible(self, eta_scale):
        # At 1e200 the probe functionals ``eta^{-1} f`` squared to zero
        # unless read at a safe scale, and were refused as zero rays.
        space = IndefiniteSpace(eta_scale * MINKOWSKI)
        v = generate_eta_isometry(space, 3, 2.0)
        result = recover_inducing_operator(space, induced_ray_map(v), validation_count=15, seed=7)
        assert result.residual <= 1e-10
        assert up_to_scalar_distance(
            result.A.matrix, v.matrix / np.linalg.norm(v.matrix)) <= 1e-10

    def test_non_symmetry_rejected(self):
        rng = np.random.default_rng(5)
        space = IndefiniteSpace(MINKOWSKI)
        u = random_semilinear(rng, 3, ScalarField.REAL)
        t = induced_ray_map(u)
        with pytest.raises(NotInduced):
            recover_inducing_operator(space, t, validation_count=15, seed=6)

    def test_vanishing_image_pairing_is_a_degenerate_probe(self):
        """The ray pair is lifted by the rule of ``from_ray_pair``: an image
        pairing that vanishes is refused as a degenerate image.  Here the
        second trace probe's image is the pair ``(e1, e2)``."""
        e = np.eye(3, dtype=complex)
        t = RayMap(lambda ray: Ray(e[0] if abs(ray.representative[0])
                                   >= abs(ray.representative[1]) else e[1]))
        with pytest.raises(DegenerateProbe, match="image pairing vanishes") as info:
            recover_inducing_operator(IndefiniteSpace(e), t)
        assert isinstance(info.value.__cause__, DegenerateImage)


def reference_ray(representative):
    """The checks of ``Ray`` in their first order: ``_as_vector``
    (dimension, then finiteness), then a nonzero entry, at any scale."""
    v = _as_vector(representative, "representative")
    if not v.any():
        raise ValueError("a ray needs a nonzero representative")
    return v


def _ray_table():
    """Valid real and complex vectors; NaN, +inf and -inf at every entry
    (in the real and in the imaginary part over the complex field); int,
    bool and list inputs; wrong dimensions; zero, tiny and huge entries."""
    real, cplx = [0.5, 1.0, -2.0], [1 + 1j, 0.5, 2j]
    cases = [real, cplx]
    for v, complex_field in ((real, False), (cplx, True)):
        bad = [np.nan, np.inf, -np.inf]
        if complex_field:
            bad += [complex(0.0, value) for value in bad]
        for value in bad:
            for i in range(3):
                out = np.array(v)
                out[i] = value
                cases.append(out)
    return cases + [
        [1, 0, 0], [0, 0, 0], [True, False, False], [False, False, False],
        np.array([1, 2, 3]), 1.0, [[1.0, 0, 0]], [[np.nan, 0, 0]], [0.0, 0, 0],
        [1e-160, 0, 0], [1e-162, 1e-162, 0], [1e-200, 0, 0], [1e-160j, 0, 0],
        [1e-162j, 0, 0], [1e200, 0, 0], [1e200, 1e200, 1e200], [1e200 + 1e200j, 0, 0],
    ]


def test_one_dimension_refusal():
    """Handles, probe sets and spaces refuse the plane with one message,
    which names the theorem's hypothesis."""
    messages = set()
    for refuse in (lambda: TransformHandle(lambda p: p, 2, ScalarField.REAL),
                   lambda: reconstruction_probe_set(2, ScalarField.COMPLEX),
                   lambda: IndefiniteSpace(np.diag([1.0, -1.0]))):
        with pytest.raises(ValueError, match="the theorem needs dimension >= 3") as info:
            refuse()
        messages.add(str(info.value))
    assert messages == {"dimension 2 is not supported: the theorem needs dimension >= 3, and "
                        "in the plane a preserver need not be induced"}


class TestRays:
    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            Ray([0.0, 0.0, 0.0])

    @pytest.mark.parametrize("scale", (1e-200, 1e200))
    def test_wrapped_ray_maps_at_any_scale(self, scale):
        """A wrapped ray map whose images are scaled far from 1 gives the
        verdicts of the unscaled map: the same violations (250 of 500 for
        this shear, which is not a symmetry) and the same recovery."""
        space = IndefiniteSpace(np.diag([1.0, 1.0, -1.0]))
        shear = np.array([[1.0, 0.5, 0], [0, 1.0, 0], [0, 0, 1.0]])

        def scaled(m, s):
            return RayMap(lambda ray: Ray(s * (m @ ray.representative)))

        want = is_symmetry(space, scaled(shear, 1.0))
        got = is_symmetry(space, scaled(shear, scale))
        assert len(want.violations) == len(got.violations) == 250
        for v, w in zip(got.violations, want.violations):
            assert np.array_equal(v.first, w.first) and np.array_equal(v.second, w.second)
            assert v.source_margin == w.source_margin
            assert v.image_margin == pytest.approx(w.image_margin, rel=1e-12, abs=1e-20)
        result = recover_inducing_operator(space, scaled(np.eye(3), scale))
        assert up_to_scalar_distance(result.A.matrix, np.eye(3)) <= 1e-12

    @pytest.mark.parametrize("scale", (1e-200, 1e200))
    def test_partner_at_any_scale(self, scale):
        space = IndefiniteSpace(np.diag([1.0, 1.0, -1.0]))
        x = scale * np.array([1.0, 2.0, 0.5])
        with np.errstate(all="raise"):
            y = eta_orthogonal_partner(space, x, np.random.default_rng(0))
        assert ray_eta_orthogonal(space, Ray(x), Ray(y))

    @pytest.mark.parametrize("representative", _ray_table())
    def test_refuses_as_the_reference_does(self, representative):
        """``Ray`` accepts exactly the vectors the reference accepts, with
        the same representative, and refuses the others with its error
        type."""
        try:
            want = reference_ray(representative)
        except Exception as exc:
            with pytest.raises(type(exc)) as info:
                Ray(representative)
            assert type(info.value) is type(exc)
            return
        got = Ray(representative).representative
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert not got.flags.writeable

    def test_equality_up_to_scalar(self):
        assert rays_equal(Ray([1.0, 2.0, 0]), Ray([-3.0, -6.0, 0]))
        assert rays_equal(Ray([1j, 0, 0]), Ray([1.0 + 0j, 0, 0]))
        assert not rays_equal(Ray([1.0, 0, 0]), Ray([1.0, 1e-4, 0]))

    def test_equality_does_not_overflow(self):
        # ||b|| = 1e200 squares to infinity unless read at a safe scale.
        assert not rays_equal(Ray([1e200, 0, 0]), Ray([0, 1e200, 0]))
        assert rays_equal(Ray([1e200, 0, 0]), Ray([-3e-100, 0, 0]))

    def test_dimension_mismatch_is_typed(self):
        space = IndefiniteSpace(MINKOWSKI)
        three, four = Ray([1.0, 0, 0]), Ray([1.0, 0, 0, 0])
        with pytest.raises(DimensionMismatch, match="dimensions 3 vs 4"):
            rays_equal(three, four)
        for rx, ry in ((four, three), (three, four), (four, four)):
            with pytest.raises(DimensionMismatch, match="in dimension 3"):
                ray_eta_orthogonal(space, rx, ry)


def test_space_validation():
    with pytest.raises(ValueError):
        IndefiniteSpace(np.zeros((3, 3)))
    with pytest.raises(SingularOperator):
        IndefiniteSpace(np.diag([1.0, 1.0, 0.0]))
    with pytest.raises(ValueError):
        IndefiniteSpace(np.eye(2))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("field, auto", [
    (ScalarField.REAL, AutomorphismTag.IDENTITY),
    (ScalarField.COMPLEX, AutomorphismTag.IDENTITY),
    (ScalarField.COMPLEX, AutomorphismTag.CONJUGATION),
], ids=("real", "complex-id", "complex-conj"))
def test_a_ray_near_the_float_maximum_is_mapped(field, auto):
    """Representatives peaking at 0.9e308, where the operator's products
    overflow, map to the rays of their scale-1 rows: as a block of rows and
    by the one-row ``eval``."""
    rng = np.random.default_rng(1)
    u = SemilinearOperator(random_invertible(rng, 6, field), auto)
    t = induced_ray_map(u)
    x = random_matrix(rng, (4, 6), field)
    x = 0.9 * x / np.abs(x).max(axis=1, keepdims=True)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        auto.apply(x * 1e308) @ u.matrix.T
    want = t._rows(x)
    for got in (t._rows(x * 1e308), [t.eval(Ray(row * 1e308)).representative for row in x]):
        for g, w in zip(got, want):
            assert rays_equal(Ray(g), Ray(w))
