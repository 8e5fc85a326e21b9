"""The batch samplers against the per-pair samplers they replace.

``check_preservation`` and ``is_symmetry`` draw, map and judge pairs in
blocks.  The reference samplers below draw one pair at a time with the
public per-pair helpers and judge it with matrix margins, as the
samplers did before; the batch samplers must report the same violating
pairs bit-for-bit, with margins equal to within rounding.
"""

import dataclasses

import numpy as np
import pytest

from idemap.core import AutomorphismTag, ScalarField, SemilinearOperator
from idemap.errors import DegenerateImage, DimensionMismatch
from idemap.idempotents import RankOneIdempotent
from idemap.indefinite import (
    IndefiniteSpace,
    Ray,
    RayMap,
    _draw_ray_pairs,
    apply_ray_map,
    eta_orthogonal_partner,
    generate_eta_isometry,
    induced_ray_map,
    is_symmetry,
    recover_inducing_operator,
)
from idemap.sampling import _VectorStream, random_idempotent, random_invertible, \
    random_rank_one, random_vector
from idemap.transform import (
    SAMPLE_BLOCK,
    RayPair,
    TransformHandle,
    _draw_idempotent_pairs,
    automorphism_of,
    check_preservation,
    extend,
    from_ray_pair,
    induce,
    probe_table_from_operator,
    reconstruct,
    transpose_handle,
    zero_product_partner,
)

SIZES = (3, 6, 16, 64)
COUNTS = (0, 1, 2, SAMPLE_BLOCK - 1, SAMPLE_BLOCK, SAMPLE_BLOCK + 1, 500)
#: (field, tag) of each case: real linear, complex linear, complex
#: conjugate-linear.
KINDS = (
    (ScalarField.REAL, AutomorphismTag.IDENTITY),
    (ScalarField.COMPLEX, AutomorphismTag.IDENTITY),
    (ScalarField.COMPLEX, AutomorphismTag.CONJUGATION),
)
KIND_IDS = ("real", "complex-id", "complex-conj")
MARGIN_RTOL = 1e-9


# -- reference samplers ----------------------------------------------------

def _matrix_margin(p, q):
    pm, qm = p.matrix, q.matrix
    return float(np.linalg.norm(pm @ qm) / (np.linalg.norm(pm) * np.linalg.norm(qm)))


def _eta_margin(eta, x, y):
    w = eta @ x
    return float(abs(np.vdot(y, w)) / (np.linalg.norm(w) * np.linalg.norm(y)))


def _decisive(pre, post, tol):
    return (pre <= tol and post >= 100 * tol) or (post <= tol and pre >= 100 * tol)


def reference_preservation(phi, sample_count, seed, tol=1e-8):
    """``(p, q, pre, post)`` of each violating pair, one pair at a time."""
    rng = np.random.default_rng(seed)
    crafted = sample_count // 2
    found = []
    for i in range(sample_count):
        p = random_rank_one(rng, phi.n, phi.field)
        if i < crafted:
            q = zero_product_partner(rng, p, phi.field)
        else:
            q = random_rank_one(rng, phi.n, phi.field)
        pre = _matrix_margin(p, q)
        post = _matrix_margin(phi(p), phi(q))
        if _decisive(pre, post, tol):
            found.append((p, q, pre, post))
    return found


def reference_symmetry(space, t, sample_count, seed, tol=1e-8):
    """``(x, y, pre, post)`` of each violating pair, one pair at a time."""
    rng = np.random.default_rng(seed)
    crafted = sample_count // 2
    found = []
    for i in range(sample_count):
        x = random_vector(rng, space.n, space.field)
        if i < crafted:
            y = eta_orthogonal_partner(space, x, rng)
        else:
            y = random_vector(rng, space.n, space.field)
        pre = _eta_margin(space.eta, x, y)
        post = _eta_margin(space.eta, apply_ray_map(t, x), apply_ray_map(t, y))
        if _decisive(pre, post, tol):
            found.append((x, y, pre, post))
    return found


def reference_idempotent_pairs(rng, n, field, count):
    """Rows of the pairs the per-pair helpers draw, P and Q interleaved."""
    crafted = count // 2
    rows = []
    for i in range(count):
        p = random_rank_one(rng, n, field)
        q = zero_product_partner(rng, p, field) if i < crafted \
            else random_rank_one(rng, n, field)
        rows += [(p.x, p.f), (q.x, q.f)]
    return np.array([x for x, _ in rows]), np.array([f for _, f in rows])


def reference_ray_pairs(rng, space, count):
    crafted = count // 2
    rows = []
    for i in range(count):
        x = random_vector(rng, space.n, space.field)
        y = eta_orthogonal_partner(space, x, rng) if i < crafted \
            else random_vector(rng, space.n, space.field)
        rows += [x, y]
    return np.array(rows)


# -- helpers -----------------------------------------------------------------

def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def assert_margin_close(value, reference):
    assert value == pytest.approx(reference, rel=MARGIN_RTOL, abs=1e-15)


def generic_matrix(rng, n, field):
    return random_invertible(rng, n, field, max_cond=1e3)


class ScriptedGenerator:
    """Generator whose normal stream starts with fixed values and then
    continues with a seeded generator's."""

    def __init__(self, head, seed):
        self._head = np.asarray(head, dtype=float)
        self._rng = np.random.default_rng(seed)

    def standard_normal(self, size):
        take, self._head = self._head[:size], self._head[size:]
        return np.concatenate([take, self._rng.standard_normal(size - take.size)])


# -- same pairs, same verdicts ------------------------------------------------

@pytest.mark.parametrize("count", COUNTS)
@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("field", (ScalarField.REAL, ScalarField.COMPLEX),
                         ids=("real", "complex"))
def test_preservation_violations_match_reference(n, field, count):
    phi = transpose_handle(n, field)
    seed = 1000 * n + count
    report = check_preservation(phi, sample_count=count, seed=seed)
    expected = reference_preservation(phi, count, seed)
    assert report.pairs_tested == count
    assert len(report.violations) == len(expected)
    for v, (p, q, pre, post) in zip(report.violations, expected):
        for got, want in ((v.first.x, p.x), (v.first.f, p.f), (v.second.x, q.x),
                          (v.second.f, q.f)):
            assert_same_bits(got, want)
        assert_margin_close(v.source_margin, pre)
        assert_margin_close(v.image_margin, post)


@pytest.mark.parametrize("count", COUNTS)
@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("field,tag", KINDS, ids=KIND_IDS)
def test_symmetry_violations_match_reference(n, field, tag, count):
    rng = np.random.default_rng(n + count)
    space = IndefiniteSpace(generic_matrix(rng, n, field))
    t = induced_ray_map(SemilinearOperator(generic_matrix(rng, n, field), tag))
    seed = 2000 * n + count
    report = is_symmetry(space, t, sample_count=count, seed=seed)
    expected = reference_symmetry(space, t, count, seed)
    assert report.pairs_tested == count
    assert len(report.violations) == len(expected)
    if count >= 2:
        assert expected  # the comparison covers violating pairs
    for v, (x, y, pre, post) in zip(report.violations, expected):
        assert_same_bits(v.first, x)
        assert_same_bits(v.second, y)
        # Row-wise, the margins make the same BLAS calls as one at a time.
        assert (v.source_margin, v.image_margin) == (pre, post)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("field", (ScalarField.REAL, ScalarField.COMPLEX),
                         ids=("real", "complex"))
def test_all_drawn_pairs_match_reference(n, field):
    """Both halves of the sample, not only the pairs that violate."""
    count = 3 * SAMPLE_BLOCK + 5
    x, f = _draw_idempotent_pairs(
        _VectorStream(np.random.default_rng(n), n, field), n, field,
        count // 2, count - count // 2)
    ref_x, ref_f = reference_idempotent_pairs(np.random.default_rng(n), n, field, count)
    assert_same_bits(x, ref_x)
    assert_same_bits(f, ref_f)

    space = IndefiniteSpace(generic_matrix(np.random.default_rng(n + 1), n, field))
    rays = _draw_ray_pairs(_VectorStream(np.random.default_rng(n), n, field), space,
                           count // 2, count - count // 2)
    assert_same_bits(rays, reference_ray_pairs(np.random.default_rng(n), space, count))


def test_degenerate_and_rejected_draws_follow_the_helpers():
    """Draws the look-ahead window cannot settle (a partner that
    degenerates and is redrawn, long runs of rejected pairs) are left to
    the per-pair helpers, and the stream stays aligned afterwards."""
    n, field = 3, ScalarField.REAL
    rejected = [1.0, 0, 0, 0, 1.0, 0] * 30          # pair(x, f) = 0
    degenerate = [1.0, 0, 0, 1.0, 0, 0, 2.0, 0, 0]   # y0 parallel to x
    for head in (degenerate, rejected * 2, rejected + degenerate, degenerate * 2):
        x, f = _draw_idempotent_pairs(
            _VectorStream(ScriptedGenerator(head, 5), n, field), n, field, 20, 20)
        ref_x, ref_f = reference_idempotent_pairs(ScriptedGenerator(head, 5), n, field, 40)
        assert_same_bits(x, ref_x)
        assert_same_bits(f, ref_f)

    space = IndefiniteSpace(np.eye(n))
    for head in ([1.0, 0, 0, 3.0, 0, 0], [0, 1.0, 0] + [0, 2.0, 0] * 3):
        rays = _draw_ray_pairs(_VectorStream(ScriptedGenerator(head, 6), n, field),
                               space, 20, 20)
        assert_same_bits(rays, reference_ray_pairs(ScriptedGenerator(head, 6), space, 40))


def test_exhausted_draws_raise_like_the_helpers():
    n, field = 3, ScalarField.REAL
    head = [1.0, 0, 0, 0, 1.0, 0] * 200
    with pytest.raises(RuntimeError, match="non-degenerate rank-one pair"):
        random_rank_one(ScriptedGenerator(head, 0), n, field)
    with pytest.raises(RuntimeError, match="non-degenerate rank-one pair"):
        _draw_idempotent_pairs(_VectorStream(ScriptedGenerator(head, 0), n, field),
                               n, field, 4, 4)


# -- native and black-box handles -------------------------------------------

def _black_box_handles(a, tag, n, field):
    """The native handle of ``(a, tag)`` and two black boxes for the same
    map, written in plain numpy: a callable and a ray pair."""
    native = induce(SemilinearOperator(a, tag))
    dual = np.linalg.inv(a.T)

    def induced(p):
        y, g = a @ tag.apply(p.x), dual @ tag.apply(p.f)
        return RankOneIdempotent(y / np.dot(y, g), g)

    rays = RayPair(lambda x: a @ tag.apply(x), lambda f: dual @ tag.apply(f))
    return native, (TransformHandle(induced, n, field), from_ray_pair(rays, n, field))


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("field,tag", KINDS, ids=KIND_IDS)
def test_native_and_black_box_handles_agree(n, field, tag):
    rng = np.random.default_rng(3 * n)
    native, black_boxes = _black_box_handles(generic_matrix(rng, n, field), tag, n, field)
    stream = _VectorStream(np.random.default_rng(n), n, field)
    x, f = _draw_idempotent_pairs(stream, n, field, SAMPLE_BLOCK, 3)
    images = native._rows(x, f)
    report = check_preservation(native, sample_count=150, seed=n)
    assert report.ok
    for phi in black_boxes:
        for got, want in zip(phi._rows(x, f), images):
            assert_same_bits(got, want)
        assert check_preservation(phi, sample_count=150, seed=n) == report

    flipped = TransformHandle(lambda p: RankOneIdempotent(p.f, p.x), n, field)
    native_report = check_preservation(transpose_handle(n, field), sample_count=150, seed=n)
    assert native_report.violations
    assert_same_reports(check_preservation(flipped, sample_count=150, seed=n), native_report)

    space = IndefiniteSpace(generic_matrix(rng, n, field))
    u = SemilinearOperator(generic_matrix(rng, n, field), tag)
    native_rays = is_symmetry(space, induced_ray_map(u), sample_count=150, seed=n)
    assert native_rays.violations
    black_box = RayMap(lambda ray: Ray(u(ray.representative)))
    assert_same_reports(is_symmetry(space, black_box, sample_count=150, seed=n),
                        native_rays)


def _symmetry(rng, n, field, tag):
    """A space with a Hermitian indefinite metric and an operator that
    induces one of its symmetries.  A conjugate-linear one ``V h(x)`` needs
    ``V* eta V = c conj(eta)``: a real isometry of a real metric, times a
    phase."""
    metric_field = field if tag is AutomorphismTag.IDENTITY else ScalarField.REAL
    s = generic_matrix(rng, n, metric_field)
    signs = np.where(np.arange(n) < n // 2, 1.0, -1.0)
    space = IndefiniteSpace(s.conj().T @ np.diag(signs) @ s)
    v = generate_eta_isometry(space, seed=n, scale=2.0).matrix
    if tag is AutomorphismTag.IDENTITY:
        return space, SemilinearOperator(v)
    return IndefiniteSpace(space.eta.astype(complex)), SemilinearOperator(np.exp(0.3j) * v, tag)


def assert_same_result(got, want):
    assert_same_bits(got.A.matrix, want.A.matrix)
    assert (got.A.auto, got.residual, got.probes_used) == \
        (want.A.auto, want.residual, want.probes_used)


@pytest.mark.parametrize("n", (3, 6, 16))
@pytest.mark.parametrize("field,tag", KINDS, ids=KIND_IDS)
def test_native_and_black_box_results_agree(n, field, tag):
    """Reconstruction, extension, the automorphism, probe tables and
    symmetry recovery: bit-for-bit the same through every black box."""
    rng = np.random.default_rng(5 * n)
    a = generic_matrix(rng, n, field)
    native, black_boxes = _black_box_handles(a, tag, n, field)
    result = reconstruct(native, validation_count=10, seed=n)
    p = random_idempotent(rng, n, 2, field)
    extended = extend(native, p)
    table = probe_table_from_operator(SemilinearOperator(a, tag), validation_count=10, seed=n)
    for phi in black_boxes:
        assert_same_result(reconstruct(phi, validation_count=10, seed=n), result)
        assert_same_bits(extend(phi, p).matrix, extended.matrix)
        assert automorphism_of(phi) is automorphism_of(native)
        for q, image in table:
            got = phi(q)
            assert_same_bits(got.x, image.x)
            assert_same_bits(got.f, image.f)

    space, u = _symmetry(rng, n, field, tag)
    recovered = recover_inducing_operator(space, induced_ray_map(u), validation_count=10, seed=n)
    black_box = RayMap(lambda ray: Ray(u.matrix @ tag.apply(ray.representative)))
    assert_same_result(recover_inducing_operator(space, black_box, validation_count=10, seed=n),
                       recovered)


def test_replaced_ray_map_drops_the_native_evaluator():
    space = IndefiniteSpace(np.eye(3))
    skew = SemilinearOperator(np.triu(np.ones((3, 3))))
    t = dataclasses.replace(induced_ray_map(SemilinearOperator(np.eye(3))),
                            eval=lambda ray: Ray(skew(ray.representative)))
    assert not is_symmetry(space, t, sample_count=20).ok


def assert_same_reports(a, b):
    assert a.pairs_tested == b.pairs_tested
    assert len(a.violations) == len(b.violations)
    for va, vb in zip(a.violations, b.violations):
        for one, two in ((va.first, vb.first), (va.second, vb.second)):
            if isinstance(one, RankOneIdempotent):
                assert_same_bits(one.x, two.x)
                one, two = one.f, two.f
            assert_same_bits(one, two)
        assert (va.source_margin, va.image_margin) == (vb.source_margin, vb.image_margin)


# -- typed errors through the fallback ----------------------------------------

def test_black_box_errors_come_through():
    n, field = 3, ScalarField.COMPLEX
    with pytest.raises(TypeError):
        check_preservation(TransformHandle(lambda p: p.matrix, n, field), sample_count=4)
    bigger = RankOneIdempotent(np.eye(4)[0], np.eye(4)[0])
    with pytest.raises(DimensionMismatch):
        check_preservation(TransformHandle(lambda p: bigger, n, field), sample_count=4)
    e1, e2 = np.eye(n)[0], np.eye(n)[1]
    collapsing = from_ray_pair(RayPair(lambda x: e1, lambda f: e2), n, field)
    with pytest.raises(DegenerateImage):
        check_preservation(collapsing, sample_count=4)

    space = IndefiniteSpace(np.eye(n))
    with pytest.raises(TypeError):
        is_symmetry(space, RayMap(lambda ray: ray.representative), sample_count=4)


def test_ray_map_changing_dimension_is_typed():
    space = IndefiniteSpace(np.eye(3))
    wider = RayMap(lambda ray: Ray(np.append(ray.representative, 1.0)))
    with pytest.raises(DimensionMismatch):
        apply_ray_map(wider, np.ones(3))
    with pytest.raises(DimensionMismatch):
        is_symmetry(space, wider, sample_count=4)
    with pytest.raises(DimensionMismatch):
        is_symmetry(space, induced_ray_map(SemilinearOperator(np.eye(4))), sample_count=4)


# -- sample counts -------------------------------------------------------------

def test_negative_sample_count_rejected():
    with pytest.raises(ValueError, match="sample_count"):
        check_preservation(transpose_handle(3, ScalarField.REAL), sample_count=-5)
    space = IndefiniteSpace(np.eye(3))
    with pytest.raises(ValueError, match="sample_count"):
        is_symmetry(space, induced_ray_map(SemilinearOperator(np.eye(3))),
                    sample_count=-1)


def test_zero_sample_count_is_vacuous():
    report = check_preservation(transpose_handle(3, ScalarField.REAL), sample_count=0)
    assert report.ok and report.pairs_tested == 0
    space = IndefiniteSpace(np.eye(3))
    t = induced_ray_map(SemilinearOperator(np.triu(np.ones((3, 3)))))
    report = is_symmetry(space, t, sample_count=0)
    assert report.ok and report.pairs_tested == 0
