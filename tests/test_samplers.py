"""The block samplers: direct block draws under the per-pair helpers'
acceptance rules, judged as the per-pair reference judges them.

``check_preservation`` and ``is_symmetry`` draw, map and judge pairs in
blocks.  Each block is drawn directly from the seeded generator, so the
pairs differ from those the per-pair helpers draw, but they obey the
same rules: crafted pairs have zero products, every row is a normalized
idempotent, plain pairs meet ``MIN_COSINE``, rejected rows are drawn
again and exhaustion raises the helpers' errors.  The reference
functions below judge the sampled pairs one at a time with matrix
margins, as the samplers once did; the samplers must report the same
violating pairs, with margins equal to within rounding.
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
from idemap.sampling import DRAW_TRIES, MIN_COSINE, random_idempotent, random_invertible, \
    random_rank_one
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
#: Counts around the block edges; 15, 16 and 17 are the edges of the
#: earlier 16-pair block, kept so those cases keep running.
COUNTS = tuple(sorted({0, 1, 2, 15, 16, 17, SAMPLE_BLOCK - 1, SAMPLE_BLOCK,
                       SAMPLE_BLOCK + 1, 500}))
#: (field, tag) of each case: real linear, complex linear, complex
#: conjugate-linear.
KINDS = (
    (ScalarField.REAL, AutomorphismTag.IDENTITY),
    (ScalarField.COMPLEX, AutomorphismTag.IDENTITY),
    (ScalarField.COMPLEX, AutomorphismTag.CONJUGATION),
)
KIND_IDS = ("real", "complex-id", "complex-conj")
MARGIN_RTOL = 1e-9
#: Largest relative product of a crafted pair.
ZERO_PRODUCT_RTOL = 1e-12


# -- per-pair reference ------------------------------------------------------

def _matrix_margin(p, q):
    pm, qm = p.matrix, q.matrix
    return float(np.linalg.norm(pm @ qm) / (np.linalg.norm(pm) * np.linalg.norm(qm)))


def _eta_margin(eta, x, y):
    w = eta @ x
    return float(abs(np.vdot(y, w)) / (np.linalg.norm(w) * np.linalg.norm(y)))


def _cosine(x, f):
    return abs(np.dot(x, f)) / (np.linalg.norm(x) * np.linalg.norm(f))


def _decisive(pre, post, tol):
    return (pre <= tol and post >= 100 * tol) or (post <= tol and pre >= 100 * tol)


def idempotent_pairs(x, f):
    """The pairs ``(P, Q)`` of interleaved rows; the constructor checks
    that every row has pairing 1."""
    rows = [RankOneIdempotent(xk, fk) for xk, fk in zip(x, f)]
    return list(zip(rows[0::2], rows[1::2]))


def reference_preservation(phi, x, f, tol=1e-8):
    """``(p, q, pre, post)`` of each violating pair of the rows, judged one
    pair at a time."""
    found = []
    for p, q in idempotent_pairs(x, f):
        pre = _matrix_margin(p, q)
        post = _matrix_margin(phi(p), phi(q))
        if _decisive(pre, post, tol):
            found.append((p, q, pre, post))
    return found


def reference_symmetry(space, t, v, tol=1e-8):
    """``(x, y, pre, post)`` of each violating pair of the rows, judged one
    pair at a time."""
    found = []
    for x, y in zip(v[0::2], v[1::2]):
        pre = _eta_margin(space.eta, x, y)
        post = _eta_margin(space.eta, apply_ray_map(t, x), apply_ray_map(t, y))
        if _decisive(pre, post, tol):
            found.append((x, y, pre, post))
    return found


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
        count = int(np.prod(size))
        take, self._head = self._head[:count], self._head[count:]
        return np.concatenate([take, self._rng.standard_normal(count - take.size)]) \
            .reshape(size)


def recording_handle(phi):
    """A handle with the row evaluator of ``phi`` that keeps every block of
    rows it maps."""
    blocks = []

    def rows(x, f):
        blocks.append((x, f))
        return phi._rows(x, f)

    return TransformHandle(None, phi.n, phi.field, _rows=rows), blocks


def recording_ray_map(t):
    """A ray map with the row evaluator of ``t`` that keeps every block of
    rows it maps."""
    blocks = []

    def rows(x):
        blocks.append(x)
        return t._rows(x)

    recording = RayMap(t.eval)
    object.__setattr__(recording, "_rows", rows)
    return recording, blocks


def _well_conditioned_symmetry(rng, n, field, tag):
    """A Hermitian indefinite metric ``S* J S`` and the symmetry ``S^{-1} D
    S`` of it, ``D`` a diagonal of signs, with ``cond(S) <= 4``.  A
    conjugate-linear one needs a real metric, as in :func:`_symmetry`."""
    metric_field = field if tag is AutomorphismTag.IDENTITY else ScalarField.REAL
    q, _ = np.linalg.qr(generic_matrix(rng, n, metric_field))
    s = q * rng.uniform(0.5, 2.0, n)
    signs = np.where(np.arange(n) < n // 2, 1.0, -1.0)
    v = np.linalg.solve(s, rng.choice([-1.0, 1.0], n)[:, None] * s)
    eta = s.conj().T @ np.diag(signs) @ s
    if tag is AutomorphismTag.IDENTITY:
        return IndefiniteSpace(eta), SemilinearOperator(v)
    return IndefiniteSpace(eta.astype(complex)), SemilinearOperator(np.exp(0.3j) * v, tag)


# -- verdicts against the per-pair reference ----------------------------------

@pytest.mark.parametrize("count", COUNTS)
@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("field", (ScalarField.REAL, ScalarField.COMPLEX),
                         ids=("real", "complex"))
def test_preservation_violations_match_reference(n, field, count):
    """The transpose map violates on every crafted pair and an induced map
    nowhere; each verdict and margin is the per-pair reference's on the
    pairs the sampler drew, and the same seed gives the same report."""
    seed = 1000 * n + count
    induced = induce(SemilinearOperator(generic_matrix(np.random.default_rng(n), n, field)))
    for phi, violates in ((transpose_handle(n, field), True), (induced, False)):
        recording, blocks = recording_handle(phi)
        report = check_preservation(recording, sample_count=count, seed=seed)
        assert_same_reports(check_preservation(phi, sample_count=count, seed=seed), report)
        assert report.pairs_tested == count
        assert sum(len(x) for x, _ in blocks) == 2 * count
        expected = reference_preservation(phi, *map(np.concatenate, zip(*blocks))) \
            if blocks else []
        assert len(report.violations) == len(expected)
        assert bool(expected) is (violates and count >= 2)
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
    """The ray map of a generic operator violates and a metric symmetry
    does not; each verdict is the per-pair reference's on the pairs the
    sampler drew, with the same margins, and the same seed gives the
    same report."""
    rng = np.random.default_rng(n + count)
    generic = IndefiniteSpace(generic_matrix(rng, n, field)), \
        SemilinearOperator(generic_matrix(rng, n, field), tag)
    seed = 2000 * n + count
    for (space, u), violates in ((generic, True),
                                 (_well_conditioned_symmetry(rng, n, field, tag), False)):
        t = induced_ray_map(u)
        recording, blocks = recording_ray_map(t)
        report = is_symmetry(space, recording, sample_count=count, seed=seed)
        assert_same_reports(is_symmetry(space, t, sample_count=count, seed=seed), report)
        assert report.pairs_tested == count
        assert sum(len(v) for v in blocks) == 2 * count
        expected = reference_symmetry(space, t, np.concatenate(blocks)) if blocks else []
        assert len(report.violations) == len(expected)
        assert bool(expected) is (violates and count >= 2)
        for v, (x, y, pre, post) in zip(report.violations, expected):
            assert_same_bits(v.first, x)
            assert_same_bits(v.second, y)
            # Row-wise, the margins make the same BLAS calls as one at a time.
            assert (v.source_margin, v.image_margin) == (pre, post)


# -- the drawn pairs -------------------------------------------------------------

@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("field", (ScalarField.REAL, ScalarField.COMPLEX),
                         ids=("real", "complex"))
def test_all_drawn_pairs_match_reference(n, field):
    """Both halves of a sample, by the reference margins: crafted pairs
    have zero products, every row has pairing 1 and meets ``MIN_COSINE``."""
    count = 3 * SAMPLE_BLOCK + 5
    crafted = count // 2
    x, f = _draw_idempotent_pairs(np.random.default_rng(n), n, field, crafted,
                                  count - crafted)
    pairs = idempotent_pairs(x, f)
    assert len(pairs) == count
    for i, (p, q) in enumerate(pairs):
        assert min(_cosine(p.x, p.f), _cosine(q.x, q.f)) >= MIN_COSINE * (1 - 1e-12)
        assert (_matrix_margin(p, q) <= ZERO_PRODUCT_RTOL) is (i < crafted)

    space = IndefiniteSpace(generic_matrix(np.random.default_rng(n + 1), n, field))
    rays = _draw_ray_pairs(np.random.default_rng(n), space, crafted, count - crafted)
    assert rays.shape == (2 * count, n)
    margins = [_eta_margin(space.eta, x, y) for x, y in zip(rays[0::2], rays[1::2])]
    assert max(margins[:crafted]) <= ZERO_PRODUCT_RTOL
    assert min(margins[crafted:]) > ZERO_PRODUCT_RTOL


def test_degenerate_and_rejected_draws_follow_the_helpers():
    """Rows the helpers would draw again are drawn again: a rejected pair
    (``pair(x, f) = 0``), a zero-product partner whose ``y0`` is parallel
    to ``x`` or whose ``(y, g)`` is rejected, and an eta partner whose
    ``y0`` is parallel to ``eta x``.  Each scripted head alone would give
    an invalid pair."""
    n, field = 3, ScalarField.REAL
    e1, e2, e3 = np.eye(n)
    heads = (
        # Crafted pair: P = (e1, e2) rejected twice, then seeded draws.
        ((1, 0), [*e1, *e2] * 2),
        # Crafted pair: P = (e1, e1); y0 = 2 e1 degenerates, then
        # (y, g) = (e2, e3) is rejected.
        ((1, 0), [*e1, *e1, *(2 * e1), *e2, *e2, *e3]),
        # Plain pair: both P = (e1, e2) and Q = (e2, e1) rejected.
        ((0, 1), [*e1, *e2, *e2, *e1]),
    )
    for (crafted, plain), head in heads:
        x, f = _draw_idempotent_pairs(ScriptedGenerator(head, 5), n, field, crafted, plain)
        (p, q), = idempotent_pairs(x, f)
        assert min(_cosine(p.x, p.f), _cosine(q.x, q.f)) >= MIN_COSINE * (1 - 1e-12)
        assert (_matrix_margin(p, q) <= ZERO_PRODUCT_RTOL) is bool(crafted)

    space = IndefiniteSpace(np.eye(n))
    for head in ([*e1, *(3 * e1)], [*e2, *(2 * e2)] + [*(-e2)] * 3):
        x, y = _draw_ray_pairs(ScriptedGenerator(head, 6), space, 1, 0)
        assert_same_bits(x, np.asarray(head[:n]))
        assert np.linalg.norm(y) > 1e-8 and _eta_margin(space.eta, x, y) <= ZERO_PRODUCT_RTOL


def test_exhausted_draws_raise_like_the_helpers():
    n, field = 3, ScalarField.REAL
    e1, e2 = np.eye(n)[:2]
    rejected = [*e1, *e2] * 200
    with pytest.raises(RuntimeError, match="non-degenerate rank-one pair"):
        random_rank_one(ScriptedGenerator(rejected, 0), n, field)
    with pytest.raises(RuntimeError, match="non-degenerate rank-one pair"):
        _draw_idempotent_pairs(ScriptedGenerator(rejected, 0), n, field, 1, 0)

    p = RankOneIdempotent(e1, e1)
    with pytest.raises(RuntimeError, match="zero-product partner"):
        zero_product_partner(ScriptedGenerator([*e1] * 400, 0), p, field)
    with pytest.raises(RuntimeError, match="zero-product partner"):
        _draw_idempotent_pairs(ScriptedGenerator([*e1, *e1] + [*e1, *e2] * 200, 0),
                               n, field, 1, 0)

    space = IndefiniteSpace(np.eye(n))
    with pytest.raises(RuntimeError, match="eta-orthogonal partner"):
        eta_orthogonal_partner(space, e1, ScriptedGenerator([*e1] * DRAW_TRIES, 0))
    with pytest.raises(RuntimeError, match="eta-orthogonal partner"):
        _draw_ray_pairs(ScriptedGenerator([*e1] * 201, 0), space, 1, 0)


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
    x, f = _draw_idempotent_pairs(np.random.default_rng(n), n, field, SAMPLE_BLOCK, 3)
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
