"""The block samplers: direct block draws, judged as the per-pair
reference judges them, and the single-item helpers as their one-row case.

``check_preservation`` and ``is_symmetry`` draw, map and judge pairs in
blocks.  Each block is drawn directly from the seeded generator, so the
pairs differ from those the per-pair helpers draw, but they obey the
same rules: crafted pairs have zero products, every row is a normalized
idempotent, plain pairs meet ``MIN_COSINE``, rejected rows are drawn
again and exhaustion raises the helpers' errors.  The reference
functions below judge the sampled pairs one at a time with matrix
margins, as the samplers once did; the samplers must report the same
violating pairs, with margins equal to within rounding.

``random_rank_one``, ``random_vector``, ``zero_product_partner``,
``eta_orthogonal_partner``, ``rank_one_from_pair``, ``Ray`` and an induced
ray map's ``eval`` are the one-row calls of the block code: they give a
one-row block's values and raise its errors.
"""

import dataclasses

import numpy as np
import pytest

from idemap.core import AutomorphismTag, ScalarField, SemilinearOperator
from idemap.errors import DegenerateImage, DegeneratePair, DimensionMismatch, NotIdempotent, \
    NotInduced
from idemap.idempotents import RankOneIdempotent, _normalized_rows, rank_one_from_pair
from idemap.indefinite import (
    IndefiniteSpace,
    Ray,
    RayMap,
    _draw_ray_pairs,
    _ray_rows,
    eta_orthogonal_partner,
    generate_eta_isometry,
    induced_ray_map,
    is_symmetry,
    recover_inducing_operator,
)
from idemap.sampling import DRAW_TRIES, MIN_COSINE, _random_rank_one_rows, _zero_product_rows, \
    random_idempotent, random_invertible, random_matrix, random_rank_one, random_vector
from idemap.transform import (
    SAMPLE_BLOCK,
    RayPair,
    TransformHandle,
    _draw_idempotent_pairs,
    automorphism_of,
    check_preservation,
    extend,
    from_ray_pair,
    handle_from_table,
    identity_handle,
    induce,
    probe_table_from_operator,
    reconstruct,
    reconstruction_probe_set,
    transpose_handle,
    zero_product_partner,
)

SIZES = (3, 6, 16, 64)
#: Counts around the block edges; 15-17 and 63-65 are the edges of the
#: earlier 16-pair and 64-pair blocks, kept so those cases keep running.
COUNTS = tuple(sorted({0, 1, 2, 15, 16, 17, 63, 64, 65, SAMPLE_BLOCK - 1, SAMPLE_BLOCK,
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
#: The partner helpers match the block draw to within this, relative:
#: they project along the normalized row, the block along the raw one.
PARTNER_RTOL = 1e-14


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


def apply_ray_map(t, x):
    """Representative of the image of the ray of ``x``: the one-row case
    of the map's row evaluator."""
    return t._rows(Ray(x).representative[None])[0]


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


def assert_same_row(p, x, f):
    assert_same_bits(p.x, x)
    assert_same_bits(p.f, f)


def assert_rows_close(got, want):
    assert np.linalg.norm(got - want) <= PARTNER_RTOL * np.linalg.norm(want)


def raised(fn, *args):
    """Type and message of the exception ``fn(*args)`` raises."""
    with pytest.raises(Exception) as info:
        fn(*args)
    return type(info.value), str(info.value)


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

    return TransformHandle._native(rows, phi.n, phi.field), blocks


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
    """The transpose map violates on every crafted pair, ``count // 2`` of
    them, and an induced map nowhere; each verdict and margin is the per-pair
    reference's on the pairs the sampler drew, and the same seed gives the
    same report."""
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
        assert len(report.violations) == len(expected) == (count // 2 if violates else 0)
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


@pytest.mark.parametrize("n", (3, 16, 64))
@pytest.mark.parametrize("field", (ScalarField.REAL, ScalarField.COMPLEX),
                         ids=("real", "complex"))
def test_drawn_pairs_are_the_normalized_draw(n, field):
    """The drawn rows are bit for bit what ``_normalized_rows`` makes of the
    same unnormalized draw: dividing by the pairings the draws accepted the
    rows with skips no check that could fail.  At real n = 64 about a third
    of the rows miss ``MIN_COSINE`` in a round and are drawn again."""
    crafted, plain = SAMPLE_BLOCK // 2, SAMPLE_BLOCK - SAMPLE_BLOCK // 2
    x, f = _draw_idempotent_pairs(np.random.default_rng(n), n, field, crafted, plain)

    rng = np.random.default_rng(n)
    px, pf = _random_rank_one_rows(rng, crafted + 2 * plain, n, field)[:2]
    y, g = _zero_product_rows(rng, px[:crafted], pf[:crafted], field)[:2]
    size = crafted + plain
    qx, qf = np.concatenate((y, px[size:])), np.concatenate((g, pf[size:]))
    want = _normalized_rows(np.stack((px[:size], qx), axis=1).reshape(-1, n),
                            np.stack((pf[:size], qf), axis=1).reshape(-1, n))
    assert_same_bits(x, want[0])
    assert_same_bits(f, want[1])

    first_round = random_matrix(np.random.default_rng(n), (crafted + 2 * plain, n), field)
    redrawn = np.mean(np.any(px != first_round, axis=1))
    assert redrawn > (0.25 if n == 64 and field is ScalarField.REAL else 0.0)


@pytest.mark.parametrize("shape", (5, np.int64(4), (1, 4), (96, 3), (32, 6), [2, 3]), ids=str)
def test_complex_draw_is_two_real_draws(shape):
    """A complex Gaussian block holds the values of two real draws of its
    shape, the real part first, bit for bit; a real block is one draw."""
    for seed in range(3):
        rng = np.random.default_rng(seed)
        want = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        assert_same_bits(random_matrix(np.random.default_rng(seed), shape,
                                       ScalarField.COMPLEX), want)
        assert_same_bits(random_matrix(np.random.default_rng(seed), shape, ScalarField.REAL),
                         np.random.default_rng(seed).standard_normal(shape))


_INF, _NAN = np.inf, np.nan


@pytest.mark.parametrize("x, f, refusal", [
    ([1, 0, 0], [1, 0, 0], None),
    ([True, False, False], [True, True, False], None),
    (np.array([1e200, 0, 0]), np.array([1e-200, 0, 0]), None),
    (np.array([1e-200, 1, 0]), np.array([1e200, 0, 0]), None),
    (np.array([1, 0, 0], np.float32), np.array([1, 0, 0], np.float32), None),
    (np.array([1, 0, 0], np.float16), np.array([1, 0, 0], np.float16), None),
    (np.array([1, 0, 0], np.longdouble), np.array([1, 0, 0], np.clongdouble), None),
    (np.array([1j, 0, 0]), np.array([-1j, 0, 0]), None),
    ([2.0, 0, 0], [0.5, 1j, 0], None),
    ([1.0, 0, 0], [0.5 + 1j, 0, 0], (NotIdempotent, "pairing is np.complex128(0.5+1j), "
                                                    "expected 1 within 2.118e-10")),
    ([2, 0, 0], [1, 0, 0], (NotIdempotent, "pairing is np.float64(2.0), expected 1 within "
                                           "3.000e-10")),
    ([1e200, 0, 1], [1e-200, 1e200, 0], (NotIdempotent, "pairing is np.float64(1.0), "
                                                        "undecided: the arithmetic overflowed")),
    ([0.0, 0, 0], [1.0, 0, 0], (NotIdempotent, "pairing is np.float64(0.0), expected 1 within "
                                               "1.000e-10")),
    ([], [], (NotIdempotent, "pairing is np.float64(0.0), expected 1 within 1.000e-10")),
    ([_INF, 0, 0], [1.0, 0, 0], (ValueError, "x has non-finite entries")),
    ([1.0, 0, 0], [_NAN, 0, 0], (ValueError, "f has non-finite entries")),
    ([1.0, 0, 0], [1.0, 0, -_INF], (ValueError, "f has non-finite entries")),
    ([[1.0, 0, 0]], [[1.0, 0, 0]], (DimensionMismatch, "x must be 1-d, got shape (1, 3)")),
    ([1.0, 0, 0], [1.0, 0], (DimensionMismatch, "rank-one pair: shapes (3,) vs (2,)")),
], ids=str)
def test_rank_one_edges_keep_their_rows_and_messages(x, f, refusal):
    """At int and bool input, 1e+-200, other dtypes, a real side beside a complex
    one, a zero or empty row, inf, NaN, 2-d input and mismatched shapes,
    ``RankOneIdempotent`` keeps the input rows (as ``float64`` or ``complex128``,
    the dtype rule of the boundary, read-only, in memory of their own) or refuses
    them with the type and message the rule has always given."""
    if refusal:
        assert raised(RankOneIdempotent, x, f) == refusal
        return
    p = RankOneIdempotent(x, f)
    for got, given in ((p.x, x), (p.f, f)):
        want = np.asarray(given)
        want = want.astype(np.complex128 if want.dtype.kind == "c" else np.float64)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert not got.flags.writeable and not np.shares_memory(got, given)


@pytest.mark.parametrize("v, refusal", [
    ([1, 0, 0], None),
    ([1e200, 1e200, 0], None),
    ([1e308, 1e308, 1e308], None),
    ([1e-200, 0, 0], None),
    ([5e-324, 0, 0], None),
    (np.array([1, 0, 0], np.float16), None),
    (np.array([1j, 0, 0], np.complex64), None),
    ([0.0, 0, 0], (ValueError, "a ray needs a nonzero representative")),
    ([], (ValueError, "a ray needs a nonzero representative")),
    ([_INF, 0, 0], (ValueError, "representative has non-finite entries")),
    ([0, _NAN, 0], (ValueError, "representative has non-finite entries")),
    ([complex(0, _INF), 0, 0], (ValueError, "representative has non-finite entries")),
    ([[1.0, 0, 0]], (DimensionMismatch, "representative must be 1-d, got shape (1, 3)")),
    (1.0, (DimensionMismatch, "representative must be 1-d, got shape ()")),
], ids=str)
def test_ray_edges_keep_their_representative_and_messages(v, refusal):
    """The same edges for ``Ray``: a finite, nonzero 1-d representative is kept
    at any scale, a subnormal one too, as ``float64`` or ``complex128``;
    anything else is refused as before."""
    if refusal:
        assert raised(Ray, v) == refusal
        return
    got, want = Ray(v).representative, np.asarray(v)
    want = want.astype(np.complex128 if want.dtype.kind == "c" else np.float64)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert not got.flags.writeable and not np.shares_memory(got, v)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("field", (ScalarField.REAL, ScalarField.COMPLEX),
                         ids=("real", "complex"))
def test_helpers_are_one_row_block_draws(n, field):
    """A block of one crafted pair is what ``random_rank_one`` and then
    ``zero_product_partner`` draw from the same seed, and ``random_vector``
    and ``eta_orthogonal_partner`` for rays.  Every row of a block of rows
    is what ``rank_one_from_pair`` and ``Ray`` give for that row alone."""
    for seed in range(3):
        x, f = _draw_idempotent_pairs(np.random.default_rng(seed), n, field, 1, 0)
        rng = np.random.default_rng(seed)
        p = random_rank_one(rng, n, field)
        assert_same_row(p, x[0], f[0])
        q = zero_product_partner(rng, p, field)
        assert_rows_close(q.x, x[1])
        assert_rows_close(q.f, f[1])

        space = IndefiniteSpace(generic_matrix(np.random.default_rng(n + seed), n, field))
        v = _draw_ray_pairs(np.random.default_rng(seed), space, 1, 0)
        rng = np.random.default_rng(seed)
        x1 = random_vector(rng, n, field)
        assert_same_bits(x1, v[0])
        assert_rows_close(eta_orthogonal_partner(space, x1, rng), v[1])

    rng = np.random.default_rng(n)
    x, f = (random_matrix(rng, (SAMPLE_BLOCK + 3, n), field) for _ in range(2))
    rows = _normalized_rows(x, f)
    for k in range(len(x)):
        assert_same_row(rank_one_from_pair(x[k], f[k]), rows[0][k], rows[1][k])
        assert_same_bits(Ray(x[k]).representative, _ray_rows(x)[k])


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
        if crafted:
            # The helpers, one row each, redraw the same rows.
            rng = ScriptedGenerator(head, 5)
            helper_p = random_rank_one(rng, n, field)
            assert_same_row(helper_p, x[0], f[0])
            helper_q = zero_product_partner(rng, helper_p, field)
            assert_rows_close(helper_q.x, x[1])
            assert_rows_close(helper_q.f, f[1])

    space = IndefiniteSpace(np.eye(n))
    for head in ([*e1, *(3 * e1)], [*e2, *(2 * e2)] + [*(-e2)] * 3):
        x, y = _draw_ray_pairs(ScriptedGenerator(head, 6), space, 1, 0)
        assert_same_bits(x, np.asarray(head[:n]))
        assert np.linalg.norm(y) > 1e-8 and _eta_margin(space.eta, x, y) <= ZERO_PRODUCT_RTOL
        rng = ScriptedGenerator(head, 6)
        assert_rows_close(eta_orthogonal_partner(space, random_vector(rng, n, field), rng), y)


def test_zero_row_is_drawn_again():
    """A zero ``x`` has pairing 0 and bound 0: it fails the strict
    ``MIN_COSINE`` test and is drawn again, so no row is divided by 0."""
    n = 3
    x, f = _draw_idempotent_pairs(ScriptedGenerator([0.0] * n, 5), n, ScalarField.REAL, 0, 1)
    (p, q), = idempotent_pairs(x, f)
    assert min(_cosine(p.x, p.f), _cosine(q.x, q.f)) >= MIN_COSINE


def test_exhausted_draws_raise_like_the_helpers():
    """Each helper raises the block draw's error, type and message."""
    n, field = 3, ScalarField.REAL
    e1, e2 = np.eye(n)[:2]
    rejected = [*e1, *e2] * 200
    error = raised(random_rank_one, ScriptedGenerator(rejected, 0), n, field)
    assert error == (RuntimeError, "could not draw a non-degenerate rank-one pair")
    assert raised(_draw_idempotent_pairs, ScriptedGenerator(rejected, 0), n, field, 1, 0) \
        == error

    p = RankOneIdempotent(e1, e1)
    error = raised(zero_product_partner, ScriptedGenerator([*e1] * 400, 0), p, field)
    assert error == (RuntimeError, "could not craft a zero-product partner")
    assert raised(_draw_idempotent_pairs,
                  ScriptedGenerator([*e1, *e1] + [*e1, *e2] * 200, 0), n, field, 1, 0) == error
    # Rejected (y, g) pairs, rather than degenerate y, exhaust it too.
    assert raised(zero_product_partner, ScriptedGenerator([*e2, *e1] * 200, 0), p,
                  field) == error

    space = IndefiniteSpace(np.eye(n))
    error = raised(eta_orthogonal_partner, space, e1, ScriptedGenerator([*e1] * DRAW_TRIES, 0))
    assert error == (RuntimeError, "could not craft an eta-orthogonal partner")
    assert raised(_draw_ray_pairs, ScriptedGenerator([*e1] * 201, 0), space, 1, 0) == error

    # No matrix has condition number below 1: the draw gives up.
    assert raised(random_invertible, np.random.default_rng(0), n, field, 1.0) \
        == (RuntimeError, "could not draw a well-conditioned matrix")


@pytest.mark.parametrize("rank", (-1, 4))
def test_idempotent_rank_out_of_range(rank):
    with pytest.raises(ValueError, match=f"rank {rank} out of range for dimension 3"):
        random_idempotent(np.random.default_rng(0), 3, rank, ScalarField.REAL)


@pytest.mark.parametrize("x,f", [
    ([0, 1.0, 0], [0, 0, 1.0]),
    ([1.0, 1j, 0], [1.0, 1j, 0]),
    ([0.0, 0, 0], [1.0, 0, 0]),
], ids=("orthogonal", "isotropic", "zero"))
def test_degenerate_pair_raises_like_the_rows(x, f):
    x, f = np.asarray(x), np.asarray(f)
    error = raised(rank_one_from_pair, x, f)
    assert error[0] is DegeneratePair
    assert raised(_normalized_rows, x[None], f[None]) == error


def test_invalid_ray_raises_like_the_rows():
    """A zero representative fails the row rule with ``Ray``'s error, and
    an induced ray map's rows refuse a non-finite image with the error
    ``Ray`` gives a non-finite representative."""
    zero = raised(Ray, np.zeros(3))
    assert zero[0] is ValueError
    assert raised(_ray_rows, np.zeros((2, 3))) == zero
    t = induced_ray_map(SemilinearOperator(np.eye(3) + np.ones((3, 3))))
    assert raised(t._rows, np.full((2, 3), np.inf)) == raised(Ray, [np.inf, 0, 0])


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
    t = induced_ray_map(u)
    v = _draw_ray_pairs(np.random.default_rng(n), space, SAMPLE_BLOCK, 3)
    images = t._rows(v)
    for k in range(len(v)):
        # The one-row case of the rows, and the operator's own evaluation.
        assert_same_bits(t.eval(Ray(v[k])).representative, images[k])
        assert_same_bits(apply_ray_map(t, v[k]), images[k])
        assert_same_bits(u(v[k]), images[k])
    native_rays = is_symmetry(space, t, sample_count=150, seed=n)
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


def reference_residual(phi, a, validation):
    """The validation residual, probe by probe: ``||phi(P) - A h(P)
    A^{-1}||_F`` through :meth:`SemilinearOperator.conjugate`."""
    return max((float(np.linalg.norm(phi(p).matrix - a.conjugate(p.matrix)))
                for p in validation), default=0.0)


def assert_residual_matches_reference(residual, phi, a, validation):
    """For an induced map both residuals are rounding errors of the
    expected images, of order ``eps ||A|| ||A^{-1}|| ||P||``; they agree
    to within 1e-12 of the largest image norm, not 1e-12 absolute."""
    reference = reference_residual(phi, a, validation)
    scale = max((float(np.linalg.norm(phi(p).matrix)) for p in validation), default=0.0)
    assert abs(residual - reference) <= 1e-12 * max(1.0, scale)


@pytest.mark.parametrize("n", (3, 6, 16))
@pytest.mark.parametrize("field,tag", KINDS, ids=KIND_IDS)
def test_native_and_black_box_results_agree(n, field, tag):
    """Reconstruction, extension, the automorphism, probe tables and
    symmetry recovery: bit-for-bit the same through every black box."""
    rng = np.random.default_rng(5 * n)
    a = generic_matrix(rng, n, field)
    native, black_boxes = _black_box_handles(a, tag, n, field)
    result = reconstruct(native, validation_count=10, seed=n)
    validation = reconstruction_probe_set(n, field, 10, n).validation
    # A comes from the deterministic probes alone.
    for count, seed in ((0, n), (1, n), (10, n + 1), (SAMPLE_BLOCK + 1, n)):
        assert_same_bits(reconstruct(native, validation_count=count, seed=seed).A.matrix,
                         result.A.matrix)
    p = random_idempotent(rng, n, 2, field)
    extended = extend(native, p)
    table = probe_table_from_operator(SemilinearOperator(a, tag), validation_count=10, seed=n)
    assert_same_result(reconstruct(handle_from_table(table, n, field), validation_count=10,
                                   seed=n), result)
    # A table that answers the validation probes by another operator.
    other = induce(SemilinearOperator(generic_matrix(np.random.default_rng(7 * n), n, field),
                                      tag))
    two_faced = handle_from_table(table[:-10] + [(q, other(q)) for q, _ in table[-10:]],
                                  n, field)
    with pytest.raises(NotInduced) as refused:
        reconstruct(two_faced, validation_count=10, seed=n)
    assert refused.value.residual == pytest.approx(
        reference_residual(two_faced, result.A, validation), rel=1e-12)
    for phi in (native,) + black_boxes:
        assert_residual_matches_reference(result.residual, phi, result.A, validation)
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


@pytest.mark.parametrize("field", (ScalarField.REAL, ScalarField.COMPLEX), ids=("real", "complex"))
def test_black_boxes_get_read_only_rows(field):
    """A black box that writes into its input gets numpy's read-only
    ``ValueError``, and one that tries and goes on leaves the sample as
    the same map that does not try leaves it."""
    n, rng = 4, np.random.default_rng(8)
    a = generic_matrix(rng, n, field)

    def write(v):
        with pytest.raises(ValueError, match="read-only"):
            v[0] = 0.0

    def flip(p):
        return RankOneIdempotent(p.f, p.x)

    def flip_after_writes(p):
        write(p.x)
        write(p.f)
        return flip(p)

    def ray_image(ray):
        return Ray(a @ ray.representative)

    def ray_image_after_write(ray):
        write(ray.representative)
        return ray_image(ray)

    def writer(v):
        v[0] = 0.0

    for handle in (TransformHandle(lambda p: writer(p.x), n, field),
                   from_ray_pair(RayPair(writer, np.flip), n, field)):
        with pytest.raises(ValueError, match="read-only"):
            check_preservation(handle, sample_count=4)
    with pytest.raises(ValueError, match="read-only"):
        is_symmetry(IndefiniteSpace(np.eye(n)), RayMap(lambda ray: writer(ray.representative)),
                    sample_count=4)

    flipped = check_preservation(TransformHandle(flip, n, field), sample_count=150, seed=n)
    assert flipped.violations
    assert_same_reports(
        check_preservation(TransformHandle(flip_after_writes, n, field), sample_count=150, seed=n),
        flipped)
    paired = check_preservation(from_ray_pair(RayPair(np.flip, np.flip), n, field),
                                sample_count=150, seed=n)

    def flip_rows_after_write(v):
        write(v)
        return np.flip(v)

    assert_same_reports(
        check_preservation(from_ray_pair(RayPair(flip_rows_after_write, np.flip), n, field),
                           sample_count=150, seed=n), paired)
    space = IndefiniteSpace(generic_matrix(rng, n, field))
    rays = is_symmetry(space, RayMap(ray_image), sample_count=150, seed=n)
    assert rays.violations
    assert_same_reports(is_symmetry(space, RayMap(ray_image_after_write), sample_count=150,
                                    seed=n), rays)


def assert_read_only(*arrays):
    for v in arrays:
        with pytest.raises(ValueError, match="read-only"):
            v[0] = 0.0


def _violating_reports(n, field):
    """``check_preservation`` reports of the transpose map and
    ``is_symmetry`` reports of a generic operator, each from a native and
    a black-box evaluator, all with violations."""
    rng = np.random.default_rng(5 * n)
    space = IndefiniteSpace(generic_matrix(rng, n, field))
    u = SemilinearOperator(generic_matrix(rng, n, field))
    flipped = TransformHandle(lambda p: RankOneIdempotent(p.f, p.x), n, field)
    reports = [check_preservation(phi, sample_count=150, seed=n)
               for phi in (transpose_handle(n, field), flipped)]
    reports += [is_symmetry(space, t, sample_count=150, seed=n)
                for t in (induced_ray_map(u), RayMap(lambda ray: Ray(u(ray.representative))))]
    assert all(report.violations for report in reports)
    return reports


@pytest.mark.parametrize("n", (3, 6))
@pytest.mark.parametrize("field", (ScalarField.REAL, ScalarField.COMPLEX), ids=("real", "complex"))
def test_witnesses_are_read_only(n, field):
    """Every witness of a violation, idempotent or ray representative, is
    a read-only view of the sampled rows."""
    for report in _violating_reports(n, field):
        for v in report.violations:
            for w in (v.first, v.second):
                assert_read_only(*((w.x, w.f) if isinstance(w, RankOneIdempotent) else (w,)))


@pytest.mark.parametrize("field", (ScalarField.REAL, ScalarField.COMPLEX), ids=("real", "complex"))
def test_reports_with_violations_compare_and_hash(field):
    """Violations compare by identity, so same-seed reports with
    violations compare without numpy's ambiguous truth value and hash;
    violation-free reports still compare by value."""
    for a, b in zip(_violating_reports(3, field), _violating_reports(3, field)):
        assert a == a and a != b
        assert len({a, b}) == 2
    ok = [check_preservation(identity_handle(3, field), sample_count=20, seed=1)
          for _ in range(2)]
    assert ok[0] == ok[1] and hash(ok[0]) == hash(ok[1])


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
