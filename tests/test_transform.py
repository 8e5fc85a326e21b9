import dataclasses
import gc
import weakref

import numpy as np
import pytest

from idemap.core import (
    RECOVERY_TOL,
    RELATION_TOL,
    AutomorphismTag,
    ScalarField,
    SemilinearOperator,
    conjugation_operator,
    identity_operator,
    up_to_scalar_distance,
)
from idemap.errors import (
    DegenerateImage,
    DegenerateProbe,
    DimensionMismatch,
    ExtensionInconsistent,
    NotInduced,
    UnrecognizedAutomorphism,
)
from idemap.idempotents import FiniteRankIdempotent, RankOneIdempotent, _normalized_rows, \
    decompose, rank_one_from_pair, relate
from idemap.indefinite import IndefiniteSpace, Ray, RayMap, induced_ray_map, \
    recover_inducing_operator
from idemap.sampling import (
    MIN_COSINE,
    _random_rank_one_rows,
    random_idempotent,
    random_invertible,
    random_matrix,
    random_rank_one,
    random_semilinear,
    remix_decomposition,
)
import idemap.transform as transform
from idemap.transform import (
    RayPair,
    TransformHandle,
    _fit_two_directions,
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
)

FIELDS = (ScalarField.REAL, ScalarField.COMPLEX)
FIELD_IDS = ("real", "complex")

CYCLE = np.array([[0.0, 0, 1], [1, 0, 0], [0, 1, 0]])  # e1->e2->e3->e1


def fixture_decompositions():
    first = [
        RankOneIdempotent([1.0, 0, 0], [1.0, 0, 0]),
        RankOneIdempotent([0, 1.0, 0], [0, 1.0, 0]),
    ]
    second = [
        RankOneIdempotent([1.0, 1.0, 0], [1.0, 0, 0]),
        RankOneIdempotent([0, 1.0, 0], [-1.0, 1.0, 0]),
    ]
    return first, second


class TestInduce:
    def test_identity_fixes_everything(self):
        phi = induce(identity_operator(3))
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = random_rank_one(rng, 3, ScalarField.COMPLEX)
            np.testing.assert_allclose(phi(p).matrix, p.matrix, atol=1e-12)

    def test_cyclic_permutation(self):
        phi = induce(SemilinearOperator(CYCLE))
        e11 = rank_one_from_pair([1.0, 0, 0], [1.0, 0, 0])
        np.testing.assert_allclose(phi(e11).matrix, np.diag([0.0, 1.0, 0.0]),
                                   atol=1e-12)

    def test_conjugation_conjugates_and_fixes_real(self):
        phi = induce(conjugation_operator(3))
        rng = np.random.default_rng(1)
        for _ in range(10):
            p = random_rank_one(rng, 3, ScalarField.COMPLEX)
            np.testing.assert_allclose(phi(p).matrix, np.conj(p.matrix), atol=1e-12)
        real = rank_one_from_pair([1.0, 2.0, 0], [1.0, 0, 0])
        real_c = RankOneIdempotent(real.x.astype(complex), real.f.astype(complex))
        np.testing.assert_allclose(phi(real_c).matrix, real.matrix, atol=1e-12)

    def test_matches_matrix_conjugation(self):
        rng = np.random.default_rng(2)
        for auto in AutomorphismTag:
            op = random_semilinear(rng, 4, ScalarField.COMPLEX, auto=auto)
            phi = induce(op)
            for _ in range(10):
                p = random_rank_one(rng, 4, ScalarField.COMPLEX)
                np.testing.assert_allclose(
                    phi(p).matrix, op.conjugate(p.matrix), atol=1e-9
                )

    def test_scalar_invariance(self):
        rng = np.random.default_rng(3)
        op = random_semilinear(rng, 3, ScalarField.COMPLEX,
                               auto=AutomorphismTag.CONJUGATION)
        scaled = SemilinearOperator((2.0 - 1.5j) * op.matrix, op.auto)
        phi1, phi2 = induce(op), induce(scaled)
        for _ in range(20):
            p = random_rank_one(rng, 3, ScalarField.COMPLEX)
            np.testing.assert_allclose(phi1(p).matrix, phi2(p).matrix, atol=1e-10)


class TestCheckPreservation:
    def test_induced_has_no_violations(self):
        rng = np.random.default_rng(4)
        phi = induce(random_semilinear(rng, 3, ScalarField.COMPLEX))
        report = check_preservation(phi, sample_count=500, seed=5)
        assert report.ok
        assert report.pairs_tested == 500

    def test_scale_of_the_operator_is_invisible(self):
        # The images of 1e155 * A square to infinity unless read at a safe scale.
        a = np.array([[1.0, 0.5, 0], [0, 1.0, 0], [0, 0, 1.0]])
        for scale in (1.0, 1e155):
            report = check_preservation(induce(SemilinearOperator(scale * a)))
            assert report.ok and report.pairs_tested == 500

    def test_out_of_range_black_box_rows_are_balanced(self):
        # The identity, answered as rows (2^520 x, 2^-520 f) whose squares
        # overflow and underflow unless each row is read balanced.
        phi = TransformHandle(lambda p: RankOneIdempotent(2.0**520 * p.x, 2.0**-520 * p.f),
                              3, ScalarField.REAL)
        report = check_preservation(phi)
        assert report.ok and report.pairs_tested == 500

    def test_identity_has_no_violations(self):
        report = check_preservation(identity_handle(3, ScalarField.REAL),
                                    sample_count=200, seed=6)
        assert report.ok

    def test_transpose_reverses_products(self):
        report = check_preservation(transpose_handle(3, ScalarField.COMPLEX),
                                    sample_count=200, seed=7)
        assert len(report.violations) >= 1
        v = report.violations[0]
        # the witness: PQ = 0 on one side, nonzero product on the other
        assert min(v.source_margin, v.image_margin) <= 1e-8
        assert max(v.source_margin, v.image_margin) >= 1e-6


class TestExtend:
    def test_cyclic_on_rank_two(self):
        phi = induce(SemilinearOperator(CYCLE))
        out = extend(phi, np.diag([1.0, 1.0, 0.0]))
        np.testing.assert_allclose(out.matrix, np.diag([0.0, 1.0, 1.0]), atol=1e-12)

    def test_identity_map(self):
        phi = identity_handle(3, ScalarField.REAL)
        p = np.diag([1.0, 0.0, 1.0])
        np.testing.assert_allclose(extend(phi, p).matrix, p, atol=1e-12)

    def test_well_definedness_fixture(self):
        rng = np.random.default_rng(8)
        op = random_semilinear(rng, 3, ScalarField.COMPLEX)
        phi = induce(op)
        first, second = fixture_decompositions()
        p = FiniteRankIdempotent(np.diag([1.0, 1.0, 0.0]))
        out1 = extend(phi, p, decomposition=first)
        out2 = extend(phi, p, decomposition=second)
        assert np.linalg.norm(out1.matrix - out2.matrix) <= 1e-9

    def test_rank_and_order_preserved(self):
        rng = np.random.default_rng(9)
        op = random_semilinear(rng, 5, ScalarField.COMPLEX)
        phi = induce(op)
        s = random_invertible(rng, 5, ScalarField.COMPLEX, max_cond=50)
        inv = np.linalg.inv(s)
        small = FiniteRankIdempotent(s[:, :2] @ inv[:2, :])
        big = FiniteRankIdempotent(s[:, :4] @ inv[:4, :])
        ext_small = extend(phi, small)
        ext_big = extend(phi, big)
        assert ext_small.rank == 2 and ext_big.rank == 4
        assert relate(small, big).p_leq_q
        assert relate(ext_small, ext_big).p_leq_q

    def test_inconsistent_map_detected(self):
        # constant map: pieces all land on the same idempotent, sums break
        e11 = rank_one_from_pair([1.0, 0, 0], [1.0, 0, 0])
        phi = TransformHandle(lambda p: e11, 3, ScalarField.REAL)
        with pytest.raises(ExtensionInconsistent):
            extend(phi, np.diag([1.0, 1.0, 0.0]))

    def test_rank_zero_passthrough(self):
        phi = identity_handle(3, ScalarField.REAL)
        out = extend(phi, np.zeros((3, 3)))
        assert out.rank == 0

    def test_empty_or_wrongly_typed_decomposition(self):
        phi = identity_handle(3, ScalarField.REAL)
        p = np.diag([1.0, 1.0, 0.0])
        with pytest.raises(DimensionMismatch):
            extend(phi, p, decomposition=[])
        with pytest.raises(TypeError):
            extend(phi, p, decomposition=[p])
        with pytest.raises(TypeError):
            extend(phi, p, decomposition=5)

    def test_wrong_decomposition_of_the_right_count(self):
        # two valid, mutually orthogonal pieces of diag(1, 0, 1), not of diag(1, 1, 0)
        phi = identity_handle(3, ScalarField.REAL)
        p = np.diag([1.0, 1.0, 0.0])
        e11, e33 = (rank_one_from_pair(v, v) for v in np.eye(3)[[0, 2]])
        with pytest.raises(ValueError, match="does not sum to the idempotent"):
            extend(phi, p, decomposition=[e11, e33])
        with pytest.raises(DimensionMismatch, match="1 pieces, rank is 2"):
            extend(phi, p, decomposition=[e33])


class TestAutomorphismOf:
    def test_real_short_circuit(self):
        phi = induce(SemilinearOperator(np.diag([1.0, 2.0, 3.0])))
        assert automorphism_of(phi) is AutomorphismTag.IDENTITY

    def test_real_entried_complex_operator(self):
        rng = np.random.default_rng(10)
        m = random_invertible(rng, 3, ScalarField.REAL).astype(complex)
        phi = induce(SemilinearOperator(m))
        assert automorphism_of(phi) is AutomorphismTag.IDENTITY

    def test_conjugation_detected(self):
        assert automorphism_of(induce(conjugation_operator(4))) is \
            AutomorphismTag.CONJUGATION

    def test_identity_handle(self):
        assert automorphism_of(identity_handle(3, ScalarField.COMPLEX)) is \
            AutomorphismTag.IDENTITY

    def test_unrecognized(self):
        # answer the trace probe with an unrelated idempotent: the trace
        # becomes 0, matching neither i nor -i
        e11 = rank_one_from_pair([1.0 + 0j, 0, 0], [1.0, 0, 0])
        phi = TransformHandle(lambda p: e11, 3, ScalarField.COMPLEX)
        with pytest.raises(UnrecognizedAutomorphism):
            automorphism_of(phi)


class TestReconstruct:
    def test_diagonal_roundtrip(self):
        a = np.diag([1.0, 2.0, 3.0])
        result = reconstruct(induce(SemilinearOperator(a)), validation_count=20,
                             seed=0)
        assert result.residual <= 1e-9
        assert result.A.auto is AutomorphismTag.IDENTITY
        assert up_to_scalar_distance(result.A.matrix, a / np.linalg.norm(a)) <= 1e-9

    def test_identity_roundtrip(self):
        result = reconstruct(identity_handle(3, ScalarField.COMPLEX),
                             validation_count=10, seed=1)
        assert up_to_scalar_distance(result.A.matrix, np.eye(3) / np.sqrt(3)) <= 1e-9

    def test_normalization_contract(self):
        rng = np.random.default_rng(11)
        op = random_semilinear(rng, 4, ScalarField.COMPLEX)
        result = reconstruct(induce(op), validation_count=10, seed=2)
        m = result.A.matrix
        assert np.linalg.norm(m) == pytest.approx(1.0)
        lead = m.flat[int(np.argmax(np.abs(m)))]
        assert abs(lead.imag) <= 1e-12 and lead.real > 0

    def test_conjugate_linear_roundtrip(self):
        rng = np.random.default_rng(12)
        m = random_invertible(rng, 4, ScalarField.COMPLEX)
        op = SemilinearOperator(m, AutomorphismTag.CONJUGATION)
        result = reconstruct(induce(op), validation_count=20, seed=3)
        assert result.A.auto is AutomorphismTag.CONJUGATION
        assert result.residual <= 1e-8
        assert up_to_scalar_distance(result.A.matrix, m / np.linalg.norm(m)) <= 1e-8

    def test_probes_counted(self):
        n = 5
        result = reconstruct(identity_handle(n, ScalarField.COMPLEX),
                             validation_count=7, seed=4)
        # n standard + (n-1) mixed + 2 automorphism + 1 phase + validation
        assert result.probes_used == n + (n - 1) + 2 + 1 + 7

    def test_real_field_probe_count(self):
        n = 4
        op = SemilinearOperator(np.diag([1.0, 2.0, 3.0, 4.0]))
        result = reconstruct(induce(op), validation_count=5, seed=5)
        assert result.probes_used == n + (n - 1) + 5

    @pytest.mark.parametrize("field,auto", [
        (ScalarField.REAL, AutomorphismTag.IDENTITY),
        (ScalarField.COMPLEX, AutomorphismTag.IDENTITY),
        (ScalarField.COMPLEX, AutomorphismTag.CONJUGATION),
    ], ids=("real", "complex-id", "complex-conj"))
    def test_one_row_call_per_probe_group(self, field, auto):
        # standard, mixed, trace, phase and validation probes: one call for all
        n = 5
        rng = np.random.default_rng(20)
        phi = induce(SemilinearOperator(random_invertible(rng, n, field), auto))
        rows, calls = phi._rows, []

        def counting(x, f):
            calls.append(len(x))
            return rows(x, f)

        phi._rows = counting
        result = reconstruct(phi, validation_count=20, seed=1)
        probes = reconstruction_probe_set(n, field, 20, 1).all_probes()
        assert calls == [result.probes_used] == [len(probes)]

    @pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
    def test_constant_black_box_is_refused(self, field):
        # every image is (e_1, e_1), so all column images are parallel and
        # the fit has no second direction; a floating-point warning would
        # fail the test, as pytest turns it into an error
        n = 4
        e1 = np.eye(n, dtype=field.dtype)[0]
        seen = []

        def eval_fn(p):
            seen.append(p)
            return RankOneIdempotent(e1, e1)

        with pytest.raises((NotInduced, DegenerateProbe)):
            reconstruct(TransformHandle(eval_fn, n, field), validation_count=5)
        # every probe is mapped before any stage refuses
        assert len(seen) == len(reconstruction_probe_set(n, field, 5).all_probes())

    def test_validation_count_zero_or_negative(self):
        op = SemilinearOperator(np.diag([1.0, 2.0, 3.0]))
        # zero means no validation probes; a negative count is refused
        assert reconstruct(induce(op), validation_count=0).probes_used == 3 + 2
        with pytest.raises(ValueError):
            reconstruct(induce(op), validation_count=-3)
        with pytest.raises(ValueError):
            probe_table_from_operator(op, validation_count=-3)

    def test_not_induced_map_rejected(self):
        # the transpose map reverses zero products, so it cannot be an
        # operator conjugation; the probe protocol must refuse it
        phi = transpose_handle(3, ScalarField.COMPLEX)
        with pytest.raises((NotInduced, UnrecognizedAutomorphism, DegenerateProbe)):
            reconstruct(phi, validation_count=30, seed=6)

    def test_two_faced_map_rejected_by_validation(self):
        # behaves as one operator on the deterministic probes and as a
        # different one elsewhere: only the validation stage can catch it
        rng = np.random.default_rng(19)
        a = random_semilinear(rng, 3, ScalarField.COMPLEX,
                              auto=AutomorphismTag.IDENTITY)
        b = random_semilinear(rng, 3, ScalarField.COMPLEX,
                              auto=AutomorphismTag.IDENTITY)
        deterministic = reconstruction_probe_set(
            3, ScalarField.COMPLEX, validation_count=0, seed=0
        ).all_probes()
        known = [p.matrix for p in deterministic]
        phi_a, phi_b = induce(a), induce(b)

        def eval_fn(p):
            if any(np.linalg.norm(p.matrix - m) <= 1e-9 for m in known):
                return phi_a(p)
            return phi_b(p)

        phi = TransformHandle(eval_fn, 3, ScalarField.COMPLEX)
        with pytest.raises(NotInduced):
            reconstruct(phi, validation_count=30, seed=7)

    @pytest.mark.parametrize("phase_image,message", [
        ([1.0, 2.0, 0], r"phase probe returned h\(i\) = "),
        ([1.0, -1j, 0], "trace probe says id, phase probe says conj"),
    ], ids=("unrecognized", "disagrees"))
    def test_phase_probe_refusals(self, phase_image, message):
        # the identity map, except that the phase probe (e_1 + i e_2, e_1)
        # answers (phase_image, e_1): its fit gives h(i) = 2 or -i
        phase = reconstruction_probe_set(3, ScalarField.COMPLEX, 0).phase[0]
        e1 = np.eye(3, dtype=complex)[0]
        answer = RankOneIdempotent(np.array(phase_image, dtype=complex), e1)

        def eval_fn(p):
            return answer if np.array_equal(p.matrix, phase.matrix) else p

        phi = TransformHandle(eval_fn, 3, ScalarField.COMPLEX)
        with pytest.raises(UnrecognizedAutomorphism, match=message):
            reconstruct(phi, validation_count=5)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("angle", (1.0, 1e-4, 1e-7), ids=("random", "near-1e-4", "near-1e-7"))
def test_fit_matches_least_squares(field, angle):
    """The closed-form fit of the mixed and phase probes agrees with
    ``np.linalg.lstsq`` to about ``eps / angle``, where ``angle`` is the
    distance of the unit directions ``c[k]`` from the unit ``c0``."""
    rng = np.random.default_rng(22)
    n, rows = 6, 40
    c0 = random_matrix(rng, (n,), field)
    c0 /= np.linalg.norm(c0)
    c = c0 + angle * random_matrix(rng, (rows, n), field)
    c /= np.linalg.norm(c, axis=1)[:, None]
    v = random_matrix(rng, (rows, 1), field) * c0 + random_matrix(rng, (rows, 1), field) * c
    if angle == 1.0:  # off the span too, so the fit is a true least-squares one
        v += 0.1 * random_matrix(rng, (rows, n), field)
    a, b = _fit_two_directions(c0, c, v)
    for k in range(rows):
        ref, *_ = np.linalg.lstsq(np.column_stack([c0, c[k]]), v[k], rcond=None)
        err = np.hypot(abs(a[k] - ref[0]), abs(b[k] - ref[1])) / np.linalg.norm(ref)
        assert err <= 50 * np.finfo(float).eps / angle, (k, err)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_table_lookup_matches_the_dense_distance(field):
    """Against the Frobenius distance of the ``n x n`` matrices, with the
    rule ``RELATION_TOL * (1 + ||Q||)``: each input finds its own
    output.  A query moved off an input by twice the tolerance raises
    ``KeyError``, and so does one moved by half of it, which that rule
    would match: the table answers its inputs exactly."""
    rng = np.random.default_rng(23)
    n = 5
    table = probe_table_from_operator(random_semilinear(rng, n, field), validation_count=10,
                                      seed=4)
    phi = handle_from_table(table, n, field)
    inputs = np.array([p.matrix for p, _ in table])

    def dense(q):
        dists = np.linalg.norm(inputs - q.matrix, axis=(1, 2))
        best = int(np.argmin(dists))
        return best, dists[best] <= RELATION_TOL * (1.0 + np.linalg.norm(q.matrix))

    for p, out in table:
        best, covered = dense(p)
        assert covered
        np.testing.assert_array_equal(phi(p).matrix, table[best][1].matrix)
        np.testing.assert_array_equal(phi(p).matrix, out.matrix)
    for k in (0, n, len(table) - 1):
        p = table[k][0]
        # ``u`` has pair(u, f) = 0, so ``(x + t u, f)`` is an idempotent
        # at distance ``t ||u|| ||f||`` from ``P``
        r = random_matrix(rng, (n,), field)
        u = r - np.dot(r, p.f) * p.x
        unit = RELATION_TOL * (1.0 + np.linalg.norm(p.matrix)) / (
            np.linalg.norm(u) * np.linalg.norm(p.f))
        near = RankOneIdempotent(p.x + 0.5 * unit * u, p.f)
        assert dense(near) == (dense(p)[0], True)
        with pytest.raises(KeyError, match="not covered by the probe table"):
            phi(near)
        far = RankOneIdempotent(p.x + 2.0 * unit * u, p.f)
        assert not dense(far)[1]
        with pytest.raises(KeyError, match="not covered by the probe table"):
            phi(far)


def scaled_row(x, f, k):
    """``(x 2^k, f 2^-k)``, the same idempotent, exactly."""
    def ldexp(a, e):
        return np.ldexp(a.real, e) + 1j * np.ldexp(a.imag, e) if np.iscomplexobj(a) \
            else np.ldexp(a, e)
    return ldexp(x, k), ldexp(f, -k)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_shuffled_block_with_repeats_is_answered_bit_for_bit(field):
    """A block of table inputs, shuffled, each asked for three times and with
    every zero written as ``-0.0``, is answered in one lookup with each
    input's own output, dtype included."""
    rng = np.random.default_rng(41)
    n = 5
    table = probe_table_from_operator(random_semilinear(rng, n, field), validation_count=12,
                                      seed=2)
    phi = handle_from_table(table, n, field)
    pick = rng.permutation(np.arange(3 * len(table)) % len(table))
    x, f = (np.array([getattr(table[k][0], side) for k in pick]) for side in "xf")
    got = phi._rows(np.where(x == 0, -0.0, x), np.where(f == 0, -0.0, f))
    want = (np.array([table[k][1].x for k in pick]), np.array([table[k][1].f for k in pick]))
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


def test_duplicate_inputs_resolve_to_the_first_entry():
    table = probe_table_from_operator(identity_operator(3), validation_count=4, seed=5)
    p, q = table[2]
    other = table[3][1]
    for entries, want in ((table + [(p, other)], q), ([(p, other)] + table, other)):
        phi = handle_from_table(entries, 3, ScalarField.COMPLEX)
        np.testing.assert_array_equal(phi(p).matrix, want.matrix)


def test_uncovered_row_inside_a_block_raises():
    rng = np.random.default_rng(42)
    table = probe_table_from_operator(identity_operator(3), validation_count=4, seed=5)
    phi = handle_from_table(table, 3, ScalarField.COMPLEX)
    stranger = random_rank_one(rng, 3, ScalarField.COMPLEX)
    block = [table[0][0], table[1][0], stranger, table[2][0], table[3][0]]
    with pytest.raises(KeyError, match="not covered by the probe table"):
        phi._rows(np.array([p.x for p in block]), np.array([p.f for p in block]))


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_reconstruct_costs_one_lookup(field):
    """``reconstruct`` maps its whole probe set in one call of the table's
    ``_eval``, which the handle looks up at call time."""
    a = random_semilinear(np.random.default_rng(43), 4, field)
    phi = handle_from_table(probe_table_from_operator(a, 20, 1), 4, field)
    calls, lookup = [], phi._eval
    phi._eval = lambda x, f: calls.append(len(x)) or lookup(x, f)
    reconstruct(phi, validation_count=20, seed=1)
    assert calls == [len(reconstruction_probe_set(4, field, 20, 1).all_probes())]


class TestFromRayPair:
    def test_identity_pair(self):
        phi = from_ray_pair(RayPair(lambda x: x, lambda f: f), 3,
                            ScalarField.REAL)
        p = rank_one_from_pair([1.0, 2.0, 0], [1.0, 0, 0])
        np.testing.assert_allclose(phi(p).matrix, p.matrix, atol=1e-12)

    def test_out_of_range_images_are_rescaled(self):
        # pair(1e155 x, f) is 1e155: its degeneracy test overflows unless
        # the image rows are read at a safe scale.
        phi = from_ray_pair(RayPair(lambda x: 1e155 * x, lambda f: f), 3, ScalarField.REAL)
        p = rank_one_from_pair([1.0, 2.0, 0], [1.0, 0, 0])
        np.testing.assert_allclose(phi(p).matrix, p.matrix, atol=1e-12)
        assert check_preservation(phi).ok

    def test_operator_pair_matches_induce(self):
        rng = np.random.default_rng(13)
        m = random_invertible(rng, 4, ScalarField.COMPLEX)
        op = SemilinearOperator(m)
        dual = np.linalg.inv(m.T)
        phi = from_ray_pair(
            RayPair(lambda x: m @ x, lambda f: dual @ f), 4, ScalarField.COMPLEX
        )
        reference = induce(op)
        for _ in range(20):
            p = random_rank_one(rng, 4, ScalarField.COMPLEX)
            np.testing.assert_allclose(phi(p).matrix, reference(p).matrix,
                                       atol=1e-9)

    def test_mismatched_pair_degenerates(self):
        t = np.diag([2.0, 1.0, 1.0])
        phi = from_ray_pair(
            RayPair(lambda x: t @ x, lambda f: f), 3, ScalarField.REAL
        )
        # pair(x, f) = 1 but pair(T x, f) = 0
        p = RankOneIdempotent([-1.0, 0, 2.0], [1.0, 0, 1.0])
        with pytest.raises(DegenerateImage):
            phi(p)

    def test_maps_are_called_t_then_s_per_row_in_row_order(self):
        calls = []
        phi = from_ray_pair(RayPair(lambda x: calls.append(("T", x.tobytes())) or x,
                                    lambda f: calls.append(("S", f.tobytes())) or f),
                            3, ScalarField.COMPLEX)
        reconstruct(phi, validation_count=4, seed=2)
        x, f = reconstruction_probe_set(3, ScalarField.COMPLEX, 4, 2).rows
        assert calls == [call for xk, fk in zip(x, f)
                         for call in (("T", xk.tobytes()), ("S", fk.tobytes()))]

    def test_integer_images_become_float(self):
        phi = from_ray_pair(RayPair(lambda x: np.array([1, 2, 0]), lambda f: np.array([1, 0, 0])),
                            3, ScalarField.REAL)
        image = phi(rank_one_from_pair([1.0, 2.0, 0], [1.0, 0, 0]))
        assert image.x.dtype == image.f.dtype == np.float64

    @pytest.mark.parametrize("vector_map,functional_map,error", [
        (lambda x: 0 * x, lambda f: f, DegenerateImage),
        (lambda x: x, lambda f: np.zeros(3), DegenerateImage),
        (lambda x: np.full(3, np.inf), lambda f: f, ValueError),
        (lambda x: x, lambda f: np.append(f, 1.0), DimensionMismatch),
        (lambda x: x * np.nan, lambda f: f, ValueError),
        (lambda x: "abc", lambda f: f, ValueError),
    ], ids=("zero-vector", "zero-functional", "non-finite", "wrong-shape", "nan",
            "not-numeric"))
    def test_invalid_images_are_typed(self, vector_map, functional_map, error):
        phi = from_ray_pair(RayPair(vector_map, functional_map), 3, ScalarField.REAL)
        with pytest.raises(error):
            phi(rank_one_from_pair([1.0, 2.0, 0], [1.0, 0, 0]))
        # reconstruct types every invalid probe image, whatever phi(p) raises.
        with pytest.raises(DegenerateProbe, match="probe image invalid"):
            reconstruct(phi, validation_count=2)


class TestBlackBoxBoundary:
    """The three wrapped black boxes, a callable in ``TransformHandle``, a
    ``RayMap`` and ``from_ray_pair``'s ``T`` and ``S``, share one per-row adapter."""

    def test_wrapped_handle_is_called_per_row_in_row_order(self):
        calls = []

        def identity(p):
            assert not (p.x.flags.writeable or p.f.flags.writeable)
            calls.append((p.x.tobytes(), p.f.tobytes()))
            return p

        reconstruct(TransformHandle(identity, 3, ScalarField.COMPLEX), validation_count=4, seed=2)
        x, f = reconstruction_probe_set(3, ScalarField.COMPLEX, 4, 2).rows
        assert calls == [(xk.tobytes(), fk.tobytes()) for xk, fk in zip(x, f)]

    def test_wrapped_ray_map_is_called_per_row_in_row_order(self):
        # recover_inducing_operator maps the vector rows x, then the functional
        # rows as eta^{-1} conj(f), each side one block of the ray map's rows.
        calls = []

        def identity(ray):
            assert not ray.representative.flags.writeable
            calls.append(ray.representative)
            return ray

        eta = np.diag([1.0, 1.0, -1.0]).astype(complex)
        recover_inducing_operator(IndefiniteSpace(eta), RayMap(identity), validation_count=4,
                                  seed=2)
        x, f = reconstruction_probe_set(3, ScalarField.COMPLEX, 4, 2).rows
        want = list(x) + list(np.conj(f) @ np.linalg.inv(eta).T)
        assert len(calls) == len(want) == 2 * len(x)
        for got, row in zip(calls, want):
            np.testing.assert_array_equal(got, row)

    def test_black_box_value_errors_are_typed_by_recovery(self):
        # Ray refuses the underflowed image, inside the black box.
        tiny = RayMap(lambda ray: Ray(1e-200 * (1e-200 * ray.representative)))
        with pytest.raises(DegenerateProbe, match="a ray needs a nonzero representative"):
            recover_inducing_operator(IndefiniteSpace(np.diag([1.0, 1.0, -1.0])), tiny,
                                      validation_count=2)

    @pytest.mark.parametrize("make", [
        lambda: TransformHandle(lambda p: p, 3, ScalarField.COMPLEX),
        lambda: handle_from_table(probe_table_from_operator(identity_operator(3), 2), 3,
                                  ScalarField.COMPLEX),
        lambda: RayMap(lambda ray: ray),
        lambda: induce(identity_operator(3)),
        lambda: from_ray_pair(RayPair(lambda x: x, lambda f: f), 3, ScalarField.COMPLEX),
        lambda: induced_ray_map(identity_operator(3)),
    ], ids=("wrapped-handle", "table", "wrapped-ray-map", "induce", "from-ray-pair",
            "induced-ray-map"))
    def test_no_handle_refers_to_itself(self, make):
        # With the cyclic collector off, only reference counting can free it.
        enabled = gc.isenabled()
        gc.disable()
        try:
            black_box = make()
            if isinstance(black_box, RayMap):
                black_box._rows(np.eye(3, dtype=complex))
            else:
                black_box(reconstruction_probe_set(3, ScalarField.COMPLEX, 2, 0).standard[0])
            ref = weakref.ref(black_box)
            del black_box
            assert ref() is None
        finally:
            if enabled:
                gc.enable()


class TestProbeTable:
    def test_table_roundtrip(self):
        rng = np.random.default_rng(14)
        m = random_invertible(rng, 3, ScalarField.COMPLEX)
        op = SemilinearOperator(m, AutomorphismTag.CONJUGATION)
        table = probe_table_from_operator(op, validation_count=10, seed=7)
        phi = handle_from_table(table, 3, ScalarField.COMPLEX)
        result = reconstruct(phi, validation_count=10, seed=7)
        assert up_to_scalar_distance(result.A.matrix, m / np.linalg.norm(m)) <= 1e-8
        assert result.A.auto is AutomorphismTag.CONJUGATION

    def test_corrupted_table_rejected(self):
        rng = np.random.default_rng(15)
        m = random_invertible(rng, 3, ScalarField.COMPLEX)
        table = probe_table_from_operator(SemilinearOperator(m),
                                          validation_count=10, seed=8)
        # swap two standard-probe responses: still valid idempotents, but
        # inconsistent with any single inducing operator
        table[0], table[1] = (table[0][0], table[1][1]), (table[1][0], table[0][1])
        phi = handle_from_table(table, 3, ScalarField.COMPLEX)
        with pytest.raises((NotInduced, UnrecognizedAutomorphism, DegenerateProbe)):
            reconstruct(phi, validation_count=10, seed=8)

    def test_table_checked_at_construction(self):
        table = probe_table_from_operator(identity_operator(3), validation_count=2, seed=9)
        p, q = table[0]
        wider = rank_one_from_pair([1.0, 0, 0, 0], [1.0, 0, 0, 0])
        with pytest.raises(ValueError, match="probe table is empty"):
            handle_from_table([], 3, ScalarField.COMPLEX)
        for entry, message in (((p, q.matrix), "table output is not a RankOneIdempotent"),
                               ((p.matrix, q), "table input is not a RankOneIdempotent"),
                               ((p,), r"not an \(input, output\) pair"),
                               ((p, q, q), r"not an \(input, output\) pair")):
            with pytest.raises(TypeError, match=message):
                handle_from_table(table[1:] + [entry], 3, ScalarField.COMPLEX)
        for entry in ((wider, q), (p, wider)):
            with pytest.raises(DimensionMismatch, match="handle dimension 3, table"):
                handle_from_table(table[1:] + [entry], 3, ScalarField.COMPLEX)

    def test_complex_entry_in_a_real_table_is_refused(self):
        # Its key, cast to float64, would drop the imaginary part.
        real = probe_table_from_operator(identity_operator(3, ScalarField.REAL),
                                         validation_count=2, seed=9)
        p, q = real[0]
        wide = RankOneIdempotent(p.x + 1e-3j * np.roll(p.x, 1), p.f)
        for entry in ((wide, q), (p, RankOneIdempotent(q.x + 0j, q.f))):
            with pytest.raises(ValueError, match="real field holds a complex entry"):
                handle_from_table(real[1:] + [entry], 3, ScalarField.REAL)
        # Real entries in a complex table are read as complex.
        phi = handle_from_table(real, 3, ScalarField.COMPLEX)
        for p, q in real:
            np.testing.assert_array_equal(phi(RankOneIdempotent(p.x + 0j, p.f + 0j)).matrix,
                                          q.matrix)

    @pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
    @pytest.mark.parametrize("k", (600, -600, 1000, -1000))
    def test_out_of_range_outputs_are_balanced(self, field, k):
        # Outputs (x 2^k, f 2^-k) are the same idempotents, but their checks
        # overflow unless the table reads them at a safe scale.
        a = random_semilinear(np.random.default_rng(44), 4, field)
        table = probe_table_from_operator(a, validation_count=10, seed=3)
        want = reconstruct(handle_from_table(table, 4, field), validation_count=10, seed=3)
        scaled = [(p, RankOneIdempotent(*scaled_row(q.x, q.f, k))) for p, q in table]
        got = reconstruct(handle_from_table(scaled, 4, field), validation_count=10, seed=3)
        assert got.A.auto is want.A.auto and got.residual <= 1e-12
        assert up_to_scalar_distance(got.A.matrix, want.A.matrix) <= 1e-12

    def test_uncovered_query_raises(self):
        rng = np.random.default_rng(16)
        table = probe_table_from_operator(identity_operator(3),
                                          validation_count=2, seed=9)
        phi = handle_from_table(table, 3, ScalarField.COMPLEX)
        stranger = random_rank_one(rng, 3, ScalarField.COMPLEX)
        with pytest.raises(KeyError, match="not covered by the probe table"):
            phi(stranger)

    @pytest.mark.parametrize("scale", (1.0, 1e200, 1e-200))
    def test_query_scale_is_invisible(self, scale):
        # At 1e+-200 the query's norms square to inf or 0, which once made a
        # stranger match the first entry.  A stranger is refused at any scale,
        # and so is an input read as (c x, f / c): inputs are matched as written.
        table = probe_table_from_operator(identity_operator(3), validation_count=2)
        phi = handle_from_table(table, 3, ScalarField.COMPLEX)
        stranger = RankOneIdempotent(np.array([1, 1, 0j]) * scale, np.array([1, 0, 1j]) / scale)
        with pytest.raises(KeyError, match="not covered by the probe table"):
            phi(stranger)
        for p, q in table:
            rescaled = RankOneIdempotent(p.x * scale, p.f / scale)
            if scale == 1.0:
                np.testing.assert_array_equal(phi(rescaled).matrix, q.matrix)
            else:
                with pytest.raises(KeyError, match="not covered by the probe table"):
                    phi(rescaled)

    def test_validation_threshold_is_pinned(self):
        # one validation response moved off the induced map by about eps:
        # 1e-5 lands between RECOVERY_TOL and 1e-3, 1e-8 below RECOVERY_TOL
        op = random_semilinear(np.random.default_rng(20), 4, ScalarField.COMPLEX)

        def bumped_table(eps):
            table = probe_table_from_operator(op, validation_count=10, seed=3)
            p, q = table[-1]
            x = q.x.copy()
            x[0] += eps * np.linalg.norm(q.x)
            table[-1] = (p, rank_one_from_pair(x, q.f))
            return handle_from_table(table, 4, ScalarField.COMPLEX)

        with pytest.raises(NotInduced) as exc:
            reconstruct(bumped_table(1e-5), validation_count=10, seed=3)
        assert RECOVERY_TOL < exc.value.residual < 1e-3
        assert reconstruct(bumped_table(1e-8), validation_count=10,
                           seed=3).residual <= RECOVERY_TOL


class TestHandleValidation:
    def test_wrong_type_output(self):
        phi = TransformHandle(lambda p: p.matrix, 3, ScalarField.REAL)
        with pytest.raises(TypeError):
            phi(rank_one_from_pair([1.0, 0, 0], [1.0, 0, 0]))

    def test_dimension_guard(self):
        phi = identity_handle(3, ScalarField.REAL)
        with pytest.raises(Exception):
            phi(rank_one_from_pair([1.0, 0, 0, 0], [1.0, 0, 0, 0]))

    def test_low_dimension_rejected(self):
        with pytest.raises(ValueError):
            identity_handle(2, ScalarField.REAL)


class TestTraceIdentityInvariant:
    @pytest.mark.parametrize("auto", [AutomorphismTag.IDENTITY,
                                      AutomorphismTag.CONJUGATION])
    def test_trace_identity(self, auto):
        rng = np.random.default_rng(17)
        op = random_semilinear(rng, 4, ScalarField.COMPLEX, auto=auto)
        phi = induce(op)
        for _ in range(40):
            p = random_idempotent(rng, 4, int(rng.integers(1, 4)),
                                  ScalarField.COMPLEX)
            q = random_idempotent(rng, 4, int(rng.integers(1, 4)),
                                  ScalarField.COMPLEX)
            lhs = np.trace(extend(phi, p).matrix @ extend(phi, q).matrix)
            rhs = op.auto.apply(np.trace(p.matrix @ q.matrix))
            assert abs(lhs - rhs) <= 1e-8

    def test_remixed_decomposition_same_extension(self):
        rng = np.random.default_rng(18)
        op = random_semilinear(rng, 5, ScalarField.COMPLEX)
        phi = induce(op)
        p = random_idempotent(rng, 5, 3, ScalarField.COMPLEX)
        base = decompose(p)
        out1 = extend(phi, p, decomposition=base)
        out2 = extend(phi, p, decomposition=remix_decomposition(rng, base))
        assert np.linalg.norm(out1.matrix - out2.matrix) <= 1e-8


@pytest.mark.parametrize("n", (3, 6, 16))
@pytest.mark.parametrize("field", (ScalarField.REAL, ScalarField.COMPLEX),
                         ids=("real", "complex"))
def test_validation_probes_are_one_block_draw(n, field):
    """The validation probes are one normalized block of
    ``_random_rank_one_rows``: each meets ``MIN_COSINE`` and has pairing 1."""
    count, seed = 65, n
    probes = reconstruction_probe_set(n, field, count, seed).validation
    x, f = _normalized_rows(*_random_rank_one_rows(np.random.default_rng(seed), count, n, field))
    assert len(probes) == count
    for p, xk, fk in zip(probes, x, f):
        assert p.x.tobytes() == xk.tobytes() and p.f.tobytes() == fk.tobytes()
        assert abs(np.dot(p.x, p.f) - 1.0) <= 1e-12
        cosine = abs(np.dot(p.x, p.f)) / (np.linalg.norm(p.x) * np.linalg.norm(p.f))
        assert cosine >= MIN_COSINE * (1 - 1e-12)


def test_probe_set_is_deterministic():
    a = reconstruction_probe_set(4, ScalarField.COMPLEX, 5, seed=3)
    b = reconstruction_probe_set(4, ScalarField.COMPLEX, 5, seed=3)
    for p, q in zip(a.all_probes(), b.all_probes()):
        np.testing.assert_array_equal(p.x, q.x)
        np.testing.assert_array_equal(p.f, q.f)
    assert len(a.all_probes()) == 4 + 3 + 2 + 1 + 5


class TestProbeSetCache:
    """``reconstruction_probe_set`` draws each set once and shares it."""

    def test_same_key_is_the_same_object(self):
        a = reconstruction_probe_set(5, ScalarField.COMPLEX, 6, seed=11)
        assert reconstruction_probe_set(5, ScalarField.COMPLEX, 6, seed=11) is a
        assert reconstruction_probe_set(5, ScalarField.REAL, 6, seed=11) is not a

    def test_numpy_integers_are_the_same_key(self):
        a = reconstruction_probe_set(np.int64(4), ScalarField.REAL, np.int64(5), seed=np.int64(3))
        assert reconstruction_probe_set(4, ScalarField.REAL, 5, seed=3) is a

    @pytest.mark.parametrize("kwargs", [
        {"seed": None},
        {"seed": np.random.default_rng(0)},
        {"seed": 1.5},
        {"validation_count": 5.0},
    ], ids=("none-seed", "generator-seed", "float-seed", "float-count"))
    def test_non_integer_keys_raise_type_error(self, kwargs):
        with pytest.raises(TypeError):
            reconstruction_probe_set(3, ScalarField.REAL, **kwargs)

    @pytest.mark.parametrize("args, match", [
        ((2, ScalarField.REAL, 5, 0), "dimension >= 3"),
        ((3, ScalarField.REAL, -1, 0), "validation_count must be >= 0"),
        ((3, ScalarField.REAL, 5, -1), "negative"),
    ], ids=("n", "count", "seed"))
    def test_errors_are_raised_on_every_call(self, args, match):
        for _ in range(2):
            with pytest.raises(ValueError, match=match):
                reconstruction_probe_set(*args)

    @pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
    def test_cached_set_equals_a_fresh_draw(self, field):
        cached = reconstruction_probe_set(6, field, 9, seed=8)
        fresh = transform._probe_set.__wrapped__(6, field, 9, 8)
        assert fresh is not cached
        sizes = [(len(p.standard), len(p.mixed), len(p.automorphism), len(p.phase),
                  len(p.validation)) for p in (cached, fresh)]
        assert sizes[0] == sizes[1]
        for got, want in zip(cached.rows, fresh.rows):
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes()

    def test_bound(self):
        assert transform._probe_set.cache_info().maxsize == transform._PROBE_SETS == 64


@pytest.mark.parametrize("n", (3, 6))
@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_library_rows_are_read_only_views_of_one_block(n, field):
    """The probe set's block holds the rows of ``all_probes()`` bit for bit
    and in order, ``reconstruct`` reports that many probes, and every
    probe, probe-table response and ``decompose`` piece is read-only."""
    rng = np.random.default_rng(n)
    probes = reconstruction_probe_set(n, field, 7, seed=n)
    all_probes = probes.all_probes()
    x, f = probes.rows
    for block, want in ((x, [p.x for p in all_probes]), (f, [p.f for p in all_probes])):
        want = np.array(want)
        assert (block.dtype, block.shape) == (want.dtype, want.shape)
        assert block.tobytes() == want.tobytes()
    assert "rows" not in repr(probes)
    assert dataclasses.replace(probes, rows=None) == probes

    a = random_semilinear(rng, n, field)
    result = reconstruct(induce(a), validation_count=7, seed=n)
    assert result.probes_used == len(result.probes.all_probes()) == len(x)
    responses = [q for _, q in probe_table_from_operator(a, 7, n)]
    pieces = decompose(random_idempotent(rng, n, 2, field))
    for p in all_probes + responses + pieces:
        for v in (p.x, p.f):
            with pytest.raises(ValueError, match="read-only"):
                v[0] = 0.0
