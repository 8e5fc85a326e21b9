import numpy as np
import pytest

from idemap.core import (
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
from idemap.sampling import (
    MIN_COSINE,
    _random_rank_one_rows,
    random_idempotent,
    random_invertible,
    random_rank_one,
    random_semilinear,
    remix_decomposition,
)
from idemap.transform import (
    NOT_INDUCED_TOL,
    RayPair,
    TransformHandle,
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
        # standard, mixed, trace, phase and validation probes: one call each
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
        assert result.probes_used == sum(calls) == len(probes)
        assert len(calls) <= (3 if field is ScalarField.REAL else 5)

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


class TestFromRayPair:
    def test_identity_pair(self):
        phi = from_ray_pair(RayPair(lambda x: x, lambda f: f), 3,
                            ScalarField.REAL)
        p = rank_one_from_pair([1.0, 2.0, 0], [1.0, 0, 0])
        np.testing.assert_allclose(phi(p).matrix, p.matrix, atol=1e-12)

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
    ], ids=("zero-vector", "zero-functional", "non-finite", "wrong-shape"))
    def test_invalid_images_are_typed(self, vector_map, functional_map, error):
        phi = from_ray_pair(RayPair(vector_map, functional_map), 3, ScalarField.REAL)
        with pytest.raises(error):
            phi(rank_one_from_pair([1.0, 2.0, 0], [1.0, 0, 0]))


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

    def test_uncovered_query_raises(self):
        rng = np.random.default_rng(16)
        table = probe_table_from_operator(identity_operator(3),
                                          validation_count=2, seed=9)
        phi = handle_from_table(table, 3, ScalarField.COMPLEX)
        stranger = random_rank_one(rng, 3, ScalarField.COMPLEX)
        with pytest.raises(KeyError, match="not covered by the probe table"):
            phi(stranger)

    def test_validation_threshold_is_pinned(self):
        # one validation response moved off the induced map by about eps:
        # 1e-5 lands between NOT_INDUCED_TOL and 1e-3, 1e-8 below NOT_INDUCED_TOL
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
        assert NOT_INDUCED_TOL < exc.value.residual < 1e-3
        assert reconstruct(bumped_table(1e-8), validation_count=10,
                           seed=3).residual <= NOT_INDUCED_TOL


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
