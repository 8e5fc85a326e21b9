import numpy as np
import pytest

from idemap.core import ScalarField, kernel_and_range, orthonormal_columns, subspace_contains, \
    tensor
from idemap.errors import DegeneratePair, DimensionMismatch, NotIdempotent
from idemap.idempotents import (
    FiniteRankIdempotent,
    RankOneIdempotent,
    decompose,
    majorant,
    rank_one_from_pair,
    relate,
)
from idemap.sampling import random_idempotent, random_invertible, random_rank_one, \
    remix_decomposition

E11 = np.diag([1.0, 0.0, 0.0])
E22 = np.diag([0.0, 1.0, 0.0])


def well_definedness_fixture():
    """Two independent orthogonal rank-one decompositions of diag(1,1,0)."""
    first = [
        RankOneIdempotent([1.0, 0, 0], [1.0, 0, 0]),
        RankOneIdempotent([0, 1.0, 0], [0, 1.0, 0]),
    ]
    second = [
        RankOneIdempotent([1.0, 1.0, 0], [1.0, 0, 0]),
        RankOneIdempotent([0, 1.0, 0], [-1.0, 1.0, 0]),
    ]
    return first, second


class TestRankOne:
    def test_basis_pair(self):
        p = rank_one_from_pair([1.0, 0, 0], [1.0, 0, 0])
        np.testing.assert_allclose(p.matrix, E11)

    def test_scaling_normalizes_x(self):
        p = rank_one_from_pair([2.0, 0, 0], [1.0, 0, 0])
        np.testing.assert_allclose(p.x, [1.0, 0, 0])
        np.testing.assert_allclose(p.f, [1.0, 0, 0])

    def test_degenerate_pair(self):
        with pytest.raises(DegeneratePair):
            rank_one_from_pair([0, 1.0, 0], [0, 0, 1.0])

    def test_invalid_pairing_rejected(self):
        with pytest.raises(NotIdempotent):
            RankOneIdempotent([2.0, 0, 0], [1.0, 0, 0])

    def test_idempotent_matrix_invariant(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            p = random_rank_one(rng, 4, ScalarField.COMPLEX)
            m = p.matrix
            resid = np.linalg.norm(m @ m - m)
            assert resid <= 1e-9 * (1 + np.linalg.norm(m) ** 2)


class TestFiniteRank:
    def test_rank_from_trace(self):
        p = FiniteRankIdempotent(np.diag([1.0, 1.0, 0.0]))
        assert p.rank == 2

    def test_rejects_non_idempotent(self):
        with pytest.raises(NotIdempotent):
            FiniteRankIdempotent(np.diag([0.5, 1.0, 0.0]))

    def test_zero_is_valid(self):
        assert FiniteRankIdempotent(np.zeros((3, 3))).rank == 0


class TestRelate:
    def test_orthogonal_basis_idempotents(self):
        r = relate(E11, E22)
        assert r.orthogonal and r.pq_zero and r.qp_zero
        assert not r.p_leq_q and not r.q_leq_p

    def test_one_sided_zero(self):
        # P maps z -> (z1+z2) e1, Q = E22: QP = 0 but PQ != 0
        p = rank_one_from_pair([1.0, 0, 0], [1.0, 1.0, 0])
        r = relate(p, E22)
        assert r.qp_zero and not r.pq_zero and not r.orthogonal

    def test_order(self):
        r = relate(E11, np.diag([1.0, 1.0, 0.0]))
        assert r.p_leq_q and not r.q_leq_p

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            relate(E11, np.eye(4))

    def test_rank_one_zero_product_criterion(self):
        # PQ = 0 iff pair(y, f) = 0 for P=(x,f), Q=(y,g)
        rng = np.random.default_rng(1)
        agree = 0
        for _ in range(1000):
            p = random_rank_one(rng, 4, ScalarField.COMPLEX)
            q = random_rank_one(rng, 4, ScalarField.COMPLEX)
            r = relate(p, q)
            cos = abs(np.dot(q.x, p.f)) / (
                np.linalg.norm(q.x) * np.linalg.norm(p.f)
            )
            predicted = cos <= 1e-8
            assert r.pq_zero == predicted
            agree += 1
        # crafted orthogonal pair
        p = rank_one_from_pair([1.0, 0, 0, 0], [1.0, 0, 0, 0])
        q = rank_one_from_pair([0, 1.0, 0, 0], [0.3, 1.0, 0, 0])
        assert relate(p, q).pq_zero

    def test_agrees_with_subspace_characterization(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(3, 7))
            s = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            while np.linalg.cond(s) > 50:
                s = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            inv = np.linalg.inv(s)
            r_small = int(rng.integers(1, n))
            r_big = int(rng.integers(r_small, n + 1))
            p = s[:, :r_small] @ inv[:r_small, :]
            q = s[:, :r_big] @ inv[:r_big, :]
            rel = relate(p, q)
            assert rel.p_leq_q
            ker_p, rng_p = kernel_and_range(p)
            ker_q, rng_q = kernel_and_range(q)
            assert subspace_contains(rng_q, rng_p)
            assert subspace_contains(ker_p, ker_q)
            # and an unrelated generic pair is not ordered
            other = random_idempotent(rng, n, r_small, ScalarField.COMPLEX)
            if r_big < n:
                assert not relate(other, q).p_leq_q or subspace_contains(
                    kernel_and_range(q)[1], kernel_and_range(other.matrix)[1]
                )


class TestDecompose:
    def test_diagonal(self):
        pieces = decompose(np.diag([1.0, 1.0, 0.0]))
        mats = sorted((np.round(p.matrix, 10).tolist() for p in pieces))
        assert mats == sorted([E11.tolist(), E22.tolist()])

    def test_rank_one_returns_itself(self):
        m = tensor([1.0, 1.0, 0], [1.0, 0, 0])
        (piece,) = decompose(m)
        np.testing.assert_allclose(piece.matrix, m, atol=1e-12)

    def test_fixture_decompositions_are_valid(self):
        first, second = well_definedness_fixture()
        target = np.diag([1.0, 1.0, 0.0])
        for pieces in (first, second):
            total = sum(p.matrix for p in pieces)
            np.testing.assert_allclose(total, target, atol=1e-12)
            for i, a in enumerate(pieces):
                for j, b in enumerate(pieces):
                    if i != j:
                        assert np.linalg.norm(a.matrix @ b.matrix) <= 1e-12

    def test_random_idempotents(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            n = int(rng.integers(3, 8))
            r = int(rng.integers(1, n))
            field = ScalarField.COMPLEX if rng.integers(2) else ScalarField.REAL
            p = random_idempotent(rng, n, r, field)
            pieces = decompose(p)
            assert len(pieces) == r
            total = sum(q.matrix for q in pieces)
            assert np.linalg.norm(total - p.matrix) <= 1e-8
            for i in range(r):
                for j in range(r):
                    if i != j:
                        prod = pieces[i].matrix @ pieces[j].matrix
                        assert np.linalg.norm(prod) <= 1e-8

    def test_remix_produces_independent_decomposition(self):
        rng = np.random.default_rng(4)
        p = random_idempotent(rng, 5, 3, ScalarField.COMPLEX)
        pieces = decompose(p)
        other = remix_decomposition(rng, pieces)
        total = sum(q.matrix for q in other)
        assert np.linalg.norm(total - p.matrix) <= 1e-8
        # genuinely different pieces
        assert np.linalg.norm(other[0].matrix - pieces[0].matrix) > 1e-4

    def test_zero_rank_rejected(self):
        with pytest.raises(ValueError):
            decompose(np.zeros((3, 3)))

    def test_non_idempotent_rejected(self):
        with pytest.raises(NotIdempotent):
            decompose(np.diag([0.5, 0.0, 0.0]))


class TestMajorant:
    def test_orthogonal_pair(self):
        big = majorant(E11, E22)
        assert relate(E11, big).p_leq_q
        assert relate(E22, big).p_leq_q
        np.testing.assert_allclose(big.matrix, np.diag([1.0, 1.0, 0.0]), atol=1e-9)

    def test_self_majorant(self):
        big = majorant(E11, E11)
        assert relate(E11, big).p_leq_q

    def test_mixed_rank_one(self):
        p1 = np.zeros((4, 4))
        p1[0, 0] = 1.0
        p2 = rank_one_from_pair([1.0, 1.0, 0, 0], [1.0, 0, 0, 0])
        big = majorant(p1, p2)
        assert relate(p1, big).p_leq_q
        assert relate(p2, big).p_leq_q

    def test_random_pairs(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            n = int(rng.integers(3, 9))
            field = ScalarField.COMPLEX if rng.integers(2) else ScalarField.REAL
            p1 = random_idempotent(rng, n, int(rng.integers(1, n)), field)
            p2 = random_idempotent(rng, n, int(rng.integers(1, n)), field)
            big = majorant(p1, p2)
            assert big.rank <= n
            assert relate(p1, big).p_leq_q
            assert relate(p2, big).p_leq_q

    @pytest.mark.parametrize("field", [ScalarField.REAL, ScalarField.COMPLEX])
    def test_nested_and_equal_pairs(self, field):
        # P1 <= P2 leaves nothing to add: the majorant is P2 itself
        rng = np.random.default_rng(11)
        for _ in range(30):
            n = int(rng.integers(3, 9))
            s = random_invertible(rng, n, field, max_cond=50)
            inv = np.linalg.inv(s)
            k = int(rng.integers(0, n + 1))
            r = int(rng.integers(k, n + 1))
            small, big = s[:, :k] @ inv[:k, :], s[:, :r] @ inv[:r, :]
            for p1, p2, expected in ((small, big, big), (big, small, big),
                                     (small, small, small), (big, big, big)):
                out = majorant(p1, p2).matrix
                assert np.linalg.norm(out - expected) <= 1e-12 * max(
                    1.0, np.linalg.norm(expected))

    def test_least_rank(self):
        # a majorant's range contains N = rng P1 + rng P2 and its kernel lies
        # in M = ker P1 ∩ ker P2, so its rank is at least n - dim M + dim(M ∩ N)
        rng = np.random.default_rng(12)
        checked = set()
        for i in range(80):
            n = int(rng.integers(3, 9))
            field = ScalarField.COMPLEX if i % 2 else ScalarField.REAL
            kind = i % 4
            if kind == 0:  # oblique pair of random ranks, 0 and I included
                p1, p2 = (random_idempotent(rng, n, int(rng.integers(0, n + 1)), field).matrix
                          for _ in range(2))
            elif kind == 1:  # rank-one pair sharing its functional
                f = random_rank_one(rng, n, field).f
                p1, p2 = (rank_one_from_pair(random_rank_one(rng, n, field).x, f).matrix
                          for _ in range(2))
            elif kind == 2:  # rank-one pair sharing its range vector
                x = random_rank_one(rng, n, field).x
                p1, p2 = (rank_one_from_pair(x, random_rank_one(rng, n, field).f).matrix
                          for _ in range(2))
            else:  # zero or identity against a random idempotent
                p1 = np.eye(n) * float(rng.integers(2))
                p2 = random_idempotent(rng, n, int(rng.integers(0, n + 1)), field).matrix
            big_m, _ = kernel_and_range(np.vstack([p1, p2]))
            big_n = orthonormal_columns(np.hstack([p1, p2]))
            dim_sum = np.linalg.matrix_rank(np.hstack([big_m, big_n]), tol=1e-9)
            dim_meet = big_m.shape[1] + big_n.shape[1] - dim_sum
            least = n - big_m.shape[1] + dim_meet
            out = majorant(p1, p2)
            assert out.rank == least
            assert relate(p1, out).p_leq_q and relate(p2, out).p_leq_q
            checked.add((kind, dim_meet > 0))
        assert (1, True) in checked and (0, False) in checked
