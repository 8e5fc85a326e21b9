import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from idemap.core import HOLDS, IDENTITY_RTOL, PAIRING_RTOL, RANK_RTOL, RELATION_TOL, ScalarField, \
    _as_array, _as_vector, _verdict, kernel_and_range, orthonormal_columns, tensor
from idemap.errors import DegeneratePair, DimensionMismatch, NotIdempotent
from idemap.idempotents import (
    FiniteRankIdempotent,
    RankOneIdempotent,
    _DOTS,
    _accepts_pair,
    _norm,
    _pairing_tol,
    _pivoted_qr,
    _require_rows,
    decompose,
    majorant,
    rank_one_from_pair,
    relate,
)
from idemap.sampling import random_idempotent, random_invertible, random_rank_one, \
    remix_decomposition
from idemap.serialize import rank_one_from_json, rank_one_to_json

E11 = np.diag([1.0, 0.0, 0.0])
E22 = np.diag([0.0, 1.0, 0.0])


def subspace_contains(b_big, b_small):
    """True if every column of ``b_small`` lies in the span of the
    orthonormal columns ``b_big``, each residual norm at most ``1e-8``."""
    if b_small.shape[1] == 0:
        return True
    resid = b_small - b_big @ (b_big.conj().T @ b_small)
    return bool(np.linalg.norm(resid, axis=0).max() <= 1e-8)


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


def reference_rank_one(x, f):
    """The checks of ``RankOneIdempotent`` in their first order:
    ``_as_vector`` on ``x`` and then on ``f`` (dimension, then
    finiteness), the shapes, and last the pairing, which must be 1 within
    a finite tolerance scaled by the norms.  Returns the rows."""
    xv, fv = _as_vector(x, "x"), _as_vector(f, "f")
    if xv.shape != fv.shape:
        raise DimensionMismatch(f"rank-one pair: shapes {xv.shape} vs {fv.shape}")
    tol = PAIRING_RTOL * (1.0 + scipy.linalg.norm(xv) * scipy.linalg.norm(fv))
    with np.errstate(over="ignore"):
        p = np.dot(xv, fv)
    if not abs(p - 1.0) <= tol < np.inf:
        raise NotIdempotent(f"pairing is {p!r}")
    return xv, fv


def with_entry(v, i, value):
    out = np.array(v)
    out[i] = value
    return out


def _refusal_table():
    """Valid real and complex pairs; NaN, +inf and -inf at every entry of
    either side (in the real and in the imaginary part over the complex
    field); int, bool and list inputs; wrong dimensions and shapes; zero,
    tiny and huge entries."""
    real, cplx = ([0.5, 1.0, -2.0], [2.0, 0.0, 0.0]), ([1 + 1j, 0.5, 2j], [0.5 - 0.5j, 0.0, 0.0])
    cases = [real, cplx]
    for (x, f), complex_field in ((real, False), (cplx, True)):
        bad = [np.nan, np.inf, -np.inf]
        if complex_field:
            bad += [complex(0.0, value) for value in bad]
        for value in bad:
            for i in range(3):
                cases += [(with_entry(x, i, value), f), (x, with_entry(f, i, value))]
    tiny = [[t, t, 0.0] for t in (1e-160, 1e-162, 1e-200)]
    return cases + [
        ([1, 0, 0], [1, 0, 0]),
        ([2, 0, 0], [1, 0, 0]),
        ([True, False, False], [True, True, False]),
        (np.array([1, 2, 0]), np.array([1.0, 0.0, 0.0])),
        (1.0, 1.0),
        ([[1.0, 0, 0]], [[1.0, 0, 0]]),
        ([1.0, 0, 0], [[1.0, 0, 0]]),
        ([[np.nan, 0, 0]], [1.0, 0, 0]),
        ([np.nan, 0, 0], [1.0, 0]),
        ([1.0, 0, 0], [1.0, np.inf]),
        ([1.0, 0, 0], [1.0, 0]),
        ([1.0, 0, 0, 0], [1.0, 0, 0]),
        ([0.0, 0, 0], [1.0, 0, 0]),
        ([0.0, 0, 0], [0.0, 0, 0]),
        *[(t, t) for t in tiny],
        ([1e-160, 0, 0], [1e160, 0, 0]),
        ([1e-200, 0, 0], [1e200, 0, 0]),
        ([1e200, 0, 0], [1e-200, 0, 0]),
        ([1e200, 1e200, 0], [1e-200, 5, 0]),
        ([1e200, 0, 1], [1e-200, 1e200, 0]),
        ([1e200, 0, 0], [1e200, 0, 0]),
    ]


REFUSAL_TABLE = _refusal_table()


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

    @pytest.mark.parametrize("scale", (1e-200, 1e200))
    def test_pair_out_of_range_is_read_at_a_safe_scale(self, scale):
        # As given, the pairing underflows to 0 (a false DegeneratePair) or
        # overflows (a RuntimeWarning, an error under the suite's filter).
        p = rank_one_from_pair([scale, 0, 0], [scale, 0, 0])
        np.testing.assert_allclose(p.matrix, E11, rtol=1e-15, atol=0)

    def test_cancelling_pair_out_of_range_is_degenerate(self):
        with pytest.raises(DegeneratePair):
            rank_one_from_pair([1e200, 1e200, 0], [1e200, -1e200, 0])

    def test_overflowed_bound_says_so(self):
        # The pairing is 1, but ||x|| ||f|| overflows: UNDECIDED, refused.
        with pytest.raises(NotIdempotent, match="arithmetic overflowed"):
            RankOneIdempotent([1e160, 1, 0], [0, 1, 1e158])

    def test_invalid_pairing_rejected(self):
        with pytest.raises(NotIdempotent):
            RankOneIdempotent([2.0, 0, 0], [1.0, 0, 0])

    @pytest.mark.parametrize("x, f", [
        ([1e200, 1e200, 0], [1e-200, 5, 0]),  # pairing 5e200
        ([1e200, 0, 1], [1e-200, 1e200, 0]),  # pairing 1, but ||x|| ||f|| overflows
        ([1e200, 0, 0], [1e200, 0, 0]),  # the pairing itself overflows
    ], ids=("huge-pairing", "overflowed-scale", "overflowed-pairing"))
    def test_overflowing_scale_rejected(self, x, f):
        # Under the suite's error::RuntimeWarning filter a floating-point
        # warning on the way would fail this test too.
        with pytest.raises(NotIdempotent):
            RankOneIdempotent(x, f)

    @pytest.mark.parametrize("x, f", REFUSAL_TABLE)
    def test_refuses_as_the_reference_does(self, x, f):
        """The constructor accepts exactly the pairs the reference accepts,
        with the same rows, and refuses the others with its error type."""
        try:
            want = reference_rank_one(x, f)
        except Exception as exc:
            with pytest.raises(type(exc)) as info:
                RankOneIdempotent(x, f)
            assert type(info.value) is type(exc)
            return
        p = RankOneIdempotent(x, f)
        for got, row in ((p.x, want[0]), (p.f, want[1])):
            assert got.dtype == row.dtype and np.array_equal(got, row)
            assert not got.flags.writeable

    def test_idempotent_matrix_invariant(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            p = random_rank_one(rng, 4, ScalarField.COMPLEX)
            m = p.matrix
            resid = np.linalg.norm(m @ m - m)
            assert resid <= 1e-9 * (1 + np.linalg.norm(m) ** 2)

    @pytest.mark.parametrize("dtype", (np.float64, np.complex128, np.float32, np.complex64,
                                       np.float16, np.longdouble), ids=lambda d: d.__name__)
    def test_pairing_norms_are_scipys(self, dtype):
        """The norms of the pairing bound are ``scipy.linalg.norm``'s, value and
        type, for an array of any dtype as the boundary reads it (``float64`` or
        ``complex128``, :func:`~idemap.core._as_array`), the only dtypes the
        helpers are handed, and for empty, strided, two-dimensional and
        far-out-of-range arrays."""
        rng = np.random.default_rng(7)
        v = rng.standard_normal(9) + (1j * rng.standard_normal(9)
                                      if np.issubdtype(dtype, np.complexfloating) else 0)
        cases = [v, v[::2], v[:0], v.reshape(3, 3)]
        if np.finfo(dtype).maxexp >= 1024:  # double or wider
            cases += [v * 1e200, v * 1e-200]
        field = np.complex128 if np.issubdtype(dtype, np.complexfloating) else np.float64
        for case in cases:
            case = _as_array(case.astype(dtype))
            got, want = _norm(case), scipy.linalg.norm(case, check_finite=False)
            assert case.dtype == field and type(got) is type(want) and got == want
        x = _as_array(v.astype(dtype))
        assert _pairing_tol(x, 2 * x) == PAIRING_RTOL * (
            1.0 + scipy.linalg.norm(x, check_finite=False)
            * scipy.linalg.norm(2 * x, check_finite=False))

    @pytest.mark.parametrize("chars", ("dd", "DD", "dD", "Dd"))
    def test_pairing_dots_are_blas(self, chars):
        """The pairing of :func:`_accepts_pair` is BLAS ``ddot`` or ``zdotu`` from
        ``_DOTS``, a mixed pair read as complex: the bilinear ``sum_j x_j f_j`` (no
        conjugation) as a Python scalar, for strided rows too, and an overflow reads
        inf or NaN with no warning (the suite turns a ``RuntimeWarning`` into an error)."""
        name = {"d": "dot", "D": "dotu"}
        for c in "dD":
            want = scipy.linalg.get_blas_funcs(name[c], dtype=np.dtype(c), ilp64="preferred")
            assert _DOTS[c] is want
        rng = np.random.default_rng(11)
        x, f = (_as_array(rng.standard_normal(9) + (1j * rng.standard_normal(9) if c == "D"
                                                     else 0)) for c in chars)
        kind = chars[0] if chars[0] == chars[1] else "D"
        for a, b in ((x, f), (x[::2], f[::2])):
            got, exact = _DOTS[kind](a, b), np.dot(a, b)
            assert type(got) is (complex if kind == "D" else float)
            assert abs(got - exact) <= 4 * a.size * np.finfo(float).eps * (
                np.linalg.norm(a) * np.linalg.norm(b))
        assert not np.isfinite(_DOTS[kind](1e200 * x, 1e200 * f))

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 64),
           chars=st.sampled_from(("dd", "DD", "dD", "Dd")),
           scale=st.sampled_from((1.0, 1e200, 1e-200)),
           offset=st.sampled_from((None, 1 - 1e-3, 1 + 1e-3)),
           sign=st.sampled_from((1.0, -1.0, 1j, -1j)))
    def test_acceptance_is_the_reference_rule(self, seed, n, chars, scale, offset, sign):
        """``RankOneIdempotent`` accepts a 1-d pair exactly when the reference rule
        ``_verdict(|np.vdot(x.conj(), f) - 1|, _pairing_tol(x, f))`` HOLDS: real,
        complex and mixed pairs, rows at 1e+-200, and pairings placed ``tol (1 +- 1e-3)``
        from 1 (in the signed or imaginary direction ``sign``, real pairs in a real
        one).  Verdicts are compared, not bits, since a BLAS build may round the
        pairing in another order."""
        rng = np.random.default_rng(seed)
        x, f = (rng.standard_normal(n) + (1j * rng.standard_normal(n) if c == "D" else 0)
                for c in chars)
        # Normalize through the complex side, so that a real side stays real.
        p = np.dot(x, f)
        if chars[0] == "D":
            x = x / p
        else:
            f = f / p
        if offset is not None:
            if "D" not in chars:
                sign = sign.real or 1.0
            target = 1.0 + sign * offset * _pairing_tol(x, f)
            if chars[0] == "D" or "D" not in chars:
                x = x * (target / np.dot(x, f))
            else:
                f = f * (target / np.dot(x, f))
        x, f = x * scale, f / scale
        want = _verdict(abs(np.vdot(x.conj(), f) - 1.0), _pairing_tol(x, f)) == HOLDS
        # The placement is far above rounding, so the rule sees the side it was put on.
        assert offset is None or want == (offset < 1)
        assert _accepts_pair(x, f) == want
        try:
            RankOneIdempotent(x, f)
        except NotIdempotent:
            assert not want
        else:
            assert want


class TestPivotedQR:
    @pytest.mark.parametrize("dtype", list(np.typecodes["AllFloat"]))
    @pytest.mark.parametrize("n", [1, 3, 16, 64, 160])
    @pytest.mark.parametrize("width", [1, 2])
    def test_matches_scipy_bit_for_bit(self, dtype, n, width):
        """``Q[:, :m]`` and ``|diag R|`` of ``scipy.linalg.qr(pivoting=True)``, bits and
        dtype, for ``n x n`` and ``n x 2n`` blocks, in C and Fortran order; this pins
        the f2py signatures of ``?geqp3`` and ``?orgqr`` at every supported scipy.  A
        block of any dtype is handed over as the boundary reads it (``float64`` or
        ``complex128``, :func:`~idemap.core._as_array`), and the reference is scipy's
        QR of that reading: the helper exists for those two dtypes only.  At
        n = 160, past LAPACK's blocking crossover of 128, the workspace size picks the
        blocked algorithm, so a skipped workspace query changes bits there."""
        rng = np.random.default_rng([n, width])
        a = rng.standard_normal((n, width * n))
        if dtype in np.typecodes["Complex"]:
            a = a + 1j * rng.standard_normal(a.shape)
        for block in (a.astype(dtype), np.asfortranarray(a.astype(dtype))):
            block = _as_array(block)
            assert block.dtype.char in "dD"
            q, r, _ = scipy.linalg.qr(block, pivoting=True, check_finite=False)
            want = (q[:, :n], np.abs(np.diag(r)))
            for got, ref in zip(_pivoted_qr(block), want):
                assert got.dtype == ref.dtype and got.shape == ref.shape
                assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("dtype", list(np.typecodes["AllFloat"]))
    def test_empty_block_calls_no_routine(self, dtype, capfd):
        """A ``0 x 0`` block, read as the boundary reads it, gives an empty ``Q`` and
        ``|diag R|`` of its own dtype, as ``scipy.linalg.qr`` does where it accepts empty
        input, and LAPACK prints no "illegal value" line.  The expected values are spelled
        out rather than read from scipy, whose handling of empty input depends on its
        version."""
        block = _as_array(np.zeros((0, 0), dtype))
        q, d = _pivoted_qr(block)
        assert capfd.readouterr().err == ""
        assert q.dtype == block.dtype and q.shape == (0, 0)
        assert d.dtype == np.abs(block).dtype and d.shape == (0,)


class TestFiniteRank:
    def test_rank_from_trace(self):
        p = FiniteRankIdempotent(np.diag([1.0, 1.0, 0.0]))
        assert p.rank == 2

    def test_rejects_non_idempotent(self):
        with pytest.raises(NotIdempotent):
            FiniteRankIdempotent(np.diag([0.5, 1.0, 0.0]))

    def test_zero_is_valid(self):
        assert FiniteRankIdempotent(np.zeros((3, 3))).rank == 0

    def test_factor_bound_scales_with_the_norm(self):
        """``P = [[1, b, 0], [0, 0, 0], [0, 0, t]]`` at ``b = 1e4``: with ``t``
        half of ``IDENTITY_RTOL (1 + ||P||)`` the QR rank is 1 and ``U G``
        misses ``P`` by ``t``, within the bound; with twice that, or with
        half of ``RELATION_TOL (1 + ||P||)``, the rank is 2 and ``F X^T`` is
        ``diag(1, t)``, far from ``I``."""
        for rule, factor, refused in ((IDENTITY_RTOL, 0.5, False), (IDENTITY_RTOL, 2.0, True),
                                      (RELATION_TOL, 0.5, True)):
            m = np.array([[1.0, 1e4, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
            m[2, 2] = factor * rule * (1.0 + np.linalg.norm(m))
            if refused:
                with pytest.raises(NotIdempotent, match="F X"):
                    FiniteRankIdempotent(m)
            else:
                p = FiniteRankIdempotent(m)
                assert p.rank == 1
                bound = IDENTITY_RTOL * (1.0 + np.linalg.norm(m))
                assert np.linalg.norm(p.matrix - m) <= bound

    @pytest.mark.parametrize("field", [ScalarField.REAL, ScalarField.COMPLEX])
    @pytest.mark.parametrize("n", [3, 6, 16, 64])
    def test_rank_of_a_similar_diagonal(self, n, field):
        """``S diag(I_r, 0) S^-1`` has the rank ``r`` it is built with, for
        every ``r`` from 0 to ``n`` and ``cond(S)`` from 1 to 1e5."""
        rng = np.random.default_rng(n)
        for cond in np.logspace(0.0, 5.0, 6):
            u, v = (np.linalg.qr(random_invertible(rng, n, field))[0] for _ in range(2))
            s = (u * np.logspace(0.0, -np.log10(cond), n)) @ v.conj().T
            inv = np.linalg.inv(s)
            for r in range(n + 1):
                p = FiniteRankIdempotent(s[:, :r] @ inv[:r])
                assert p.rank == r, (cond, r)

    def test_rows_are_frozen_and_sum_to_the_matrix(self):
        m = tensor([1.0, 1.0, 0], [1.0, 0, 0]) + tensor([0, 0, 1.0], [0, 0, 1.0])
        p = FiniteRankIdempotent(m)
        x, f = p.rows
        assert p.rank == len(x) == 2 and x.shape == f.shape == (2, 3)
        assert not x.flags.writeable and not f.flags.writeable
        np.testing.assert_array_equal(p.matrix, x.T @ f)
        np.testing.assert_allclose(p.matrix, m, atol=1e-12)

    def test_rows_rule_reads_the_rows_at_their_scale(self):
        # pairing 1 at ||X|| ||F|| = 1: accepted, though ||X|| = 1e200
        _require_rows(np.array([[1e200, 0.0, 0.0]]), np.array([[1e-200, 0.0, 0.0]]))
        # ||X|| ||F|| overflows: the bound proves nothing, refused without a warning
        with pytest.raises(NotIdempotent):
            _require_rows(np.array([[1e200, 0.0, 0.0]]), np.array([[1e200, 0.0, 0.0]]))

    def test_overflowing_residual_rejected(self):
        # ||P|| overflows to inf, and so does the bound IDENTITY_RTOL (1 + ||P||)
        # of ||U G - P||: the check must not pass, nor warn on the way.
        m = [[1, 1e160, 0], [1e160, 0, 0], [0, 0, 0]]
        with pytest.raises(NotIdempotent):
            FiniteRankIdempotent(m)
        with pytest.raises(NotIdempotent):
            decompose(m)


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
        with pytest.raises(DimensionMismatch, match=r"majorant: shapes \(3, 3\) vs \(4, 4\)"):
            majorant(E11, np.eye(4))

    def test_overflowing_norm_is_refused(self):
        # ||P|| = 1e200 overflows when squared; an infinite bound would pass
        # PQ = 1e200 e1 (x) e2 as zero.
        p = RankOneIdempotent([1.0, 0, 0], [1.0, 1e200, 0])
        q = RankOneIdempotent([0, 1.0, 0], [0, 1.0, 0])
        with pytest.raises(ValueError, match="overflow"):
            relate(p, q)

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

    def test_pieces_pass_the_rank_one_rule(self):
        """The rows rule accepts a pairing of 1 + 6e-10, but a piece must be
        a rank-one idempotent: the one ``RankOneIdempotent`` refuses."""
        p = FiniteRankIdempotent(np.outer([1.0, 0, 0], [1 + 6e-10, 0, 0]))
        with pytest.raises(NotIdempotent, match=r"piece 0: pairing is .*, not 1 within"):
            decompose(p)
        with pytest.raises(NotIdempotent, match="expected 1 within"):
            RankOneIdempotent(*(row[0] for row in p.rows))

    def test_random_pieces_survive_the_json_round_trip(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            n = int(rng.integers(3, 9))
            field = ScalarField.COMPLEX if rng.integers(2) else ScalarField.REAL
            p = random_idempotent(rng, n, int(rng.integers(1, n + 1)), field)
            x, f = p.rows
            for k, piece in enumerate(decompose(p)):
                # Read-only views of the rows, bit for bit.
                assert np.shares_memory(piece.x, x) and np.array_equal(piece.x, x[k])
                assert np.shares_memory(piece.f, f) and np.array_equal(piece.f, f[k])
                assert not piece.x.flags.writeable
                back = rank_one_from_json(rank_one_to_json(piece))
                assert np.array_equal(back.x, piece.x) and np.array_equal(back.f, piece.f)
                RankOneIdempotent(piece.x, piece.f)


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

    def test_large_norm_majorant_is_accepted(self):
        """Draw 4 of ``default_rng(1016)``: real n = 16 idempotents of ranks 4
        and 11 whose principal-angle sine is 2.5e-4.  Their majorant has
        ``||P||`` about 4.1e3; a rank read off its trace was once refused.
        Its rows meet the rows rule, and its dense matrix is read back at
        the same rank."""
        rng = np.random.default_rng(1016)
        for _ in range(5):
            p1 = random_idempotent(rng, 16, 4, ScalarField.REAL)
            p2 = random_idempotent(rng, 16, 11, ScalarField.REAL)
        big = majorant(p1, p2)
        assert big.rank == 15 and np.linalg.norm(big.matrix) > 4e3
        _require_rows(*big.rows)
        assert FiniteRankIdempotent(big.matrix).rank == 15
        assert relate(p1, big).p_leq_q and relate(p2, big).p_leq_q

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

    @pytest.mark.parametrize("field", [ScalarField.REAL, ScalarField.COMPLEX])
    @pytest.mark.parametrize("n", [16, 64])
    def test_north_star_sizes(self, n, field):
        """At n = 16 and 64, where each basis comes from a pivoted QR: the least rank
        of ``test_least_rank`` (SVD bases), nested and equal pairs give the larger
        idempotent, and the matrix is ``I - M (Q M)^+`` on the SVD bases within 1e-10."""
        rng = np.random.default_rng([n, len(field.value)])

        def similar():
            # S of cond 20 and its inverse, as in test_rank_of_a_similar_diagonal
            u, v = (np.linalg.qr(random_invertible(rng, n, field))[0] for _ in range(2))
            s = (u * np.logspace(0.0, -np.log10(20.0), n)) @ v.conj().T
            return s, np.linalg.inv(s)

        checked = set()
        for i in range(12):
            kind = i % 4
            s, inv = similar()
            if kind == 0:  # oblique pair of random ranks, 0 and I included
                t, t_inv = similar()
                r1, r2 = rng.integers(0, n + 1, 2)
                p1, p2 = s[:, :r1] @ inv[:r1], t[:, :r2] @ t_inv[:r2]
            elif kind == 1:  # rank-one pair sharing its functional
                f = random_rank_one(rng, n, field).f
                p1, p2 = (rank_one_from_pair(random_rank_one(rng, n, field).x, f).matrix
                          for _ in range(2))
            elif kind == 2:  # rank-one pair sharing its range vector
                x = random_rank_one(rng, n, field).x
                p1, p2 = (rank_one_from_pair(x, random_rank_one(rng, n, field).f).matrix
                          for _ in range(2))
            else:  # commuting pair with overlapping ranges: the majorant spans the union
                a, b = (rng.random(n) < 0.5 for _ in range(2))
                p1, p2 = (s[:, k] @ inv[k] for k in (a, b))
            big_m, _ = kernel_and_range(np.vstack([p1, p2]))
            big_n = orthonormal_columns(np.hstack([p1, p2]))
            dim_sum = np.linalg.matrix_rank(np.hstack([big_m, big_n]), tol=1e-9)
            dim_meet = big_m.shape[1] + big_n.shape[1] - dim_sum
            out = majorant(p1, p2)
            assert out.rank == n - big_m.shape[1] + dim_meet
            assert relate(p1, out).p_leq_q and relate(p2, out).p_leq_q
            u, sv, vh = np.linalg.svd(big_m - big_n @ (big_n.conj().T @ big_m))
            k = int(np.sum(sv > RANK_RTOL))
            ref = np.eye(n) - big_m @ (vh[:k].conj().T / sv[:k]) @ u[:, :k].conj().T
            assert np.linalg.norm(out.matrix - ref) <= 1e-10 * max(1.0, np.linalg.norm(ref))
            checked.add((kind, dim_meet > 0))
        assert (1, True) in checked and (0, False) in checked
        for _ in range(3):
            s, inv = similar()
            r = int(rng.integers(1, n))
            k = int(rng.integers(0, r + 1))
            small, big = s[:, :k] @ inv[:k], s[:, :r] @ inv[:r]
            for p1, p2, expected in ((small, big, big), (big, small, big),
                                     (small, small, small), (big, big, big)):
                out = majorant(p1, p2)
                assert out.rank == np.linalg.matrix_rank(expected)
                assert np.linalg.norm(out.matrix - expected) <= 1e-10 * max(
                    1.0, np.linalg.norm(expected))
