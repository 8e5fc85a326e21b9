"""Idempotent algebra: rank-one normalization, zero-product/order
relations, orthogonal rank-one decomposition, and common majorants.

A rank-one idempotent is stored as a normalized pair ``(x, f)`` with
``pair(x, f) = 1``; its matrix is ``tensor(x, f)``.  A finite-rank one is
``r`` such rows ``(X, F)`` with ``F X^T = I_r``, the sum of ``r`` orthogonal ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .core import (
    FAILS,
    HOLDS,
    IDENTITY_RTOL,
    OVERFLOWED,
    PAIRING_RTOL,
    RANK_RTOL,
    RELATION_TOL,
    ScalarField,
    _as_array,
    _as_matrix,
    _as_vector_pair,
    _frozen,
    _numerical_rank,
    _row_abs,
    _row_dots,
    _row_norms,
    _rows_in_range,
    _verdict,
)
from .errors import DegeneratePair, DimensionMismatch, NotIdempotent


class RankOneIdempotent:
    """Normalized pair ``(x, f)`` with ``pair(x, f) = 1``.

    The materialized matrix ``tensor(x, f)`` then satisfies ``P @ P = P``
    exactly up to rounding, since ``P @ P - P = (pair(x, f) - 1) * P``.
    """

    __slots__ = ("_x", "_f")

    def __init__(self, x, f):
        xv = _as_array(x)
        if xv.ndim == 1:
            fv = _as_array(f)
            if fv.shape == xv.shape and _accepts_pair(xv, fv):
                # One plain copy of each side, made read-only.
                self._x, self._f = xv.copy(), fv.copy()
                self._x.setflags(write=False)
                self._f.setflags(write=False)
                return
        # Refused: the checks of ``_as_vector_pair``, and last the pairing.
        xv, fv = _as_vector_pair(x, f, "rank-one pair")
        p, tol = np.vdot(xv.conj(), fv), _pairing_tol(xv, fv)
        why = f"expected 1 within {tol:.3e}" if _verdict(float(abs(p - 1.0)), tol) else OVERFLOWED
        raise NotIdempotent(f"pairing is {p!r}, {why}")

    @classmethod
    def _from_frozen_row(cls, x, f):
        """Wrap a valid row pair that nothing can write to, such as rows of
        a :func:`~idemap.core._frozen` block, without a copy or a check."""
        p = object.__new__(cls)
        p._x = x
        p._f = f
        return p

    @property
    def x(self):
        return self._x

    @property
    def f(self):
        return self._f

    @property
    def n(self) -> int:
        return self._x.shape[0]

    @property
    def field(self) -> ScalarField:
        return ScalarField.COMPLEX if (
            np.iscomplexobj(self._x) or np.iscomplexobj(self._f)
        ) else ScalarField.REAL

    @property
    def matrix(self):
        return np.outer(self._x, self._f)

    def __repr__(self):
        return f"RankOneIdempotent(n={self.n}, field={self.field.value})"


def _accepts_pair(x, f):
    """The rule of :class:`RankOneIdempotent` for 1-d ``x`` and ``f`` of one shape:
    ``|pair(x, f) - 1| <= _pairing_tol(x, f)`` HOLDS, each norm read from ``_NORMS``
    directly.  Empty rows pair to 0, so they FAIL before any norm.  An inf or NaN entry
    makes a norm or the pairing (``np.vdot(x.conj(), f)``, bit-identical to ``np.dot``,
    which warns on overflow) non-finite, so an accepted pair is finite without a check
    of its own."""
    if not x.size:
        return False
    tol = PAIRING_RTOL * (1.0 + _NORMS[x.dtype.char](x) * _NORMS[f.dtype.char](f))
    return _verdict(float(abs(np.vdot(x.conj(), f) - 1.0)), tol) == HOLDS


def _accepts_rows(x, f):
    """A test sufficient for every row ``(x[k], f[k])`` of two ``m x n`` blocks to pass
    :func:`_accepts_pair`; when it is False, that rule decides row by row.  Each pairing is
    within ``PAIRING_RTOL`` of 1, and the rule allows ``PAIRING_RTOL (1 + ||x|| ||f||)``
    with ``||x|| ||f|| >= |pair(x, f)|``, about 1: the margin covers the rounding gap between
    two sums of the pairing, at most ``3 n eps ||x|| ||f||``.  ``n max|x| max|f| < 1e300``
    on each row bounds ``||x|| ||f||`` and every product, so none overflows; NaN and
    ``n = 0`` fail."""
    n = x.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        scale = n * np.max(np.abs(x), axis=1, initial=0.0) * np.max(np.abs(f), axis=1, initial=0.0)
    return (3 * n * np.finfo(float).eps <= PAIRING_RTOL and bool(np.all(scale < 1e300))
            and bool(np.all(np.abs(_row_dots(x, f) - 1.0) <= PAIRING_RTOL)))


def _accepts_pairs(x, f):
    """The rule of :class:`RankOneIdempotent` for every row of two ``m x n`` blocks:
    :func:`_accepts_rows` for the whole block, else :func:`_accepts_pair` row by row."""
    return _accepts_rows(x, f) or all(map(_accepts_pair, x, f))


def _pairing_tol(x, f):
    """Allowed deviation of ``pair(x, f)`` from 1: ``PAIRING_RTOL`` times
    ``1 + ||x|| ||f||`` in BLAS norms, which cannot overflow themselves."""
    return PAIRING_RTOL * (1.0 + _norm(x) * _norm(f))


#: The norm ``scipy.linalg.norm(v, check_finite=False)`` takes of a nonempty 1-d ``v``,
#: per dtype char: the BLAS ``nrm2`` for single and double precision, numpy's otherwise.
_NORMS = {c: scipy.linalg.get_blas_funcs("nrm2", dtype=np.dtype(c), ilp64="preferred")
          if c in "fdFD" else np.linalg.norm for c in np.typecodes["AllFloat"]}


def _norm(v):
    """``scipy.linalg.norm(v, check_finite=False)`` of a float or complex array,
    through ``_NORMS`` when ``v`` is nonempty and 1-d."""
    if v.size and v.ndim == 1:
        return _NORMS[v.dtype.char](v)
    return scipy.linalg.norm(v, check_finite=False)


#: LAPACK's column-pivoted QR as the f2py pair ``(?geqp3, ?orgqr)`` (``?ungqr`` for complex),
#: per dtype char: the routines ``scipy.linalg.qr`` picks for an array of that dtype.
_PIVOTED_QR = {c: scipy.linalg.get_lapack_funcs(("geqp3", "orgqr"), dtype=np.dtype(c))
               for c in np.typecodes["AllFloat"]}


def _pivoted_qr(a):
    """``Q`` and ``|diag R|`` (largest first) of the column-pivoted QR ``a[:, p] = Q R`` of an
    ``m x n`` float or complex block with ``m <= n``: bit for bit those of
    ``scipy.linalg.qr(a, pivoting=True, check_finite=False)``, whose workspace queries it
    repeats.  No LAPACK routine is called on an empty block.  The routines' ``info`` is
    negative only for an illegal argument, which these shapes exclude, so it is not read."""
    m = a.shape[0]
    if not a.size:
        return np.identity(m, a.dtype), np.abs(np.diag(a))
    geqp3, orgqr = _PIVOTED_QR[a.dtype.char]
    work = geqp3(a, lwork=-1)[3]
    qr, _, tau, _, _ = geqp3(a, lwork=int(work[0].real))
    d = np.abs(np.diag(qr))  # read first: orgqr overwrites ``qr`` in place
    work = orgqr(qr[:, :m], tau, lwork=-1)[1]
    return orgqr(qr[:, :m], tau, lwork=int(work[0].real), overwrite_a=1)[0], d


class FiniteRankIdempotent:
    """Frozen rows ``(X, F)``, ``r x n`` each, with ``F X^T = I_r`` (the rule of
    :func:`_require_rows`) and matrix ``X^T F``.  A dense ``P`` is read once, by a pivoted QR:
    ``r`` counts the ``|diag R|`` kept by :func:`~idemap.core._numerical_rank`, ``U = Q[:, :r]``,
    the rows are ``(U^T, G = U^H P)``, and ``||U G - P|| <= IDENTITY_RTOL (1 + ||P||)``."""

    __slots__ = ("_x", "_f")

    def __init__(self, matrix):
        m = _as_matrix(matrix, "idempotent")
        q, d = _pivoted_qr(m)
        u = q[:, :_numerical_rank(d)]
        g = u.conj().T @ m
        with np.errstate(over="ignore", invalid="ignore"):
            resid = np.linalg.norm(u @ g - m)
            verdict = _verdict(float(resid), IDENTITY_RTOL * (1.0 + float(np.linalg.norm(m))))
        if verdict != HOLDS:
            raise NotIdempotent(f"||U G - P|| = {resid:.3e} "
                                f"{'exceeds tolerance' if verdict else OVERFLOWED}")
        _require_rows(u.T, g)
        self._x, self._f = _frozen(u.T), _frozen(g)

    @classmethod
    def _from_rows(cls, x, f):
        """Frozen copies of rows valid by construction, without a check."""
        p = object.__new__(cls)
        p._x, p._f = _frozen(x), _frozen(f)
        return p

    @property
    def rows(self):
        return self._x, self._f

    @property
    def matrix(self):
        return self._x.T @ self._f

    @property
    def rank(self) -> int:
        return len(self._x)

    @property
    def n(self) -> int:
        return self._x.shape[1]

    field = RankOneIdempotent.field  # complex when either side is

    def __repr__(self):
        return f"FiniteRankIdempotent(n={self.n}, rank={self.rank})"


def _require_rows(x, f):
    """The rows rule: raise :class:`NotIdempotent` unless ``||F X^T - I_r|| <= IDENTITY_RTOL
    (1 + ||X|| ||F||)`` HOLDS, in BLAS norms, which cannot overflow (1e200 by 1e-200 is 1)."""
    with np.errstate(over="ignore", invalid="ignore"):
        resid = float(np.linalg.norm(f @ x.T - np.eye(len(x))))
    scale = _norm(np.ravel(x)) * _norm(np.ravel(f))
    verdict = _verdict(resid, IDENTITY_RTOL * (1.0 + scale))
    if verdict != HOLDS:
        raise NotIdempotent(f"||F X^T - I|| = {resid:.3e} "
                            f"{'exceeds tolerance' if verdict else OVERFLOWED}")


def matrix_of(p):
    """Dense matrix of a rank-one/finite-rank idempotent or raw array."""
    if isinstance(p, (RankOneIdempotent, FiniteRankIdempotent)):
        return p.matrix
    return _as_matrix(p, "idempotent")


def as_finite_rank(p) -> FiniteRankIdempotent:
    if isinstance(p, FiniteRankIdempotent):
        return p
    # A raw array is checked once, by ``__init__``.
    return FiniteRankIdempotent(p.matrix if isinstance(p, RankOneIdempotent) else p)


def rank_one_from_pair(x, f) -> RankOneIdempotent:
    """Normalize ``(x, f)`` into the idempotent ``tensor(x, f) / pair(x, f)``.

    The rays of ``x`` and ``f``, each read at its safe scale (:func:`~idemap.core._rows_in_range`),
    are preserved; only ``x`` is rescaled.  Raises :class:`DegeneratePair` when the pairing is
    (numerically) zero, in which case the pair spans a nilpotent rather than an idempotent.
    """
    xv, fv = _as_vector_pair(x, f, "rank-one pair")
    return _rank_one_views(*_normalized_rows(_rows_in_range(xv[None]), _rows_in_range(fv[None])))[0]


def _normalized_rows(x, f):
    """Rows ``x[k] / pair(x[k], f[k])`` and ``f[k]``: the normalization of
    :func:`rank_one_from_pair`, which is its one-row case.

    The degeneracy rule ``|pair(x, f)| <= PAIRING_RTOL ||x|| ||f||`` must FAIL (which needs
    finite norms), so the rounding error of the new pairing stays far below the bound of
    :class:`RankOneIdempotent`, and the rows need no check of their own.  Refused rows
    with a non-finite entry raise ``ValueError``, not :class:`DegeneratePair`."""
    p = _row_dots(x, f)
    verdicts = _verdict(_row_abs(p), PAIRING_RTOL * _row_norms(x) * _row_norms(f))
    if verdicts.max(initial=FAILS) != FAILS:  # a row does not FAIL
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(f))):
            raise ValueError("rank-one rows have non-finite entries")
        k = np.argmax(verdicts != FAILS)
        raise DegeneratePair(f"pairing {p[k]!r} "
                             f"{'too close to zero' if verdicts[k] else OVERFLOWED}")
    return x / p[:, None], f


def _rank_one_views(x, f):
    """Valid rows ``(x, f)`` as idempotents: views of one frozen copy."""
    return list(map(RankOneIdempotent._from_frozen_row, _frozen(x), _frozen(f)))


@dataclass(frozen=True)
class Relation:
    """Flags for the products of two idempotents, as :func:`relate` decides them."""

    pq_zero: bool
    qp_zero: bool
    orthogonal: bool
    p_leq_q: bool
    q_leq_p: bool


def relate(p, q) -> Relation:
    """Evaluate ``PQ = 0``, ``QP = 0``, orthogonality and the order
    relations ``P <= Q`` (``PQ = QP = P``) and ``Q <= P``, each product
    residual within ``RELATION_TOL`` times ``(1 + ||P||)(1 + ||Q||)``
    (Frobenius norms).  Raises ``ValueError`` when one is UNDECIDED (overflows)."""
    pm = matrix_of(p)
    qm = matrix_of(q)
    if pm.shape != qm.shape:
        raise DimensionMismatch(f"relate: shapes {pm.shape} vs {qm.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        tol = float(RELATION_TOL * (1.0 + np.linalg.norm(pm)) * (1.0 + np.linalg.norm(qm)))
        pq, qp = pm @ qm, qm @ pm
        verdicts = [_verdict(float(np.linalg.norm(r)), tol)
                    for r in (pq, qp, pq - pm, qp - pm, pq - qm, qp - qm)]
    if not all(verdicts):  # one is UNDECIDED
        raise ValueError("relate: a product norm or its bound overflows")
    pq_zero, qp_zero, pq_p, qp_p, pq_q, qp_q = (v == HOLDS for v in verdicts)
    return Relation(pq_zero, qp_zero, pq_zero and qp_zero, pq_p and qp_p, pq_q and qp_q)


def decompose(p) -> list[RankOneIdempotent]:
    """Split an idempotent into mutually orthogonal rank-one idempotents:
    views of the rows of :func:`as_finite_rank`, each held to :class:`RankOneIdempotent`'s
    rule, stricter than the rows rule (else :class:`NotIdempotent`, naming the piece)."""
    x, f = as_finite_rank(p).rows
    if not len(x):
        raise ValueError("cannot decompose a rank-zero idempotent")
    if not _accepts_pairs(x, f):
        k = next(k for k, row in enumerate(zip(x, f)) if not _accepts_pair(*row))
        raise NotIdempotent(f"piece {k}: pairing is {np.vdot(x[k].conj(), f[k])!r}, not 1 "
                            f"within PAIRING_RTOL (1 + ||x|| ||f||)")
    return list(map(RankOneIdempotent._from_frozen_row, x, f))


def majorant(p1, p2) -> FiniteRankIdempotent:
    """Idempotent ``P`` of least rank with ``P1 <= P`` and ``P2 <= P``.

    With ``N = rng P1 + rng P2`` and ``M = ker P1 ∩ ker P2`` (orthonormal
    bases), ``P = I - M (Q M)^+`` where ``Q = I - N N^*``: its range is
    ``N ⊕ (M + N)^⊥`` and its kernel ``M ⊖ (M ∩ N)``, so its rank is
    ``n - dim M + dim(M ∩ N)``, the least any majorant can have (a
    majorant's range contains ``N`` and its kernel lies in ``M``).  Each
    basis is read from one pivoted QR (:func:`_pivoted_qr`), at the rank
    :func:`~idemap.core._numerical_rank` gives its ``|diag R|``: ``N`` is the
    leading columns of the unitary factor of ``[P1 P2]``, and ``M`` the
    trailing ones of that of ``[P1^H P2^H]``, whose columns span ``M^⊥``.  The
    singular values of ``Q M`` are the sines of the principal angles
    between ``M`` and ``N``; those at most ``RANK_RTOL`` (scale 1) count
    as zero, which puts their directions in ``M ∩ N``.  With ``Q M = U S V^H``
    (full SVD, ``k`` values kept) the rows are ``(W^T, W^H P)``, ``W = U[:, k:]``.
    """
    m1 = matrix_of(p1)
    m2 = matrix_of(p2)
    if m1.shape != m2.shape:
        raise DimensionMismatch(f"majorant: shapes {m1.shape} vs {m2.shape}")
    q, d = _pivoted_qr(np.hstack([m1, m2]))
    big_n = q[:, :_numerical_rank(d)]
    q, d = _pivoted_qr(np.vstack([m1, m2]).conj().T)
    big_m = q[:, _numerical_rank(d):]
    u, s, vh = np.linalg.svd(big_m - big_n @ (big_n.conj().T @ big_m))
    k = int(np.sum(s > RANK_RTOL))
    wh = u[:, k:].conj().T
    f = wh - (wh @ big_m @ (vh[:k].conj().T / s[:k])) @ u[:, :k].conj().T
    return FiniteRankIdempotent._from_rows(u[:, k:].T, f)
