"""Idempotent algebra: rank-one normalization, zero-product/order
relations, orthogonal rank-one decomposition, and common majorants.

A rank-one idempotent is stored as a normalized pair ``(x, f)`` with
``pair(x, f) = 1``; its matrix is ``tensor(x, f)``.  Finite-rank
idempotents are stored as dense matrices and their rank is read off the
trace, which is an exact integer for true idempotents.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .core import (
    RANK_TOL,
    ScalarField,
    _as_matrix,
    _as_vector,
    _frozen,
    _row_abs,
    _row_dots,
    _row_norms,
    field_of,
    kernel_and_range,
    orthonormal_columns,
    tensor,
)
from .errors import DegeneratePair, DimensionMismatch, NotIdempotent

#: Allowed deviation of the normalizing pairing from 1.
PAIRING_TOL = 1e-10

#: Factor for the idempotency residual ``||P@P - P||_F``.
IDEM_TOL = 1e-9

#: Allowed deviation of the trace from the nearest integer rank.
TRACE_INT_TOL = 1e-8


class RankOneIdempotent:
    """Normalized pair ``(x, f)`` with ``pair(x, f) = 1``.

    The materialized matrix ``tensor(x, f)`` then satisfies ``P @ P = P``
    exactly up to rounding, since ``P @ P - P = (pair(x, f) - 1) * P``.
    """

    __slots__ = ("_x", "_f")

    def __init__(self, x, f):
        xv = _as_vector(x, "x")
        fv = _as_vector(f, "f")
        if xv.shape != fv.shape:
            raise DimensionMismatch(f"rank-one pair: shapes {xv.shape} vs {fv.shape}")
        p = np.dot(xv, fv)
        scale = 1.0 + np.linalg.norm(xv) * np.linalg.norm(fv)
        if abs(p - 1.0) > PAIRING_TOL * scale:
            raise NotIdempotent(f"pairing is {p!r}, expected 1")
        self._x = _frozen(xv)
        self._f = _frozen(fv)

    @classmethod
    def _from_checked_row(cls, x, f):
        """Wrap one row pair that is already valid: finite, with pairing 1,
        such as a row of :func:`_normalized_rows` or of an idempotent."""
        p = object.__new__(cls)
        p._x = _frozen(x)
        p._f = _frozen(f)
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
        return tensor(self._x, self._f)

    def __repr__(self):
        return f"RankOneIdempotent(n={self.n}, field={self.field.value})"


class FiniteRankIdempotent:
    """Dense idempotent matrix with its rank read from the trace."""

    __slots__ = ("_matrix", "_rank")

    def __init__(self, matrix):
        m = _as_matrix(matrix, "idempotent")
        fro = np.linalg.norm(m)
        resid = np.linalg.norm(m @ m - m)
        if resid > IDEM_TOL * (1.0 + fro**2):
            raise NotIdempotent(f"||P@P - P|| = {resid:.3e} exceeds tolerance")
        tr = np.trace(m)
        rank = int(round(float(tr.real)))
        if abs(tr - rank) > TRACE_INT_TOL:
            raise NotIdempotent(f"trace {tr!r} is not close to an integer")
        if rank < 0 or rank > m.shape[0]:
            raise NotIdempotent(f"trace-derived rank {rank} out of range")
        self._matrix = _frozen(m)
        self._rank = rank

    @property
    def matrix(self):
        return self._matrix

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def n(self) -> int:
        return self._matrix.shape[0]

    @property
    def field(self) -> ScalarField:
        return field_of(self._matrix)

    def __repr__(self):
        return f"FiniteRankIdempotent(n={self.n}, rank={self._rank})"


def matrix_of(p):
    """Dense matrix of a rank-one/finite-rank idempotent or raw array."""
    if isinstance(p, (RankOneIdempotent, FiniteRankIdempotent)):
        return p.matrix
    return _as_matrix(p, "idempotent")


def as_finite_rank(p) -> FiniteRankIdempotent:
    if isinstance(p, FiniteRankIdempotent):
        return p
    return FiniteRankIdempotent(matrix_of(p))


def rank_one_from_pair(x, f) -> RankOneIdempotent:
    """Normalize ``(x, f)`` into the idempotent ``tensor(x, f) / pair(x, f)``.

    The rays of ``x`` and ``f`` are preserved; only ``x`` is rescaled.
    Raises :class:`DegeneratePair` when the pairing is (numerically) zero,
    in which case the pair spans a nilpotent rather than an idempotent.
    """
    xv = _as_vector(x, "x")
    fv = _as_vector(f, "f")
    if xv.shape != fv.shape:
        raise DimensionMismatch(f"rank-one pair: shapes {xv.shape} vs {fv.shape}")
    return _rank_one_row(xv[None], fv[None])


def _normalized_rows(x, f):
    """Rows ``x[k] / pair(x[k], f[k])`` and ``f[k]``: the normalization of
    :func:`rank_one_from_pair`, which is its one-row case.

    The degeneracy rule keeps ``|pair(x, f)| > 1e-10 ||x|| ||f||``, so the
    rounding error of the new pairing stays far below ``PAIRING_TOL``
    and the rows need no :class:`RankOneIdempotent` check."""
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(f))):
        raise ValueError("rank-one rows have non-finite entries")
    p = _row_dots(x, f)
    degenerate = _row_abs(p) <= 1e-10 * _row_norms(x) * _row_norms(f)
    if degenerate.any():
        raise DegeneratePair(f"pairing {p[np.argmax(degenerate)]!r} too close to zero")
    return x / p[:, None], f


def _rank_one_row(x, f):
    """The idempotent of the one-row block ``(x, f)``, once normalized."""
    x, f = _normalized_rows(x, f)
    return RankOneIdempotent._from_checked_row(x[0], f[0])


@dataclass(frozen=True)
class Relation:
    """Flags for the products of two idempotents at a given tolerance."""

    pq_zero: bool
    qp_zero: bool
    orthogonal: bool
    p_leq_q: bool
    q_leq_p: bool


def default_relation_tol(p_matrix, q_matrix) -> float:
    return 1e-8 * (1.0 + np.linalg.norm(p_matrix)) * (1.0 + np.linalg.norm(q_matrix))


def relate(p, q, tol=None) -> Relation:
    """Evaluate ``PQ = 0``, ``QP = 0``, orthogonality and the order
    relations ``P <= Q`` (``PQ = QP = P``) and ``Q <= P``."""
    pm = matrix_of(p)
    qm = matrix_of(q)
    if pm.shape != qm.shape:
        raise DimensionMismatch(f"relate: shapes {pm.shape} vs {qm.shape}")
    if tol is None:
        tol = default_relation_tol(pm, qm)
    pq = pm @ qm
    qp = qm @ pm
    pq_zero = bool(np.linalg.norm(pq) <= tol)
    qp_zero = bool(np.linalg.norm(qp) <= tol)
    p_leq_q = bool(
        np.linalg.norm(pq - pm) <= tol and np.linalg.norm(qp - pm) <= tol
    )
    q_leq_p = bool(
        np.linalg.norm(pq - qm) <= tol and np.linalg.norm(qp - qm) <= tol
    )
    return Relation(pq_zero, qp_zero, pq_zero and qp_zero, p_leq_q, q_leq_p)


def decompose(p) -> list[RankOneIdempotent]:
    """Split an idempotent into mutually orthogonal rank-one idempotents.

    Uses a column-pivoted QR factorization of ``P`` (largest column norm
    first) to pick an orthonormal basis ``U`` of the range, then solves
    ``G = U^H @ P`` so that ``G @ U = I`` and ``P = U @ G``.  The returned
    pieces ``(U[:, i], G[i, :])`` satisfy ``pair(U[:, j], G[i, :]) =
    delta_ij``, multiply to zero pairwise, and sum to ``P``.

    The pivoting makes the output deterministic and reproducible.
    """
    fp = as_finite_rank(p)
    r = fp.rank
    if r == 0:
        raise ValueError("cannot decompose a rank-zero idempotent")
    m = fp.matrix
    q, _, _ = scipy.linalg.qr(m, pivoting=True)
    u = q[:, :r]
    g = u.conj().T @ m
    pieces = [RankOneIdempotent(u[:, i], g[i, :]) for i in range(r)]
    resid = np.linalg.norm(u @ g - m)
    if resid > 1e-9 * (1.0 + np.linalg.norm(m)):
        raise NotIdempotent(f"decomposition residual {resid:.3e}")
    return pieces


def majorant(p1, p2) -> FiniteRankIdempotent:
    """Idempotent ``P`` of least rank with ``P1 <= P`` and ``P2 <= P``.

    With ``N = rng P1 + rng P2`` and ``M = ker P1 ∩ ker P2`` (orthonormal
    bases), ``P = I - M (Q M)^+`` where ``Q = I - N N^*``: its range is
    ``N ⊕ (M + N)^⊥`` and its kernel ``M ⊖ (M ∩ N)``, so its rank is
    ``n - dim M + dim(M ∩ N)``, the least any majorant can have (a
    majorant's range contains ``N`` and its kernel lies in ``M``).  The
    singular values of ``Q M`` are the sines of the principal angles
    between ``M`` and ``N``; those at most ``RANK_TOL`` count as zero,
    which puts their directions in ``M ∩ N``.
    """
    m1 = matrix_of(p1)
    m2 = matrix_of(p2)
    if m1.shape != m2.shape:
        raise DimensionMismatch(f"majorant: shapes {m1.shape} vs {m2.shape}")
    big_n = orthonormal_columns(np.hstack([m1, m2]))
    big_m, _ = kernel_and_range(np.vstack([m1, m2]))
    u, s, vh = np.linalg.svd(big_m - big_n @ (big_n.conj().T @ big_m),
                             full_matrices=False)
    r = int(np.sum(s > RANK_TOL))
    kernel_part = (big_m @ (vh[:r].conj().T / s[:r])) @ u[:, :r].conj().T
    return FiniteRankIdempotent(np.eye(m1.shape[0]) - kernel_part)
