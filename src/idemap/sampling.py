"""Seeded random generators for test data at desk scale.

All functions take a ``numpy.random.Generator`` so streams stay
deterministic and independent per seed.
"""

from __future__ import annotations

import numpy as np

from .core import AutomorphismTag, ScalarField, SemilinearOperator
from .idempotents import FiniteRankIdempotent, RankOneIdempotent, rank_one_from_pair


#: Smallest ``|pair(x, f)| / (||x|| ||f||)`` accepted for a random pair.
MIN_COSINE = 0.05

#: Attempts a rank-one draw (or a zero-product partner) gets before failing.
DRAW_TRIES = 200

#: Gaussian matrices :func:`random_invertible` draws before failing.
INVERTIBLE_TRIES = 100

#: Largest condition number of the basis change in :func:`random_idempotent`.
IDEMPOTENT_MAX_COND = 50


def random_vector(rng, n, field: ScalarField):
    if field is ScalarField.COMPLEX:
        return rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return rng.standard_normal(n)


def random_matrix(rng, n, field: ScalarField):
    if field is ScalarField.COMPLEX:
        return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return rng.standard_normal((n, n))


def random_invertible(rng, n, field: ScalarField, max_cond=1e4):
    """Gaussian matrix, resampled until its condition number is moderate."""
    for _ in range(INVERTIBLE_TRIES):
        m = random_matrix(rng, n, field)
        if np.linalg.cond(m) <= max_cond:
            return m
    raise RuntimeError("could not draw a well-conditioned matrix")


def random_semilinear(rng, n, field: ScalarField, auto=None) -> SemilinearOperator:
    if auto is None:
        if field is ScalarField.COMPLEX and rng.integers(2):
            auto = AutomorphismTag.CONJUGATION
        else:
            auto = AutomorphismTag.IDENTITY
    return SemilinearOperator(random_invertible(rng, n, field), auto)


def random_rank_one(rng, n, field: ScalarField) -> RankOneIdempotent:
    """Random normalized rank-one idempotent with a non-degenerate pairing."""
    for _ in range(DRAW_TRIES):
        x = random_vector(rng, n, field)
        f = random_vector(rng, n, field)
        p = np.dot(x, f)
        if abs(p) >= MIN_COSINE * np.linalg.norm(x) * np.linalg.norm(f):
            return rank_one_from_pair(x, f)
    raise RuntimeError("could not draw a non-degenerate rank-one pair")


def random_idempotent(rng, n, rank, field: ScalarField) -> FiniteRankIdempotent:
    """Random idempotent ``S @ diag(1..1, 0..0) @ S^{-1}`` with mild cond(S)."""
    if not 0 <= rank <= n:
        raise ValueError(f"rank {rank} out of range for dimension {n}")
    s = random_invertible(rng, n, field, max_cond=IDEMPOTENT_MAX_COND)
    inv = np.linalg.inv(s)
    return FiniteRankIdempotent(s[:, :rank] @ inv[:rank, :])


def remix_decomposition(rng, pieces) -> list[RankOneIdempotent]:
    """Independent orthogonal rank-one decomposition of the same idempotent.

    Mixing the range basis by an invertible ``C`` (and the functionals by
    ``C^{-1}``) keeps the biorthogonality relations and the sum.
    """
    r = len(pieces)
    field = pieces[0].field
    u = np.column_stack([p.x for p in pieces])
    g = np.vstack([p.f for p in pieces])
    c = random_invertible(rng, r, field, max_cond=20) if r > 1 else np.eye(
        1, dtype=field.dtype
    ) * (1.0 + rng.uniform(0.5, 1.5))
    u2 = u @ c
    g2 = np.linalg.solve(c, g)
    return [RankOneIdempotent(u2[:, i], g2[i, :]) for i in range(r)]


class _VectorStream:
    """Look-ahead reader of the :func:`random_vector` draws of a generator.

    numpy's normal stream does not depend on how the draws are split into
    calls, so row ``k`` of :meth:`peek` is bit-for-bit the ``k``-th
    vector that ``random_vector(rng, n, field)`` would return next.  The
    batch samplers peek at a window, decide what the per-pair helpers
    would have accepted, and :meth:`skip` exactly what those helpers
    would have consumed.  :meth:`standard_normal` lets the helpers
    themselves read from the same position.
    """

    def __init__(self, rng, n, field: ScalarField):
        self._rng = rng
        self._n = n
        self._complex = field is ScalarField.COMPLEX
        self._width = 2 * n if self._complex else n
        self._buf = np.empty(0)
        self._pos = 0

    def _fill(self, size):
        have = self._buf.size - self._pos
        if have < size:
            fresh = self._rng.standard_normal(size - have)
            self._buf = np.concatenate([self._buf[self._pos:], fresh]) if have else fresh
            self._pos = 0
        return self._buf[self._pos:self._pos + size]

    def peek(self, count):
        """The next ``count`` vectors as rows, without consuming them."""
        values = self._fill(count * self._width).reshape(count, self._width)
        if not self._complex:
            return values
        # Same values as ``re + 1j * im``, without its complex temporary.
        rows = np.empty((count, self._n), dtype=np.complex128)
        rows.real = values[:, :self._n]
        rows.imag = values[:, self._n:]
        return rows

    def skip(self, count):
        self._pos += count * self._width

    def standard_normal(self, size):
        out = self._fill(size).copy()
        self._pos += size
        return out
