"""Seeded random generators for test data at desk scale.

All functions take a ``numpy.random.Generator`` so streams stay
deterministic and independent per seed.
"""

from __future__ import annotations

import numpy as np

from .core import RELATION_TOL, AutomorphismTag, ScalarField, SemilinearOperator, _row_abs, \
    _row_dots, _row_norms
from .idempotents import FiniteRankIdempotent, RankOneIdempotent, _rank_one_views


#: A random pair is accepted when ``|pair(x, f)| / (||x|| ||f||)`` exceeds this.
MIN_COSINE = 0.05

#: Rounds a block draw redraws its rejected rows before failing; a
#: one-row draw gets as many attempts.
DRAW_TRIES = 200

#: Gaussian matrices :func:`random_invertible` draws before failing.
INVERTIBLE_TRIES = 100

#: Largest condition number of the basis change in :func:`random_idempotent`.
IDEMPOTENT_MAX_COND = 50


def random_vector(rng, n, field: ScalarField):
    """Gaussian vector: the one-row case of :func:`random_matrix`."""
    return random_matrix(rng, n, field)


def random_matrix(rng, shape, field: ScalarField):
    """Gaussian matrix of the given ``shape``; over the complex field the
    real part is drawn before the imaginary part, each into one ``complex128`` array."""
    if field is ScalarField.COMPLEX:
        out = np.empty(shape, np.complex128)
        out.real = rng.standard_normal(shape)
        out.imag = rng.standard_normal(shape)
        return out
    return rng.standard_normal(shape)


def random_invertible(rng, n, field: ScalarField, max_cond=1e4):
    """Gaussian matrix, resampled until its condition number is moderate."""
    for _ in range(INVERTIBLE_TRIES):
        m = random_matrix(rng, (n, n), field)
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
    """Random normalized rank-one idempotent with a non-degenerate pairing:
    the one-row case of :func:`_random_rank_one_rows`, divided by its pairing."""
    x, f, p = _random_rank_one_rows(rng, 1, n, field)
    return _rank_one_views(x / p[:, None], f)[0]


def random_idempotent(rng, n, rank, field: ScalarField) -> FiniteRankIdempotent:
    """Rows ``(S[:, :r]^T, S^{-1}[:r])`` of ``S diag(I_r, 0) S^{-1}``, with mild cond(S)."""
    if not 0 <= rank <= n:
        raise ValueError(f"rank {rank} out of range for dimension {n}")
    s = random_invertible(rng, n, field, max_cond=IDEMPOTENT_MAX_COND)
    inv = np.linalg.inv(s)
    return FiniteRankIdempotent._from_rows(s[:, :rank].T, inv[:rank, :])


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


def _redrawn(count, draw, message):
    """``count`` accepted rows of a block.  ``draw(index)`` gives fresh
    candidate rows (a tuple of arrays, such as vectors and their pairings)
    for the row numbers ``index`` and a mask of the accepted ones; rejected
    rows are drawn again, for at most ``DRAW_TRIES`` rounds, before
    ``RuntimeError(message)``."""
    index = np.arange(count)
    rows, ok = draw(index)
    tries = 1
    # A fully accepted round, the common case, returns before any mask or
    # index is built (``count_nonzero`` is the cheapest test of it).
    while np.count_nonzero(ok) < ok.size:
        if tries == DRAW_TRIES:
            raise RuntimeError(message)
        index = index[~ok]
        fresh, ok = draw(index)
        for out, new in zip(rows, fresh):
            out[index] = new
        tries += 1
    return rows


def _projected(y0, c, d):
    """Rows ``y = y0 - pair(y0, c) / pair(d, c) * d``, so that ``pair(y, c)
    = 0``, and a mask of the rows that keep more than ``RELATION_TOL`` times
    the norm of ``y0`` (the others are degenerate)."""
    y = y0 - (_row_dots(y0, c) / _row_dots(d, c))[:, None] * d
    return y, _row_norms(y) > RELATION_TOL * _row_norms(y0)


def _accepted(x, f):
    """The row pairings ``p = pair(x, f)`` and the mask of the rows with ``|p| >
    MIN_COSINE ||x|| ||f||``.  An accepted row is finite and nonzero (a NaN or
    infinite norm fails the test, and so does ``0 > 0``), and its pairing exceeds
    ``PAIRING_RTOL ||x|| ||f||``: :func:`~idemap.idempotents._normalized_rows`
    would accept it, so ``x / p`` needs no check of its own."""
    p = _row_dots(x, f)
    return p, _row_abs(p) > MIN_COSINE * _row_norms(x) * _row_norms(f)


def _random_rank_one_rows(rng, count, n, field: ScalarField):
    """``count`` Gaussian rows ``(x, f)`` that meet ``MIN_COSINE``, not yet
    normalized, and their pairings; each round draws every ``x``, then every ``f``."""

    def draw(index):
        x, f = (random_matrix(rng, (index.size, n), field) for _ in range(2))
        p, ok = _accepted(x, f)
        return (x, f, p), ok

    return _redrawn(count, draw, "could not draw a non-degenerate rank-one pair")


def _zero_product_rows(rng, x, f, field: ScalarField):
    """Rows ``(y, g)`` with ``pair(y[k], f[k]) = 0``, not yet normalized, and
    their pairings: ``y0`` projected along ``x``, then ``g``; a degenerate ``y``
    or a pair that misses ``MIN_COSINE`` is drawn again."""

    def draw(index):
        y0, g = (random_matrix(rng, (index.size, x.shape[1]), field) for _ in range(2))
        y, live = _projected(y0, f[index], x[index])
        q, ok = _accepted(y, g)
        return (y, g, q), live & ok

    return _redrawn(len(x), draw, "could not craft a zero-product partner")


def _eta_orthogonal_rows(rng, w, field: ScalarField):
    """Rows ``y`` with ``<w[k], y[k]> = 0`` (Hermitian) for ``w = eta x``:
    ``y0`` projected along ``w``, drawn again while degenerate."""

    def draw(index):
        y0 = random_matrix(rng, (index.size, w.shape[1]), field)
        y, live = _projected(y0, w[index].conj(), w[index])
        return (y,), live

    return _redrawn(len(w), draw, "could not craft an eta-orthogonal partner")[0]
