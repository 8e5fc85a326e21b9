"""Seeded numpy generators for the benchmark's inputs and references.

Nothing here calls idemap.  Every operator, metric and idempotent is
built with numpy together with the answer the library must give for it,
so a defect in a measured layer cannot leak into the reference it is
checked against.
"""

from __future__ import annotations

import json

import numpy as np


def gaussian(rng, shape, cplx):
    if cplx:
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return rng.standard_normal(shape)


def cond(m):
    s = np.linalg.svd(m, compute_uv=False)
    return float(s[0] / s[-1])


def unitary(rng, n, cplx):
    """Haar-distributed orthogonal or unitary matrix."""
    q, r = np.linalg.qr(gaussian(rng, (n, n), cplx))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def with_condition(rng, n, cplx, kappa):
    """``U diag(s) W`` with singular values log-spaced from 1 to 1/kappa,
    so the condition number is exactly ``kappa``."""
    s = np.logspace(0.0, -np.log10(kappa), n)
    return (unitary(rng, n, cplx) * s) @ unitary(rng, n, cplx)


def acceptance_operator(rng, n, cplx, max_cond=1e3, tries=200):
    """Gaussian matrix redrawn until its condition number is at most
    ``max_cond``: the acceptance-test corpus, drawn here with numpy."""
    for _ in range(tries):
        m = gaussian(rng, (n, n), cplx)
        k = cond(m)
        if k <= max_cond:
            return m, k
    raise RuntimeError(f"no Gaussian {n}x{n} matrix with cond <= {max_cond:g}")


def up_to_scalar_distance(b, a):
    """``min_c ||b - c a||_F`` for ``a`` scaled to unit Frobenius norm."""
    a = np.asarray(a) / np.linalg.norm(a)
    b = np.asarray(b)
    c = np.vdot(a, b)
    return float(np.linalg.norm(b - c * a))


def recovery_threshold(kappa):
    """Acceptance threshold for a recovered operator of condition ``kappa``."""
    return 1e-7 * max(1.0, kappa / 1e3)


def induced_rank_one(matrix, dual, conj, x, f):
    """Image ``(A h(x), (A^T)^{-1} h(f))`` of a rank-one pair, normalised so
    that the pairing is 1."""
    if conj:
        x, f = np.conj(x), np.conj(f)
    y = matrix @ x
    g = dual @ f
    return y / np.dot(y, g), g


def idempotent(rng, n, rank, cplx, kappa=20.0):
    """``S diag(1..1, 0..0) S^{-1}`` with ``cond(S) = kappa``; also returns
    ``S`` and ``S^{-1}`` so that callers can build other decompositions."""
    s = with_condition(rng, n, cplx, kappa)
    s_inv = np.linalg.inv(s)
    return s[:, :rank] @ s_inv[:rank, :], s, s_inv


def remixed_pieces(rng, s, s_inv, rank, cplx):
    """A rank-one decomposition of ``S[:, :r] S^{-1}[:r, :]`` other than
    the pivoted-QR one: the range basis is mixed by an invertible ``C``
    and the functionals by ``C^{-1}``."""
    c = with_condition(rng, rank, cplx, 10.0) if rank > 1 else np.eye(1)
    u = s[:, :rank] @ c
    g = np.linalg.solve(c, s_inv[:rank, :])
    return [(u[:, i], g[i, :]) for i in range(rank)]


def _blocks(n):
    k = max(1, n // 3)
    return [k, k, n - 2 * k]


def metric_and_isometry(rng, n, cplx, kappa_v=None, scale=1.0):
    """Metric ``eta = S* eta0 S`` and an isometry ``V = S^{-1} V0 S`` with
    ``V* eta V = scale * eta``.

    ``eta0`` is block-scalar, ``diag(d_1 I, d_2 I, d_3 I)`` with
    ``d = (1, -1, 1+i)`` over the complex field (so ``eta`` is not
    self-adjoint) and ``d = (1, -1, 2)`` over the reals.  ``V0`` is a
    block-unitary matrix times a boost in the plane of the first ``+1``
    and the first ``-1`` coordinate, which preserves ``eta0``; the
    boost's rapidity sets ``cond(V0)``.  With ``kappa_v`` given, ``S`` is
    unitary and ``cond(V) = kappa_v`` exactly; otherwise ``cond(S)`` and
    the boost are drawn moderate.
    """
    sizes = _blocks(n)
    d = (1.0, -1.0, 1.0 + 1.0j) if cplx else (1.0, -1.0, 2.0)
    eta0 = np.diag(np.concatenate([np.full(k, dj) for k, dj in zip(sizes, d)]))
    if not cplx:
        eta0 = eta0.real

    def block_unitary():
        out = np.zeros((n, n), dtype=complex if cplx else float)
        start = 0
        for k in sizes:
            out[start:start + k, start:start + k] = unitary(rng, k, cplx)
            start += k
        return out

    if kappa_v is None:
        kappa_b = float(np.exp(rng.uniform(0.0, np.log(10.0))))
    else:
        kappa_b = float(kappa_v)
    t = 0.5 * np.log(kappa_b)
    boost = np.eye(n)
    i, j = 0, sizes[0]
    boost[i, i] = boost[j, j] = np.cosh(t)
    boost[i, j] = boost[j, i] = np.sinh(t)
    v0 = block_unitary() @ boost @ block_unitary()
    if kappa_v is None:
        s = with_condition(rng, n, cplx, float(np.exp(rng.uniform(0.0, np.log(10.0)))))
    else:
        s = unitary(rng, n, cplx)
    eta = s.conj().T @ eta0 @ s
    v = np.linalg.solve(s, v0 @ s) * np.sqrt(scale)
    check_isometry(v, eta, scale)
    return eta, v


def check_isometry(v, eta, scale, rtol=1e-9):
    """Raise unless ``V* eta V = scale * eta`` holds to ``rtol``."""
    resid = np.linalg.norm(v.conj().T @ eta @ v - scale * eta)
    bound = rtol * scale * np.linalg.norm(eta) * max(1.0, np.linalg.norm(v) ** 2)
    if resid > bound:
        raise ArithmeticError(f"isometry residual {resid:.3e} > {bound:.3e}")


def eta_corpus(rng, n, cplx, index):
    """Metric corpus cycled by ``index``: a signature matrix, identity
    plus a strict upper triangle (not self-adjoint), a Hermitian
    indefinite congruence, and a generic Gaussian (not self-adjoint)."""
    kind = index % 4
    if kind == 0:
        d = np.ones(n)
        d[n // 2:] = -1.0
        return np.diag(d).astype(complex if cplx else float)
    if kind == 1:
        return np.eye(n) + 0.5 * np.triu(gaussian(rng, (n, n), cplx), 1)
    if kind == 2:
        d = np.ones(n)
        d[: n // 3 + 1] = -1.0
        s = with_condition(rng, n, cplx, 10.0)
        return s.conj().T @ (d[:, None] * s)
    return acceptance_operator(rng, n, cplx)[0]


# JSON payloads in the documented idemap format, encoded without idemap.

def _entry(z, cplx):
    if cplx:
        z = complex(z)
        return [z.real, z.imag]
    return float(np.real(z))


def matrix_json(m):
    m = np.asarray(m)
    cplx = np.iscomplexobj(m)
    return {"field": "complex" if cplx else "real", "n": int(m.shape[0]),
            "data": [_entry(z, cplx) for z in m.ravel()]}


def operator_json(m, conj):
    d = matrix_json(m)
    d["auto"] = "conj" if conj else "id"
    return d


def rank_one_json(x, f):
    cplx = np.iscomplexobj(x) or np.iscomplexobj(f)
    d = matrix_json(np.outer(x, f).astype(complex if cplx else float))
    d["kind"] = "rank1"
    d["x"] = [_entry(z, cplx) for z in x]
    d["f"] = [_entry(z, cplx) for z in f]
    return d


def decode_matrix(d):
    data = d["data"]
    n = int(d["n"])
    if d["field"] == "complex":
        flat = np.array([complex(re, im) for re, im in data])
    else:
        flat = np.array(data, dtype=float)
    return flat.reshape(n, n)


def write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh)
