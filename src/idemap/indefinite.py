"""Indefinite inner-product spaces and their symmetry transformations.

A space is a dimension ``n >= 3`` together with an invertible matrix
``eta``; the product is ``(x, y) = <eta x, y>`` with the Hilbert inner
product linear in the first slot and conjugate-linear in the second.
``eta`` is *not* assumed self-adjoint anywhere.

A ray map is a symmetry transformation when it preserves
``eta``-orthogonality of rays in both directions; such maps are exactly
the ones induced by operators ``U`` with ``(Ux, Uy) = c (x, y)`` (linear
case) or ``(Ux, Uy) = d (y, x)_{eta*}`` (conjugate-linear case).
"""

from __future__ import annotations

import dataclasses
import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg

from .core import (
    FAILS,
    HOLDS,
    IDENTITY_RTOL,
    RELATION_TOL,
    ROUNDOFF_RTOL,
    SINGULAR_RTOL,
    AutomorphismTag,
    ScalarField,
    SemilinearOperator,
    _as_array,
    _as_matrix,
    _as_vector,
    _frozen,
    _in_range,
    _require_dimension,
    _require_invertible,
    _row_abs,
    _row_dots,
    _row_matvec,
    _row_norms,
    _rows_in_range,
    _verdict,
    field_of,
    up_to_scalar_distance,
)
from .errors import DimensionMismatch
from .sampling import _eta_orthogonal_rows, random_matrix
from .transform import (
    ReconstructionResult,
    SampleReport,
    _lift,
    _per_row,
    _sample_biconditional,
    reconstruct,
)


class IndefiniteSpace:
    """Dimension ``n >= 3`` with an invertible metric matrix ``eta``."""

    def __init__(self, eta):
        m = _as_matrix(eta, "eta")
        _require_dimension(m.shape[0])
        _require_invertible(m, "eta")
        self._eta = _frozen(m)
        self._safe_eta = _in_range(self._eta)
        self._eta_inv = None
        self._skew_projection = None

    @property
    def eta(self):
        return self._eta

    @property
    def eta_inv(self):
        if self._eta_inv is None:
            self._eta_inv = _frozen(np.linalg.inv(self._eta))
        return self._eta_inv

    @property
    def n(self) -> int:
        return self._eta.shape[0]

    @property
    def field(self) -> ScalarField:
        return field_of(self._eta)

    def __repr__(self):
        return f"IndefiniteSpace(n={self.n}, field={self.field.value})"


class Ray:
    """Nonzero vector up to nonzero scalar multiples."""

    __slots__ = ("_rep",)

    def __init__(self, representative):
        v = _as_array(representative)
        # A finite, positive squared norm proves the entries finite and
        # not all zero; any other vector gets the full check and its error.
        if not (v.ndim == 1 and 0 < np.vdot(v, v).real < np.inf):
            v = _ray_rows(_as_vector(v, "representative")[None])[0]
        self._rep = _frozen(v)

    @classmethod
    def _from_frozen(cls, v):
        """Wrap a finite, nonzero representative that nothing can write to,
        such as a row of a :func:`~idemap.core._frozen` block, without a
        copy or a check."""
        ray = object.__new__(cls)
        ray._rep = v
        return ray

    @property
    def representative(self):
        return self._rep

    @property
    def n(self) -> int:
        return self._rep.shape[0]

    def __repr__(self):
        return f"Ray(n={self.n})"


def rays_equal(r1: Ray, r2: Ray) -> bool:
    """Linear dependence of the representatives ``a``, ``b``, read at a safe
    scale: ``up_to_scalar_distance(b, a) <= SINGULAR_RTOL ||b||`` HOLDS."""
    if r1.n != r2.n:
        raise DimensionMismatch(f"rays_equal: dimensions {r1.n} vs {r2.n}")
    b = _in_range(r2.representative)
    return _verdict(up_to_scalar_distance(b, _in_range(r1.representative)),
                    SINGULAR_RTOL * float(np.linalg.norm(b))) == HOLDS


@dataclass(frozen=True)
class RayMap:
    """Total map on rays; evaluation must never return a zero ray.

    The map is evaluated on stacked representatives, one row per ray.  A
    wrapped ``eval`` is called once per row, in row order, on a read-only ray
    (:func:`~idemap.transform._per_row`), and must return a :class:`Ray` of the
    same dimension; its images are read at a safe scale.  A map from
    :func:`induced_ray_map` has a native row evaluator, its ``eval`` the one-row case.
    """

    eval: Callable[[Ray], Ray]
    # Set from ``eval`` by ``__post_init__``, so ``dataclasses.replace``
    # with a new ``eval`` does not keep a stale native evaluator.
    _rows: Callable = dataclasses.field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        eval_fn = self.eval

        def image(xk):
            out = eval_fn(Ray._from_frozen(xk))
            if not isinstance(out, Ray):
                raise TypeError("ray map returned a non-ray object")
            if out.n != xk.shape[0]:
                raise DimensionMismatch(
                    f"ray map changed the dimension from {xk.shape[0]} to {out.n}")
            return out.representative

        object.__setattr__(self, "_rows", lambda x: _rows_in_range(np.array(_per_row(image, x))))


def _ray_rows(v):
    """Finite rows ``v``, checked to be valid :class:`Ray` representatives;
    ``Ray(x)`` is the one-row case.  A row is refused when every entry is
    zero, so a ray is accepted at any scale."""
    if not v.any(axis=1).all():
        raise ValueError("a ray needs a nonzero representative")
    return v


def induced_ray_map(u: SemilinearOperator) -> RayMap:
    """The ray map ``x -> u(x)``, evaluated natively on rows with ``u`` at a
    safe scale; its ``eval`` is the one-row case and keeps the errors of ``u(x)``."""
    matrix, auto = _in_range(u.matrix), u.auto

    def rows(x):
        if x.shape[1] != u.n:
            raise DimensionMismatch(
                f"operator of dimension {u.n} applied to "
                f"{'vector' if len(x) == 1 else 'vectors'} of dimension {x.shape[1]}")
        images = _as_matrix(_row_matvec(matrix, auto.apply(x)), "representative", square=False)
        return _ray_rows(images)

    t = RayMap(lambda ray: Ray._from_frozen(_frozen(rows(ray.representative[None])[0])))
    object.__setattr__(t, "_rows", rows)
    return t


def eta_product(space: IndefiniteSpace, x, y):
    """The product ``<eta x, y>``, conjugate-linear in ``y``."""
    xv = _as_vector(x, "x")
    yv = _as_vector(y, "y")
    if xv.shape[0] != space.n or yv.shape[0] != space.n:
        raise DimensionMismatch("eta_product dimension mismatch")
    return np.vdot(yv, space.eta @ xv)


def _orthogonality_margins(eta, x, y):
    """``|<eta x, y>| / (||eta x|| ||y||)`` row-wise for stacked ``x``, ``y``,
    bit-identical to evaluating it one pair at a time with ``eta @ x``,
    ``np.vdot`` and ``np.linalg.norm``."""
    w = _row_matvec(eta, x)
    return _row_abs(_row_dots(y.conj(), w)) / (_row_norms(w) * _row_norms(y))


def ray_eta_orthogonal(space: IndefiniteSpace, rx: Ray, ry: Ray) -> bool:
    """``|<eta x, y>| <= RELATION_TOL * ||eta x|| * ||y||`` HOLDS for the
    representatives, with both and ``eta`` at a safe scale: the samplers' rule.

    Homogeneous in both representatives, so the choice within each ray is
    irrelevant.
    """
    if rx.n != space.n or ry.n != space.n:
        raise DimensionMismatch(f"rays of dimensions {rx.n}, {ry.n} in dimension {space.n}")
    margin = _orthogonality_margins(space._safe_eta, _in_range(rx.representative)[None],
                                    _in_range(ry.representative)[None])
    return _verdict(float(margin[0]), RELATION_TOL) == HOLDS


def eta_orthogonal_partner(space: IndefiniteSpace, x, rng):
    """Random nonzero ``y`` with ``<eta x, y> = 0``, built by projecting a
    Gaussian draw onto the solution hyperplane (never by rejection): the
    one-row case of the crafted partners of :func:`_draw_ray_pairs`.
    ``x`` must be a valid :class:`Ray` representative of dimension ``n``;
    it is read at its safe scale (:func:`~idemap.core._rows_in_range`)."""
    ray = Ray(x)
    if ray.n != space.n:
        raise DimensionMismatch(f"vector of dimension {ray.n} in dimension {space.n}")
    w = _rows_in_range(ray.representative[None]) @ space._safe_eta.T
    return _eta_orthogonal_rows(rng, w, space.field)[0]


def _draw_ray_pairs(rng, space: IndefiniteSpace, crafted, plain):
    """Rows of ``crafted`` eta-orthogonal pairs and then ``plain`` random
    pairs, ``x`` and ``y`` interleaved: every ``x`` and plain ``y`` first,
    then the crafted partners."""
    size = crafted + plain
    v = random_matrix(rng, (size + plain, space.n), space.field)
    y = _eta_orthogonal_rows(rng, v[:crafted] @ space._safe_eta.T, space.field)
    return np.stack((v[:size], np.concatenate((y, v[size:]))), axis=1).reshape(-1, space.n)


def is_symmetry(space: IndefiniteSpace, t: RayMap, sample_count=500, seed=0) -> SampleReport:
    """Check the biconditional ``T x ._eta T y = 0  iff  x ._eta y = 0``.

    Half the sampled pairs are crafted to be exactly ``eta``-orthogonal.
    A pair is reported only when the margins disagree decisively (one
    side's ``|<eta x, y>| / (||eta x|| ||y||)``, ``eta`` at a safe scale,
    at most ``RELATION_TOL``, the other at least ``100 * RELATION_TOL``);
    violations are data about the map, not an error.  Each
    :class:`~idemap.transform.Violation` holds the two sampled
    representative vectors, as read-only views.

    Pairs are drawn, mapped and judged in blocks of
    :data:`~idemap.transform.SAMPLE_BLOCK`.  Each block is drawn directly
    from the seeded generator, so the same seed gives the same report,
    but not the pairs that the one-row helpers
    :func:`~idemap.sampling.random_vector` and
    :func:`eta_orthogonal_partner` would draw one at a time.  Maps from
    :func:`induced_ray_map` are evaluated natively; any other ray map is
    called once per sampled ray.  A negative ``sample_count``
    raises ``ValueError``; zero gives a vacuous report.
    """
    return _sample_biconditional(
        space.n, space.field, sample_count, seed,
        draw=lambda rng, crafted, plain: _draw_ray_pairs(rng, space, crafted, plain),
        image=t._rows,
        margins=lambda v: _orthogonality_margins(space._safe_eta, v[0::2], v[1::2]))


class SymmetryKind(enum.Enum):
    LINEAR = "linear"
    CONJUGATE = "conjugate"
    NONE = "none"


@dataclass(frozen=True)
class Characterization:
    """Outcome of :func:`characterize`: the kind of symmetry an operator
    induces, with its multiplicative constant when it is one."""

    kind: SymmetryKind
    constant: complex | None

    @property
    def is_symmetry(self) -> bool:
        return self.kind is not SymmetryKind.NONE


def characterize(space: IndefiniteSpace, u: SemilinearOperator) -> Characterization:
    """Test whether ``u`` scales the metric, on all basis pairs.

    For the identity tag the identity under test is
    ``(U e_i, U e_j) = c (e_i, e_j)``; for the conjugation tag it is
    ``(U e_i, U e_j) = d (e_j, e_i)_{eta*}`` with ``eta*`` the conjugate
    transpose.  The constant is fitted on the basis pair with the largest
    right-hand side and then verified on all ``n^2`` pairs, within
    ``RELATION_TOL`` times one plus the largest entries of both sides, which
    HOLDS or FAILS (``NONE``); UNDECIDED (an overflow) raises ``ValueError``.
    """
    if u.n != space.n:
        raise DimensionMismatch("operator dimension does not match the space")
    m, eta = u.matrix, space.eta
    if u.auto is AutomorphismTag.IDENTITY:
        kind, rhs = SymmetryKind.LINEAR, eta.T
    else:
        kind, rhs = SymmetryKind.CONJUGATE, eta.conj().T
    rhs = rhs.astype(np.complex128)
    ref = np.unravel_index(int(np.argmax(np.abs(rhs))), rhs.shape)
    # ``U e_i`` is column ``i`` of ``M``, so ``lhs[i, j] = (U e_j)^H eta
    # (U e_i)`` is the transpose of ``M^H eta M``.
    with np.errstate(over="ignore", invalid="ignore"):
        lhs = (m.conj().T @ eta @ m).T.astype(np.complex128)
        constant = lhs[ref] / rhs[ref]
        scale = 1.0 + np.abs(lhs).max() + abs(constant) * np.abs(rhs).max()
        verdict = _verdict(float(np.abs(lhs - constant * rhs).max()), RELATION_TOL * float(scale))
    if not verdict:
        raise ValueError("characterize: M^H eta M or its constant overflows")
    if verdict == FAILS:
        return Characterization(SymmetryKind.NONE, None)
    if space.field is ScalarField.REAL:
        constant = float(constant.real)
    else:
        constant = complex(constant)
    return Characterization(kind, constant)


#: Certificate of the pencil eigenbasis, in units of the eigenvalue error
#: estimate ``eps cond(W) rho`` (``rho`` the spectral radius): every
#: eigenvalue lies within this of its partner, and no two within twice it.
_PENCIL_MARGIN = 1e3


def _self_adjoint_projection(h):
    """Projection onto ``{K : h K + K* h = 0}`` for a Hermitian ``h``, or
    ``None`` when ``h`` is singular (``SINGULAR_RTOL``).

    The space is ``h^{-1}`` times the skew-Hermitian matrices (Gohberg,
    Lancaster and Rodman, *Indefinite Linear Algebra and Applications*,
    2005).  The projection of ``G`` is ``K = h^{-1} S`` with ``P S + S P =
    h^{-1} G - G* h^{-1}`` and ``P = h^{-2}``.  In the eigenbasis ``h = U
    diag(mu) U*`` this Lyapunov equation is diagonal, and ``K~ = U* K U``
    is entrywise ``(mu_j^2 G~_ij - mu_i mu_j conj(G~_ji)) / (mu_i^2 +
    mu_j^2)`` with ``G~ = U* G U``; a real ``G`` has a real projection.
    """
    mu, u = np.linalg.eigh(h)
    if np.abs(mu).min() <= SINGULAR_RTOL * np.abs(mu).max():
        return None
    mu2 = mu**2
    denom = mu2[:, None] + mu2
    cross = np.outer(mu, mu)

    def project(g):
        gt = u.conj().T @ g @ u
        k = u @ ((gt * mu2 - gt.conj().T * cross) / denom) @ u.conj().T
        return k if np.iscomplexobj(g) else k.real

    return project


def _pencil_projection(h, b):
    """Projection onto ``{K : h K + K* h = 0 = b K + K* b}`` through the
    eigenbasis of ``C = h^{-1} b``, or ``None`` when it is not certified.

    Such ``K`` commute with ``C``.  When ``C = W diag(mu) W^{-1}`` has a
    simple spectrum, ``K = W diag(d) W^{-1}``, and with ``E = W* h W`` the
    constraint reads ``E_ij (d_j + conj(d_i)) = 0``, where ``E_ij`` is
    nonzero only for ``mu_j = conj(mu_i)`` (``E diag(mu) = W* b W`` is
    Hermitian).  So ``d_j = -conj(d_i)`` for a pair, and ``d_i`` is
    imaginary when ``mu_i`` is real.  Over the reals ``(h, b)`` is the
    symmetric and skew part ``(S, A)``, ``C`` is real, the complexified
    ``K`` obeys ``E_ij (d_i + d_j) = 0`` with ``E = W^T h W`` and ``mu_j =
    -mu_i``, and the projection of a real matrix onto that complex span
    is the real projection.  The projection solves the normal equations
    of the ``d`` directions: ``O(n^3)`` per call.  The spectral certificate
    bounds the eigenvalues' error, not the eigenvectors': see :func:`_corrected`.
    """
    complex_field = np.iscomplexobj(h)
    try:
        lam, w = np.linalg.eig(np.linalg.solve(h, b))
        w_inv = np.linalg.inv(w)
    except np.linalg.LinAlgError:
        return None
    target = lam.conj() if complex_field else -lam
    mismatch = np.abs(lam - target[:, None])
    partner = mismatch.argmin(axis=1)
    index = np.arange(len(lam))
    separation = np.abs(lam - lam[:, None])
    separation[index, index] = np.inf
    floor = (_PENCIL_MARGIN * np.finfo(float).eps * np.abs(lam).max()
             * np.linalg.norm(w) * np.linalg.norm(w_inv))
    # Together these make the pairing an involution.
    if not (mismatch[index, partner].max() <= floor and separation.min() > 2 * floor):
        return None
    # Directions of ``d``, one per column.
    eye = np.eye(len(lam))
    first = index[index < partner]
    second = partner[first]
    t = eye[:, first] - eye[:, second]
    if complex_field:
        t = np.hstack([t, 1j * (eye[:, first] + eye[:, second]),
                       1j * eye[:, index == partner]])
    # Frobenius products of the rank-one pieces ``w_i (W^{-1})_i``.
    pieces = (w.conj().T @ w) * (w_inv @ w_inv.conj().T).T
    gram = t.conj().T @ pieces @ t
    if complex_field:
        gram = gram.real

    def project(g):
        # Frobenius products of ``g`` with the pieces: diag(W* g W^{-*}).
        rhs = t.conj().T @ np.sum(w.conj() * (g @ w_inv.conj().T), axis=0)
        if complex_field:
            rhs = rhs.real
        k = (w * (t @ np.linalg.solve(gram, rhs))) @ w_inv
        return k if complex_field else k.real

    return project


def _hermitian_pencil(eta):
    """``(H, B, H_t, vanishes)`` for the Hermitian pencil ``eta = H + iB`` and
    ``e^{-it} eta = H_t + i B_t`` at the ``t`` that minimises ``||B_t||``;
    ``B_t`` vanishes when it is at most ``ROUNDOFF_RTOL ||eta||``."""
    h = (eta + eta.conj().T) / 2
    hh = np.vdot(h, h).real
    if np.iscomplexobj(eta):
        b = (eta - eta.conj().T) * -0.5j
        bb = np.vdot(b, b).real
        # This ``t`` minimises ``|B|^2 cos^2 t - <H, B> sin 2t + |H|^2 sin^2 t``.
        t = math.atan2(2 * np.vdot(h, b).real, hh - bb) / 2
        c, s = math.cos(t), math.sin(t)
        h_t, b_t = (c * h + s * b, c * b - s * h) if t else (h, b)
        return h, b, h_t, np.vdot(b_t, b_t).real <= ROUNDOFF_RTOL**2 * (hh + bb)
    # ``B = -iA`` for the skew part ``A``, so ``<H, B> = 0`` and ``t`` is 0
    # or pi/2: ``H_t`` is ``S`` or ``-iA``.  The pencil is kept real as ``(S, A)``.
    a = (eta - eta.T) / 2
    aa = np.vdot(a, a)
    return h, a, h if aa <= hh else -1j * a, min(hh, aa) <= ROUNDOFF_RTOL**2 * (hh + aa)


def _closed_form_or_pencil(eta):
    """The closed form for ``H_t`` if ``B_t`` vanishes, else the pencil, or ``None``."""
    h, b, h_t, vanishes = _hermitian_pencil(eta)
    return _self_adjoint_projection(h_t) if vanishes else _pencil_projection(h, b)


def _skew_projection(space: IndefiniteSpace):
    """Orthogonal projection onto ``{K : eta K + K* eta = 0}``, the matrices
    skew for both ``H_t`` and ``B_t``, in the real Frobenius inner product, up
    to :func:`_corrected`; cached on the space.  The route of
    :func:`_closed_form_or_pencil`, else the identity (a singular ``H``, a
    repeated or defective spectrum), which leaves it to the correction."""
    if space._skew_projection is None:
        space._skew_projection = _closed_form_or_pencil(space._safe_eta) or (lambda g: g)
    return space._skew_projection


#: Iteration cap of the LSQR correction; Hermitian-plus-triangle metrics at
#: complex n = 32 (``cond(eta)`` up to 8e4) and real n = 45 needed at most 5359.
_LSQR_ITERATIONS = 20000


def _corrected(eta, k):
    """``k`` if ``||L k|| <= IDENTITY_RTOL / 10 ||eta|| ||k||`` for ``L(K) = eta K
    + K* eta``; else the projection of ``P k`` onto the kernel of ``L``, for ``P``
    the closed form of :func:`_self_adjoint_projection` for ``H_t`` (the identity
    if ``H_t`` is singular), whose range holds that kernel.  It is ``P k - P d``
    for the least-norm ``d`` with ``L P d = L P k``, by matrix-free LSQR (Paige
    and Saunders, ACM TOMS 8, 1982) on the ``float64`` view, until ``L`` of it is
    at most ``ROUNDOFF_RTOL ||eta|| ||P k||`` or for ``_LSQR_ITERATIONS``; ``L P``
    needs 5-11x fewer iterations than ``L``."""

    def constraint(m):
        return eta @ m + m.conj().T @ eta

    scale = np.linalg.norm(eta) * np.linalg.norm(k)
    if np.linalg.norm(constraint(k)) <= IDENTITY_RTOL / 10 * scale:
        return k
    from scipy.sparse.linalg import LinearOperator, lsqr  # only here: keeps the import light

    p = _self_adjoint_projection(_hermitian_pencil(eta)[2]) or (lambda m: m)
    k, shape, dtype = p(k), k.shape, k.dtype

    def realified(fn):
        return lambda v: fn(v.view(dtype).reshape(shape)).view(np.float64).ravel()

    b = constraint(k).view(np.float64).ravel()
    op = LinearOperator((b.size,) * 2, realified(lambda m: constraint(p(m))), dtype=np.float64,
                        rmatvec=realified(lambda r: p(eta.conj().T @ r + eta @ r.conj().T)))
    btol = ROUNDOFF_RTOL * np.linalg.norm(eta) * np.linalg.norm(k) / np.linalg.norm(b)
    d = lsqr(op, b, atol=0, btol=btol, conlim=0, iter_lim=_LSQR_ITERATIONS)[0]
    return k - p(d.view(dtype).reshape(shape))


def generate_eta_isometry(space: IndefiniteSpace, seed, scale=1.0) -> SemilinearOperator:
    """Random operator ``V`` with ``V* eta V = scale * eta``.

    Draws a Gaussian matrix, orthogonally projects it onto the solution
    space of ``eta K + K* eta = 0`` (so that ``exp(K)`` preserves the
    metric exactly), exponentiates, and multiplies by ``sqrt(scale)``.
    When the solution space is trivial (``||K|| <= ROUNDOFF_RTOL``) the
    output degenerates to ``sqrt(scale) * I``.  ``E = exp(K)`` is certified before the
    scaling, ``||E* eta E - eta|| <= IDENTITY_RTOL (1 + ||eta||)`` with ``eta`` at a
    safe scale; unless that HOLDS, ``ArithmeticError``.

    The route (:func:`_skew_projection`) takes ``O(n^3)``; LSQR corrects a
    projection that misses its certificate (:func:`_corrected`), so the
    result is the route's ``K`` projected, within the route's error of ``G``
    projected.  Generation follows the metric as given, up to that
    certificate, also where its kernel is ill-determined.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    if not np.isfinite(scale):
        raise ValueError("scale must be finite")
    g = random_matrix(np.random.default_rng(seed), (space.n, space.n), space.field)
    eta = space._safe_eta
    k = _corrected(eta, _skew_projection(space)(g))
    norm_k = np.linalg.norm(k)
    k = k / norm_k if norm_k > ROUNDOFF_RTOL else np.zeros_like(k)
    e = scipy.linalg.expm(k)
    resid = float(np.linalg.norm(e.conj().T @ eta @ e - eta))
    # ``||K|| <= 1`` and ``eta`` is in range, so only a NaN ``K`` leaves it UNDECIDED.
    if _verdict(resid, IDENTITY_RTOL * (1.0 + float(np.linalg.norm(eta)))) != HOLDS:
        raise ArithmeticError(f"isometry generation failed, residual {resid:.3e}")
    # ``||K|| <= 1``, so ``cond(exp(K)) <= e^2``: no singularity check.
    return SemilinearOperator._from_checked(e * np.sqrt(scale), AutomorphismTag.IDENTITY)


def recover_inducing_operator(space: IndefiniteSpace, t: RayMap,
                              validation_count=50, seed=0) -> ReconstructionResult:
    """Recover the operator inducing a symmetry transformation.

    The symmetry biconditional rewrites
    ``<T x, eta T eta^{-1} y> = 0  iff  <x, y> = 0``, which exposes a
    vector/functional ray pair: the vector side is ``T`` itself and the
    functional side is ``T`` conjugated through ``eta`` and coordinate
    conjugation.  Feeding that pair to the rank-one machinery and
    reconstructing yields ``U`` (with an identity or conjugation tag; no
    other semilinear case can occur here) together with the validation
    residual.  Raises :class:`~idemap.errors.NotInduced` when ``t`` is
    not a symmetry transformation.
    """
    eta = space._safe_eta
    eta_inv = space.eta_inv if eta is space.eta else np.linalg.inv(eta)

    def images(x, f):
        tx = t._rows(x)
        sf = t._rows(_row_matvec(eta_inv, np.conj(f)))
        return tx, np.conj(_row_matvec(eta, sf))

    return reconstruct(_lift(images, space.n, space.field),
                       validation_count=validation_count, seed=seed)
