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
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg

from .core import (
    AutomorphismTag,
    ScalarField,
    SemilinearOperator,
    _as_matrix,
    _as_vector,
    _frozen,
    _require_invertible,
    _row_abs,
    _row_dots,
    _row_matvec,
    _row_norms,
    field_of,
    kernel_and_range,
)
from .errors import DimensionMismatch
from .idempotents import _normalized_rows
from .sampling import _eta_orthogonal_rows, random_matrix
from .transform import (
    ReconstructionResult,
    SampleReport,
    TransformHandle,
    _sample_biconditional,
    reconstruct,
)


class IndefiniteSpace:
    """Dimension ``n >= 3`` with an invertible metric matrix ``eta``."""

    def __init__(self, eta):
        m = _as_matrix(eta, "eta")
        if m.shape[0] < 3:
            raise ValueError("indefinite spaces need dimension >= 3")
        _require_invertible(m, "eta")
        self._eta = _frozen(m)
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
        self._rep = _frozen(_ray_rows(_as_vector(representative, "representative")[None])[0])

    @classmethod
    def _from_checked(cls, v):
        """Wrap a finite, nonzero representative the library made itself."""
        ray = object.__new__(cls)
        ray._rep = _frozen(v)
        return ray

    @property
    def representative(self):
        return self._rep

    @property
    def n(self) -> int:
        return self._rep.shape[0]

    def __repr__(self):
        return f"Ray(n={self.n})"


def rays_equal(r1: Ray, r2: Ray, tol=1e-10) -> bool:
    """Linear dependence of the representatives (angle criterion)."""
    if r1.n != r2.n:
        raise DimensionMismatch(f"rays_equal: dimensions {r1.n} vs {r2.n}")
    a = r1.representative
    b = r2.representative
    coef = np.vdot(a, b) / np.vdot(a, a)
    return bool(np.linalg.norm(b - coef * a) <= tol * np.linalg.norm(b))


@dataclass(frozen=True)
class RayMap:
    """Total map on rays; evaluation must never return a zero ray.

    The map is evaluated on stacked representatives, one row per ray.
    For a wrapped ``eval`` the row evaluator calls it once per row, in
    row order; a map from :func:`induced_ray_map` has a native row
    evaluator, of which its ``eval`` is the one-row case.
    """

    eval: Callable[[Ray], Ray]
    # Set from ``eval`` by ``__post_init__``, so ``dataclasses.replace``
    # with a new ``eval`` does not keep a stale native evaluator.
    _rows: Callable = dataclasses.field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_rows", self._call_per_ray)

    def _call_per_ray(self, x):
        """Row evaluator of a wrapped ``eval``; the rows are wrapped unchecked."""
        images = []
        for xk in x:
            out = self.eval(Ray._from_checked(xk))
            if not isinstance(out, Ray):
                raise TypeError("ray map returned a non-ray object")
            if out.n != xk.shape[0]:
                raise DimensionMismatch(
                    f"ray map changed the dimension from {xk.shape[0]} to {out.n}")
            images.append(out.representative)
        return np.array(images)


def _ray_rows(v):
    """Finite rows ``v``, checked to be valid :class:`Ray` representatives;
    ``Ray(x)`` is the one-row case.  A row is refused when its norm is
    zero, which happens exactly when every squared entry underflows."""
    if not (v.conj() * v).real.any(axis=1).all():
        raise ValueError("a ray needs a nonzero representative")
    return v


def induced_ray_map(u: SemilinearOperator) -> RayMap:
    """The ray map ``x -> u(x)``, evaluated natively on rows; its ``eval``
    is the one-row case and keeps the error messages of ``u(x)``."""
    matrix, auto = u.matrix, u.auto

    def rows(x):
        if x.shape[1] != u.n:
            raise DimensionMismatch(
                f"operator of dimension {u.n} applied to "
                f"{'vector' if len(x) == 1 else 'vectors'} of dimension {x.shape[1]}")
        images = _as_matrix(_row_matvec(matrix, auto.apply(x)), "representative", square=False)
        return _ray_rows(images)

    t = RayMap(lambda ray: Ray._from_checked(rows(ray.representative[None])[0]))
    object.__setattr__(t, "_rows", rows)
    return t


def apply_ray_map(t: RayMap, x):
    """Representative of the image of the ray of ``x``: the one-row case
    of the map's row evaluator."""
    return t._rows(Ray(x).representative[None])[0]


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


def ray_eta_orthogonal(space: IndefiniteSpace, rx: Ray, ry: Ray, tol=1e-8) -> bool:
    """``|<eta x, y>| <= tol * ||eta x|| * ||y||`` for the representatives.

    Homogeneous in both representatives, so the choice within each ray is
    irrelevant.
    """
    if rx.n != space.n or ry.n != space.n:
        raise DimensionMismatch(f"rays of dimensions {rx.n}, {ry.n} in dimension {space.n}")
    margin = _orthogonality_margins(space.eta, rx.representative[None],
                                    ry.representative[None])
    return bool(margin[0] <= tol)


def eta_orthogonal_partner(space: IndefiniteSpace, x, rng):
    """Random nonzero ``y`` with ``<eta x, y> = 0``, built by projecting a
    Gaussian draw onto the solution hyperplane (never by rejection): the
    one-row case of the crafted partners of :func:`_draw_ray_pairs`."""
    return _eta_orthogonal_rows(rng, np.asarray(x)[None] @ space.eta.T, space.field)[0]


def _draw_ray_pairs(rng, space: IndefiniteSpace, crafted, plain):
    """Rows of ``crafted`` eta-orthogonal pairs and then ``plain`` random
    pairs, ``x`` and ``y`` interleaved: every ``x`` and plain ``y`` first,
    then the crafted partners."""
    size = crafted + plain
    v = random_matrix(rng, (size + plain, space.n), space.field)
    y = _eta_orthogonal_rows(rng, v[:crafted] @ space.eta.T, space.field)
    return np.stack((v[:size], np.concatenate((y, v[size:]))), axis=1).reshape(-1, space.n)


def is_symmetry(space: IndefiniteSpace, t: RayMap, sample_count=500, seed=0,
                tol=1e-8) -> SampleReport:
    """Check the biconditional ``T x ._eta T y = 0  iff  x ._eta y = 0``.

    Half the sampled pairs are crafted to be exactly ``eta``-orthogonal.
    A pair is reported only when the margins disagree decisively (one
    side at most ``tol``, the other at least ``100 * tol``); violations
    are data about the map, not an error.  Each
    :class:`~idemap.transform.Violation` holds the two sampled
    representative vectors.

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
        space.n, space.field, sample_count, seed, tol,
        draw=lambda rng, crafted, plain: _draw_ray_pairs(rng, space, crafted, plain),
        image=t._rows,
        margins=lambda v: _orthogonality_margins(space.eta, v[0::2], v[1::2]))


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


#: Tolerance factor for the characterization identity on basis pairs.
CHARACTERIZE_TOL = 1e-8


def characterize(space: IndefiniteSpace, u: SemilinearOperator,
                 tol=CHARACTERIZE_TOL) -> Characterization:
    """Test whether ``u`` scales the metric, on all basis pairs.

    For the identity tag the identity under test is
    ``(U e_i, U e_j) = c (e_i, e_j)``; for the conjugation tag it is
    ``(U e_i, U e_j) = d (e_j, e_i)_{eta*}`` with ``eta*`` the conjugate
    transpose.  The constant is fitted on the basis pair with the largest
    right-hand side and then verified on all ``n^2`` pairs.
    """
    if u.n != space.n:
        raise DimensionMismatch("operator dimension does not match the space")
    m, eta = u.matrix, space.eta
    if u.auto is AutomorphismTag.IDENTITY:
        kind, rhs = SymmetryKind.LINEAR, eta.T
    else:
        kind, rhs = SymmetryKind.CONJUGATE, eta.conj().T
    # ``U e_i`` is column ``i`` of ``M``, so ``lhs[i, j] = (U e_j)^H eta
    # (U e_i)`` is the transpose of ``M^H eta M``.
    lhs = (m.conj().T @ eta @ m).T.astype(np.complex128)
    rhs = rhs.astype(np.complex128)
    ref = np.unravel_index(int(np.argmax(np.abs(rhs))), rhs.shape)
    constant = lhs[ref] / rhs[ref]
    scale = 1.0 + np.abs(lhs).max() + abs(constant) * np.abs(rhs).max()
    if np.abs(lhs - constant * rhs).max() > tol * scale:
        return Characterization(SymmetryKind.NONE, None)
    if space.field is ScalarField.REAL:
        constant = float(constant.real)
    else:
        constant = complex(constant)
    return Characterization(kind, constant)


def _realify(m, field: ScalarField):
    if field is ScalarField.COMPLEX:
        return np.concatenate([m.real.ravel(), m.imag.ravel()])
    return np.asarray(m, dtype=np.float64).ravel()


def _unrealify(v, n, field: ScalarField):
    if field is ScalarField.COMPLEX:
        half = n * n
        return v[:half].reshape(n, n) + 1j * v[half:].reshape(n, n)
    return v.reshape(n, n)


def _eta_skew_basis(space: IndefiniteSpace):
    """Orthonormal (realified) basis of ``{K : eta K + K* eta = 0}``.

    The constraint is only real-linear over the complex field (because of
    the conjugate transpose), so it is realified before the nullspace is
    extracted.  The system is ``2n^2 x 2n^2`` (``n^2 x n^2`` over the
    reals) and its SVD costs ``O(n^6)``: this is the route of last resort
    for metrics the closed forms of :func:`_skew_projection` cannot take.
    """
    n = space.n
    field = space.field
    dim = 2 * n * n if field is ScalarField.COMPLEX else n * n
    cols = []
    for k in range(dim):
        v = np.zeros(dim)
        v[k] = 1.0
        kmat = _unrealify(v, n, field)
        constraint = space.eta @ kmat + kmat.conj().T @ space.eta
        cols.append(_realify(constraint, field))
    system = np.column_stack(cols)
    kernel, _ = kernel_and_range(system, tol=1e-9 * max(1.0, np.linalg.norm(space.eta)))
    return kernel


#: Largest ``||eta - eta*|| / ||eta||`` (Frobenius) for which the metric
#: is taken as self-adjoint.
_SELF_ADJOINT_RTOL = 1e-12

#: Certificate of the cosquare route: the smallest separation of two
#: cosquare eigenvalues, relative to their modulus; the largest mismatch
#: ``|lambda_j - 1/conj(lambda_i)|`` of a pair, relative to its target; the
#: largest Frobenius condition number of the eigenvector matrix.
_COSQUARE_MIN_SEPARATION = 1e-4
_COSQUARE_PAIR_RTOL = 1e-9
_COSQUARE_MAX_COND = 1e6


def _self_adjoint_projection(eta):
    """Projection onto ``{K : eta K + K* eta = 0}`` for a self-adjoint
    ``eta``, in ``O(n^3)``.

    The space is ``eta^{-1}`` times the skew-Hermitian matrices
    (Gohberg, Lancaster and Rodman, *Indefinite Linear Algebra and
    Applications*, 2005).  The projection of ``G`` is ``K = eta^{-1} S``
    with ``P S + S P = eta^{-*} G - G* eta^{-1}`` and ``P = eta^{-*}
    eta^{-1}``.  In the eigenbasis ``eta = U diag(mu) U*`` this Lyapunov
    equation is diagonal, and ``K~ = U* K U`` is entrywise
    ``(mu_j^2 G~_ij - mu_i mu_j conj(G~_ji)) / (mu_i^2 + mu_j^2)`` with
    ``G~ = U* G U``: no inverse of ``eta`` is formed.
    """
    mu, u = np.linalg.eigh((eta + eta.conj().T) / 2)
    mu2 = mu**2
    denom = mu2[:, None] + mu2
    cross = np.outer(mu, mu)

    def project(g):
        gt = u.conj().T @ g @ u
        return u @ ((gt * mu2 - gt.conj().T * cross) / denom) @ u.conj().T

    return project


def _cosquare_projection(eta):
    """Projection onto ``{K : eta K + K* eta = 0}`` through the cosquare
    ``Gamma = eta^{-1} eta*``, or ``None`` when the route cannot certify
    that it spans the whole space.

    Every such ``K`` commutes with ``Gamma``.  When ``Gamma = W diag(lambda)
    W^{-1}`` has a simple spectrum, ``K = W diag(d) W^{-1}``, and with ``E =
    W* eta W`` the constraint reads ``E_ij (d_j + conj(d_i)) = 0``, where
    ``E_ij`` is nonzero only for ``lambda_j = 1/conj(lambda_i)``.  So the
    eigenvalues pair up: ``d_j = -conj(d_i)`` for a pair, and ``d_i`` is
    imaginary when ``lambda_i`` pairs with itself.  Over the reals the
    complexified ``K`` obeys ``E_ij (d_i + d_j) = 0`` with ``E = W^T eta W``
    and ``lambda_j = 1/lambda_i``, and the projection of a real matrix onto
    that complex span is the real projection.

    The pairs are read from the spectrum.  The route is taken only with
    a simple spectrum, every eigenvalue matched to its partner and a
    well-conditioned ``W`` (the ``_COSQUARE_*`` bounds).  The projection
    solves the normal equations of the ``d`` directions (``n`` real ones,
    or one complex one per pair over the reals): ``O(n^3)`` per call.
    """
    n = eta.shape[0]
    complex_field = np.iscomplexobj(eta)
    lam, w = np.linalg.eig(np.linalg.solve(eta, eta.conj().T))
    target = 1 / lam.conj() if complex_field else 1 / lam
    mismatch = np.abs(lam - target[:, None])
    partner = mismatch.argmin(axis=1)
    index = np.arange(n)
    separation = np.abs(lam - lam[:, None])
    separation[index, index] = np.inf
    try:
        w_inv = np.linalg.inv(w)
    except np.linalg.LinAlgError:
        return None
    if (np.any(partner[partner] != index)
            or np.any(mismatch[index, partner] > _COSQUARE_PAIR_RTOL * np.abs(target))
            or np.any(separation.min(axis=1) < _COSQUARE_MIN_SEPARATION * np.abs(lam))
            or np.linalg.norm(w) * np.linalg.norm(w_inv) > _COSQUARE_MAX_COND):
        return None
    # Directions of ``d``, one per column.
    eye = np.eye(n)
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


def _nullspace_projection(space: IndefiniteSpace):
    """Projection onto the span of :func:`_eta_skew_basis`."""
    n, field = space.n, space.field
    basis = _eta_skew_basis(space)

    def project(g):
        return _unrealify(basis @ (basis.T @ _realify(g, field)), n, field)

    return project


def _skew_projection(space: IndefiniteSpace):
    """Orthogonal projection onto ``{K : eta K + K* eta = 0}`` in the real
    Frobenius inner product, as a function of ``K``; cached on the space.

    Self-adjoint metrics take the closed form, others the cosquare
    eigenbasis when it is certified, and the rest the nullspace of the
    realified constraint.  The projection does not depend on the route,
    up to rounding.
    """
    if space._skew_projection is None:
        eta = space.eta
        if np.linalg.norm(eta - eta.conj().T) <= _SELF_ADJOINT_RTOL * np.linalg.norm(eta):
            project = _self_adjoint_projection(eta)
        else:
            project = _cosquare_projection(eta) or _nullspace_projection(space)
        space._skew_projection = project
    return space._skew_projection


def generate_eta_isometry(space: IndefiniteSpace, seed, scale=1.0) -> SemilinearOperator:
    """Random operator ``V`` with ``V* eta V = scale * eta``.

    Draws a Gaussian matrix, orthogonally projects it onto the solution
    space of ``eta K + K* eta = 0`` (so that ``exp(K)`` preserves the
    metric exactly), exponentiates, and multiplies by ``sqrt(scale)``.
    When the solution space is trivial the output degenerates to
    ``sqrt(scale) * I``, which still satisfies the identity.

    The projection takes ``O(n^3)`` for a self-adjoint metric and for a
    metric whose cosquare ``eta^{-1} eta*`` has a simple, well-separated
    spectrum; any other metric falls back to an ``O(n^6)`` nullspace
    computation.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    if not np.isfinite(scale):
        raise ValueError("scale must be finite")
    rng = np.random.default_rng(seed)
    k = _skew_projection(space)(random_matrix(rng, (space.n, space.n), space.field))
    norm_k = np.linalg.norm(k)
    if norm_k > 1e-12:
        k = k / norm_k
    else:
        k = np.zeros_like(k)
    v_mat = scipy.linalg.expm(k) * np.sqrt(scale)
    resid = np.linalg.norm(v_mat.conj().T @ space.eta @ v_mat - scale * space.eta)
    if resid > 1e-9 * scale * (1.0 + np.linalg.norm(space.eta)):
        raise ArithmeticError(f"isometry generation failed, residual {resid:.3e}")
    # ``||K|| <= 1``, so ``cond(exp(K)) <= e^2``: no singularity check.
    return SemilinearOperator._from_checked(v_mat, AutomorphismTag.IDENTITY)


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
    eta, eta_inv = space.eta, space.eta_inv

    def rows(x, f):
        tx = t._rows(x)
        sf = t._rows(_row_matvec(eta_inv, np.conj(f)))
        return _normalized_rows(tx, np.conj(_row_matvec(eta, sf)))

    return reconstruct(TransformHandle(None, space.n, space.field, _rows=rows),
                       validation_count=validation_count, seed=seed)
