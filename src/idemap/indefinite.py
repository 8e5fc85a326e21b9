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
from .sampling import _projected, _redrawn, random_matrix, random_vector
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
        self._skew_basis = None

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
        v = _as_vector(representative, "representative")
        if np.linalg.norm(v) == 0:
            raise ValueError("a ray needs a nonzero representative")
        self._rep = _frozen(v)

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
    a = r1.representative
    b = r2.representative
    coef = np.vdot(a, b) / np.vdot(a, a)
    return bool(np.linalg.norm(b - coef * a) <= tol * np.linalg.norm(b))


@dataclass(frozen=True)
class RayMap:
    """Total map on rays; evaluation must never return a zero ray.

    Maps from :func:`induced_ray_map` also carry a native row evaluator,
    which :func:`is_symmetry` uses to map a whole block of rays at once.
    """

    eval: Callable[[Ray], Ray]
    # Not an ``__init__`` argument, so ``dataclasses.replace`` with a new
    # ``eval`` drops it instead of keeping a stale native evaluator.
    _rows: Callable | None = dataclasses.field(default=None, init=False,
                                               repr=False, compare=False)


def _ray_rows(v):
    """Row-wise :class:`Ray` validation: finite, nonzero representatives."""
    if not np.all(np.isfinite(v)):
        raise ValueError("representative has non-finite entries")
    if np.any(_row_norms(v) == 0):
        raise ValueError("a ray needs a nonzero representative")
    return v


def induced_ray_map(u: SemilinearOperator) -> RayMap:
    matrix, auto = u.matrix, u.auto

    def rows(x):
        if x.shape[1] != u.n:
            raise DimensionMismatch(
                f"operator of dimension {u.n} applied to vectors of "
                f"dimension {x.shape[1]}"
            )
        return _ray_rows(_row_matvec(matrix, auto.apply(x)))

    t = RayMap(lambda ray: Ray(u(ray.representative)))
    object.__setattr__(t, "_rows", rows)
    return t


def apply_ray_map(t: RayMap, x):
    return _image_of(t, Ray(x))


def _image_of(t: RayMap, ray: Ray):
    """Representative of ``t.eval(ray)``, checked to be a :class:`Ray` of
    the dimension of ``ray``."""
    out = t.eval(ray)
    if not isinstance(out, Ray):
        raise TypeError("ray map returned a non-ray object")
    if out.n != ray.n:
        raise DimensionMismatch(f"ray map changed the dimension from {ray.n} to {out.n}")
    return out.representative


def _map_rays(t: RayMap, x):
    """Representatives of the images of the rays ``x[k]``: natively when
    the map has a row evaluator, otherwise one ``t.eval`` call per ray, in
    row order.  The rows are the library's own, so they are wrapped
    without being checked again."""
    if t._rows is None:
        return np.array([_image_of(t, Ray._from_checked(xk)) for xk in x])
    out = t._rows(x)
    if out.shape != x.shape:
        raise DimensionMismatch(
            f"ray map changed the dimension from {x.shape[1]} to {out.shape[-1]}")
    return out


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
    margin = _orthogonality_margins(space.eta, rx.representative[None],
                                    ry.representative[None])
    return bool(margin[0] <= tol)


#: Draws :func:`eta_orthogonal_partner` projects before failing.
ETA_PARTNER_TRIES = 100


def eta_orthogonal_partner(space: IndefiniteSpace, x, rng):
    """Random nonzero ``y`` with ``<eta x, y> = 0``, built by projecting a
    Gaussian draw onto the solution hyperplane (never by rejection)."""
    w = space.eta @ np.asarray(x)
    for _ in range(ETA_PARTNER_TRIES):
        y0 = random_vector(rng, space.n, space.field)
        y = y0 - (np.vdot(w, y0) / np.vdot(w, w)) * w
        if np.linalg.norm(y) > 1e-8 * np.linalg.norm(y0):
            return y
    raise RuntimeError("could not craft an eta-orthogonal partner")


def _draw_ray_pairs(rng, space: IndefiniteSpace, crafted, plain):
    """Rows of ``crafted`` eta-orthogonal pairs and then ``plain`` random
    pairs, ``x`` and ``y`` interleaved.

    The block is drawn directly: first every ``x`` and the ``y`` of the
    plain pairs, then the crafted partners, projected as
    :func:`eta_orthogonal_partner` projects: ``y = y0 - pair(y0, conj(w))
    / pair(w, conj(w)) * w`` with ``w = eta x``.  A partner that
    degenerates is drawn again, with that helper's ``RuntimeError`` once
    ``DRAW_TRIES`` rounds are used up."""
    size = crafted + plain
    v = random_matrix(rng, (size + plain, space.n), space.field)
    w = v[:crafted] @ space.eta.T

    def partners(index):
        y, live = _projected(random_matrix(rng, (index.size, space.n), space.field),
                             w[index].conj(), w[index])
        return (y,), live

    y, = _redrawn(crafted, partners, "could not craft an eta-orthogonal partner")
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
    from the seeded generator, with partners crafted as
    :func:`eta_orthogonal_partner` crafts them, so the same seed gives the
    same report, but not the pairs that helper and :func:`random_vector`
    would draw one at a time.  Maps
    from :func:`induced_ray_map` are evaluated natively; any other ray
    map is called once per sampled ray.  A negative ``sample_count``
    raises ``ValueError``; zero gives a vacuous report.
    """
    return _sample_biconditional(
        space.n, space.field, sample_count, seed, tol,
        draw=lambda rng, crafted, plain: _draw_ray_pairs(rng, space, crafted, plain),
        image=lambda v: _map_rays(t, v),
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
    extracted.  Cached on the space.
    """
    if space._skew_basis is not None:
        return space._skew_basis
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
    space._skew_basis = kernel
    return kernel


def generate_eta_isometry(space: IndefiniteSpace, seed, scale=1.0) -> SemilinearOperator:
    """Random operator ``V`` with ``V* eta V = scale * eta``.

    Draws a Gaussian matrix, orthogonally projects it onto the solution
    space of ``eta K + K* eta = 0`` (so that ``exp(K)`` preserves the
    metric exactly), exponentiates, and multiplies by ``sqrt(scale)``.
    When the solution space is trivial the output degenerates to
    ``sqrt(scale) * I``, which still satisfies the identity.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    rng = np.random.default_rng(seed)
    n = space.n
    field = space.field
    k = random_matrix(rng, (n, n), field)
    basis = _eta_skew_basis(space)
    v = _realify(k, field)
    projected = basis @ (basis.T @ v) if basis.shape[1] else np.zeros_like(v)
    k = _unrealify(projected, n, field)
    norm_k = np.linalg.norm(k)
    if norm_k > 1e-12:
        k = k / norm_k
    else:
        k = np.zeros_like(k)
    v_mat = scipy.linalg.expm(k) * np.sqrt(scale)
    resid = np.linalg.norm(v_mat.conj().T @ space.eta @ v_mat - scale * space.eta)
    if resid > 1e-9 * scale * (1.0 + np.linalg.norm(space.eta)):
        raise ArithmeticError(f"isometry generation failed, residual {resid:.3e}")
    return SemilinearOperator(v_mat, AutomorphismTag.IDENTITY)


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
        tx = _map_rays(t, x)
        sf = _map_rays(t, _row_matvec(eta_inv, np.conj(f)))
        return _normalized_rows(tx, np.conj(_row_matvec(eta, sf)))

    return reconstruct(TransformHandle(None, space.n, space.field, _rows=rows),
                       validation_count=validation_count, seed=seed)
