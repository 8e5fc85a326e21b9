"""Dense real/complex linear-algebra substrate.

Vectors and functionals are plain 1-d numpy arrays.  The pairing
``pair(x, f)`` is bilinear (no conjugation appears); Hermitian geometry
lives only in :mod:`idemap.indefinite`.  A semilinear operator acts as
``x -> matrix @ h(x)`` where ``h`` is the identity or entrywise
conjugation, applied before the matrix.

Everything here is a pure function of its inputs, and all stored arrays
are frozen after construction, so unrestricted concurrent use is safe.
"""

from __future__ import annotations

import enum

import numpy as np

from .errors import DimensionMismatch, SingularOperator

# The tolerance table: each check compares a residual with ``RULE * scale``
# and names both in its docstring.  The README's "Tolerances" table lists them.
#: A matrix is singular, ``s_min <= c s_max``; two rays are one.
SINGULAR_RTOL = 1e-10
#: A singular value, a pivot of a pivoted QR or an angle's sine counts as zero.
RANK_RTOL = 1e-9
#: ``pair(x, f)`` is 1 (a rank-one idempotent) or 0 (a degenerate pair).
PAIRING_RTOL = 1e-10
#: A matrix identity holds: ``U G = P``, ``F X^T = I``, ``V* eta V = s eta``.
IDENTITY_RTOL = 1e-9
#: A relation holds: ``PQ = 0``, eta-orthogonality, order.
RELATION_TOL = 1e-8
#: A recovered value matches: ``h(i) = +-i``, the validation residual.
RECOVERY_TOL = 1e-6
#: A quantity is zero at roundoff.
ROUNDOFF_RTOL = 1e-12

#: The hypothesis ``n >= 3`` of the paper's theorem, false in the plane
#: (README "Why ``n >= 3``"); every map, space and probe set is held to it.
MIN_DIMENSION = 3

#: The three answers of :func:`_verdict`; ``UNDECIDED`` is the one that is false.
HOLDS, UNDECIDED, FAILS = 1, 0, -1
#: What a refusal says when its check is UNDECIDED.
OVERFLOWED = "undecided: the arithmetic overflowed"


def _verdict(residual, holds_to, fails_from=None):
    """The decision rule of every check: ``HOLDS`` when ``residual <=
    holds_to``, ``FAILS`` when ``residual > holds_to`` and ``residual >=
    fails_from`` (``holds_to`` by default), else ``UNDECIDED``: between the
    two bounds, or when the residual or a bound is NaN or infinite, since an
    overflow proves nothing.  Residuals and bounds are at least 0, Python
    floats (one answer) or arrays (an answer per entry)."""
    if fails_from is None:
        return ((holds_to < np.inf) & (residual < np.inf)) * ((residual <= holds_to) * 2 - 1)
    finite = (holds_to < np.inf) & (fails_from < np.inf) & (residual < np.inf)
    return finite * ((residual <= holds_to) * 1
                     - ((residual > holds_to) & (residual >= fails_from)))


def _require_dimension(n):
    """Refuse ``n`` below :data:`MIN_DIMENSION`, in the one message that names it."""
    if n < MIN_DIMENSION:
        raise ValueError(f"dimension {n} is not supported: the theorem needs dimension >= "
                         f"{MIN_DIMENSION}, and in the plane a preserver need not be induced")


class ScalarField(enum.Enum):
    """Base field of a computation: real or complex coordinates."""

    REAL = "real"
    COMPLEX = "complex"

    @property
    def dtype(self):
        if self is ScalarField.COMPLEX:
            return np.complex128
        return np.float64


class AutomorphismTag(enum.Enum):
    """Involutive ring automorphism used entrywise: identity or conjugation.

    Conjugation is only meaningful over complex coordinates; the only
    continuous ring automorphisms implemented are these two.
    """

    IDENTITY = "id"
    CONJUGATION = "conj"

    def apply(self, values):
        """Apply the automorphism entrywise to a scalar or array."""
        if self is AutomorphismTag.CONJUGATION:
            return np.conjugate(values)
        return values

    def compose(self, other: "AutomorphismTag") -> "AutomorphismTag":
        if self is other:
            return AutomorphismTag.IDENTITY
        return AutomorphismTag.CONJUGATION


def field_of(a) -> ScalarField:
    """Infer the scalar field of an array-like from its dtype."""
    return ScalarField.COMPLEX if np.iscomplexobj(a) else ScalarField.REAL


def _as_array(a):
    """``a`` read by idemap's one dtype rule, since every tolerance is a double-precision
    rule: a ``float64`` or ``complex128`` array as it is (no copy), any other complex kind
    as ``complex128`` and anything else as ``float64`` (longdouble rounded)."""
    v = np.asarray(a)
    if v.dtype.char not in "dD":
        v = v.astype(np.complex128 if v.dtype.kind == "c" else np.float64)
    return v


def _range_exponent(a, axis=None):
    """0 if the largest real or imaginary part of ``a`` (of each slice along
    ``axis``; of all of ``a`` for ``None``) is in ``[2^-500, 2^500]``, else
    the ``e`` for which ``a 2^e`` brings it into ``[0.5, 1)``: the safe
    scale, at which a scale-invariant check cannot overflow.  One 0 stands
    for every slice when every part of ``a`` is in that range: the
    whole-array test costs a fraction of the slice-wise maximum."""
    # A complex array read as its real and imaginary parts side by side.
    parts = np.abs(np.ascontiguousarray(a).view(a.real.dtype))
    if 2.0**-500 <= parts.min() and parts.max() <= 2.0**500:
        return 0
    big = parts.max(axis=axis)
    return ((big < 2.0**-500) | (big > 2.0**500)) * -np.frexp(big)[1]


def _in_range(a):
    """``a`` at the safe scale of :func:`_range_exponent`."""
    return _times_pow2(a, int(_range_exponent(a)))


def _times_pow2(a, e):
    """``a 2^e``, exact unless it overflows or underflows; ``a`` itself when ``e`` is 0."""
    # In two factors, since 2^e alone can overflow.
    return a if e == 0 else a * np.ldexp(1.0, e // 2) * np.ldexp(1.0, e - e // 2)


def _rows_in_range(a):
    """Each row of ``a`` at the safe scale of :func:`_range_exponent`."""
    return _ldexp_rows(a, _range_exponent(a, axis=1))


def _ldexp_rows(a, k):
    """Row ``i`` of ``a`` times ``2^k[i]``, exact up to underflow; ``a`` itself
    when every ``k`` is 0."""
    if not np.any(k):
        return a
    a = np.ascontiguousarray(a)
    return np.ldexp(a.view(a.real.dtype), k[:, None]).view(a.dtype)


def _as_vector(x, name="vector"):
    v = _as_array(x)
    if v.ndim != 1:
        raise DimensionMismatch(f"{name} must be 1-d, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} has non-finite entries")
    return v


def _as_matrix(a, name="matrix", square=True):
    m = _as_array(a)
    if m.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-d, got shape {m.shape}")
    if square and m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} has non-finite entries")
    return m


def _require_invertible(m, name):
    """Raise :class:`SingularOperator` unless ``s_min <= SINGULAR_RTOL s_max``
    FAILS for the singular values of ``m``."""
    s = np.linalg.svd(m, compute_uv=False)
    verdict = _verdict(float(s[-1]), SINGULAR_RTOL * float(s[0]))
    if verdict != FAILS:
        raise SingularOperator(f"{name} is {'numerically singular' if verdict else OVERFLOWED} "
                               f"(smin {s[-1]:.3e}, smax {s[0]:.3e})")


def _frozen(a):
    out = np.array(a, copy=True)
    out.setflags(write=False)
    return out


def _as_vector_pair(x, f, what):
    """``x`` and then ``f`` checked by :func:`_as_vector`, then checked to
    be of one shape; ``what`` names the caller in the shape error."""
    xv = _as_vector(x, "x")
    fv = _as_vector(f, "f")
    if xv.shape != fv.shape:
        raise DimensionMismatch(f"{what}: shapes {xv.shape} vs {fv.shape}")
    return xv, fv


def pair(x, f):
    """Bilinear pairing ``sum_j x_j f_j`` of a vector with a functional."""
    return np.dot(*_as_vector_pair(x, f, "pair"))


def _row_dots(x, f):
    """Row-wise ``np.dot(x[k], f[k])`` of two stacks of vectors.

    A stacked ``matmul`` of ``1 x n`` by ``n x 1`` calls the same BLAS dot
    kernel per row as ``np.dot`` does, so each value is bit-identical to
    the per-vector call (``einsum`` sums in another order).
    """
    return np.matmul(x[:, None, :], f[:, :, None])[:, 0, 0]


def _row_norms(x):
    """Row-wise ``np.linalg.norm(x[k])``, bit-identical to the per-vector
    call, which takes the square root of ``dot`` over real and imaginary
    parts."""
    if np.iscomplexobj(x):
        return np.sqrt(_row_dots(x.real, x.real) + _row_dots(x.imag, x.imag))
    return np.sqrt(_row_dots(x, x))


def _row_matvec(a, x):
    """Row-wise ``a @ x[k]``: a stacked ``matmul`` makes the same BLAS
    matrix-vector call per row, so each row is bit-identical to the
    per-vector product (``x @ a.T`` is one matrix product that rounds
    differently)."""
    return np.matmul(a, x[:, :, None])[:, :, 0]


def _row_abs(values):
    """Entrywise ``abs`` as Python's ``abs`` computes it on one numpy
    scalar (``hypot`` for complex values; ``np.abs`` on a complex array
    rounds differently)."""
    if np.iscomplexobj(values):
        return np.hypot(values.real, values.imag)
    return np.abs(values)


def tensor(x, f):
    """Rank-(<=1) operator ``z -> pair(z, f) * x`` as a dense matrix.

    Entry ``(j, k)`` is ``x[j] * f[k]``; the trace equals ``pair(x, f)``.
    """
    return np.outer(*_as_vector_pair(x, f, "tensor"))


def trace(a):
    """Trace of a square matrix; equals ``sum_i pair(x_i, f_i)`` for any
    decomposition of the matrix into a finite sum of ``tensor(x_i, f_i)``."""
    m = _as_matrix(a, "operator")
    return np.trace(m)


def _numerical_rank(s):
    """Count of ``s`` (singular values or pivoted-QR ``|diag R|``, largest first) above
    ``RANK_RTOL`` times the largest, or above ``RANK_RTOL`` if that is 0 or ``s`` is empty."""
    smax = s[0] if s.size and s[0] > 0 else 1.0
    return int(np.sum(s > RANK_RTOL * smax))


def kernel_and_range(a):
    """Orthonormal bases of the kernel and the column space of ``a``.

    A singular value counts as zero at ``RANK_RTOL`` times the largest.
    Both bases are orthonormal in coordinates; for a square input the
    dimensions add up to ``n``.

    Returns
    -------
    (kernel, range_) : pair of ndarrays with shapes ``(m, m-r)``/``(n, r)``
        where ``a`` is ``n x m`` of numerical rank ``r``.
    """
    m = _as_matrix(a, "operator", square=False)
    u, s, vh = np.linalg.svd(m)
    rank = _numerical_rank(s)
    return vh[rank:].conj().T, u[:, :rank]


def orthonormal_columns(a):
    """Orthonormal basis of the column space of ``a`` (SVD based), of the
    rank that singular values above ``RANK_RTOL`` times the largest give."""
    m = _as_matrix(a, "matrix", square=False)
    if m.shape[1] == 0:
        return m.copy()
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    return u[:, :_numerical_rank(s)]


def up_to_scalar_distance(b, a):
    """Frobenius distance ``min over scalars c of ||b - c*a||``."""
    am = _as_array(a)
    bm = _as_array(b)
    denom = np.vdot(am, am)
    if denom == 0:
        return float(np.linalg.norm(bm))
    c = np.vdot(am, bm) / denom
    return float(np.linalg.norm(bm - c * am))


class SemilinearOperator:
    """Invertible matrix together with an entrywise ring automorphism.

    The operator acts as ``x -> matrix @ h(x)`` and therefore satisfies
    ``A(c * x) = h(c) * A(x)``.  Composition follows the semilinear
    calculus: ``(M1, h1) o (M2, h2) = (M1 @ h1(M2), h1 o h2)``.  An operator stores only
    its frozen matrix and its tag, and never changes after construction.

    Parameters
    ----------
    matrix : (n, n) array_like
        Invertible coordinate matrix.  Invertibility is enforced through
        the relative singular-value floor ``SINGULAR_RTOL``.
    auto : AutomorphismTag
        Identity or conjugation; conjugation needs complex coordinates.
    """

    def __init__(self, matrix, auto: AutomorphismTag = AutomorphismTag.IDENTITY):
        m = _as_matrix(matrix, "operator")
        if auto is AutomorphismTag.CONJUGATION and not np.iscomplexobj(m):
            raise ValueError("conjugation tag requires complex coordinates")
        _require_invertible(m, "operator")
        self._matrix = _frozen(m)
        self._auto = auto

    @classmethod
    def _from_checked(cls, matrix, auto: AutomorphismTag):
        """Wrap a finite, invertible ``float64`` or ``complex128`` matrix
        the library made itself, without the singularity check (for
        example the adjoint or the inverse of a checked operator, which
        keep its condition number)."""
        op = object.__new__(cls)
        op._matrix = _frozen(matrix)
        op._auto = auto
        return op

    @property
    def matrix(self):
        return self._matrix

    @property
    def auto(self) -> AutomorphismTag:
        return self._auto

    @property
    def n(self) -> int:
        return self._matrix.shape[0]

    @property
    def field(self) -> ScalarField:
        return field_of(self._matrix)

    @property
    def inverse_matrix(self):
        return _frozen(np.linalg.inv(self._matrix))

    def __call__(self, x):
        xv = _as_vector(x, "x")
        if xv.shape[0] != self.n:
            raise DimensionMismatch(
                f"operator of dimension {self.n} applied to vector of "
                f"dimension {xv.shape[0]}"
            )
        return self._matrix @ self._auto.apply(xv)

    def adjoint(self) -> "SemilinearOperator":
        """Dual-side operator ``A'`` with ``pair(A(x), f) = h(pair(x, A'(f)))``.

        For the identity tag this is the plain transpose; for conjugation
        it is the conjugated transpose carrying the conjugation tag.
        """
        return SemilinearOperator._from_checked(self._auto.apply(self._matrix).T, self._auto)

    def inverse(self) -> "SemilinearOperator":
        return SemilinearOperator._from_checked(self._auto.apply(self.inverse_matrix),
                                                self._auto)

    def compose(self, other: "SemilinearOperator") -> "SemilinearOperator":
        """Operator equal to ``x -> self(other(x))``."""
        if other.n != self.n:
            raise DimensionMismatch("composition of operators of different dimension")
        return SemilinearOperator(
            self._matrix @ self._auto.apply(other.matrix),
            self._auto.compose(other.auto),
        )

    def conjugate(self, operator_matrix):
        """Similarity action ``matrix @ h(P) @ matrix^{-1}`` on a matrix."""
        p = _as_matrix(operator_matrix, "operator")
        if p.shape[0] != self.n:
            raise DimensionMismatch("conjugation dimension mismatch")
        return self._matrix @ self._auto.apply(p) @ self.inverse_matrix

    def __repr__(self):
        return (
            f"SemilinearOperator(n={self.n}, field={self.field.value}, "
            f"auto={self._auto.value})"
        )


def identity_operator(n, field: ScalarField = ScalarField.COMPLEX) -> SemilinearOperator:
    return SemilinearOperator(np.eye(n, dtype=field.dtype))


def conjugation_operator(n) -> SemilinearOperator:
    """Entrywise conjugation as a semilinear operator on complex space."""
    return SemilinearOperator(np.eye(n, dtype=np.complex128), AutomorphismTag.CONJUGATION)
