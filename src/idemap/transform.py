"""Maps on rank-one idempotents: induction from operators, zero-product
verification, extension to finite rank, automorphism detection through
the trace pairing, and reconstruction of the inducing operator from a
black-box map.

An invertible semilinear operator ``A`` induces the map
``P -> A @ h(P) @ A^{-1}`` on rank-one idempotents; such maps preserve
zero products in both directions.  Conversely, :func:`reconstruct`
recovers ``A`` (up to one scalar) from probe evaluations alone.
"""

from __future__ import annotations

import dataclasses
import functools
import operator
from dataclasses import dataclass
from itertools import islice
from typing import Callable

import numpy as np

from .core import (
    FAILS,
    HOLDS,
    IDENTITY_RTOL,
    OVERFLOWED,
    RECOVERY_TOL,
    RELATION_TOL,
    ROUNDOFF_RTOL,
    AutomorphismTag,
    ScalarField,
    SemilinearOperator,
    _as_array,
    _frozen,
    _in_range,
    _ldexp_rows,
    _range_exponent,
    _require_dimension,
    _row_abs,
    _row_dots,
    _row_matvec,
    _row_norms,
    _rows_in_range,
    _verdict,
)
from .errors import (
    DegenerateImage,
    DegeneratePair,
    DegenerateProbe,
    DimensionMismatch,
    ExtensionInconsistent,
    NotIdempotent,
    NotInduced,
    UnrecognizedAutomorphism,
)
from .idempotents import (
    FiniteRankIdempotent,
    RankOneIdempotent,
    _normalized_rows,
    _rank_one_row,
    _rank_one_views,
    _require_rows,
    as_finite_rank,
    matrix_of,
)
from .sampling import _random_rank_one_rows, _zero_product_rows

#: Pairs the samplers draw, evaluate and judge together; every per-call
#: temporary array is of this size, whatever the sample count.  Each
#: block pays a fixed Python cost for its draws and redraw rounds: for
#: 500 pairs, 16 was 2-4x slower than 64 at n=3 and 1.5-2x at n=64, and
#: 128 was no faster than 64 but took more memory.
SAMPLE_BLOCK = 64


class TransformHandle:
    """Black-box total map on rank-one idempotents of a fixed dimension.

    The map is evaluated on stacked rows ``(x, f)`` by one row evaluator,
    ``_eval``, looked up at each call; ``phi(p)`` is the one-row case.  A
    wrapped callable is called once per row, in row order, on an idempotent
    whose rows are read-only (:func:`_per_row`), and must return a
    :class:`RankOneIdempotent` of the same dimension; its images are read at
    a safe scale (:func:`_balanced`).  Evaluation is pure, so concurrent calls are safe.
    """

    def __init__(self, eval_fn: Callable[[RankOneIdempotent], RankOneIdempotent],
                 n: int, field: ScalarField):
        def rows(x, f):
            view = RankOneIdempotent._from_frozen_row
            images = _per_row(lambda xk, fk: eval_fn(view(xk, fk)), x, f)
            return _balanced(*_stack(images, n, "image"))
        _require_dimension(n)
        self._eval = rows
        self._n = n
        self._field = field

    @classmethod
    def _native(cls, rows, n, field: ScalarField):
        """The handle of the row evaluator ``rows(x, f)``, which idemap calls on whole blocks."""
        phi = cls(None, n, field)
        phi._eval = rows
        return phi

    @property
    def n(self) -> int:
        return self._n

    @property
    def field(self) -> ScalarField:
        return self._field

    def __call__(self, p: RankOneIdempotent) -> RankOneIdempotent:
        return _rank_one_views(*self._rows(*_stack((p,), self._n, "input")))[0]

    def _rows(self, x, f):
        return self._eval(x, f)


def _per_row(call, *blocks):
    """Call the black box ``call`` once per row, in row order, on read-only views of the blocks."""
    return list(map(call, *map(_frozen, blocks)))


def _stack(ps, n, role):
    """Rows ``(x, f)`` of ``ps``, each checked to be a
    :class:`RankOneIdempotent` of dimension ``n``."""
    ps = list(ps)
    for p in ps:
        if not isinstance(p, RankOneIdempotent):
            raise TypeError(f"{role} is not a RankOneIdempotent")
        if p.n != n:
            raise DimensionMismatch(f"handle dimension {n}, {role} dimension {p.n}")
    shape = (len(ps), n)
    return (np.array([p.x for p in ps]).reshape(shape),
            np.array([p.f for p in ps]).reshape(shape))


@dataclass(frozen=True)
class RayPair:
    """Representative-level maps on vector rays and functional rays."""

    vector_map: Callable
    functional_map: Callable


@dataclass(frozen=True)
class ReconstructionResult:
    """Inducing operator recovered from probes, normalized to unit
    Frobenius norm with its first largest-modulus entry positive real,
    with the :class:`ProbeSet` it was recovered from."""

    A: SemilinearOperator
    residual: float
    probes: ProbeSet

    @property
    def probes_used(self) -> int:
        return len(self.probes.all_probes())


@dataclass(frozen=True, eq=False)
class Violation:
    """A sampled pair on which a biconditional fails decisively: two
    :class:`RankOneIdempotent` (:func:`check_preservation`) or two
    representative vectors (:func:`~idemap.indefinite.is_symmetry`), as
    read-only views of the sampled rows; violations compare by identity."""

    first: object
    second: object
    source_margin: float
    image_margin: float


@dataclass(frozen=True)
class SampleReport:
    """Outcome of a biconditional sample: the violations found among
    ``pairs_tested`` pairs."""

    violations: tuple
    pairs_tested: int

    @property
    def ok(self) -> bool:
        return not self.violations


def _lift(images, n, field: ScalarField) -> TransformHandle:
    """The handle of ``(x, f) -> normalized (T x, S f)``, from the image rows
    ``images(x, f) = (T x, S f)`` of a ray pair; the normalization depends only
    on the rays.  A vanishing ``pair(T x, S f)`` (by :func:`rank_one_from_pair`'s
    rule, which also catches a zero representative) raises :class:`DegenerateImage`,
    a witness that ``(T, S)`` does not preserve vector/functional orthogonality."""

    def rows(x, f):
        tx, sf = images(x, f)
        try:
            return _normalized_rows(tx, sf)
        except DegeneratePair as exc:
            raise DegenerateImage(
                f"image pairing vanishes while the source pairing is 1: {exc}") from exc

    return TransformHandle._native(rows, n, field)


def induce(a: SemilinearOperator) -> TransformHandle:
    """Map ``(x, f) -> (A x, (A^{-1})' f)``, i.e. ``P -> A @ h(P) @ A^{-1}``.

    Every nonzero multiple of ``a`` gives the same handle, so ``a`` is read at a safe scale.
    """
    auto = a.auto
    matrix = _in_range(a.matrix)
    # Functional side of the conjugation: (A^{-1})' f = (M^T)^{-1} h(f).
    dual = np.linalg.inv(matrix.T)

    def images(x, f):
        return _row_matvec(matrix, auto.apply(x)), _row_matvec(dual, auto.apply(f))

    return _lift(images, a.n, a.field)


def identity_handle(n, field: ScalarField) -> TransformHandle:
    return TransformHandle._native(lambda x, f: (x, f), n, field)


def transpose_handle(n, field: ScalarField) -> TransformHandle:
    """The map ``P -> P^T``; it reverses products instead of preserving
    them, so it must fail :func:`check_preservation`."""
    return TransformHandle._native(lambda x, f: (f, x), n, field)


def zero_product_partner(rng, p: RankOneIdempotent, field: ScalarField) -> RankOneIdempotent:
    """Random ``Q = (y, g)`` with ``P @ Q = 0``, i.e. ``pair(y, p.f) = 0``:
    the one-row case of the crafted partners of
    :func:`_draw_idempotent_pairs`."""
    return _rank_one_row(*_zero_product_rows(rng, p.x[None], p.f[None], field))


def _product_margins(x, f):
    """``||P Q|| / (||P|| ||Q||)`` of each pair ``P = x (x) f``,
    ``Q = y (x) g`` of interleaved rows ``(x, f)``.  ``P Q = pair(y, f)
    x (x) g``, so the Frobenius norms reduce it to ``|pair(y, f)| /
    (||f|| ||y||)``."""
    f, y = f[0::2], x[1::2]
    return np.abs(_row_dots(y, f)) / (_row_norms(f) * _row_norms(y))


def _draw_idempotent_pairs(rng, n, field, crafted, plain):
    """Rows ``(x, f)`` of ``crafted`` zero-product pairs and then ``plain``
    random pairs, ``P`` and ``Q`` interleaved and normalized: every ``P``
    and plain ``Q`` first, then the crafted partners."""
    x, f = _random_rank_one_rows(rng, crafted + 2 * plain, n, field)
    y, g = _zero_product_rows(rng, x[:crafted], f[:crafted], field)
    size = crafted + plain
    qx, qf = np.concatenate((y, x[size:])), np.concatenate((g, f[size:]))
    return _normalized_rows(np.stack((x[:size], qx), axis=1).reshape(-1, n),
                            np.stack((f[:size], qf), axis=1).reshape(-1, n))


def _sample_biconditional(n, field, sample_count, seed, draw, image,
                          margins) -> SampleReport:
    """The sample behind :func:`check_preservation` and
    :func:`~idemap.indefinite.is_symmetry`.  Per block of at most
    ``SAMPLE_BLOCK`` pairs, ``draw(rng, crafted, plain)`` gives the
    rows of the pairs (the two members of each interleaved), ``image``
    maps the rows and ``margins`` gives one margin per pair, at most 1."""
    if sample_count < 0:
        raise ValueError(f"sample_count must be >= 0, got {sample_count}")
    rng = np.random.default_rng(seed)
    crafted = sample_count // 2
    violations = []
    for start in range(0, sample_count, SAMPLE_BLOCK):
        size = min(SAMPLE_BLOCK, sample_count - start)
        head = min(max(crafted - start, 0), size)
        rows = draw(rng, head, size - head)
        pre, post = margins(rows), margins(image(rows))
        # A violation: one margin HOLDS at RELATION_TOL and the other FAILS at 100 times it.
        sides = _verdict(np.stack((pre, post)), RELATION_TOL, 100 * RELATION_TOL)
        pairs = np.flatnonzero(sides[0] * sides[1] == HOLDS * FAILS)
        if pairs.size:
            # Witnesses: read-only views of the decisive pairs' rows, frozen once.
            pick = (2 * pairs[:, None] + [0, 1]).ravel()
            w = (_rank_one_views(rows[0][pick], rows[1][pick]) if isinstance(rows, tuple)
                 else _frozen(rows[pick]))
            violations.extend(Violation(w[2 * j], w[2 * j + 1], float(pre[k]), float(post[k]))
                              for j, k in enumerate(pairs))
    return SampleReport(tuple(violations), sample_count)


def check_preservation(phi: TransformHandle, sample_count=500, seed=0) -> SampleReport:
    """Sample idempotent pairs and check ``PQ = 0  iff  phi(P)phi(Q) = 0``.

    Half the pairs are crafted to satisfy ``PQ = 0`` exactly (zero
    products have measure zero, so rejection sampling would never see
    them).  A pair is reported only when the biconditional fails with
    margin: one side's ``||PQ|| / (||P|| ||Q||)`` is at most ``RELATION_TOL``
    while the other side's is at least ``100 * RELATION_TOL``.  A nonempty
    violation list is data about the map, not an error; each
    :class:`Violation` holds the two sampled idempotents, as read-only views.

    Pairs are drawn, mapped and judged in blocks of ``SAMPLE_BLOCK``.
    Each block is drawn directly from the seeded generator, so the same
    seed gives the same report, but not the pairs that the one-row
    helpers :func:`~idemap.sampling.random_rank_one` and
    :func:`zero_product_partner` would draw one at a time.  Each block is
    one call of the handle's row evaluator, so a wrapped callable is
    called once per sampled idempotent.  A negative
    ``sample_count`` raises ``ValueError``; zero gives a vacuous report.
    """
    n, field = phi.n, phi.field
    return _sample_biconditional(
        n, field, sample_count, seed,
        draw=lambda rng, crafted, plain: _draw_idempotent_pairs(
            rng, n, field, crafted, plain),
        image=lambda rows: phi._rows(*rows),
        margins=lambda rows: _product_margins(*rows))


def extend(phi: TransformHandle, p, decomposition=None) -> FiniteRankIdempotent:
    """Extension to finite rank: map the rows of ``P``, or of its pieces.

    When ``phi`` genuinely preserves zero products the mapped pieces are again mutually
    orthogonal rank-one idempotents and the sum is an idempotent of the same rank; and the value
    does not depend on which orthogonal rank-one decomposition is used.  ``decomposition`` may
    supply explicit pieces (e.g. to exercise that independence): ``rank P`` of them (else
    :class:`DimensionMismatch`) summing to ``P`` within ``IDENTITY_RTOL (1 + ||P||)`` (it must
    HOLD, else ``ValueError``), which makes them mutually orthogonal.  Mapped rows that fail
    ``F X^T = I`` raise :class:`ExtensionInconsistent`."""
    fp = as_finite_rank(p)
    if fp.rank == 0:
        return fp
    if fp.n != phi.n:
        raise DimensionMismatch(f"handle dimension {phi.n}, input dimension {fp.n}")
    if decomposition is None:
        x, f = fp.rows
    else:
        x, f = _stack(decomposition, phi.n, "input")
        if len(x) != fp.rank:
            raise DimensionMismatch(f"decomposition has {len(x)} pieces, rank is {fp.rank}")
        m = matrix_of(p)
        resid = float(np.linalg.norm(x.T @ f - m))
        verdict = _verdict(resid, IDENTITY_RTOL * (1.0 + float(np.linalg.norm(m))))
        if verdict != HOLDS:
            raise ValueError(f"decomposition does not sum to the idempotent (residual "
                             f"{resid:.3e}{'' if verdict else ', ' + OVERFLOWED})")
    x, f = phi._rows(x, f)
    try:
        _require_rows(x, f)
    except NotIdempotent as exc:
        raise ExtensionInconsistent(f"mapped pieces do not sum to an idempotent: {exc}") from exc
    return FiniteRankIdempotent._from_rows(x, f)


def _automorphism_rows(n):
    """Rows ``(x, f)`` of the probe pair ``(P, Q)`` of complex rank-one
    idempotents with ``trace(P @ Q) = i`` exactly (pairings exactly 1)."""
    eye = np.eye(n, dtype=np.complex128)
    return (np.array([eye[0], 1j * eye[0] + eye[1]]),
            np.array([eye[0], eye[0] + (1 - 1j) * eye[1]]))


def automorphism_of(phi: TransformHandle) -> AutomorphismTag:
    """Decide the ring automorphism of an induced map from one trace probe.

    The extension of an induced map satisfies
    ``trace(phi(P) @ phi(Q)) = h(trace(P @ Q))``; probing a pair with
    ``trace(P @ Q) = i`` therefore returns ``i`` for the identity and
    ``-i`` for conjugation.  Over the reals the identity is the only ring
    automorphism, so no probe is spent.
    """
    if phi.field is ScalarField.REAL:
        return AutomorphismTag.IDENTITY
    return _trace_tag(*phi._rows(*_automorphism_rows(phi.n)))


def _trace_tag(x, f):
    """Ring automorphism measured by the images ``(x, f)`` of the
    :func:`_automorphism_rows`, from ``trace(P Q) = pair(x_Q, f_P)
    pair(x_P, f_Q)``."""
    return _tag_of(np.dot(x[1], f[0]) * np.dot(x[0], f[1]), "trace probe returned")


def _tag_of(h_i, probe):
    """The ring automorphism ``h`` whose value ``h(i)`` a probe measured:
    ``i`` for the identity, ``-i`` for conjugation, within
    ``RECOVERY_TOL`` (scale 1)."""
    for tag, value in ((AutomorphismTag.IDENTITY, 1j), (AutomorphismTag.CONJUGATION, -1j)):
        verdict = _verdict(float(abs(h_i - value)), RECOVERY_TOL)
        if verdict == HOLDS:
            return tag
    raise UnrecognizedAutomorphism(
        f"{probe} {h_i!r}, expected i or -i{'' if verdict else ', ' + OVERFLOWED}")


@dataclass(frozen=True)
class ProbeSet:
    """The deterministic probe inputs used by :func:`reconstruct`.

    ``standard`` pins the column directions of the operator, ``mixed``
    their relative scales, ``automorphism``/``phase`` the ring
    automorphism (complex only), and ``validation`` the final residual.
    A probe-response table must cover exactly these inputs.  The probes
    are views of one frozen block ``rows = (x, f)``, in :meth:`all_probes`
    order, which is left out of ``repr`` and comparison.
    """

    standard: tuple
    mixed: tuple
    automorphism: tuple
    phase: tuple
    validation: tuple
    rows: tuple = dataclasses.field(repr=False, compare=False)

    def all_probes(self):
        return list(self.standard) + list(self.mixed) + list(self.automorphism) \
            + list(self.phase) + list(self.validation)


#: Probe sets :func:`reconstruction_probe_set` keeps, least recently used
#: first out.  A complex n = 64 set holds about 0.42 MB at 50 validation
#: probes (180 rows) and 1.5 MB at 500, so 64 such sets take 27 MB or 94 MB.
#: The benchmark's ``recover`` cycle asks for 16 keys and its ``cli`` cycle
#: for 25, so neither evicts its own sets.
_PROBE_SETS = 64


def reconstruction_probe_set(n, field: ScalarField, validation_count=50,
                             seed=0) -> ProbeSet:
    """Probe inputs for dimension ``n``: ``(e_j, e_j)`` for each ``j``,
    ``(e_1 + e_j, e_1)`` for ``j >= 2``, the automorphism and phase probes
    over the complex field, and ``validation_count`` seeded random
    validation idempotents (0 means no validation probes), drawn as one
    block by :func:`~idemap.sampling._random_rank_one_rows`.

    The set is a pure function of its arguments and immutable, so it is
    drawn once and shared: the last ``_PROBE_SETS`` (64) sets are kept, 27 MB
    if all are complex n = 64 sets of 50 validation probes (94 MB at 500).
    ``n``, ``validation_count`` and ``seed`` must be integers
    (``operator.index``; a numpy integer is the same key as a Python one): a
    ``None`` seed or a ``Generator`` would draw fresh randomness on every
    call, so it raises ``TypeError``, as a float does.  Invalid values
    raise ``ValueError`` on every call."""
    return _probe_set(operator.index(n), field, operator.index(validation_count),
                      operator.index(seed))


@functools.lru_cache(maxsize=_PROBE_SETS)
def _probe_set(n, field, validation_count, seed) -> ProbeSet:
    """The body of :func:`reconstruction_probe_set`, memoized on its key."""
    _require_dimension(n)
    if validation_count < 0:
        raise ValueError(f"validation_count must be >= 0, got {validation_count}")
    # Standard and mixed probes: exact rows of the identity, pairing 1.
    eye = np.eye(n, dtype=field.dtype)
    x, f = [eye, eye[0] + eye[1:]], [eye, np.tile(eye[0], (n - 1, 1))]
    phases = int(field is ScalarField.COMPLEX)
    if phases:
        ax, af = _automorphism_rows(n)
        x += [ax, (eye[0] + 1j * eye[1])[None]]
        f += [af, eye[:1]]
    rng = np.random.default_rng(seed)
    vx, vf = _normalized_rows(*_random_rank_one_rows(rng, validation_count, n, field))
    rows = _frozen(np.concatenate(x + [vx])), _frozen(np.concatenate(f + [vf]))
    probes = iter(map(RankOneIdempotent._from_frozen_row, *rows))
    groups = (tuple(islice(probes, size))
              for size in (n, n - 1, 2 * phases, phases, validation_count))
    return ProbeSet(*groups, rows=rows)


def _fit_two_directions(c0, c, v):
    """Least squares ``v[k] ~ a[k] c0 + b[k] c[k]`` (unit ``c0``) by modified
    Gram-Schmidt; ``b[k] = 0`` where ``c[k]`` has no part off ``c0``."""
    r, a0 = c @ c0.conj(), v @ c0.conj()
    y, w = c - r[:, None] * c0, v - a0[:, None] * c0
    yy = _row_norms(y) ** 2
    b = _row_dots(y.conj(), w) / np.where(yy > 0, yy, np.inf)
    return a0 - b * r, b


def reconstruct(phi: TransformHandle, validation_count=50, seed=0) -> ReconstructionResult:
    """Recover the inducing operator of a black-box map from finite probes.

    Protocol
    --------
    0. Map every probe in one call of the row evaluator.
    1. Probe ``P_j = (e_j, e_j)``: the range vector of ``phi(P_j)`` fixes
       the direction of column ``j`` of the operator.
    2. Probe ``Q_j = (e_1 + e_j, e_1)``: the range of ``phi(Q_j)`` is
       proportional to ``s_1 x_1 + s_j x_j``; a least-squares fit in the
       ``(x_1, x_j)`` coordinates (one Gram-Schmidt step against the unit
       ``x_1``) yields the relative scale ``s_j / s_1`` (``s_1 = 1`` fixes
       the single free scalar).
    3. Decide the ring automorphism by the trace probe and confirm with
       the phase probe ``(e_1 + i e_2, e_1)``, whose range is proportional
       to ``x_1 + h(i) s_2 x_2``.
    4. Assemble the columns ``s_j x_j``, normalize, and validate against
       ``validation_count`` seeded random rank-one idempotents, recording
       the worst residual ``||phi(P) - A h(P) A^{-1}||_F``.  The expected
       images come from one call of ``induce(A)``'s row evaluator.

    The probes are :func:`reconstruction_probe_set`'s, drawn once per
    ``(n, field, validation_count, seed)`` and shared by every result with
    that key, so ``validation_count`` and ``seed`` must be integers.

    Raises
    ------
    NotInduced
        If the validation residual exceeds ``RECOVERY_TOL`` (scale 1; the map
        is not an operator conjugation) or the assembled matrix is
        singular.
    DegenerateProbe
        If mapping a probe raises ``ValueError`` or ``TypeError`` (an invalid image) or a
        fit loses a column component (one at most ``ROUNDOFF_RTOL`` times its image's norm).
    KeyError
        If a probe table (:func:`handle_from_table`) does not cover the
        probes asked for.
    UnrecognizedAutomorphism
        If the trace and phase probes disagree or match neither tag.
    """
    n, field = phi.n, phi.field
    probes = reconstruction_probe_set(n, field, validation_count, seed)
    try:
        x, f = phi._rows(*probes.rows)
    except (ValueError, TypeError) as exc:
        raise DegenerateProbe(f"probe image invalid: {exc}") from exc
    # Rows: n standard, n - 1 mixed, then the trace pair and the phase
    # probe (complex only), then the validation probes.
    phases = len(probes.phase)
    first = 2 * n - 1 + len(probes.automorphism) + phases

    columns = x[:n] / _row_norms(x[:n])[:, None]
    v = np.concatenate((x[n:2 * n - 1], x[first - phases:first]))
    a, b = _fit_two_directions(columns[0], columns[list(range(1, n)) + [1] * phases], v)
    # A component is lost unless ``|component| <= ROUNDOFF_RTOL ||image||`` FAILS.
    lost = (_verdict(_row_abs(np.array([a, b])), ROUNDOFF_RTOL * _row_norms(v)) != FAILS).tolist()
    for j in range(1, n):
        if lost[0][j - 1] or lost[1][j - 1]:
            raise DegenerateProbe(
                f"mixed probe {j} lost a column component (a={a[j - 1]!r}, b={b[j - 1]!r})"
            )
    scales = np.concatenate(([1.0], b[:n - 1] / a[:n - 1]))

    if field is ScalarField.REAL:
        tag = AutomorphismTag.IDENTITY
    else:
        tag = _trace_tag(x[2 * n - 1:2 * n + 1], f[2 * n - 1:2 * n + 1])
        if lost[0][-1]:
            raise DegenerateProbe("phase probe lost the first column component")
        phase_tag = _tag_of((b[-1] / a[-1]) / scales[1], "phase probe returned h(i) =")
        if phase_tag is not tag:
            raise UnrecognizedAutomorphism(
                f"trace probe says {tag.value}, phase probe says {phase_tag.value}"
            )

    assembled = columns.T * scales
    assembled = assembled / np.linalg.norm(assembled)
    flat_idx = int(np.argmax(np.abs(assembled)))
    lead = assembled.flat[flat_idx]
    assembled = assembled * (np.conj(lead) / abs(lead))
    if field is ScalarField.REAL:
        assembled = assembled.real

    try:
        a_op = SemilinearOperator(assembled, tag)
    except Exception as exc:
        raise NotInduced(f"assembled matrix unusable: {exc}", residual=None) from exc

    distances = _rank_one_distances(x[first:], f[first:],
                                    *induce(a_op)._rows(*(r[first:] for r in probes.rows)))
    residual = float(distances.max()) if distances.size else 0.0
    verdict = _verdict(residual, RECOVERY_TOL)
    if verdict != HOLDS:
        why = f"exceeds {RECOVERY_TOL:.1e}" if verdict else OVERFLOWED
        raise NotInduced(f"validation residual {residual:.3e} {why}", residual=residual)
    return ReconstructionResult(a_op, residual, probes)


def _rank_one_distances(x, f, y, g):
    """Frobenius norms ``||x[k] (x) f[k] - y[k] (x) g[k]||`` in ``O(n)``
    memory per row.  The difference is ``X G^T`` with ``X = [x, -y]``, ``G
    = [f, g]``, so for thin QR factors ``X = Q R``, ``G = P S`` its norm is
    ``||R S^T||``; one Gram-Schmidt step gives each 2x2 factor."""

    def factor(u, v):
        r11 = _row_norms(u)
        r12 = _row_dots(u.conj(), v) / r11
        return r11, r12, _row_norms(v - (r12 / r11)[:, None] * u)

    (a11, a12, a22), (b11, b12, b22) = factor(x, -y), factor(f, g)
    return np.sqrt(np.abs(a11 * b11 + a12 * b12) ** 2 + np.abs(a12 * b22) ** 2
                   + np.abs(a22 * b12) ** 2 + (a22 * b22) ** 2)


def _balanced(x, f):
    """Rows ``(x 2^k, f 2^-k)``, the tensor of each row up to underflow, with
    the row of ``x`` (else of ``f``) at the safe scale of
    :func:`~idemap.core._range_exponent`."""
    kx = _range_exponent(x, axis=1)
    k = np.where(kx != 0, kx, -_range_exponent(f, axis=1))
    return _ldexp_rows(x, k), _ldexp_rows(f, -k)


def from_ray_pair(ts: RayPair, n, field: ScalarField) -> TransformHandle:
    """Lift representative-level maps ``(T, S)`` to a map on idempotents,
    ``(x, f) -> normalized (T x, S f)``, by :func:`_lift` and its rule for
    a vanishing image pairing.  ``T`` and then ``S`` are called once per
    row, in row order, on read-only rows (:func:`_per_row`), and each image
    side is read at its safe scale (:func:`~idemap.core._rows_in_range`)."""

    def images(x, f):
        tx, sf = zip(*_per_row(lambda xk, fk: (_image_vector(ts.vector_map(xk), n),
                                               _image_vector(ts.functional_map(fk), n)), x, f))
        return _rows_in_range(np.array(tx)), _rows_in_range(np.array(sf))

    return _lift(images, n, field)


def _image_vector(v, n):
    """A black box's image vector: float or complex, of dimension ``n``."""
    v = _as_array(v)
    if v.shape != (n,):
        raise DimensionMismatch(f"image of shape {v.shape}, expected ({n},)")
    return v


def probe_table_from_operator(a: SemilinearOperator, validation_count=50,
                              seed=0) -> list:
    """Evaluate the induced map of ``a`` on the whole documented probe
    set; the resulting ``(input, output)`` list feeds
    :func:`handle_from_table`."""
    probes = reconstruction_probe_set(a.n, a.field, validation_count, seed)
    return list(zip(probes.all_probes(), _rank_one_views(*induce(a)._rows(*probes.rows))))


def handle_from_table(entries, n, field: ScalarField) -> TransformHandle:
    """Black-box handle answering from a probe-response table.

    The table is checked once, here: it must not be empty, every entry must
    be an ``(input, output)`` pair of :class:`RankOneIdempotent` of dimension
    ``n``, and a real table must hold no complex entry (``ValueError``).  The
    outputs are one frozen block, read at a safe scale (:func:`_balanced`).  A
    block of queries is answered by one lookup, the handle's row evaluator
    ``_eval(x, f)``, looked up at each call: a row gets the output of the
    first input equal to it as ``field``'s dtype, and any other row raises ``KeyError``.
    """
    entries = list(entries)
    if not entries:
        raise ValueError("probe table is empty")
    if any(len(entry) != 2 for entry in entries):
        raise TypeError("table entry is not an (input, output) pair")

    def keys(x, f):
        # Complex query rows stay complex, so they match no real input; -0.0 + 0.0 is 0.0.
        rows = np.concatenate((x, f), axis=1)
        return [r.tobytes() for r in rows.astype(np.result_type(rows, field.dtype)) + 0.0]

    def lookup(x, f):
        best = [index.get(key) for key in keys(x, f)]
        if None in best:
            raise KeyError("query is not covered by the probe table: its inputs must be the "
                           "probe rows exactly, as idemap reconstruct lists them under probe_set")
        return outputs[0][best], outputs[1][best]

    # The handle checks ``n`` first; ``index`` and ``outputs`` are bound once the table is.
    phi = TransformHandle._native(lookup, n, field)
    inputs = _stack([p for p, _ in entries], n, "table input")
    outputs = _stack([q for _, q in entries], n, "table output")
    if field is ScalarField.REAL and any(map(np.iscomplexobj, inputs + outputs)):
        raise ValueError("probe table of the real field holds a complex entry")
    outputs = [_frozen(r) for r in _balanced(*outputs)]
    # Walked backwards, so that the first of equal inputs is the one kept.
    index = {key: k for k, key in reversed(list(enumerate(keys(*inputs))))}
    return phi
