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

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    AutomorphismTag,
    ScalarField,
    SemilinearOperator,
    _row_dots,
    _row_matvec,
    _row_norms,
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
    as_finite_rank,
    decompose,
)
from .sampling import _random_rank_one_rows, _zero_product_rows

#: Match tolerance for the trace probe deciding the ring automorphism.
AUTOMORPHISM_TOL = 1e-6

#: Validation residual above which a probed map is declared not induced.
NOT_INDUCED_TOL = 1e-6

#: Relative distance within which :func:`handle_from_table` matches a query.
TABLE_MATCH_TOL = 1e-8

#: Pairs the samplers draw, evaluate and judge together; every per-call
#: temporary array is of this size, whatever the sample count.  Each
#: block pays a fixed Python cost for its draws and redraw rounds: for
#: 500 pairs, 16 was 2-4x slower than 64 at n=3 and 1.5-2x at n=64, and
#: 128 was no faster than 64 but took more memory.
SAMPLE_BLOCK = 64


class TransformHandle:
    """Black-box total map on rank-one idempotents of a fixed dimension.

    The map is evaluated on stacked rows ``(x, f)``; ``phi(p)`` is the
    one-row case.  A wrapped callable is called once per row, in row order,
    and must return a :class:`RankOneIdempotent` of the same dimension.
    Evaluation is pure, so concurrent calls are safe.
    """

    def __init__(self, eval_fn: Callable[[RankOneIdempotent], RankOneIdempotent],
                 n: int, field: ScalarField, *, _rows=None):
        if n < 3:
            raise ValueError("transforms are only supported for dimension >= 3")
        self._eval = eval_fn
        self._rows = self._call_per_row if _rows is None else _rows
        self._n = n
        self._field = field

    @property
    def n(self) -> int:
        return self._n

    @property
    def field(self) -> ScalarField:
        return self._field

    def __call__(self, p: RankOneIdempotent) -> RankOneIdempotent:
        x, f = self._map_idempotents((p,))
        return RankOneIdempotent._from_checked_row(x[0], f[0])

    def _map_idempotents(self, ps):
        """Images of the idempotents ``ps`` as normalized rows ``(x, f)``,
        from one call of the row evaluator (none when ``ps`` is empty)."""
        x, f = self._stack(ps, "input")
        return self._rows(x, f) if len(x) else (x, f)

    def _call_per_row(self, x, f):
        """Row evaluator of a wrapped callable: ``_eval``, looked up per call."""
        return self._stack([self._eval(RankOneIdempotent._from_checked_row(xk, fk))
                            for xk, fk in zip(x, f)], "image")

    def _stack(self, ps, role):
        """Rows ``(x, f)`` of ``ps``, each checked to be a
        :class:`RankOneIdempotent` of the handle's dimension."""
        ps = list(ps)
        for p in ps:
            if not isinstance(p, RankOneIdempotent):
                raise TypeError(f"{role} is not a RankOneIdempotent")
            if p.n != self._n:
                raise DimensionMismatch(f"handle dimension {self._n}, {role} dimension {p.n}")
        shape = (len(ps), self._n)
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
    Frobenius norm with its first largest-modulus entry positive real."""

    A: SemilinearOperator
    residual: float
    probes_used: int


@dataclass(frozen=True)
class Violation:
    """A sampled pair on which a biconditional fails decisively: two
    :class:`RankOneIdempotent` (:func:`check_preservation`) or two
    representative vectors (:func:`~idemap.indefinite.is_symmetry`)."""

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


def induce(a: SemilinearOperator) -> TransformHandle:
    """Map ``(x, f) -> (A x, (A^{-1})' f)``, i.e. ``P -> A @ h(P) @ A^{-1}``.

    The same handle is produced by any nonzero scalar multiple of ``a``.
    """
    if a.n < 3:
        raise ValueError("induced maps need dimension >= 3")
    auto = a.auto
    matrix = a.matrix
    # Functional side of the conjugation: (A^{-1})' f = (M^T)^{-1} h(f).
    dual = np.linalg.inv(matrix.T)

    def rows(x, f):
        return _normalized_rows(_row_matvec(matrix, auto.apply(x)),
                                _row_matvec(dual, auto.apply(f)))

    return TransformHandle(None, a.n, a.field, _rows=rows)


def identity_handle(n, field: ScalarField) -> TransformHandle:
    return TransformHandle(None, n, field, _rows=lambda x, f: (x, f))


def transpose_handle(n, field: ScalarField) -> TransformHandle:
    """The map ``P -> P^T``; it reverses products instead of preserving
    them, so it must fail :func:`check_preservation`."""
    return TransformHandle(None, n, field, _rows=lambda x, f: (f, x))


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


def _witness(rows, i):
    """Row ``i`` of a block as a report entry: a :class:`RankOneIdempotent`
    for idempotent rows ``(x, f)``, a copy of the vector for ray rows."""
    if isinstance(rows, tuple):
        return RankOneIdempotent._from_checked_row(rows[0][i], rows[1][i])
    return rows[i].copy()


def _sample_biconditional(n, field, sample_count, seed, tol, draw, image,
                          margins) -> SampleReport:
    """The sample behind :func:`check_preservation` and
    :func:`~idemap.indefinite.is_symmetry`.  Per block of at most
    ``SAMPLE_BLOCK`` pairs, ``draw(rng, crafted, plain)`` gives the
    rows of the pairs (the two members of each interleaved), ``image``
    maps the rows and ``margins`` gives one margin per pair."""
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
        decisive = ((pre <= tol) & (post >= 100 * tol)) | ((post <= tol) & (pre >= 100 * tol))
        for k in np.flatnonzero(decisive):
            violations.append(Violation(_witness(rows, 2 * k), _witness(rows, 2 * k + 1),
                                        float(pre[k]), float(post[k])))
    return SampleReport(tuple(violations), sample_count)


def check_preservation(phi: TransformHandle, sample_count=500, seed=0,
                       tol=1e-8) -> SampleReport:
    """Sample idempotent pairs and check ``PQ = 0  iff  phi(P)phi(Q) = 0``.

    Half the pairs are crafted to satisfy ``PQ = 0`` exactly (zero
    products have measure zero, so rejection sampling would never see
    them).  A pair is reported only when the biconditional fails with
    margin: one side's normalized product norm is at most ``tol`` while
    the other side's is at least ``100 * tol``.  A nonempty violation
    list is data about the map, not an error; each :class:`Violation`
    holds the two sampled idempotents.

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
        n, field, sample_count, seed, tol,
        draw=lambda rng, crafted, plain: _draw_idempotent_pairs(
            rng, n, field, crafted, plain),
        image=lambda rows: phi._rows(*rows),
        margins=lambda rows: _product_margins(*rows))


def extend(phi: TransformHandle, p, decomposition=None) -> FiniteRankIdempotent:
    """Extension to finite rank: decompose, map each piece, and sum.

    When ``phi`` genuinely preserves zero products the mapped pieces are
    again mutually orthogonal rank-one idempotents and the sum is an
    idempotent of the same rank; and the value does not depend on which
    orthogonal rank-one decomposition is used.  ``decomposition`` may
    supply explicit pieces (e.g. to exercise that independence): ``rank P``
    of them (else :class:`DimensionMismatch`) summing to ``P`` within
    ``1e-9 (1 + ||P||)`` (else ``ValueError``), which makes them mutually
    orthogonal.  The mapped rows ``(X, F)`` sum to ``X^T F``.
    """
    fp = as_finite_rank(p)
    if fp.rank == 0:
        return fp
    if decomposition is None:
        x, f = phi._stack(decompose(fp), "input")
    else:
        x, f = phi._stack(decomposition, "input")
        if len(x) != fp.rank:
            raise DimensionMismatch(f"decomposition has {len(x)} pieces, rank is {fp.rank}")
        resid = np.linalg.norm(x.T @ f - fp.matrix)
        if resid > 1e-9 * (1.0 + np.linalg.norm(fp.matrix)):
            raise ValueError(f"decomposition does not sum to the idempotent "
                             f"(residual {resid:.3e})")
    x, f = phi._rows(x, f)
    try:
        return FiniteRankIdempotent(x.T @ f)
    except NotIdempotent as exc:
        raise ExtensionInconsistent(
            f"mapped pieces do not sum to an idempotent: {exc}"
        ) from exc


def _automorphism_probes(n):
    """Probe pair ``(P, Q)`` of complex rank-one idempotents with
    ``trace(P @ Q) = i`` exactly."""
    e1 = np.zeros(n, dtype=np.complex128)
    e1[0] = 1.0
    p = RankOneIdempotent(e1, e1)
    y = np.zeros(n, dtype=np.complex128)
    y[0] = 1j
    y[1] = 1.0
    g = np.zeros(n, dtype=np.complex128)
    g[0] = 1.0
    g[1] = 1.0 - 1j
    q = RankOneIdempotent(y, g)
    return p, q


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
    return _trace_tag(*phi._map_idempotents(_automorphism_probes(phi.n)))


def _trace_tag(x, f):
    """Ring automorphism measured by the images ``(x, f)`` of the
    :func:`_automorphism_probes`, from ``trace(P Q) = pair(x_Q, f_P)
    pair(x_P, f_Q)``."""
    return _tag_of(np.dot(x[1], f[0]) * np.dot(x[0], f[1]), "trace probe returned")


def _tag_of(h_i, probe):
    """The ring automorphism ``h`` whose value ``h(i)`` a probe measured:
    ``i`` for the identity, ``-i`` for conjugation, within
    ``AUTOMORPHISM_TOL``."""
    if abs(h_i - 1j) <= AUTOMORPHISM_TOL:
        return AutomorphismTag.IDENTITY
    if abs(h_i + 1j) <= AUTOMORPHISM_TOL:
        return AutomorphismTag.CONJUGATION
    raise UnrecognizedAutomorphism(f"{probe} {h_i!r}, expected i or -i")


@dataclass(frozen=True)
class ProbeSet:
    """The deterministic probe inputs used by :func:`reconstruct`.

    ``standard`` pins the column directions of the operator, ``mixed``
    their relative scales, ``automorphism``/``phase`` the ring
    automorphism (complex only), and ``validation`` the final residual.
    A probe-response table must cover exactly these inputs.
    """

    standard: tuple
    mixed: tuple
    automorphism: tuple
    phase: tuple
    validation: tuple

    def all_probes(self):
        return list(self.standard) + list(self.mixed) + list(self.automorphism) \
            + list(self.phase) + list(self.validation)


def reconstruction_probe_set(n, field: ScalarField, validation_count=50,
                             seed=0) -> ProbeSet:
    """Probe inputs for dimension ``n``: ``(e_j, e_j)`` for each ``j``,
    ``(e_1 + e_j, e_1)`` for ``j >= 2``, the automorphism and phase probes
    over the complex field, and ``validation_count`` seeded random
    validation idempotents (0 means no validation probes), drawn as one
    block by :func:`~idemap.sampling._random_rank_one_rows`."""
    if n < 3:
        raise ValueError("reconstruction needs dimension >= 3")
    if validation_count < 0:
        raise ValueError(f"validation_count must be >= 0, got {validation_count}")
    eye = np.eye(n, dtype=field.dtype)
    standard = tuple(RankOneIdempotent(eye[j], eye[j]) for j in range(n))
    mixed = tuple(RankOneIdempotent(eye[0] + eye[j], eye[0]) for j in range(1, n))
    automorphism, phase = (), ()
    if field is ScalarField.COMPLEX:
        automorphism = _automorphism_probes(n)
        phase = (RankOneIdempotent(eye[0] + 1j * eye[1], eye[0]),)
    rng = np.random.default_rng(seed)
    x, f = _normalized_rows(*_random_rank_one_rows(rng, validation_count, n, field))
    validation = tuple(map(RankOneIdempotent._from_checked_row, x, f))
    return ProbeSet(standard, mixed, automorphism, phase, validation)


def _fit_two_directions(x_a, x_b, v):
    """Least-squares coefficients of ``v ~ a * x_a + b * x_b``."""
    basis = np.column_stack([x_a, x_b])
    coef, *_ = np.linalg.lstsq(basis, v, rcond=None)
    return coef[0], coef[1]


def reconstruct(phi: TransformHandle, validation_count=50, seed=0) -> ReconstructionResult:
    """Recover the inducing operator of a black-box map from finite probes.

    Protocol
    --------
    1. Probe ``P_j = (e_j, e_j)``: the range vector of ``phi(P_j)`` fixes
       the direction of column ``j`` of the operator.
    2. Probe ``Q_j = (e_1 + e_j, e_1)``: the range of ``phi(Q_j)`` is
       proportional to ``s_1 x_1 + s_j x_j``; a least-squares fit in the
       ``(x_1, x_j)`` coordinates yields the relative scale ``s_j / s_1``
       (``s_1 = 1`` fixes the single free scalar).
    3. Decide the ring automorphism by the trace probe and confirm with
       the phase probe ``(e_1 + i e_2, e_1)``, whose range is proportional
       to ``x_1 + h(i) s_2 x_2``.
    4. Assemble the columns ``s_j x_j``, normalize, and validate against
       ``validation_count`` seeded random rank-one idempotents, recording
       the worst residual ``||phi(P) - A h(P) A^{-1}||_F``.  The expected
       images come from one call of ``induce(A)``'s row evaluator.

    Raises
    ------
    NotInduced
        If the validation residual exceeds ``NOT_INDUCED_TOL`` (the map
        is not an operator conjugation) or the assembled matrix is
        singular.
    DegenerateProbe
        If any probe image is invalid or unusable.
    KeyError
        If a probe table (:func:`handle_from_table`) does not cover the
        probes asked for.
    UnrecognizedAutomorphism
        If the trace and phase probes disagree or match neither tag.
    """
    n, field = phi.n, phi.field
    probes = reconstruction_probe_set(n, field, validation_count, seed)

    def ask(group):
        try:
            return phi._map_idempotents(group)
        except (NotIdempotent, DegeneratePair, DegenerateImage,
                DimensionMismatch, TypeError) as exc:
            raise DegenerateProbe(f"probe image invalid: {exc}") from exc

    columns = [x / np.linalg.norm(x) for x in ask(probes.standard)[0]]

    scales = [1.0 + 0j] if field is ScalarField.COMPLEX else [1.0]
    for j, v in enumerate(ask(probes.mixed)[0], start=1):
        a, b = _fit_two_directions(columns[0], columns[j], v)
        nv = np.linalg.norm(v)
        if abs(a) <= 1e-12 * nv or abs(b) <= 1e-12 * nv:
            raise DegenerateProbe(
                f"mixed probe {j} lost a column component (a={a!r}, b={b!r})"
            )
        scales.append(b / a)

    if field is ScalarField.REAL:
        tag = AutomorphismTag.IDENTITY
    else:
        tag = _trace_tag(*ask(probes.automorphism))
        v = ask(probes.phase)[0][0]
        a, b = _fit_two_directions(columns[0], columns[1], v)
        if abs(a) <= 1e-12 * np.linalg.norm(v):
            raise DegenerateProbe("phase probe lost the first column component")
        phase_tag = _tag_of((b / a) / scales[1], "phase probe returned h(i) =")
        if phase_tag is not tag:
            raise UnrecognizedAutomorphism(
                f"trace probe says {tag.value}, phase probe says {phase_tag.value}"
            )

    assembled = np.column_stack([s * col for s, col in zip(scales, columns)])
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

    distances = _rank_one_distances(*ask(probes.validation),
                                    *induce(a_op)._map_idempotents(probes.validation))
    residual = float(distances.max()) if distances.size else 0.0
    if not residual <= NOT_INDUCED_TOL:
        raise NotInduced(
            f"validation residual {residual:.3e} exceeds {NOT_INDUCED_TOL:.1e}",
            residual=residual,
        )
    return ReconstructionResult(a_op, residual, len(probes.all_probes()))


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


def from_ray_pair(ts: RayPair, n, field: ScalarField) -> TransformHandle:
    """Lift representative-level maps ``(T, S)`` to a map on idempotents:
    ``(x, f) -> normalized (T x, S f)``.

    Well-definedness over ray representatives holds because the
    normalization only depends on the rays.  ``T`` and then ``S`` are
    called once per row, in row order.  A vanishing ``pair(T x, S f)``
    (by :func:`rank_one_from_pair`'s rule, which also catches a zero
    representative) raises :class:`DegenerateImage`, a direct witness
    that ``(T, S)`` does not preserve vector/functional orthogonality.
    """

    def rows(x, f):
        tx, sf = zip(*[(_image_vector(ts.vector_map(xk), n),
                         _image_vector(ts.functional_map(fk), n)) for xk, fk in zip(x, f)])
        try:
            return _normalized_rows(np.array(tx), np.array(sf))
        except DegeneratePair as exc:
            raise DegenerateImage(
                f"image pairing vanishes while the source pairing is 1: {exc}"
            ) from exc

    return TransformHandle(None, n, field, _rows=rows)


def _image_vector(v, n):
    """A black box's image vector: float or complex, of dimension ``n``."""
    v = np.asarray(v)
    if v.dtype.kind not in "fc":
        v = v.astype(np.float64)
    if v.shape != (n,):
        raise DimensionMismatch(f"image of shape {v.shape}, expected ({n},)")
    return v


def probe_table_from_operator(a: SemilinearOperator, validation_count=50,
                              seed=0) -> list:
    """Evaluate the induced map of ``a`` on the whole documented probe
    set; the resulting ``(input, output)`` list feeds
    :func:`handle_from_table`."""
    probes = reconstruction_probe_set(a.n, a.field, validation_count, seed).all_probes()
    x, f = induce(a)._map_idempotents(probes)
    return [(p, RankOneIdempotent._from_checked_row(xk, fk))
            for p, xk, fk in zip(probes, x, f)]


def handle_from_table(entries, n, field: ScalarField) -> TransformHandle:
    """Black-box handle answering from a probe-response table.

    The table is checked once, here: it must not be empty, and every
    entry must be an ``(input, output)`` pair of :class:`RankOneIdempotent`
    of dimension ``n``.  Each query is matched to the nearest table input
    matrix, in one vectorised distance computation; a query outside the
    covered set raises ``KeyError``, which :func:`reconstruct` passes on
    (the table is malformed input, not evidence about the map).
    """
    entries = list(entries)
    if not entries:
        raise ValueError("probe table is empty")
    if any(len(entry) != 2 for entry in entries):
        raise TypeError("table entry is not an (input, output) pair")
    outputs = [q for _, q in entries]

    def eval_fn(p: RankOneIdempotent) -> RankOneIdempotent:
        pm = p.matrix
        dists = np.linalg.norm(inputs - pm, axis=(1, 2))
        best = int(np.argmin(dists))
        if dists[best] > TABLE_MATCH_TOL * (1.0 + np.linalg.norm(pm)):
            raise KeyError("query is not covered by the probe table")
        return outputs[best]

    phi = TransformHandle(eval_fn, n, field)
    x, f = phi._stack([p for p, _ in entries], "table input")
    phi._stack(outputs, "table output")
    inputs = x[:, :, None] * f[:, None, :]
    return phi
