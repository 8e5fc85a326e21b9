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
    _as_vector,
    _row_abs,
    _row_dots,
    _row_matvec,
    _row_norms,
    pair,
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
    _checked_rows,
    _normalized_rows,
    as_finite_rank,
    decompose,
    rank_one_from_pair,
)
from .sampling import DRAW_TRIES, MIN_COSINE, _VectorStream, random_rank_one, random_vector

#: Match tolerance for the trace probe deciding the ring automorphism.
AUTOMORPHISM_TOL = 1e-6

#: Validation residual above which a probed map is declared not induced.
NOT_INDUCED_TOL = 1e-6

#: Pairs the samplers draw, evaluate and judge together; every per-call
#: temporary array is of this size, whatever the sample count.
SAMPLE_BLOCK = 16


class TransformHandle:
    """Black-box total map on rank-one idempotents of a fixed dimension.

    The wrapped callable must return a :class:`RankOneIdempotent` of the
    same dimension; this is checked lazily on every call.  Evaluation is
    pure, so concurrent calls are safe.

    Handles built from an operator (:func:`induce`, :func:`identity_handle`,
    :func:`transpose_handle`) also carry a native row evaluator, which the
    samplers use to map a whole block of idempotents at once.
    """

    def __init__(self, eval_fn: Callable[[RankOneIdempotent], RankOneIdempotent],
                 n: int, field: ScalarField, *, _rows=None):
        if n < 3:
            raise ValueError("transforms are only supported for dimension >= 3")
        self._eval = eval_fn
        self._rows = _rows
        self._n = n
        self._field = field

    @property
    def n(self) -> int:
        return self._n

    @property
    def field(self) -> ScalarField:
        return self._field

    def __call__(self, p: RankOneIdempotent) -> RankOneIdempotent:
        if not isinstance(p, RankOneIdempotent):
            raise TypeError("TransformHandle expects a RankOneIdempotent")
        if p.n != self._n:
            raise DimensionMismatch(f"handle dimension {self._n}, input {p.n}")
        out = self._eval(p)
        if not isinstance(out, RankOneIdempotent):
            raise TypeError("transform returned a non-idempotent object")
        if out.n != self._n:
            raise DimensionMismatch("transform changed the dimension")
        return out

    def _map_rows(self, x, f):
        """Images of the idempotents ``(x[k], f[k])`` as normalized rows.

        Natively when the handle has a row evaluator; otherwise one call
        per idempotent, in row order, through :meth:`__call__` and its
        checks.  The rows must have passed :func:`_checked_rows`.
        """
        if self._rows is not None:
            return self._rows(x, f)
        images = [self(RankOneIdempotent._from_checked_row(xk, fk)) for xk, fk in zip(x, f)]
        return np.array([p.x for p in images]), np.array([p.f for p in images])


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
class PreservationViolation:
    p: RankOneIdempotent
    q: RankOneIdempotent
    source_margin: float
    image_margin: float


@dataclass(frozen=True)
class PreservationReport:
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

    def eval_fn(p: RankOneIdempotent) -> RankOneIdempotent:
        x = matrix @ auto.apply(p.x)
        f = dual @ auto.apply(p.f)
        return rank_one_from_pair(x, f)

    def rows(x, f):
        return _normalized_rows(_row_matvec(matrix, auto.apply(x)),
                                _row_matvec(dual, auto.apply(f)))

    return TransformHandle(eval_fn, a.n, a.field, _rows=rows)


def identity_handle(n, field: ScalarField) -> TransformHandle:
    return TransformHandle(lambda p: p, n, field, _rows=lambda x, f: (x, f))


def transpose_handle(n, field: ScalarField) -> TransformHandle:
    """The map ``P -> P^T``; it reverses products instead of preserving
    them, so it must fail :func:`check_preservation`."""
    return TransformHandle(lambda p: RankOneIdempotent(p.f, p.x), n, field,
                           _rows=lambda x, f: _checked_rows(f, x))


def zero_product_partner(rng, p: RankOneIdempotent, field: ScalarField,
                         tries=DRAW_TRIES) -> RankOneIdempotent:
    """Random ``Q = (y, g)`` with ``P @ Q = 0``, i.e. ``pair(y, p.f) = 0``."""
    n = p.n
    for _ in range(tries):
        y0 = random_vector(rng, n, field)
        y = y0 - np.dot(y0, p.f) * p.x
        ny = np.linalg.norm(y)
        if ny <= 1e-8 * np.linalg.norm(y0):
            continue
        g = random_vector(rng, n, field)
        if abs(np.dot(y, g)) >= MIN_COSINE * ny * np.linalg.norm(g):
            return rank_one_from_pair(y, g)
    raise RuntimeError("could not craft a zero-product partner")


def _sample_blocks(sample_count, seed, n, field: ScalarField):
    """Block loop shared by the two samplers.

    Yields ``(stream, crafted, plain)`` per block of at most
    ``SAMPLE_BLOCK`` pairs: the look-ahead stream of the seeded
    generator, then how many of the block's pairs fall in the crafted
    first half of the sample and how many in the random second half.
    """
    if sample_count < 0:
        raise ValueError(f"sample_count must be >= 0, got {sample_count}")
    stream = _VectorStream(np.random.default_rng(seed), n, field)
    crafted = sample_count // 2
    for start in range(0, sample_count, SAMPLE_BLOCK):
        stop = min(start + SAMPLE_BLOCK, sample_count)
        head = min(max(crafted - start, 0), stop - start)
        yield stream, head, stop - start - head


def _violating(pre, post, tol):
    """Indices where the biconditional fails decisively: one side's
    margin is at most ``tol`` while the other's is at least ``100 * tol``."""
    return np.flatnonzero(((pre <= tol) & (post >= 100 * tol))
                          | ((post <= tol) & (pre >= 100 * tol)))


def _product_margins(f, y):
    """``||P Q|| / (||P|| ||Q||)`` for ``P = x (x) f`` and ``Q = y (x) g``,
    row-wise.  ``P Q = pair(y, f) x (x) g``, so the Frobenius norms reduce
    it to ``|pair(y, f)| / (||f|| ||y||)``."""
    return np.abs(_row_dots(y, f)) / (_row_norms(f) * _row_norms(y))


def _partner_attempts(u, w, nu, nw, dots, accept):
    """Settle ``zero_product_partner`` for every accepted record of a window.

    Record ``a`` holds the attempt ``(x, f) = (u[a], w[a])``; if it is
    accepted, the records after it are partner attempts ``(y0, g)``
    against ``P = (x / pair(x, f), f)``.  Attempt ``a + t`` is decided for
    all candidates ``a`` still open, round ``t`` by round ``t``.  Returns
    the record of each candidate's accepted partner (-1 where the window
    cannot settle it: it ends first, ``y`` degenerates, which
    consumes a single vector and breaks the record alignment, or the
    tries run out) and the partner's unnormalized ``y`` at row ``a``.
    """
    records = u.shape[0]
    cand = np.flatnonzero(accept)
    px = u[cand] / dots[cand, None]
    partner = np.full(records, -1)
    y_at = np.empty_like(u)
    open_ = np.arange(cand.size)
    for t in range(1, DRAW_TRIES + 1):
        open_ = open_[cand[open_] + t < records]
        if not open_.size:
            break
        a = cand[open_]
        j = a + t
        y0 = u[j]
        y = y0 - _row_dots(y0, w[a])[:, None] * px[open_]
        ny = _row_norms(y)
        live = ~(ny <= 1e-8 * nu[j])
        done = live & (_row_abs(_row_dots(y, w[j])) >= MIN_COSINE * ny * nw[j])
        partner[a[done]] = j[done]
        y_at[a[done]] = y[done]
        open_ = open_[live & ~done]
    return partner, y_at


def _settle_pairs(stream: _VectorStream, count, crafted):
    """Up to ``count`` pairs ``(P, Q)`` settled by one look-ahead window.

    The window holds draw records of two vectors each.  A record is an
    attempt of :func:`random_rank_one`; whether it is accepted depends on
    the record alone, so that is decided for the whole window at once.
    ``Q`` is the next accepted record (``crafted`` false) or the
    :func:`zero_product_partner` of ``P``.  Pairs are read off in stream
    order until one cannot be settled from the window.  Returns the rows
    ``(x, f)`` with ``P`` and ``Q`` of each pair interleaved, normalized
    as :func:`rank_one_from_pair` does, and the number of vectors used.
    """
    records = 2 * count + 8
    v = stream.peek(2 * records)
    u, w = v[0::2], v[1::2]
    nu, nw, dots = _row_norms(u), _row_norms(w), _row_dots(u, w)
    accept = _row_abs(dots) >= MIN_COSINE * nu * nw
    index = np.arange(records)
    # First accepted record at or after each record (``records`` if none).
    following = np.minimum.accumulate(np.where(accept, index, records)[::-1])[::-1]
    if crafted:
        partner, y_at = _partner_attempts(u, w, nu, nw, dots, accept)
    else:
        after = np.append(following[1:], records)
        partner = np.where((after < records) & (after - index <= DRAW_TRIES), after, -1)
    following_l, partner_l = following.tolist(), partner.tolist()
    chosen = []
    start = 0
    while len(chosen) < count and start < records:
        a = following_l[start]
        if a == records or a - start >= DRAW_TRIES or partner_l[a] < 0:
            break
        chosen.append(a)
        start = partner_l[a] + 1
    a = np.array(chosen, dtype=int)
    b = partner[a]
    n = u.shape[1]
    x = np.stack((u[a], y_at[a] if crafted else u[b]), axis=1).reshape(-1, n)
    f = np.stack((w[a], w[b]), axis=1).reshape(-1, n)
    return _normalized_rows(x, f), 2 * start


def _draw_idempotent_pairs(stream: _VectorStream, n, field, crafted, plain):
    """Rows ``(x, f)`` of ``crafted`` zero-product pairs and then ``plain``
    random pairs, ``P`` and ``Q`` interleaved: bit-for-bit the pairs that
    :func:`random_rank_one` and :func:`zero_product_partner` would draw
    from the same stream.  A pair no window can settle is drawn by those
    helpers themselves."""
    xs, fs = [], []
    for count, is_crafted in ((crafted, True), (plain, False)):
        while count:
            (x, f), used = _settle_pairs(stream, count, is_crafted)
            if used:
                stream.skip(used)
            else:
                p = random_rank_one(stream, n, field)
                q = zero_product_partner(stream, p, field) if is_crafted \
                    else random_rank_one(stream, n, field)
                x, f = np.array([p.x, q.x]), np.array([p.f, q.f])
            xs.append(x)
            fs.append(f)
            count -= x.shape[0] // 2
    return np.concatenate(xs), np.concatenate(fs)


def check_preservation(phi: TransformHandle, sample_count=500, seed=0,
                       tol=1e-8) -> PreservationReport:
    """Sample idempotent pairs and check ``PQ = 0  iff  phi(P)phi(Q) = 0``.

    Half the pairs are crafted to satisfy ``PQ = 0`` exactly (zero
    products have measure zero, so rejection sampling would never see
    them).  A pair is reported only when the biconditional fails with
    margin: one side's normalized product norm is at most ``tol`` while
    the other side's is at least ``100 * tol``.  A nonempty violation
    list is data about the map, not an error.

    Pairs are drawn, mapped and judged in blocks of ``SAMPLE_BLOCK``.
    The same seed gives bit-for-bit the pairs that drawing them one at a
    time with :func:`random_rank_one` and :func:`zero_product_partner`
    gives.  Handles from :func:`induce`, :func:`identity_handle` and
    :func:`transpose_handle` map a block natively; any other handle is
    called once per sampled idempotent.  A negative ``sample_count``
    raises ``ValueError``; zero gives a vacuous report.
    """
    n, field = phi.n, phi.field
    violations = []
    for stream, crafted, plain in _sample_blocks(sample_count, seed, n, field):
        x, f = _draw_idempotent_pairs(stream, n, field, crafted, plain)
        ix, jf = phi._map_rows(x, f)
        pre = _product_margins(f[0::2], x[1::2])
        post = _product_margins(jf[0::2], ix[1::2])
        for k in _violating(pre, post, tol):
            p = RankOneIdempotent._from_checked_row(x[2 * k], f[2 * k])
            q = RankOneIdempotent._from_checked_row(x[2 * k + 1], f[2 * k + 1])
            violations.append(PreservationViolation(p, q, float(pre[k]), float(post[k])))
    return PreservationReport(tuple(violations), sample_count)


def extend(phi: TransformHandle, p, decomposition=None) -> FiniteRankIdempotent:
    """Extension to finite rank: decompose, map each piece, and sum.

    When ``phi`` genuinely preserves zero products the mapped pieces are
    again mutually orthogonal rank-one idempotents and the sum is an
    idempotent of the same rank; and the value does not depend on which
    orthogonal rank-one decomposition is used.  ``decomposition`` may
    supply explicit pieces (e.g. to exercise that independence).
    """
    fp = as_finite_rank(p)
    if fp.rank == 0:
        return fp
    pieces = decomposition if decomposition is not None else decompose(fp)
    total = sum(phi(piece).matrix for piece in pieces)
    try:
        return FiniteRankIdempotent(total)
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
    p, q = _automorphism_probes(phi.n)
    t = np.trace(phi(p).matrix @ phi(q).matrix)
    if abs(t - 1j) <= AUTOMORPHISM_TOL:
        return AutomorphismTag.IDENTITY
    if abs(t + 1j) <= AUTOMORPHISM_TOL:
        return AutomorphismTag.CONJUGATION
    raise UnrecognizedAutomorphism(
        f"trace probe returned {t!r}, expected i or -i"
    )


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
    validation idempotents (0 means no validation probes)."""
    if n < 3:
        raise ValueError("reconstruction needs dimension >= 3")
    if validation_count < 0:
        raise ValueError(f"validation_count must be >= 0, got {validation_count}")
    dtype = field.dtype
    eye = np.eye(n, dtype=dtype)
    standard = tuple(RankOneIdempotent(eye[j], eye[j]) for j in range(n))
    mixed = tuple(
        RankOneIdempotent(eye[0] + eye[j], eye[0]) for j in range(1, n)
    )
    if field is ScalarField.COMPLEX:
        automorphism = _automorphism_probes(n)
        phase = (RankOneIdempotent(eye[0] + 1j * eye[1], eye[0]),)
    else:
        automorphism = ()
        phase = ()
    rng = np.random.default_rng(seed)
    validation = tuple(
        random_rank_one(rng, n, field) for _ in range(validation_count)
    )
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
       the worst residual.

    Raises
    ------
    NotInduced
        If the validation residual exceeds ``NOT_INDUCED_TOL`` (the map
        is not an operator conjugation) or the assembled matrix is
        singular.
    DegenerateProbe
        If any probe image is invalid or unusable.
    UnrecognizedAutomorphism
        If the trace and phase probes disagree or match neither tag.
    """
    n, field = phi.n, phi.field
    probes = reconstruction_probe_set(n, field, validation_count, seed)
    evals = 0

    def ask(p):
        nonlocal evals
        evals += 1
        try:
            return phi(p)
        except (NotIdempotent, DegeneratePair, DegenerateImage,
                DimensionMismatch, TypeError) as exc:
            raise DegenerateProbe(f"probe image invalid: {exc}") from exc

    columns = []
    for p in probes.standard:
        img = ask(p)
        columns.append(img.x / np.linalg.norm(img.x))

    scales = [1.0 + 0j] if field is ScalarField.COMPLEX else [1.0]
    for j, q in enumerate(probes.mixed, start=1):
        v = ask(q).x
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
        original_evals = evals
        try:
            tag = automorphism_of(phi)
        except (NotIdempotent, DegeneratePair, DegenerateImage,
                DimensionMismatch, TypeError) as exc:
            raise DegenerateProbe(f"automorphism probe invalid: {exc}") from exc
        evals = original_evals + 2
        v = ask(probes.phase[0]).x
        a, b = _fit_two_directions(columns[0], columns[1], v)
        if abs(a) <= 1e-12 * np.linalg.norm(v):
            raise DegenerateProbe("phase probe lost the first column component")
        h_i = (b / a) / scales[1]
        if abs(h_i - 1j) <= AUTOMORPHISM_TOL:
            phase_tag = AutomorphismTag.IDENTITY
        elif abs(h_i + 1j) <= AUTOMORPHISM_TOL:
            phase_tag = AutomorphismTag.CONJUGATION
        else:
            raise UnrecognizedAutomorphism(f"phase probe returned h(i) = {h_i!r}")
        if phase_tag is not tag:
            raise UnrecognizedAutomorphism(
                f"trace probe says {tag.value}, phase probe says {phase_tag.value}"
            )

    assembled = np.column_stack(
        [s * col for s, col in zip(scales, columns)]
    )
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

    residual = 0.0
    for p in probes.validation:
        img = ask(p)
        delta = np.linalg.norm(img.matrix - a_op.conjugate(p.matrix))
        residual = max(residual, float(delta))
    if residual > NOT_INDUCED_TOL:
        raise NotInduced(
            f"validation residual {residual:.3e} exceeds {NOT_INDUCED_TOL:.1e}",
            residual=residual,
        )
    return ReconstructionResult(a_op, residual, evals)


def from_ray_pair(ts: RayPair, n, field: ScalarField) -> TransformHandle:
    """Lift representative-level maps ``(T, S)`` to a map on idempotents:
    ``(x, f) -> normalized (T x, S f)``.

    Well-definedness over ray representatives holds because the
    normalization only depends on the rays.  The handle checks
    ``pair(T x, S f) != 0`` pointwise and raises
    :class:`DegenerateImage` otherwise, a direct witness that ``(T, S)``
    does not preserve vector/functional orthogonality.
    """

    def eval_fn(p: RankOneIdempotent) -> RankOneIdempotent:
        u = _as_vector(ts.vector_map(p.x), "T(x)")
        g = _as_vector(ts.functional_map(p.f), "S(f)")
        nu = np.linalg.norm(u)
        ng = np.linalg.norm(g)
        if nu == 0 or ng == 0:
            raise DegenerateImage("ray map returned a zero representative")
        val = pair(u, g)
        if abs(val) <= 1e-10 * nu * ng:
            raise DegenerateImage(
                f"image pairing {val!r} vanishes while the source pairing is 1"
            )
        return rank_one_from_pair(u, g)

    return TransformHandle(eval_fn, n, field)


def probe_table_from_operator(a: SemilinearOperator, validation_count=50,
                              seed=0) -> list:
    """Evaluate the induced map of ``a`` on the whole documented probe
    set; the resulting ``(input, output)`` list feeds
    :func:`handle_from_table`."""
    phi = induce(a)
    probes = reconstruction_probe_set(a.n, a.field, validation_count, seed)
    return [(p, phi(p)) for p in probes.all_probes()]


def handle_from_table(entries, n, field: ScalarField, match_tol=1e-8) -> TransformHandle:
    """Black-box handle answering from a probe-response table.

    Queries are matched to table inputs by nearest idempotent matrix; a
    query outside the covered set raises :class:`DegenerateProbe`.
    """
    inputs = [np.asarray(p.matrix) for p, _ in entries]
    outputs = [q for _, q in entries]

    def eval_fn(p: RankOneIdempotent) -> RankOneIdempotent:
        pm = p.matrix
        dists = [np.linalg.norm(pm - m) for m in inputs]
        best = int(np.argmin(dists))
        if dists[best] > match_tol * (1.0 + np.linalg.norm(pm)):
            raise DegenerateProbe("query is not covered by the probe table")
        return outputs[best]

    return TransformHandle(eval_fn, n, field)
