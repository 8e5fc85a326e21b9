"""The eight verification criteria, run by ``idemap selftest`` and by the
acceptance tests.

Each suite checks one headline property over dimensions 3..8 (the
symmetry suites over 3..6) and both scalar fields.  The budget scales
only the case counts; the per-case checks and thresholds stay the same.
The acceptance tests run the suites at the full budgets (criterion 1:
100, 2: 1000, 3: 800, 4: 200, 5: 200, 6: 1000, 7: 1000, 8: 200);
``idemap selftest`` runs all of them at one reduced budget ``b``:

==========================  ===============================================
suite                       cases at budget ``b``
==========================  ===============================================
roundtrip                   ``min(b, 100)`` operators
preservation                4 induced maps plus the transpose map,
                            ``max(10, min(b, 1000))`` pairs each
trace identity              4 maps x ``max(1, min(b, 800) // 4)`` pairs
extension                   ranks 2 and 3 x ``max(1, min(b, 200) // 2)``
majorant                    ``min(b, 200)`` pairs
sufficiency, necessity      ``min(50, max(4, b // 4))`` metrics x
                            ``max(10, min(b, 1000))`` pairs
recovery                    ``min(50, max(4, b // 4))`` cases
==========================  ===============================================

Zero products, orders and symmetry kinds are decided by the library's
own tolerances, which no caller sets.  A budget of 0 makes every suite
pass vacuously; a negative budget is refused.  A failing suite lists one
reason per failing case, or the exception it raised, in
``SuiteResult.failures``.  The sufficiency suite also fails when fewer
than a fifth of its metrics are non-self-adjoint; every third recovery
case is conjugate-linear by construction.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .core import (
    AutomorphismTag,
    ScalarField,
    SemilinearOperator,
    up_to_scalar_distance,
)
from .errors import NotInduced
from .idempotents import decompose, majorant, relate
from .indefinite import (
    IndefiniteSpace,
    SymmetryKind,
    characterize,
    generate_eta_isometry,
    induced_ray_map,
    is_symmetry,
    recover_inducing_operator,
)
from .sampling import (
    random_idempotent,
    random_invertible,
    random_semilinear,
    remix_decomposition,
)
from .transform import (
    check_preservation,
    extend,
    induce,
    reconstruct,
    transpose_handle,
)

#: The suites' dimensions, read at each call; the symmetry suites cycle over the first four.
DIMS = (3, 4, 5, 6, 7, 8)

_REAL, _COMPLEX = ScalarField.REAL, ScalarField.COMPLEX
_ID, _CONJ = AutomorphismTag.IDENTITY, AutomorphismTag.CONJUGATION


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    cases: int
    detail: str
    failures: tuple[str, ...] = ()


def _suite(name):
    """Make a suite from a body returning ``(cases, failures, detail)``:
    budget 0 passes vacuously, and the suite passes when no case failed.
    A body that raises fails the suite with the exception as its reason."""
    def wrap(body):
        @functools.wraps(body)
        def suite(rng, budget) -> SuiteResult:
            if budget == 0:
                return SuiteResult(name, True, 0, "vacuous pass (budget 0)")
            try:
                cases, failures, detail = body(rng, budget)
            except Exception as exc:
                reason = f"suite raised {type(exc).__name__}: {exc}"
                return SuiteResult(name, False, 0, reason, (reason,))
            return SuiteResult(name, not failures, cases, detail, tuple(failures))
        return suite
    return wrap


def _raised(i, exc):
    return f"case {i}: {type(exc).__name__}: {exc}"


def _seed(rng):
    return int(rng.integers(2**32))


@_suite("roundtrip_reconstruction")
def suite_roundtrip(rng, budget):
    """Reconstruction inverts induction up to one scalar, with the right tag."""
    combos = [(n, field, tag) for n in DIMS
              for field, tag in ((_REAL, _ID), (_COMPLEX, _ID), (_COMPLEX, _CONJ))]
    cases = min(budget, 100)
    threshold = 1e-7
    failures = []
    worst = 0.0
    for i in range(cases):
        n, field, tag = combos[i % len(combos)]
        a = random_invertible(rng, n, field, max_cond=1e3)
        try:
            result = reconstruct(induce(SemilinearOperator(a, tag)),
                                 validation_count=20, seed=_seed(rng))
        except Exception as exc:
            failures.append(_raised(i, exc))
            continue
        dist = up_to_scalar_distance(result.A.matrix, a / np.linalg.norm(a))
        worst = max(worst, dist)
        if dist > threshold or result.A.auto is not tag:
            failures.append(f"case {i} (n={n}, {field.value}, {tag.value}): "
                            f"tag {result.A.auto.value}, distance {dist:.2e}")
    return (cases, failures,
            f"{cases} round trips, worst distance {worst:.2e} "
            f"(threshold {threshold:.1e})")


@_suite("zero_product_preservation")
def suite_preservation(rng, budget):
    """Induced maps keep zero products; the transpose map must not."""
    pairs = max(10, min(budget, 1000))
    maps = ((3, _REAL, _ID), (4, _COMPLEX, _ID), (5, _COMPLEX, _CONJ),
            (6, _COMPLEX, _ID))
    failures = []
    for i, (n, field, tag) in enumerate(maps):
        phi = induce(random_semilinear(rng, n, field, auto=tag))
        report = check_preservation(phi, sample_count=pairs, seed=_seed(rng))
        if report.pairs_tested != pairs or report.violations:
            failures.append(f"case {i} (n={n}, {field.value}, {tag.value}): "
                            f"{len(report.violations)} violations in "
                            f"{report.pairs_tested}/{pairs} pairs")
    flipped = check_preservation(transpose_handle(3, _COMPLEX),
                                 sample_count=pairs, seed=_seed(rng))
    caught = len(flipped.violations)
    if not caught:
        failures.append(f"case {len(maps)} (transpose, n=3): no violation in "
                        f"{flipped.pairs_tested} pairs")
    return ((len(maps) + 1) * pairs, failures,
            f"{len(maps)} induced maps and the transpose x {pairs} "
            f"pairs, transpose caught {caught} violations")


@_suite("trace_identity")
def suite_trace_identity(rng, budget):
    """``trace(ext(P) ext(Q)) = h(trace(P Q))`` for induced maps."""
    threshold = 1e-8
    pairs = max(1, min(budget, 800) // 4)
    maps = ((3, _REAL, _ID), (4, _COMPLEX, _ID), (5, _COMPLEX, _CONJ),
            (6, _COMPLEX, _CONJ))
    failures = []
    worst = 0.0
    for m, (n, field, tag) in enumerate(maps):
        op = random_semilinear(rng, n, field, auto=tag)
        phi = induce(op)
        for k in range(pairs):
            p = random_idempotent(rng, n, int(rng.integers(1, n)), field)
            q = random_idempotent(rng, n, int(rng.integers(1, n)), field)
            lhs = np.trace(extend(phi, p).matrix @ extend(phi, q).matrix)
            err = abs(lhs - op.auto.apply(np.trace(p.matrix @ q.matrix)))
            worst = max(worst, err)
            if err > threshold:
                failures.append(f"case {m * pairs + k} (n={n}, {field.value}, "
                                f"{tag.value}): error {err:.2e}")
    return (len(maps) * pairs, failures,
            f"{len(maps)} maps x {pairs} pairs, worst error {worst:.2e} "
            f"(threshold {threshold:.1e})")


@_suite("extension_well_defined")
def suite_extension(rng, budget):
    """Extension output does not depend on the chosen decomposition, to
    ``1e-8`` relative to the extension's Frobenius norm."""
    threshold = 1e-8
    per_rank = max(1, min(budget, 200) // 2)
    failures = []
    worst = 0.0
    for rank in (2, 3):
        for i in range(per_rank):
            case = (rank - 2) * per_rank + i
            n = max(DIMS[i % len(DIMS)], rank + 1)
            field = _COMPLEX if i % 2 else _REAL
            phi = induce(random_semilinear(rng, n, field))
            p = random_idempotent(rng, n, rank, field)
            base = decompose(p)
            try:
                first = extend(phi, p, decomposition=base).matrix
                second = extend(phi, p, decomposition=remix_decomposition(rng, base)).matrix
            except Exception as exc:
                failures.append(_raised(case, exc))
                continue
            err = float(np.linalg.norm(first - second) / np.linalg.norm(first))
            worst = max(worst, err)
            if err > threshold:
                failures.append(f"case {case} (rank {rank}, n={n}, {field.value}): "
                                f"relative disagreement {err:.2e}")
    return (2 * per_rank, failures,
            f"{per_rank} rank-2 + {per_rank} rank-3 cases, "
            f"worst relative disagreement {worst:.2e} (threshold {threshold:.1e})")


@_suite("majorant_order")
def suite_majorant(rng, budget):
    """The common majorant dominates both inputs under ``relate``."""
    cases = min(budget, 200)
    failures = []
    for i in range(cases):
        n = DIMS[i % len(DIMS)]
        field = _COMPLEX if i % 2 else _REAL
        p1 = random_idempotent(rng, n, int(rng.integers(1, n)), field)
        p2 = random_idempotent(rng, n, int(rng.integers(1, n)), field)
        try:
            big = majorant(p1, p2)
        except Exception as exc:
            failures.append(_raised(i, exc))
            continue
        dominated = [relate(p, big).p_leq_q for p in (p1, p2)]
        if big.rank > n or not all(dominated):
            failures.append(f"case {i} (n={n}, {field.value}): rank {big.rank}, "
                            f"P1 <= P: {dominated[0]}, P2 <= P: {dominated[1]}")
    return cases, failures, f"{cases} random pairs, {len(failures)} not dominated"


def _metric(rng, n, field, index):
    """Cycle through structured metrics, non-self-adjoint ones included;
    returns the metric and whether it is non-self-adjoint."""
    kind = index % 5
    dtype = field.dtype
    if kind == 0:
        return np.eye(n, dtype=dtype), False
    if kind == 1:
        d = np.ones(n)
        d[n // 2:] = -1.0
        return np.diag(d).astype(dtype), False
    if kind == 2:  # identity plus strict upper triangle
        upper = np.triu(random_invertible(rng, n, field, max_cond=1e3), 1)
        return np.eye(n, dtype=dtype) + 0.5 * upper, True
    if kind == 3 and field is _COMPLEX:
        h = random_invertible(rng, n, field, max_cond=1e3)
        h = h + h.conj().T  # Hermitian, generically indefinite
        if np.linalg.cond(h) > 1e4:
            h = h + 2 * np.eye(n)
        return h, False
    m = random_invertible(rng, n, field, max_cond=1e3)
    return m, bool(np.linalg.norm(m - m.conj().T) > 1e-12)


@_suite("symmetry_sufficiency")
def suite_sufficiency(rng, budget):
    """Generated metric isometries are symmetries with the right constant."""
    count, pairs = min(50, max(4, budget // 4)), max(10, min(budget, 1000))
    failures = []
    non_self_adjoint = 0
    dims = DIMS[:4]
    for i in range(count):
        n = dims[i % len(dims)]
        field = _REAL if i % 5 == 4 else _COMPLEX
        eta, nonsa = _metric(rng, n, field, i)
        non_self_adjoint += nonsa
        space = IndefiniteSpace(eta)
        scale = float(rng.uniform(0.5, 4.0))
        v = generate_eta_isometry(space, _seed(rng), scale=scale)
        ch = characterize(space, v)
        case = f"case {i} (n={n}, {field.value})"
        if ch.kind is not SymmetryKind.LINEAR or abs(ch.constant - scale) > 1e-8:
            failures.append(f"{case}: characterized {ch.kind.value} with "
                            f"constant {ch.constant}, expected {scale}")
            continue
        c = float(rng.uniform(0.5, 2.0))
        scaled = SemilinearOperator(c * v.matrix, v.auto)
        report = is_symmetry(space, induced_ray_map(scaled), sample_count=pairs, seed=_seed(rng))
        if report.pairs_tested != pairs or report.violations:
            failures.append(f"{case}: {len(report.violations)} violations in "
                            f"{report.pairs_tested}/{pairs} pairs")
    if non_self_adjoint < count // 5:
        failures.append(f"only {non_self_adjoint} non-self-adjoint metrics")
    return (count, failures,
            f"{count} isometries x {pairs} pairs ({non_self_adjoint} "
            f"non-self-adjoint metrics), {len(failures)} failures")


@_suite("symmetry_necessity")
def suite_necessity(rng, budget):
    """Generic operators are flagged and their ray maps caught violating."""
    count, pairs = min(50, max(4, budget // 4)), max(10, min(budget, 1000))
    failures = []
    dims = DIMS[:4]
    for i in range(count):
        n = dims[i % len(dims)]
        field = _COMPLEX if i % 2 else _REAL
        space = IndefiniteSpace(_metric(rng, n, field, i)[0])
        u = random_semilinear(rng, n, field, auto=_ID)
        ch = characterize(space, u)
        case = f"case {i} (n={n}, {field.value})"
        if ch.kind is not SymmetryKind.NONE:
            failures.append(f"{case}: characterized {ch.kind.value} with "
                            f"constant {ch.constant}, expected none")
            continue
        report = is_symmetry(space, induced_ray_map(u), sample_count=pairs, seed=_seed(rng))
        if not report.violations:
            failures.append(f"{case}: no violation in {report.pairs_tested} pairs")
    return (count, failures,
            f"{count} generic operators x {pairs} pairs, "
            f"{len(failures)} failures")


@_suite("symmetry_recovery")
def suite_recovery(rng, budget):
    """The inducing operator of a symmetry is recovered up to a scalar."""
    count = min(50, max(4, budget // 4))
    threshold = 1e-6
    failures = []
    worst = 0.0
    conjugate_cases = 0
    dims = DIMS[:4]
    for i in range(count):
        n = dims[i % len(dims)]
        if i % 3 == 2:
            # A real metric inside the complex space admits conjugate-linear
            # symmetries: a real isometry times a phase.
            eta, _ = _metric(rng, n, _REAL, i)
            v = generate_eta_isometry(IndefiniteSpace(eta), _seed(rng))
            phase = np.exp(2j * np.pi * rng.uniform())
            u = SemilinearOperator(phase * v.matrix.astype(np.complex128), _CONJ)
            space = IndefiniteSpace(eta.astype(np.complex128))
            conjugate_cases += 1
        else:
            field = _REAL if i % 4 == 3 else _COMPLEX
            space = IndefiniteSpace(_metric(rng, n, field, i)[0])
            u = generate_eta_isometry(space, _seed(rng),
                                      scale=float(rng.uniform(0.5, 3.0)))
        try:
            result = recover_inducing_operator(space, induced_ray_map(u),
                                               validation_count=20, seed=_seed(rng))
        except NotInduced as exc:
            failures.append(_raised(i, exc))
            continue
        dist = up_to_scalar_distance(result.A.matrix,
                                     u.matrix / np.linalg.norm(u.matrix))
        worst = max(worst, dist)
        if dist > threshold or result.A.auto is not u.auto:
            failures.append(f"case {i} (n={n}, {u.auto.value}): recovered tag "
                            f"{result.A.auto.value}, distance {dist:.2e}")
    return (count, failures,
            f"{count} recoveries ({conjugate_cases} conjugate-linear), "
            f"worst distance {worst:.2e} (threshold {threshold:.1e})")


SUITES = (
    suite_roundtrip,
    suite_preservation,
    suite_trace_identity,
    suite_extension,
    suite_majorant,
    suite_sufficiency,
    suite_necessity,
    suite_recovery,
)


def run_all(seed=42, budget=200) -> list[SuiteResult]:
    if budget < 0:
        raise ValueError(f"selftest budget must be >= 0, got {budget}")
    rng = np.random.default_rng(seed)
    return [suite(rng, budget) for suite in SUITES]
