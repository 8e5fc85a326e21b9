"""The benchmark's four workloads: inputs, operations and references.

Each workload function takes a seeded ``numpy.random.Generator`` and
returns a fixed list of :class:`Op`.  An op's ``run`` is the call into
idemap; its ``check`` compares the returned value with a reference
computed with numpy at set-up and returns ``None`` when they agree, or
the kind of failure.  An op's ``mode`` is ``CYCLE`` (timed, once per
workload cycle), ``ONCE`` (run and checked once per run after the timed
loop, counted with the cycle's outcomes but not timed) or ``SWEEP`` (run
once after the timed loop, outcomes reported on their own).  Ops look
idemap names up at call time, so the traced run's wrappers see every
call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import idemap
import idemap.cli
import inputs as gen

#: Latency classes: n <= SMALL_MAX is "small" (the acceptance-corpus
#: sizes), n >= LARGE_MIN is "large".
SMALL_MAX = 8
LARGE_MIN = 16

CYCLE, ONCE, SWEEP = "cycle", "once", "sweep"

#: Condition numbers of the ill-conditioned quarter of ``recover``.
ILL_KAPPAS = tuple(np.logspace(4.0, 9.0, 6))


@dataclass
class Op:
    kind: str
    n: int
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    mode: str = CYCLE
    #: Scaled by the LAPACK kernel, not the numpy one (see ``worker.py``).
    lapack: bool = False


def _field(cplx):
    return idemap.ScalarField.COMPLEX if cplx else idemap.ScalarField.REAL


def _tag(conj):
    return idemap.AutomorphismTag.CONJUGATION if conj else idemap.AutomorphismTag.IDENTITY


def _h(conj):
    return np.conj if conj else (lambda v: v)


def _combos(sizes):
    """(n, complex field, conjugation tag) for each size: real, complex
    linear and complex conjugate-linear."""
    for n in sizes:
        yield n, False, False
        yield n, True, False
        yield n, True, True


def _seed(rng):
    return int(rng.integers(2**31))


def _expect_violations(expected):
    def check(report):
        return None if bool(report.violations) == expected else "wrong_verdict"
    return check


def _expect_operator(matrix, tag, kappa):
    threshold = gen.recovery_threshold(kappa)

    def check(result):
        if result.A.auto is not tag:
            return "wrong_tag"
        if gen.up_to_scalar_distance(result.A.matrix, matrix) > threshold:
            return "wrong_operator"
        return None
    return check


# -- sample -----------------------------------------------------------------

SAMPLE_SIZES = (3, 6, 16, 64)


def _induced_callable(a, dual, conj):
    def eval_fn(p):
        y, g = gen.induced_rank_one(a, dual, conj, p.x, p.f)
        return idemap.RankOneIdempotent(y, g)
    return eval_fn


def _ray_callable(u, conj):
    h = _h(conj)
    return lambda ray: idemap.Ray(u @ h(ray.representative))


def _symmetry_pair(rng, n, cplx, conj, kappa_v=None, scale=1.0):
    """Metric and a symmetry's operator matrix.  A conjugate-linear
    symmetry needs a real metric: ``U = phase * V`` with ``V`` a real
    isometry, acting on complex coordinates after conjugation."""
    if conj:
        eta, v = gen.metric_and_isometry(rng, n, False, kappa_v=kappa_v, scale=scale)
        phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        return eta.astype(complex), phase * v
    return gen.metric_and_isometry(rng, n, cplx, kappa_v=kappa_v, scale=scale)


def build_sample(rng, workdir=None):
    """``check_preservation`` and ``is_symmetry`` at the default 500 pairs.

    Per size and (field, tag): an induced map (positive) and a transpose
    map (negative) for ``check_preservation``, and for ``is_symmetry``
    either a metric symmetry or the ray map of a generic operator.  Each
    handle is native or black-box in turn, so half are black-box: a plain
    callable in ``TransformHandle`` or ``RayMap``, or ``from_ray_pair``.
    Two thirds of each class are ``check_preservation`` calls, so both
    percentiles fall among them and not between the two costs.
    """
    ops = []
    for k, (n, cplx, conj) in enumerate(_combos(SAMPLE_SIZES)):
        field, tag, h = _field(cplx), _tag(conj), _h(conj)
        a, _ = gen.acceptance_operator(rng, n, cplx)
        dual = np.linalg.inv(a.T)
        if k % 4 == 1:
            induced = idemap.TransformHandle(_induced_callable(a, dual, conj), n, field)
        elif k % 4 == 2:
            rays = idemap.RayPair(lambda x, a=a, h=h: a @ h(x),
                                  lambda f, d=dual, h=h: d @ h(f))
            induced = idemap.from_ray_pair(rays, n, field)
        else:
            induced = idemap.induce(idemap.SemilinearOperator(a, tag))
        if k % 2:
            flipped = idemap.transpose_handle(n, field)
        else:
            flipped = idemap.TransformHandle(
                lambda p: idemap.RankOneIdempotent(p.f, p.x), n, field)
        for phi, violates in ((induced, False), (flipped, True)):
            ops.append(Op("check_preservation", n,
                          lambda phi=phi, s=_seed(rng): idemap.check_preservation(phi, seed=s),
                          _expect_violations(violates)))

        symmetric = k % 2 == 0
        eta, u = _symmetry_pair(rng, n, cplx, conj, scale=float(rng.uniform(0.5, 2.0)))
        if not symmetric:
            u, _ = gen.acceptance_operator(rng, n, cplx)
        if k % 4 in (1, 2):
            t = idemap.RayMap(_ray_callable(u, conj))
        else:
            t = idemap.induced_ray_map(idemap.SemilinearOperator(u, tag))
        space = idemap.IndefiniteSpace(eta)
        ops.append(Op("is_symmetry", n,
                      lambda t=t, sp=space, s=_seed(rng): idemap.is_symmetry(sp, t, seed=s),
                      _expect_violations(not symmetric)))
    return ops


# -- recover ----------------------------------------------------------------

#: n = 16 appears three times so that n = 16 and n = 64, whose costs
#: differ, split the large class 3:1 and neither percentile sits between.
RECOVER_SIZES = (3, 4, 5, 6, 7, 8, 16, 16, 16, 64)


def build_recover(rng, workdir=None):
    """``reconstruct(induce(A))`` and ``recover_inducing_operator`` at the
    default 50 validation probes.  The cycle's ops are drawn like the
    acceptance corpus (condition at most 1e3).  Every fourth op has a
    prescribed condition number from ``ILL_KAPPAS`` and is a ``SWEEP``
    op: this conditioning sweep runs once per run, and most of it fails
    at this commit (``NotInduced``, ``UnrecognizedAutomorphism``).  Its
    failures are reported on their own, so that the timed loop's outcome
    counts do not depend on how many cycles fit in the run."""
    ops = []
    i = 0
    for n, cplx, conj in _combos(RECOVER_SIZES):
        tag = _tag(conj)
        for kind in ("reconstruct", "recover_inducing_operator"):
            ill = i % 4 == 3
            kappa = ILL_KAPPAS[(i // 4) % len(ILL_KAPPAS)] if ill else None
            i += 1
            if kind == "reconstruct":
                if kappa is None:
                    m, kappa = gen.acceptance_operator(rng, n, cplx)
                else:
                    m = gen.with_condition(rng, n, cplx, kappa)
                op = idemap.SemilinearOperator(m, tag)
                run = lambda op=op: idemap.reconstruct(idemap.induce(op))
            else:
                eta, m = _symmetry_pair(rng, n, cplx, conj, kappa_v=kappa)
                if kappa is None:
                    kappa = gen.cond(m)
                space = idemap.IndefiniteSpace(eta)
                op = idemap.SemilinearOperator(m, tag)
                run = lambda space=space, op=op: idemap.recover_inducing_operator(
                    space, idemap.induced_ray_map(op))
            ops.append(Op(kind, n, run, _expect_operator(m, tag, kappa),
                          mode=SWEEP if ill else CYCLE))
    return ops


# -- algebra ----------------------------------------------------------------

ALGEBRA_SIZES = (3, 4, 5, 6, 7, 8, 16, 24)
#: Generation at complex n = 32 is the largest that fits; complex n = 64
#: would take the SVD of an 8192 x 8192 realified system (several GB).
GENERATION_EXTRA = ((32, True),)
#: Generations run as ``ONCE`` ops: checked and counted once per run, in
#: ``peak_rss_mb`` but not in the latencies.  At about 1 s (complex
#: n = 24) and 4-5 s (complex n = 32) a call they would be most of a
#: cycle's time and leave few cycles in a run for a steady median.
GENERATION_ONCE = {(24, True), (32, True)}
#: More generations of about 100 ms each (complex n = 16, real n = 24), so
#: that the large class's p90 falls among five of them and not at the
#: edge between them and the cheaper ops.
GENERATION_MID = ((16, True), (24, False), (16, True))
LARGE_ONLY_SIZE = 64


def _rel_close(value, reference, rtol=1e-8):
    return np.linalg.norm(value - reference) <= rtol * max(1.0, np.linalg.norm(reference))


def _expect_matrix(reference):
    def check(result):
        return None if _rel_close(result.matrix, reference) else "wrong_result"
    return check


def _extend_ops(rng, n, cplx, conj):
    tag, h = _tag(conj), _h(conj)
    a, _ = gen.acceptance_operator(rng, n, cplx)
    a_inv = np.linalg.inv(a)
    phi = idemap.induce(idemap.SemilinearOperator(a, tag))
    rank = max(1, n // 2)
    p, s, s_inv = gen.idempotent(rng, n, rank, cplx)
    pieces = [idemap.RankOneIdempotent(x, f)
              for x, f in gen.remixed_pieces(rng, s, s_inv, rank, cplx)]
    reference = a @ h(p) @ a_inv
    ops = [
        Op("extend", n, lambda: idemap.extend(phi, p), _expect_matrix(reference)),
        Op("extend_remixed", n, lambda: idemap.extend(phi, p, decomposition=pieces),
           _expect_matrix(reference)),
    ]
    return ops, phi, p, h


def _trace_identity_op(rng, n, cplx, phi, p, h):
    q, _, _ = gen.idempotent(rng, n, max(1, n - n // 3), cplx)
    rhs = h(np.trace(p @ q))

    def run():
        return idemap.extend(phi, p).matrix, idemap.extend(phi, q).matrix

    def check(result):
        e1, e2 = result
        err = abs(np.trace(e1 @ e2) - rhs)
        return None if err <= 1e-8 * np.linalg.norm(e1) * np.linalg.norm(e2) else "wrong_result"

    return Op("trace_identity", n, run, check)


def _majorant_op(rng, n, cplx):
    rank = max(1, n // 4)
    p1, _, _ = gen.idempotent(rng, n, rank, cplx)
    p2, _, _ = gen.idempotent(rng, n, rank, cplx)

    def run():
        m = idemap.majorant(p1, p2)
        return m, idemap.relate(p1, m).p_leq_q and idemap.relate(p2, m).p_leq_q

    def check(result):
        m, verdict = result
        if not verdict:
            return "wrong_verdict"
        mm = m.matrix
        scale = 1.0 + np.linalg.norm(mm)
        if np.linalg.norm(mm @ mm - mm) > 1e-8 * scale**2:
            return "wrong_result"
        for pi in (p1, p2):
            tol = 1e-8 * scale * (1.0 + np.linalg.norm(pi))
            if max(np.linalg.norm(mm @ pi - pi), np.linalg.norm(pi @ mm - pi)) > tol:
                return "wrong_result"
        return None

    return Op("majorant", n, run, check)


def _expect_characterization(kind, constant):
    def check(ch):
        if ch.kind is not kind:
            return "wrong_verdict"
        if constant is not None and abs(ch.constant - constant) > 1e-7 * abs(constant):
            return "wrong_result"
        return None
    return check


def _generation_op(rng, n, cplx, index):
    eta = gen.eta_corpus(rng, n, cplx, index)
    scale = float(rng.uniform(0.5, 4.0))
    seed = _seed(rng)
    expect = _expect_characterization(idemap.SymmetryKind.LINEAR, scale)
    mode = ONCE if (n, cplx) in GENERATION_ONCE else CYCLE

    def run():
        space = idemap.IndefiniteSpace(eta)
        v = idemap.generate_eta_isometry(space, seed, scale=scale)
        return v, idemap.characterize(space, v)

    def check(result):
        v, ch = result
        try:
            gen.check_isometry(v.matrix, eta, scale, rtol=1e-8)
        except ArithmeticError:
            return "wrong_result"
        return expect(ch)

    return Op("generate_eta_isometry", n, run, check, mode, lapack=n >= LARGE_MIN)


def _characterize_op(eta, u, kind, constant):
    op = idemap.SemilinearOperator(u)
    return Op("characterize", eta.shape[0],
              lambda: idemap.characterize(idemap.IndefiniteSpace(eta), op),
              _expect_characterization(kind, constant))


def build_algebra(rng, workdir=None):
    """Finite-rank and metric algebra: ``extend`` (pivoted-QR and remixed
    decompositions), the trace identity, ``majorant`` checked by
    ``relate``, and a fresh ``IndefiniteSpace`` + ``generate_eta_isometry``
    + ``characterize`` over a metric corpus that includes metrics which
    are not self-adjoint.  At n = 64 generation is replaced by
    ``characterize`` of a known isometry and of a generic operator.
    Generation at ``GENERATION_ONCE`` sizes runs once per run."""
    ops = []
    index = 0
    for n in ALGEBRA_SIZES:
        for cplx in (False, True):
            conj = cplx and n % 2 == 1
            extend_ops, phi, p, h = _extend_ops(rng, n, cplx, conj)
            ops += extend_ops
            ops.append(_trace_identity_op(rng, n, cplx, phi, p, h))
            ops.append(_majorant_op(rng, n, cplx))
            ops.append(_generation_op(rng, n, cplx, index))
            index += 1
    for n, cplx in GENERATION_MID + GENERATION_EXTRA:
        ops.append(_generation_op(rng, n, cplx, index))
        index += 1
    n = LARGE_ONLY_SIZE
    for cplx in (False, True):
        ops += _extend_ops(rng, n, cplx, cplx)[0]
        ops.append(_majorant_op(rng, n, cplx))
        scale = float(rng.uniform(0.5, 4.0))
        eta, v = gen.metric_and_isometry(rng, n, cplx, scale=scale)
        ops.append(_characterize_op(eta, v, idemap.SymmetryKind.LINEAR, scale))
        g, _ = gen.acceptance_operator(rng, n, cplx)
        ops.append(_characterize_op(eta, g, idemap.SymmetryKind.NONE, None))
    return ops


# -- cli --------------------------------------------------------------------

CLI_SMALL_SIZES = (3, 4, 5, 6, 7, 8)
CLI_LARGE_SIZE = 16
#: Validation probes (reconstruct, recover) or sampled pairs (characterize).
CLI_SAMPLES = "50"
SELFTEST_SAMPLES = "4"
SELFTEST_SUITES = 8
#: ``selftest`` runs its suites at n = 3..6.
SELFTEST_N = 6


def _cli_call(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return idemap.cli.main(argv)


def _read_report(path):
    with open(path) as fh:
        return json.load(fh)


def _cli_op(kind, n, argv, expected_exit, check_report):
    out = argv[argv.index("--out") + 1]

    def check(code):
        report = None
        if os.path.exists(out):
            report = _read_report(out)
            os.remove(out)  # the next repetition must write its own
        if code != expected_exit:
            # A nonzero exit signals the failure; exit 0 on a negative
            # case is a silent wrong verdict.
            return "wrong_exit_code" if code == 0 else f"exit_{code}"
        return check_report(report) if report is not None else "wrong_report"

    return Op(kind, n, lambda: _cli_call(argv), check)


def _expect_operator_report(matrix, conj, key, kappa):
    threshold = gen.recovery_threshold(kappa)
    auto = "conj" if conj else "id"

    def check(report):
        if report.get("auto") != auto or report[key].get("auto") != auto:
            return "wrong_report"
        if gen.up_to_scalar_distance(gen.decode_matrix(report[key]), matrix) > threshold:
            return "wrong_report"
        return None
    return check


def _expect_characterize_report(kind, constant):
    def check(report):
        ch = report["characterization"]
        violations = report["symmetry_check"]["violations"]
        if ch["kind"] != kind or bool(violations) != (kind == "none"):
            return "wrong_report"
        if constant is not None and abs(complex(*ch["constant"]) - constant) > 1e-7 * constant:
            return "wrong_report"
        return None
    return check


def _expect_selftest_report(report):
    suites = report["suites"]
    if len(suites) != SELFTEST_SUITES or not all(s["passed"] for s in suites):
        return "wrong_report"
    return None


def _table_payload(a, conj, n, cplx, seed):
    """Probe-response table of the map induced by ``a``.  The inputs are
    idemap's documented probe set (the table must cover exactly it); the
    responses are computed here with numpy."""
    dual = np.linalg.inv(a.T)
    probes = idemap.reconstruction_probe_set(n, _field(cplx), int(CLI_SAMPLES), seed)
    rows = []
    for p in probes.all_probes():
        y, g = gen.induced_rank_one(a, dual, conj, p.x, p.f)
        rows.append({"in": gen.rank_one_json(p.x, p.f), "out": gen.rank_one_json(y, g)})
    return {"phi": {"mode": "table", "n": n, "field": "complex" if cplx else "real",
                    "probes": rows}}


def _cli_size_ops(rng, workdir, n, cplx, conj, tag_id):
    ops = []
    seed = _seed(rng)
    flags = ["--samples", CLI_SAMPLES, "--seed", str(seed)]

    def paths(name):
        stem = os.path.join(workdir, f"{name}-{tag_id}")
        return stem + ".json", stem + "-report.json"

    a, ka = gen.acceptance_operator(rng, n, cplx)
    inp, out = paths("induced")
    gen.write_json(inp, {"phi": {"mode": "induced", "operator": gen.operator_json(a, conj)}})
    ops.append(_cli_op("cli_reconstruct_induced", n,
                       ["reconstruct", "--in", inp, "--out", out, *flags], 0,
                       _expect_operator_report(a, conj, "A", ka)))

    a, ka = gen.acceptance_operator(rng, n, cplx)
    inp, out = paths("table")
    gen.write_json(inp, _table_payload(a, conj, n, cplx, seed))
    ops.append(_cli_op("cli_reconstruct_table", n,
                       ["reconstruct", "--in", inp, "--out", out, *flags], 0,
                       _expect_operator_report(a, conj, "A", ka)))

    scale = float(rng.uniform(0.5, 2.0))
    eta, u = _symmetry_pair(rng, n, cplx, conj, scale=scale)
    kind = "conjugate" if conj else "linear"
    inp, out = paths("symmetric")
    gen.write_json(inp, {"eta": gen.matrix_json(eta), "operator": gen.operator_json(u, conj)})
    ops.append(_cli_op("cli_characterize", n,
                       ["symmetry", "--mode", "characterize", "--in", inp, "--out", out,
                        *flags], 0, _expect_characterize_report(kind, scale)))
    out_recover = paths("recover")[1]
    ops.append(_cli_op("cli_recover", n,
                       ["symmetry", "--mode", "recover", "--in", inp, "--out", out_recover,
                        *flags], 0, _expect_operator_report(u, conj, "U", gen.cond(u))))

    g, _ = gen.acceptance_operator(rng, n, cplx)
    inp, out = paths("generic")
    gen.write_json(inp, {"eta": gen.matrix_json(eta), "operator": gen.operator_json(g, conj)})
    ops.append(_cli_op("cli_characterize", n,
                       ["symmetry", "--mode", "characterize", "--in", inp, "--out", out,
                        *flags], 2, _expect_characterize_report("none", None)))
    return ops


def build_cli(rng, workdir):
    """In-process ``idemap.cli.main`` on JSON files written to ``workdir``:
    reconstruct from an induced operator and from a probe table, symmetry
    characterize (a symmetry, exit 0; a generic operator, exit 2) and
    recover, and selftest at a reduced budget."""
    ops = []
    for i, n in enumerate(CLI_SMALL_SIZES):
        cplx, conj = ((False, False), (True, False), (True, True))[i % 3]
        ops += _cli_size_ops(rng, workdir, n, cplx, conj, f"s{i}")
    for j, (n, cplx, conj) in enumerate(_combos((CLI_LARGE_SIZE,))):
        ops += _cli_size_ops(rng, workdir, n, cplx, conj, f"l{j}")
    for k in range(2):
        out = os.path.join(workdir, f"selftest-{k}-report.json")
        ops.append(_cli_op("cli_selftest", SELFTEST_N,
                           ["selftest", "--samples", SELFTEST_SAMPLES,
                            "--seed", str(_seed(rng)), "--out", out], 0,
                           _expect_selftest_report))
    return ops


WORKLOADS = {
    "sample": build_sample,
    "recover": build_recover,
    "algebra": build_algebra,
    "cli": build_cli,
}
