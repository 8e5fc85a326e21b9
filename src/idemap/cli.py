"""Command-line frontend: JSON in, JSON reports out.

Commands
--------
``reconstruct``  recover the inducing operator of a map given either as
                 an operator to wrap (round-trip demos) or as a
                 probe-response table covering the documented probe set.
``symmetry``     characterize an operator against a metric, or recover
                 the inducing operator of the ray map it induces.
``selftest``     run the built-in verification suites.

Exit codes: 0 success, 1 malformed input or singular matrices, 2 the
map is not induced / the operator is not a symmetry, 3 selftest
failures.  Reports are byte-identical for identical config and seed.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .core import ScalarField
from .errors import (
    DegenerateImage,
    DegenerateProbe,
    DegeneratePair,
    DimensionMismatch,
    NotIdempotent,
    NotInduced,
    SingularOperator,
    UnrecognizedAutomorphism,
)
from .indefinite import SymmetryKind, characterize, induced_ray_map, is_symmetry, \
    recover_inducing_operator
from .selftest import run_all
from .serialize import (
    FormatError,
    dumps_report,
    rank_one_from_json,
    rank_one_to_json,
    scalar_to_json,
    semilinear_from_json,
    semilinear_to_json,
    space_from_json,
    vector_to_json,
)
from .transform import handle_from_table, induce, reconstruct, reconstruction_probe_set

EXIT_OK = 0
EXIT_MALFORMED = 1
EXIT_NEGATIVE = 2
EXIT_SELFTEST = 3

_NEGATIVE_ERRORS = (NotInduced, DegenerateProbe, UnrecognizedAutomorphism,
                    DegenerateImage)
_MALFORMED_ERRORS = (FormatError, SingularOperator, DimensionMismatch,
                     NotIdempotent, DegeneratePair, KeyError, TypeError,
                     ValueError, json.JSONDecodeError)


def _add_io_flags(p, default_samples):
    p.add_argument("--in", dest="inp", required=True, help="input JSON path")
    p.add_argument("--out", dest="out", default=None, help="report JSON path")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--samples", type=int, default=default_samples,
                   help="sampling/validation budget")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--n", type=int, default=None,
                   help="expected dimension (checked against the input)")
    p.add_argument("--field", choices=["real", "complex"], default=None,
                   help="expected field (checked against the input)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="idemap",
        description="maps on rank-one idempotents and indefinite-space symmetries",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_rec = sub.add_parser("reconstruct", help="recover an inducing operator")
    _add_io_flags(p_rec, default_samples=500)

    p_sym = sub.add_parser("symmetry", help="characterize or recover a symmetry")
    _add_io_flags(p_sym, default_samples=500)
    p_sym.add_argument("--mode", choices=["characterize", "recover"], default=None,
                       help="override the mode stored in the input file")

    p_self = sub.add_parser("selftest", help="run the verification suites")
    p_self.add_argument("--seed", type=int, default=42)
    p_self.add_argument("--samples", type=int, default=200,
                        help="budget per suite (0 = vacuous pass)")
    p_self.add_argument("--tol", type=float, default=1e-8)
    p_self.add_argument("--out", dest="out", default=None,
                        help="optional JSON summary path")
    return parser


def _check_expectations(args, n, field):
    if n < 3:
        raise FormatError(f"dimension {n} is below the supported minimum of 3")
    if args.n is not None and args.n != n:
        raise FormatError(f"--n {args.n} does not match input dimension {n}")
    if args.field is not None and args.field != field.value:
        raise FormatError(
            f"--field {args.field} does not match input field {field.value}"
        )


def _emit(args, report, summary_line):
    text = dumps_report(report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(summary_line)
    else:
        sys.stdout.write(text)


def _config_dict(args, command):
    cfg = {"command": command, "seed": args.seed, "samples": args.samples,
           "tol": args.tol}
    if getattr(args, "n", None) is not None:
        cfg["n"] = args.n
    if getattr(args, "field", None) is not None:
        cfg["field"] = args.field
    return cfg


def _load_phi(args, payload):
    phi_def = payload.get("phi", payload)
    mode = phi_def.get("mode")
    if mode == "induced":
        op = semilinear_from_json(phi_def["operator"])
        _check_expectations(args, op.n, op.field)
        return induce(op), op.n, op.field
    if mode == "table":
        n = int(phi_def["n"])
        field = ScalarField(phi_def["field"])
        _check_expectations(args, n, field)
        entries = [
            (rank_one_from_json(e["in"]), rank_one_from_json(e["out"]))
            for e in phi_def["probes"]
        ]
        if not entries:
            raise FormatError("probe table is empty")
        return handle_from_table(entries, n, field), n, field
    raise FormatError(f"unknown phi mode {mode!r}")


def cmd_reconstruct(args) -> int:
    with open(args.inp) as fh:
        payload = json.load(fh)
    phi, n, field = _load_phi(args, payload)
    result = reconstruct(phi, validation_count=args.samples, seed=args.seed)
    probes = reconstruction_probe_set(n, field, args.samples, args.seed)
    report = {
        "version": __version__,
        "seed": args.seed,
        "config": _config_dict(args, "reconstruct"),
        "A": semilinear_to_json(result.A),
        "auto": result.A.auto.value,
        "residual": result.residual,
        "probes": result.probes_used,
        "probe_set": [rank_one_to_json(p) for p in probes.all_probes()],
    }
    _emit(args, report,
          f"reconstructed operator: auto={result.A.auto.value} "
          f"residual={result.residual:.3e} probes={result.probes_used}")
    return EXIT_OK


def cmd_symmetry(args) -> int:
    with open(args.inp) as fh:
        payload = json.load(fh)
    if "eta" in payload:
        space = space_from_json({"eta": payload["eta"]})
    else:
        space = space_from_json(payload.get("space", {}))
    mode = args.mode or payload.get("mode", "characterize")
    u = semilinear_from_json(payload["operator"])
    _check_expectations(args, space.n, space.field)
    if u.n != space.n:
        raise FormatError("operator dimension does not match eta")

    if mode == "recover":
        result = recover_inducing_operator(space, induced_ray_map(u),
                                           validation_count=args.samples,
                                           seed=args.seed)
        report = {
            "version": __version__,
            "seed": args.seed,
            "config": _config_dict(args, "symmetry.recover"),
            "U": semilinear_to_json(result.A),
            "auto": result.A.auto.value,
            "residual": result.residual,
            "probes": result.probes_used,
        }
        _emit(args, report,
              f"recovered inducing operator: auto={result.A.auto.value} "
              f"residual={result.residual:.3e}")
        return EXIT_OK

    if mode != "characterize":
        raise FormatError(f"unknown symmetry mode {mode!r}")
    ch = characterize(space, u)
    check = is_symmetry(space, induced_ray_map(u), sample_count=args.samples,
                        seed=args.seed, tol=args.tol)
    report = {
        "version": __version__,
        "seed": args.seed,
        "config": _config_dict(args, "symmetry.characterize"),
        "characterization": {
            "kind": ch.kind.value,
            "constant": scalar_to_json(ch.constant) if ch.constant is not None else None,
        },
        "symmetry_check": {
            "violations": [
                {
                    "x": vector_to_json(v.first, space.field),
                    "y": vector_to_json(v.second, space.field),
                    "source_margin": v.source_margin,
                    "image_margin": v.image_margin,
                }
                for v in check.violations
            ],
            "pairs": check.pairs_tested,
        },
    }
    _emit(args, report,
          f"characterization: kind={ch.kind.value} "
          f"violations={len(check.violations)}/{check.pairs_tested}")
    if ch.kind is SymmetryKind.NONE:
        return EXIT_NEGATIVE
    return EXIT_OK


def cmd_selftest(args) -> int:
    if args.samples == 0:
        print("warning: budget 0 makes every suite pass vacuously",
              file=sys.stderr)
    tol_scale = args.tol / 1e-8
    results = run_all(seed=args.seed, budget=args.samples, tol_scale=tol_scale)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] {r.name}: {r.detail} ({r.cases} cases)")
        for reason in r.failures:
            print(f"    {reason}")
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} suites passed")
    if args.out:
        report = {
            "version": __version__,
            "seed": args.seed,
            "config": {"command": "selftest", "seed": args.seed,
                       "samples": args.samples, "tol": args.tol},
            "suites": [
                {"name": r.name, "passed": r.passed, "cases": r.cases,
                 "detail": r.detail, "failures": list(r.failures)}
                for r in results
            ],
        }
        with open(args.out, "w") as fh:
            fh.write(dumps_report(report))
    return EXIT_SELFTEST if failed else EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "reconstruct": cmd_reconstruct,
        "symmetry": cmd_symmetry,
        "selftest": cmd_selftest,
    }
    try:
        return handlers[args.command](args)
    except _NEGATIVE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    except _MALFORMED_ERRORS as exc:
        print(f"error: malformed input: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
