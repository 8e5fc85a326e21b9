"""Command-line frontend: JSON in, JSON reports out.

Commands
--------
``reconstruct``  recover the inducing operator of a map given either as
                 an operator to wrap (round-trip demos) or as a
                 probe-response table covering the documented probe set.
``symmetry``     characterize an operator against a metric, or recover
                 the inducing operator of the ray map it induces.
``selftest``     run the built-in verification suites.

Each input states each fact once, and the library's decoders and constructors
check it: ``reconstruct`` reads ``{"phi"}``, and ``symmetry`` reads ``{"eta",
"operator"}`` in the mode of its ``--mode`` flag (never of an input key).

Exit codes: 0 success, 1 malformed input (input nested deeper than 64 levels
included), bad arguments or singular matrices, 2 the map is not induced / the
operator is not a symmetry, 3 selftest failures.
Reports are one line of sorted-key JSON; same config and seed, same bytes.
"""

from __future__ import annotations

import argparse
import functools
import gc
import sys

from . import __version__
from .errors import DegenerateImage, DegenerateProbe, NotInduced, UnrecognizedAutomorphism
from .indefinite import SymmetryKind, characterize, induced_ray_map, is_symmetry, \
    recover_inducing_operator
from .selftest import run_all
from .serialize import (
    FormatError,
    _field_from_json,
    _key,
    _n_from_json,
    dumps_report,
    loads_input,
    rank_ones_from_json,
    rank_ones_to_json,
    scalar_to_json,
    semilinear_from_json,
    semilinear_to_json,
    space_from_json,
    vector_to_json,
)
from .transform import handle_from_table, induce, reconstruct

EXIT_OK = 0
EXIT_MALFORMED = 1
EXIT_NEGATIVE = 2
EXIT_SELFTEST = 3

_NEGATIVE_ERRORS = (NotInduced, DegenerateProbe, UnrecognizedAutomorphism,
                    DegenerateImage)
# Every refusal of malformed input, orjson's decode errors included, is a ``ValueError``.
_MALFORMED_ERRORS = (ValueError, KeyError, TypeError)


def _add_io_flags(p):
    p.add_argument("--in", dest="inp", required=True, help="input JSON path")
    p.add_argument("--out", dest="out", default=None, help="report JSON path")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--samples", type=int, default=500, help="sampling/validation budget")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="idemap",
        description="maps on rank-one idempotents and indefinite-space symmetries",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_rec = sub.add_parser("reconstruct", help="recover an inducing operator")
    _add_io_flags(p_rec)

    p_sym = sub.add_parser("symmetry", help="characterize or recover a symmetry")
    _add_io_flags(p_sym)
    p_sym.add_argument("--mode", choices=["characterize", "recover"], default="characterize")

    p_self = sub.add_parser("selftest", help="run the verification suites")
    p_self.add_argument("--seed", type=int, default=42)
    p_self.add_argument("--samples", type=int, default=200,
                        help="budget per suite (0 = vacuous pass)")
    p_self.add_argument("--out", dest="out", default=None,
                        help="optional JSON summary path")
    return parser


_parser = functools.cache(build_parser)  # the one parser main uses in a process


def _emit(args, report, summary_line):
    text = dumps_report(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(summary_line)
    else:
        sys.stdout.write(text)


def _report(args, command, **body):
    """The report of ``command``: the version, the seed and the config of
    ``args``, and ``body``."""
    config = {"command": command, "seed": args.seed, "samples": args.samples}
    return {"version": __version__, "seed": args.seed, "config": config, **body}


def _read(args):
    """The JSON object in the ``--in`` file; any other top level is refused."""
    with open(args.inp, "rb") as fh:
        payload = loads_input(fh.read())
    if not isinstance(payload, dict):
        raise FormatError("input must be a JSON object")
    return payload


def _load_phi(payload):
    phi_def = _key(payload, "phi")
    if not isinstance(phi_def, dict):
        raise FormatError("phi must be a JSON object")
    mode = phi_def.get("mode")
    if mode == "induced":
        return induce(semilinear_from_json(_key(phi_def, "operator")))
    if mode == "table":
        n = _n_from_json(_key(phi_def, "n"))
        field = _field_from_json(phi_def)
        payloads = [_key(e, k) for e in _key(phi_def, "probes") for k in ("in", "out")]
        ps = rank_ones_from_json(payloads)
        return handle_from_table(zip(ps[0::2], ps[1::2]), n, field)
    raise FormatError(f"unknown phi mode {mode!r}")


def cmd_reconstruct(args) -> int:
    phi = _load_phi(_read(args))
    result = reconstruct(phi, validation_count=args.samples, seed=args.seed)
    report = _report(args, "reconstruct",
                     A=semilinear_to_json(result.A),
                     auto=result.A.auto.value,
                     residual=result.residual,
                     probes=result.probes_used,
                     probe_set=rank_ones_to_json(*result.probes.rows))
    _emit(args, report,
          f"reconstructed operator: auto={result.A.auto.value} "
          f"residual={result.residual:.3e} probes={result.probes_used}")
    return EXIT_OK


def cmd_symmetry(args) -> int:
    payload = _read(args)
    if "mode" in payload:
        # Ignoring the key would turn a recover request into a characterize report.
        raise FormatError("the symmetry mode is the --mode flag, not an input key 'mode'")
    space = space_from_json({"eta": _key(payload, "eta")})
    u = semilinear_from_json(_key(payload, "operator"))
    if u.n != space.n:
        raise FormatError("operator dimension does not match eta")

    if args.mode == "recover":
        result = recover_inducing_operator(space, induced_ray_map(u),
                                           validation_count=args.samples,
                                           seed=args.seed)
        report = _report(args, "symmetry.recover",
                         U=semilinear_to_json(result.A),
                         auto=result.A.auto.value,
                         residual=result.residual,
                         probes=result.probes_used)
        _emit(args, report,
              f"recovered inducing operator: auto={result.A.auto.value} "
              f"residual={result.residual:.3e}")
        return EXIT_OK

    ch = characterize(space, u)
    check = is_symmetry(space, induced_ray_map(u), sample_count=args.samples, seed=args.seed)
    constant = scalar_to_json(ch.constant) if ch.constant is not None else None
    violations = [{"x": vector_to_json(v.first, space.field),
                   "y": vector_to_json(v.second, space.field),
                   "source_margin": v.source_margin,
                   "image_margin": v.image_margin}
                  for v in check.violations]
    report = _report(args, "symmetry.characterize",
                     characterization={"kind": ch.kind.value, "constant": constant},
                     symmetry_check={"violations": violations,
                                     "pairs": check.pairs_tested})
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
    results = run_all(seed=args.seed, budget=args.samples)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] {r.name}: {r.detail} ({r.cases} cases)")
        for reason in r.failures:
            print(f"    {reason}")
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} suites passed")
    if args.out:
        report = _report(args, "selftest", suites=[
            {"name": r.name, "passed": r.passed, "cases": r.cases,
             "detail": r.detail, "failures": list(r.failures)}
            for r in results
        ])
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(dumps_report(report))
    return EXIT_SELFTEST if failed else EXIT_OK


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        if exc.code:  # a usage error: argparse's status 2 means EXIT_NEGATIVE here
            return EXIT_MALFORMED
        raise
    handlers = {
        "reconstruct": cmd_reconstruct,
        "symmetry": cmd_symmetry,
        "selftest": cmd_selftest,
    }
    # A command's decoded input is many small lists and dicts, none in a
    # reference cycle, so the cyclic collector would only walk them: it is
    # paused for the command, and left as it was found on every way out.
    collecting = gc.isenabled()
    gc.disable()
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
    finally:
        if collecting:
            gc.enable()


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
