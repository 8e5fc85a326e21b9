"""Span tracer for the traced run.

The tracer measures idemap from outside: it replaces the public
functions, constructors and the numpy/scipy kernels that idemap calls
with wrappers that record one span per call (name, start, end, parent).
Spans stay in memory and are written out once the run ends.  Aggregates
are kept on the fly: ``calls``, inclusive seconds ``s`` (outermost span
of a name only, so recursion is not counted twice), ``self_s`` (duration
minus the time covered by child spans) and ``fail`` (calls that raised).

Nothing is wrapped until :meth:`Tracer.install`, which untraced runs
never call.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from array import array

import numpy as np
import scipy.linalg

_perf = time.perf_counter


def _pairs(tracer, name, result):
    tracer.count(name, result.pairs_tested)


def _probes(tracer, result):
    tracer.count("transform.reconstruct.probes", result.probes_used)


def _bytes_out(tracer, result):
    tracer.count("serialize.bytes_out", len(result.encode()))


def _cli_main(tracer, args, result):
    argv = args[0] if args else []
    if "--in" in argv:
        tracer.count("serialize.bytes_in", os.path.getsize(argv[argv.index("--in") + 1]))
    if result != 0:
        tracer.count("cli.exit_nonzero", 1)


def _table_handle(tracer, result):
    # The nearest-match scan is the closure stored in the handle; wrap it
    # so that the table lookup is its own span.
    if hasattr(result, "_eval"):
        result._eval = tracer.wrap("transform.table_lookup", result._eval)
    else:
        print("tracing: table handle has no _eval; transform.table_lookup "
              "is not traced", file=sys.stderr)


# (module, attribute, span name, hook).  A hook receives the tracer, the
# call's positional arguments and the returned value.
FUNCTIONS = [
    ("idemap.core", "pair", "core.pair", None),
    ("idemap.core", "tensor", "core.tensor", None),
    ("idemap.core", "kernel_and_range", "core.kernel_and_range", None),
    ("idemap.core", "orthonormal_columns", "core.orthonormal_columns", None),
    ("idemap.idempotents", "rank_one_from_pair", "idempotents.rank_one_from_pair", None),
    ("idemap.idempotents", "decompose", "idempotents.decompose", None),
    ("idemap.idempotents", "majorant", "idempotents.majorant", None),
    ("idemap.idempotents", "relate", "idempotents.relate", None),
    ("idemap.transform", "check_preservation", "transform.check_preservation",
     lambda t, a, r: _pairs(t, "transform.pairs", r)),
    ("idemap.transform", "zero_product_partner", "transform.zero_product_partner", None),
    ("idemap.transform", "reconstruct", "transform.reconstruct",
     lambda t, a, r: _probes(t, r)),
    ("idemap.transform", "automorphism_of", "transform.automorphism_of", None),
    ("idemap.transform", "extend", "transform.extend", None),
    ("idemap.transform", "handle_from_table", "transform.handle_from_table",
     lambda t, a, r: _table_handle(t, r)),
    ("idemap.indefinite", "is_symmetry", "indefinite.is_symmetry",
     lambda t, a, r: _pairs(t, "indefinite.pairs", r)),
    ("idemap.indefinite", "eta_orthogonal_partner", "indefinite.eta_orthogonal_partner", None),
    ("idemap.indefinite", "characterize", "indefinite.characterize", None),
    ("idemap.indefinite", "generate_eta_isometry", "indefinite.generate_eta_isometry", None),
    ("idemap.indefinite", "recover_inducing_operator",
     "indefinite.recover_inducing_operator", None),
    ("idemap.sampling", "random_rank_one", "sampling.random_rank_one", None),
    ("idemap.sampling", "random_vector", "sampling.random_vector", None),
    ("idemap.serialize", "dumps_report", "serialize.dumps_report",
     lambda t, a, r: _bytes_out(t, r)),
    ("idemap.selftest", "run_all", "selftest.run_all", None),
    ("idemap.cli", "main", "cli.main", _cli_main),
]

#: Every ``*_from_json`` decoder is one span name.
FROM_JSON = ("matrix_from_json", "vector_from_json", "semilinear_from_json",
             "rank_one_from_json", "finite_rank_from_json", "space_from_json")

SUITES = ("suite_roundtrip", "suite_preservation", "suite_trace_identity",
          "suite_extension", "suite_majorant", "suite_sufficiency",
          "suite_necessity", "suite_recovery")

#: (class, method, span name).  ``TransformHandle`` is traced at
#: evaluation, since its constructor does no work.
METHODS = [
    ("idemap.core", "SemilinearOperator", "__init__", "core.SemilinearOperator"),
    ("idemap.idempotents", "RankOneIdempotent", "__init__", "idempotents.RankOneIdempotent"),
    ("idemap.idempotents", "FiniteRankIdempotent", "__init__",
     "idempotents.FiniteRankIdempotent"),
    ("idemap.transform", "TransformHandle", "__call__", "transform.TransformHandle"),
    ("idemap.indefinite", "IndefiniteSpace", "__init__", "indefinite.IndefiniteSpace"),
    ("idemap.indefinite", "Ray", "__init__", "indefinite.Ray"),
]

#: Kernels counted only when called from inside an idemap span, so the
#: benchmark's own numpy reference checks are not counted.
KERNELS = [
    (np.linalg, "svd", "linalg.svd"),
    (np.linalg, "inv", "linalg.inv"),
    (np.linalg, "lstsq", "linalg.lstsq"),
    (scipy.linalg, "qr", "linalg.qr"),
    (scipy.linalg, "expm", "linalg.expm"),
]


def _expand(spec):
    """``"a.{b,c}.{d,e}"`` -> ``["a.b.d", "a.b.e", "a.c.d", "a.c.e"]``."""
    if "{" not in spec:
        return [spec]
    head, rest = spec.split("{", 1)
    body, tail = rest.split("}", 1)
    return [name for part in body.split(",") for name in _expand(head + part + tail)]


#: Per-layer metrics of the traced run, in the order they are reported.
#: Values are per steady-state workload cycle; ``ok_ratio`` is a ratio.
PER_LAYER_SPECS = [
    "core.SemilinearOperator.{calls,self_s}",
    "core.{pair,tensor}.calls",
    "core.kernel_and_range.{calls,self_s}",
    "core.orthonormal_columns.calls",
    "linalg.svd.{calls,s}",
    "linalg.{inv,lstsq,qr}.calls",
    "linalg.expm.{calls,s}",
    "idempotents.{RankOneIdempotent,rank_one_from_pair,FiniteRankIdempotent,"
    "decompose,majorant,relate}.{calls,self_s}",
    "transform.TransformHandle.{calls,self_s}",
    "transform.check_preservation.{calls,s,self_s}",
    "transform.pairs",
    "transform.zero_product_partner.{calls,self_s}",
    "transform.reconstruct.{calls,s,self_s,fail,probes,ok_ratio}",
    "transform.automorphism_of.calls",
    "transform.extend.{calls,self_s}",
    "transform.table_lookup.{calls,self_s}",
    "indefinite.{IndefiniteSpace,Ray}.{calls,self_s}",
    "indefinite.is_symmetry.{calls,s,self_s}",
    "indefinite.pairs",
    "indefinite.eta_orthogonal_partner.calls",
    "indefinite.characterize.{calls,self_s}",
    "indefinite.generate_eta_isometry.{calls,s,self_s}",
    "indefinite.recover_inducing_operator.{calls,s,fail,ok_ratio}",
    "sampling.{random_rank_one,random_vector}.calls",
    "sampling.random_rank_one.self_s",
    "serialize.dumps_report.{calls,s}",
    "serialize.from_json.{calls,s}",
    "serialize.{bytes_in,bytes_out}",
    "selftest.run_all.s",
    "selftest.{" + ",".join(SUITES) + "}.s",
    "cli.main.{calls,s,self_s}",
    "cli.exit_nonzero",
]

UNITS = {"calls": "count", "s": "s", "self_s": "s", "fail": "count",
         "ok_ratio": "ratio", "probes": "count", "pairs": "count",
         "bytes_in": "bytes", "bytes_out": "bytes", "exit_nonzero": "count",
         "good_per_s": "ops/s"}


def _unit_better(name):
    kind = name.rsplit(".", 1)[1]
    better = "higher" if kind in ("ok_ratio", "pairs", "good_per_s") else "lower"
    return UNITS[kind], better


#: ``trace.good_per_s`` is goodput under tracing; the gap to the untraced
#: ``good_per_s`` is the tracing overhead.  ``sweep.ill_conditioned.*``
#: count the untimed ops of ``recover``'s conditioning sweep and those of
#: them that failed (zero on the other workloads).
PER_LAYER = [(name, *_unit_better(name))
             for spec in PER_LAYER_SPECS for name in _expand(spec)] + [
    ("trace.good_per_s", "ops/s", "higher"),
    ("sweep.ill_conditioned.ops", "count", "higher"),
    ("sweep.ill_conditioned.fail", "count", "lower")]


class Tracer:
    """In-memory span recorder with wrappers for idemap's layers."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("I")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []
        self._active: list[int] = []
        self.calls: list[int] = []
        self.incl: list[float] = []
        self.self_s: list[float] = []
        self.fail: list[int] = []
        self.counters: dict[str, float] = {}
        self._mark = None
        self._undo: list[tuple] = []

    def _id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            for lst, zero in ((self._active, 0), (self.calls, 0), (self.incl, 0.0),
                              (self.self_s, 0.0), (self.fail, 0)):
                lst.append(zero)
        return nid

    def count(self, name, amount):
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name, fn, hook=None, nested_only=False):
        nid = self._id(name)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if nested_only and not stack:
                return fn(*args, **kwargs)
            idx = len(self.span_name)
            self.span_name.append(nid)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_end.append(0.0)
            self._active[nid] += 1
            start = _perf()
            self.span_start.append(start)
            frame = [idx, start, 0.0]
            stack.append(frame)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = _perf()
                stack.pop()
                self.span_end[idx] = end
                dur = end - start
                self.calls[nid] += 1
                self.self_s[nid] += dur - frame[2]
                self._active[nid] -= 1
                if not self._active[nid]:
                    self.incl[nid] += dur
                if not ok:
                    self.fail[nid] += 1
                if stack:
                    stack[-1][2] += dur
            if hook is not None:
                hook(self, args, result)
            return result

        return wrapper

    def _replace_everywhere(self, original, wrapped, owners):
        for owner in owners:
            for key, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, key, wrapped)
                    self._undo.append((owner, key, original))

    def install(self):
        """Wrap every traced callable in all idemap modules that bind it."""
        import idemap  # noqa: F401  (the package must be importable)

        for mod in ("core", "idempotents", "transform", "indefinite", "sampling",
                    "serialize", "selftest", "cli"):
            importlib.import_module(f"idemap.{mod}")
        owners = [m for name, m in sys.modules.items()
                  if name == "idemap" or name.startswith("idemap.")]
        for modname, attr, name, hook in FUNCTIONS:
            original = getattr(sys.modules[modname], attr)
            self._replace_everywhere(original, self.wrap(name, original, hook), owners)
        serialize = sys.modules["idemap.serialize"]
        for attr in FROM_JSON:
            original = getattr(serialize, attr)
            self._replace_everywhere(
                original, self.wrap("serialize.from_json", original), owners)
        selftest = sys.modules["idemap.selftest"]
        wrapped_suites = {}
        for attr in SUITES:
            original = getattr(selftest, attr)
            wrapped_suites[original] = self.wrap(f"selftest.{attr}", original)
            self._replace_everywhere(original, wrapped_suites[original], owners)
        # run_all iterates over the SUITES tuple, which holds the originals.
        self._undo.append((selftest, "SUITES", selftest.SUITES))
        selftest.SUITES = tuple(wrapped_suites.get(s, s) for s in selftest.SUITES)
        for modname, cls_name, method, name in METHODS:
            cls = getattr(sys.modules[modname], cls_name)
            original = cls.__dict__[method]
            setattr(cls, method, self.wrap(name, original))
            self._undo.append((cls, method, original))
        for module, attr, name in KERNELS:
            original = getattr(module, attr)
            setattr(module, attr, self.wrap(name, original, nested_only=True))
            self._undo.append((module, attr, original))

    def uninstall(self):
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def _totals(self):
        return {"calls": list(self.calls), "s": list(self.incl),
                "self_s": list(self.self_s), "fail": list(self.fail),
                "counters": dict(self.counters)}

    def mark(self):
        """Start the steady state: :meth:`per_layer` counts only what
        follows.  Called after the first cycle, which fills the caches
        that idemap keeps on objects built at set-up."""
        self._mark = self._totals()

    def per_layer(self, cycles):
        """Per-layer metrics for one steady-state workload cycle."""
        totals = self._totals()
        if self._mark is not None and cycles > 1:
            base, cycles = self._mark, cycles - 1
            for key in ("calls", "s", "self_s", "fail"):
                totals[key] = [t - (base[key][i] if i < len(base[key]) else 0)
                               for i, t in enumerate(totals[key])]
            totals["counters"] = {k: v - base["counters"].get(k, 0)
                                  for k, v in totals["counters"].items()}
        out = {}
        for name, _unit, _better in PER_LAYER:
            span, kind = name.rsplit(".", 1)
            nid = self._ids.get(span)
            if name.startswith(("trace.", "sweep.")):
                continue  # filled in by the worker
            if kind == "ok_ratio":
                calls = totals["calls"][nid] if nid is not None else 0
                out[name] = (calls - totals["fail"][nid]) / calls if calls else 0.0
            elif kind in ("calls", "s", "self_s", "fail"):
                out[name] = (totals[kind][nid] if nid is not None else 0) / cycles
            else:
                out[name] = totals["counters"].get(name, 0) / cycles
        return out

    def save(self, path):
        """Write every span to a compressed ``.npz`` file."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.uint32),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )
