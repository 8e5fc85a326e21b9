"""What the benchmark needs from idemap.  The traced run
(``perfbench/tracing.py``): every function, method and suite it wraps must
still resolve, and a table handle must look its ``_eval`` up at call time.
The tracer only warns on stderr when either breaks, and the traced layer
silently drops out of the report.  The ``cli`` workload: every command
line it runs must parse, or the whole benchmark run fails.  The
``algebra`` workload: its references must hold for idemap's results."""

import importlib
import importlib.util
import os
from pathlib import Path

import numpy as np
import pytest

import idemap.cli
from idemap.cli import build_parser
from idemap.core import ScalarField, identity_operator
from idemap.transform import handle_from_table, probe_table_from_operator

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


def test_traced_targets_resolve():
    for modname, attr, _name, _hook in tracing.FUNCTIONS:
        assert callable(getattr(importlib.import_module(modname), attr)), (modname, attr)
    for modname, cls_name, method, _name in tracing.METHODS:
        cls = getattr(importlib.import_module(modname), cls_name)
        assert method in cls.__dict__, (cls_name, method)
    serialize = importlib.import_module("idemap.serialize")
    for attr in tracing.FROM_JSON:
        assert callable(getattr(serialize, attr)), attr
    selftest = importlib.import_module("idemap.selftest")
    for attr in tracing.SUITES:
        assert getattr(selftest, attr) in selftest.SUITES, attr


def test_table_handle_eval_is_looked_up_at_call_time():
    table = probe_table_from_operator(identity_operator(3), validation_count=2)
    phi = handle_from_table(table, 3, ScalarField.COMPLEX)
    tracer = tracing.Tracer()
    tracing._table_handle(tracer, phi)
    p = table[0][0]
    np.testing.assert_array_equal(phi(p).matrix, table[0][1].matrix)
    assert tracer.calls[tracer.names.index("transform.table_lookup")] == 1


def test_cli_workload_command_lines_parse(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(TRACING.parent))
    workloads = importlib.import_module("workloads")
    ops = workloads.build_cli(np.random.default_rng(3), str(tmp_path))
    lines = []

    def parse(argv):
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"the benchmark's command line does not parse: {argv}")
        lines.append(argv)
        return 0

    monkeypatch.setattr(idemap.cli, "main", parse)
    for op in ops:
        op.run()
    assert len(lines) == len(ops) == 47
    flags = {arg for argv in lines for arg in argv if arg.startswith("--")}
    assert flags == {"--in", "--out", "--seed", "--samples", "--mode"}


def test_algebra_references_hold(tmp_path, monkeypatch):
    """Every ``algebra`` op but isometry generation (seconds a call at
    complex n = 32, and tested on its own) ends ``ok`` against its numpy
    reference: ``extend`` with and without a decomposition, the trace
    identity, ``majorant`` checked by ``relate``, and ``characterize``, at
    n = 3-64 over both fields."""
    monkeypatch.syspath_prepend(str(TRACING.parent))
    # The worker pins BLAS threads in os.environ when it is imported.
    monkeypatch.setattr(os, "environ", dict(os.environ))
    worker = importlib.import_module("worker")
    workloads = importlib.import_module("workloads")
    ops = [op for op in workloads.build_algebra(np.random.default_rng(3), str(tmp_path))
           if op.kind != "generate_eta_isometry"]
    outcomes = [(op.kind, op.n, worker.run_op(op)[1]) for op in ops]
    assert {n for _, n, _ in outcomes} == {3, 4, 5, 6, 7, 8, 16, 24, 64}
    assert {kind for kind, _, _ in outcomes} == {
        "extend", "extend_remixed", "trace_identity", "majorant", "characterize"}
    assert [o for o in outcomes if o[2] != "ok"] == []
