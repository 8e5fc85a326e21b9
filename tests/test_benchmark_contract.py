"""What the traced benchmark run (``perfbench/tracing.py``) needs from
idemap: every function, method and suite it wraps must still resolve, and
a table handle must look its ``_eval`` up at call time.  The tracer only
warns on stderr when either breaks, and the traced layer silently drops
out of the report."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

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
