"""Acceptance suite: one test per headline criterion, at full budgets.

Criteria 1-8 are the suites of :mod:`idemap.selftest`, run here at their
full budgets with one fixed seed each (``idemap selftest`` runs the same
suites at a reduced budget).  Each test prints a
``[acceptance] criterion N: PASS`` line (visible with ``pytest -s`` or in
captured output) so the run doubles as a checklist.
"""

import subprocess
import sys
import time

import numpy as np

from idemap import selftest


def _accept(criterion, suite, budget):
    """Run one suite at its full budget; returns the elapsed seconds."""
    start = time.monotonic()
    r = suite(np.random.default_rng(100 + criterion), budget)
    elapsed = time.monotonic() - start
    assert r.passed, r.failures
    print(f"[acceptance] criterion {criterion}: PASS - {r.detail}, {elapsed:.1f}s")
    return elapsed


def test_criterion_1_roundtrip():
    """100 random operators: reconstruct(induce(A)) ~ A up to scalar, <= 1e-7."""
    assert _accept(1, selftest.suite_roundtrip, 100) < 30.0


def test_criterion_2_zero_product_preservation():
    """Induced maps: 0 violations over 1000 pairs; transpose: >= 1 at n=3."""
    _accept(2, selftest.suite_preservation, 1000)


def test_criterion_3_trace_identity():
    """trace(ext(P) ext(Q)) = h(trace(P Q)) to 1e-8, 200 pairs per map."""
    _accept(3, selftest.suite_trace_identity, 800)


def test_criterion_4_extension_well_definedness():
    """Two independent decompositions give the same extension, to 1e-8
    relative to its Frobenius norm."""
    _accept(4, selftest.suite_extension, 200)


def test_criterion_5_majorant():
    """majorant(P1, P2) dominates both inputs, 200 random pairs, n in 3..8."""
    _accept(5, selftest.suite_majorant, 200)


def test_criterion_6_symmetry_sufficiency():
    """50 generated metric isometries (>= 10 non-self-adjoint metrics)."""
    _accept(6, selftest.suite_sufficiency, 1000)


def test_criterion_7_symmetry_necessity():
    """50 generic operators: characterize says none, ray map caught violating."""
    _accept(7, selftest.suite_necessity, 1000)


def test_criterion_8_symmetry_recovery():
    """Recover the inducing operator up to scalar, <= 1e-6, both tags."""
    _accept(8, selftest.suite_recovery, 200)


def test_criterion_9_selftest_command():
    """`idemap selftest` at default budgets exits 0 in under 60 seconds."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "idemap.cli", "selftest"],
        capture_output=True, text=True, timeout=120,
    )
    elapsed = time.monotonic() - start
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert elapsed < 60.0
    assert "8/8 suites passed" in proc.stdout
    print(f"[acceptance] criterion 9: PASS - selftest exit 0 in {elapsed:.1f}s")
