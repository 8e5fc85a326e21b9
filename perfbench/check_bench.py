"""The benchmark's own tests.

    python3 -m pytest -q perfbench/check_bench.py

Run from the root of the repository.  The file is not named ``test_*`` so
that the library's test suite does not collect it; the tiny runs start
processes and take about a minute.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import idemap  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", "5", "--seconds", "0", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _small_ops(name, tmp_path):
    ops = workloads.WORKLOADS[name](np.random.default_rng(3), str(tmp_path))
    return [op for op in ops if op.n <= workloads.SMALL_MAX]


def _verdicts(ops):
    return [worker.run_op(op)[1] for op in ops]


def test_spec_lists_what_the_runs_emit():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.E2E_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == tracing.PER_LAYER


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_run_emits_every_end_to_end_metric(workload):
    proc = _run(workload, 0)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    for name, unit in run.E2E_UNITS.items():
        metric = result["metrics"][name]
        assert metric["unit"] == unit
        assert math.isfinite(metric["value"]) and metric["value"] > 0
        assert any(line.startswith(f"{name} = ") and f" {unit} (n=" in line for line in lines)
    assert any(line.startswith("fail_share = ") for line in lines)


def test_tiny_traced_run_emits_every_per_layer_metric():
    proc = _run("recover", 1)
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert [(n, m["unit"]) for n, m in metrics.items()] == [
        (n, u) for n, u, _ in tracing.PER_LAYER]
    assert metrics["sweep.ill_conditioned.ops"]["value"] > 0
    assert metrics["sweep.ill_conditioned.fail"]["value"] > 0


def test_recover_shows_the_conditioning_failures(tmp_path):
    ops = workloads.build_recover(np.random.default_rng(3), str(tmp_path))
    sweep, _ = worker.run_once([op for op in ops if op.mode == workloads.SWEEP])
    assert {"NotInduced", "UnrecognizedAutomorphism"} & set(sweep)
    assert set(_verdicts([op for op in ops if op.mode == workloads.CYCLE])) == {"ok"}


def test_planted_wrong_reference_counts_as_failed(tmp_path):
    ops = workloads.build_recover(np.random.default_rng(3), str(tmp_path))[:2]
    good = ops[0]
    wrong = np.eye(good.n) + 1.0
    planted = workloads.Op(good.kind, good.n, good.run,
                           workloads._expect_operator(wrong, idemap.AutomorphismTag.IDENTITY, 1.0))
    _, _, _, outcomes, first_cycle, cycles = worker.run_cycles([good, planted], 0)
    assert cycles == 1
    assert first_cycle == ["ok", "wrong_operator"]
    assert sum(outcomes.values()) - outcomes["ok"] == 1

    sample = workloads.build_sample(np.random.default_rng(3))[0]
    flipped = workloads.Op(sample.kind, sample.n, sample.run,
                           workloads._expect_violations(True))
    assert worker.run_op(flipped)[1] == "wrong_verdict"


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_and_untraced_verdicts_agree(workload, tmp_path):
    ops = _small_ops(workload, tmp_path)
    untraced = _verdicts(ops)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = _verdicts(ops)
    finally:
        tracer.uninstall()
    assert traced == untraced
    assert len(tracer.span_name) > 0


def test_call_counts_repeat_exactly(tmp_path):
    ops = _small_ops("recover", tmp_path) + _small_ops("algebra", tmp_path)
    _verdicts(ops)  # fill the caches idemap keeps on objects built at set-up
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            _verdicts(ops)
        finally:
            tracer.uninstall()
        layer = tracer.per_layer(1)
        counts.append({k: v for k, v in layer.items() if k.endswith(".calls")})
    assert counts[0] == counts[1]
    assert counts[0]["linalg.svd.calls"] > 0


def test_bare_directory_exits_nonzero_without_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("sample", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
