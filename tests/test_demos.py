"""Smoke tests: every demo script and the README quick start run to
completion."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import idemap as im

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_0(demo, tmp_path):
    # The demos write their working files under the temporary directory
    # and must remove them before they exit.  They run under the project's
    # warning policy, as the tests and the CI selftest do.
    tmpdir = tmp_path / "tmp"
    tmpdir.mkdir()
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          text=True, timeout=120, cwd=tmp_path,
                          env={**os.environ, "TMPDIR": str(tmpdir),
                               "PYTHONWARNINGS": "error::RuntimeWarning"})
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert list(tmpdir.iterdir()) == []


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text()
    section = readme[readme.index("## Quick start"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    ns = {}
    exec(compile(block, "README.md", "exec"), ns)
    assert ns["result"].A.auto is im.AutomorphismTag.CONJUGATION
    found = im.characterize(ns["space"], ns["v"])
    assert found.kind is im.SymmetryKind.LINEAR
    assert found.constant == pytest.approx(2.0)
