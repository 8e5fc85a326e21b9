"""Smoke test: every demo script runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_0(demo, tmp_path):
    # The demos write their scratch files under the temporary directory.
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          text=True, timeout=120, cwd=tmp_path,
                          env={**os.environ, "TMPDIR": str(tmp_path)})
    assert proc.returncode == 0, proc.stdout + proc.stderr
