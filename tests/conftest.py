"""Test-session set-up.

``pyproject.toml`` puts ``src/`` on ``sys.path`` for the test process
(pytest's ``pythonpath`` setting).  Subprocesses that tests start, such
as ``python -m idemap.cli selftest``, do not see that, so ``src/`` is
also put on ``PYTHONPATH``.
"""

import os

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
