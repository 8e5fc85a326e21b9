"""List the statements of ``src/idemap/`` that a pytest run never executes:

    python3 tools/linecov.py [pytest arguments]

The suite (by default the Tier-1 one, ``pytest -q``) runs in this process
under ``sys.settrace`` and ``threading.settrace``, with line events taken
only in frames of code under ``src/idemap/``.  Then every statement of the
package's AST that no line event reached is printed as ``file:line
statement``, in file and line order, and a count last.  Docstrings,
``def`` and ``class`` lines, imports, ``try:`` lines and ``global`` or
``nonlocal`` declarations are not statements here: they run no line of
their own.  A compound statement counts as executed when its header does
(the test of an ``if`` or ``while``, the iterable of a ``for``, the items of
a ``with``).  Subprocesses that a test starts are not traced.

Only the standard library and pytest are used; tracing makes the suite about
1.6 times slower.  The exit status is pytest's.
"""

from __future__ import annotations

import ast
import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "idemap")

#: Statements that run no line of their own.
_SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom,
            ast.Try, ast.Global, ast.Nonlocal)


def _header_end(stmt):
    """The last line of ``stmt`` that runs before its body: the whole of a
    simple statement, the header of a compound one."""
    head = {ast.If: "test", ast.While: "test", ast.For: "iter", ast.AsyncFor: "iter"}
    if type(stmt) in head:
        return getattr(stmt, head[type(stmt)]).end_lineno
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return stmt.items[-1].context_expr.end_lineno
    return stmt.end_lineno


def _is_docstring(stmt, parent):
    return (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, str) and parent.body[0] is stmt)


def statements(path):
    """``(first line, header end, source line)`` of each statement of ``path``."""
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    lines = source.splitlines()
    found = []
    for parent in ast.walk(ast.parse(source, path)):
        for field in ("body", "orelse", "finalbody"):
            block = getattr(parent, field, None)  # a lambda's body is one expression
            for stmt in block if isinstance(block, list) else ():
                if isinstance(stmt, _SKIPPED):
                    continue
                if field == "body" and _is_docstring(stmt, parent):
                    continue
                found.append((stmt.lineno, _header_end(stmt), lines[stmt.lineno - 1].strip()))
    return sorted(found)


def traced_run(args):
    """pytest's exit status on ``args`` and the ``{path: lines}`` it executed in the package."""
    executed = {}
    prefix = PACKAGE + os.sep

    def local(frame, event, arg):
        if event == "line":
            executed.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    import pytest

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return status, executed


def main(argv):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.chdir(ROOT)
    status, executed = traced_run(argv or ["-q"])
    missed = total = 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        hit = executed.get(path, set())
        for first, last, text in statements(path):
            total += 1
            if hit.isdisjoint(range(first, last + 1)):
                missed += 1
                print(f"src/idemap/{name}:{first} {text}")
    print(f"{missed} of {total} statements not executed")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
