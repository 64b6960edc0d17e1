"""The statements of src/paritylab that a pytest run never executes.

    python3 tools/line_trace.py                      # the whole suite
    python3 tools/line_trace.py tests/test_cli.py -x # any pytest arguments

Run from the root of the repository.  It runs pytest in this process
with a line tracer (sys.settrace and threading.settrace, standard library
only) that records the lines executed in files under src/paritylab, then
prints, per module, the statements that never ran: every statement of
the module's syntax tree except docstrings, the def and class lines
themselves, and global and nonlocal declarations.  Code that runs in a
subprocess (a test that starts `python -m paritylab.cli`, say) is not
traced.  Tracing makes the run several times slower.  The exit status
is pytest's.
"""

from __future__ import annotations

import ast
import sys
import threading
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "paritylab"


DEFINITIONS = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def statements(path: Path) -> dict[int, str]:
    """First line -> source text of each statement of the module at path,
    leaving out docstrings, def and class lines, and global and nonlocal
    declarations (they compile to no code of their own)."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    docstrings = {id(node.body[0]) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, *DEFINITIONS))
                  and node.body and _is_docstring(node.body[0])}
    return {node.lineno: lines[node.lineno - 1].strip() for node in ast.walk(tree)
            if isinstance(node, ast.stmt) and id(node) not in docstrings
            and not isinstance(node, (*DEFINITIONS, ast.Global, ast.Nonlocal))}


def _is_docstring(node: ast.stmt) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def trace_pytest(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest.main(args) under the line tracer: its exit code and, per
    traced file name, the line numbers that ran."""
    prefix = str(PACKAGE) + "/"
    seen: dict[str, set[int]] = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), seen


def main(argv: list[str]) -> int:
    if any(name == "paritylab" or name.startswith("paritylab.") for name in sys.modules):
        raise SystemExit("paritylab is already imported: its module-level lines would be missed")
    code, seen = trace_pytest(argv or ["-q"])
    for path in sorted(PACKAGE.glob("*.py")):
        stmts = statements(path)
        missed = sorted(set(stmts) - seen.get(str(path), set()))
        print(f"{path.relative_to(ROOT)}: {len(missed)} of {len(stmts)} statements never ran")
        for line in missed:
            print(f"  {line:4d}  {stmts[line]}")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
