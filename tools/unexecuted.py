"""The statements of ``src/spectral_forge`` that no tier-1 test executes.

Runs the tier-1 test paths (``testpaths`` in ``pyproject.toml``) in this
process under ``sys.settrace``, recording line events of frames whose code
lives in ``src/spectral_forge`` only, then prints ``module:line: source``
for every statement outside docstrings that no test reached, and a count
per module.  Standard library and pytest only; no options:

    python tools/unexecuted.py

A statement counts as executed when a line event fell on any line of it:
its header (decorators through the line before its body) for a compound
statement, every line for a simple one.  ``try`` and ``global`` headers
carry no code of their own and are never reported.  Tests that start
fresh interpreters are not traced; the modules they import are imported
in process as well.  Expect several times the plain tier-1 wall time.
"""

from __future__ import annotations

import ast
import os
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "spectral_forge"
NO_CODE = (ast.Try, ast.Global, ast.Nonlocal)


def statement_spans(tree: ast.Module) -> list[tuple[int, int, int]]:
    """(reported line, first line, last line) of every statement that
    carries code, docstrings excluded."""
    docstrings = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef)) and body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            docstrings.add(id(body[0]))
    spans = []
    for node in ast.walk(tree):
        if (not isinstance(node, ast.stmt) or isinstance(node, NO_CODE)
                or id(node) in docstrings):
            continue
        first = min([node.lineno] + [d.lineno for d in
                                     getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body else node.end_lineno
        spans.append((node.lineno, first, max(first, last)))
    return sorted(spans)


def run_tests() -> dict[str, set[int]]:
    """Line numbers executed per source file while the tier-1 tests run."""
    prefix = str(PACKAGE) + "/"
    executed: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        executed.setdefault(name, set()).add(frame.f_lineno)
        return local

    import pytest

    # with no paths given, pytest run from the root collects its testpaths
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    sys.settrace(call)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider",
                            "--continue-on-collection-errors"])
    finally:
        sys.settrace(None)
    print(f"pytest exit status {int(code)}\n")
    return executed


def main() -> None:
    executed = run_tests()
    counts: Counter[str] = Counter()
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        hit = executed.get(str(path), set())
        for line, first, last in statement_spans(ast.parse(text)):
            if not hit.intersection(range(first, last + 1)):
                counts[path.stem] += 1
                print(f"{path.stem}:{line}: {lines[line - 1].strip()}")
    print()
    for module in sorted(counts):
        print(f"{module}: {counts[module]}")
    print(f"total: {sum(counts.values())}")


if __name__ == "__main__":
    main()
