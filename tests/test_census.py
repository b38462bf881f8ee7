# tests/test_census.py
"""
``tools/census.py`` without tracing the suite: the function and statement
spans of one small module, one traced library call, and the label order.
"""

from __future__ import annotations

import ast
import inspect
import sys
import textwrap
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import census  # noqa: E402
from spectral_forge import TateCurve, tate  # noqa: E402

SOURCE = textwrap.dedent('''\
    """Module docstring."""
    import functools
    COUNT = 0


    @functools.cache
    @functools.wraps(print)
    def cached(x):
        """Docstring."""
        global COUNT
        try:
            COUNT += 1
        finally:
            pass
        return x


    class Box:
        """Docstring."""

        def method(self, items):
            def inner(y):
                return y
            if (items and
                    len(items) > 1):
                return [inner(i)
                        for i in items]
            return None
    ''')


def test_spans_of_functions_and_statements(tmp_path):
    """Functions start at their first decorator and carry Python's
    qualified names; docstrings and ``try``/``global`` headers are no
    statements; a compound statement spans its header lines only, a simple
    one all its lines."""
    path = tmp_path / "sample.py"
    path.write_text(SOURCE, encoding="utf-8")
    functions, statements = census.spans(ast.parse(path.read_text(encoding="utf-8")))
    assert functions == [(6, "cached", 10), (21, "Box.method", 8),
                         (22, "Box.method.<locals>.inner", 2)]
    assert statements == [
        (2, 2, 2), (3, 3, 3),       # import, assignment
        (8, 6, 8),                  # def: its decorators and def line
        (12, 12, 12), (14, 14, 14), (15, 15, 15),   # the try's body and finally, return
        (18, 18, 18),               # class header
        (21, 21, 21), (22, 22, 22), (23, 23, 23),   # method, inner, inner's return
        (24, 24, 25),               # if: a header over two lines
        (26, 26, 27), (28, 28, 28),                 # a two-line return, return None
    ]


def test_a_traced_call_records_entries_and_lines_and_restores_the_tracer():
    """One library call: the code objects it entered, keyed as ``spans``
    keys functions, and lines of their bodies; the tracer in place before
    the call is in place after it."""
    def outer(frame, event, arg):
        return None

    before = sys.gettrace()
    curve = TateCurve(2 + 0j)
    sys.settrace(outer)
    try:
        run, point = census.traced(curve.canonical_rep, 12.0)
        assert sys.gettrace() is outer
    finally:
        sys.settrace(before)
    assert point.value == 1.5
    path = inspect.getsourcefile(tate)
    first = TateCurve.canonical_rep.__code__.co_firstlineno
    assert (path, first) in run["entered"]
    source, start = inspect.getsourcelines(TateCurve.canonical_rep)
    body = range(start + 1, start + len(source))
    assert set(run["lines"][path]) & set(body)
    assert all(f.startswith(str(census.PACKAGE)) for f in run["lines"])


def test_labels_go_cli_bench_tools_tests_none():
    """A function's label is the first run in CLI, bench, tools, tests
    order that entered it, else none."""
    key = ("m.py", 1)
    entered = {"CLI": set(), "bench": set(), "tools": set(), "tests": set()}
    assert census.label(key, entered) == "none"
    for name in ("tests", "tools", "bench", "CLI"):
        entered[name].add(key)
        assert census.label(key, entered) == name
    assert census.LABELS == ("CLI", "bench", "tools", "tests", "none")
