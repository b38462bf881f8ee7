"""Which runs enter each function of ``src/spectral_forge``, and which of its
statements no tier-1 test executes.  No options:  python tools/census.py

Traces two fresh interpreters at once under ``sys.settrace``, so that the
caches one kind of run fills (the CLI's parser, theta tables) hide no
function from the other.  One runs ``CLI`` (the import of the package,
then the seven subcommands at 64 and 256 samples on the golden documents
of ``tests/test_cli.py`` and the perfbench scenarios), ``bench`` (building
each perfbench workload at seed 11, then two rounds of it) and ``tools``
(each timed layer of ``tools/bench_{exact,fibre,journal,sample_path}.py``
once); the other runs ``tests`` (tier-1; tests that start fresh
interpreters are not traced).
Prints ``label module:line qualname (lines)`` per function, the label being
the first run that entered it, else "none"; then ``module:line: source``
per statement no test executed (its header, decorators through the line
before its body, if compound, else any of its lines; docstrings and
``try``, ``global`` and ``nonlocal`` headers carry no code); then totals,
and the lines of each module and of the package (as ``wc -l`` counts them).
"""

from __future__ import annotations

import ast
import contextlib
import importlib
import io
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "spectral_forge"
LABELS = ("CLI", "bench", "tools", "tests", "none")
COMMANDS = ("cover", "fm", "roundtrip", "classify", "modify", "props", "sample")
SAMPLES = (64, 256)
SEED = 11
ROUNDS = 2
TOOLS = ("bench_exact", "bench_fibre", "bench_journal", "bench_sample_path")
NO_CODE = (ast.Try, ast.Global, ast.Nonlocal)
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def spans(tree: ast.Module) -> tuple[list, list]:
    """Functions as (first line, qualified name, lines) and statements that
    carry code as (reported line, first line, last line); a first line is
    that of the first decorator, as in ``co_firstlineno``."""
    functions, statements = [], []

    def walk(node, prefix: str) -> None:
        owner = isinstance(node, (ast.Module, ast.ClassDef) + DEFS)
        doc = node.body[0] if owner and ast.get_docstring(node, False) is not None else None
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt) and not isinstance(child, NO_CODE) and child is not doc:
                first = min([child.lineno] + [d.lineno for d in getattr(child, "decorator_list", [])])
                body = getattr(child, "body", None)
                last = body[0].lineno - 1 if body else child.end_lineno
                statements.append((child.lineno, first, max(first, last)))
            if isinstance(child, DEFS):
                functions.append((first, prefix + child.name, child.end_lineno - first + 1))
                walk(child, prefix + child.name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, prefix + child.name + ".")
            else:
                walk(child, prefix)

    walk(tree, "")
    return functions, sorted(statements)


def module_lines(package: Path) -> dict[str, int]:
    """Lines of each module of ``package`` by name, as ``wc -l`` counts them."""
    return {path.name: path.read_text(encoding="utf-8").count("\n")
            for path in sorted(package.glob("*.py"))}


def label(key: tuple[str, int], entered: dict[str, set]) -> str:
    """The first label whose run entered the code object ``key``."""
    return next((k for k in LABELS[:-1] if key in entered.get(k, ())), "none")


def traced(fn, *args) -> tuple[dict, object]:
    """What ``fn(*args)`` did in the package, and its result: the
    (file, first line) of each code object entered and the lines executed
    per file.  The tracer in place before is put back after."""
    prefix = str(PACKAGE) + os.sep
    entered: set[tuple[str, int]] = set()
    lines: dict[str, set[int]] = {}
    # codes whose lines were all seen need no line events; by id (code hashes slowly), kept alive
    own: dict[int, tuple] = {}
    done: set[int] = set()

    def local(frame, event, arg):
        if event == "line":
            lines[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(prefix) or id(code) in done:
            return None
        entered.add((code.co_filename, code.co_firstlineno))
        seen = lines.setdefault(code.co_filename, set())
        seen.add(frame.f_lineno)
        if id(code) not in own:
            own[id(code)] = code, {line for *_, line in code.co_lines() if line is not None}
        if own[id(code)][1] <= seen:
            done.add(id(code))
            return None
        return local

    before = sys.gettrace()
    sys.settrace(call)
    try:
        result = fn(*args)
    finally:
        sys.settrace(before)
    return {"entered": sorted(entered), "lines": {f: sorted(s) for f, s in lines.items()}}, result


def each(calls) -> None:
    """Each call ``(fn, *args)`` of ``calls``, its output discarded."""
    for fn, *args in calls:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            fn(*args)


def trace_runs(out: str) -> None:
    """The CLI, bench and tools traces, written to ``out``.  The package is
    first imported under the CLI trace, the workloads are built (writing the
    perfbench scenarios) under the bench trace; then the CLI runs on the
    golden documents, written to the working directory, and on those
    scenarios, the workloads run their rounds and the tools their layers.
    A label goes by LABELS order, not time: what building the workloads
    enters is labelled bench unless a CLI run enters it too.  The calls of
    each run are drawn while it is traced."""
    sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "tests")]
    import _layer_bench

    entered: dict[str, set] = {k: set() for k in LABELS[:3]}

    def stage(k: str, fn, *args):
        run, result = traced(fn, *args)
        entered[k].update(run["entered"])
        return result

    def build() -> tuple[list, list[Path]]:
        from workloads import WORK, WORKLOADS
        workloads = [cls(SEED) for cls in WORKLOADS.values()]
        for wl in workloads:
            wl.round_tasks(0)
        return workloads, sorted((WORK / "scenarios").glob("*.json"))

    main = stage("CLI", importlib.import_module, "spectral_forge.cli").main
    from test_cli import GOLDEN_DOCS
    paths = [Path(f"{name}.json") for name in sorted(GOLDEN_DOCS)]
    for path in paths:
        path.write_text(json.dumps(GOLDEN_DOCS[path.stem]()), encoding="utf-8")
    workloads, scenarios = stage("bench", build)
    paths += scenarios

    def once(fn, items: int = 1, min_run_s: float = 0.0) -> dict:
        fn()
        return {"best_s": 0.0, "median_s": 0.0}

    _layer_bench.timed = once     # before the bench scripts import it
    stage("CLI", each, ((main, [cmd, "--scenario", str(path), "--samples", str(n),
                                "--json", "report.json"])
                        for path in paths for cmd in COMMANDS for n in SAMPLES))
    stage("bench", each, ((wl.execute, task) for wl in workloads
                          for rnd in range(ROUNDS) for task in wl.round_tasks(rnd)))
    stage("tools", each, ((__import__(name).measure,) for name in TOOLS))
    runs = {k: {"entered": sorted(keys)} for k, keys in entered.items()}
    Path(out).write_text(json.dumps({**runs, "scenarios": len(paths)}), encoding="utf-8")


def trace_tests(out: str) -> None:
    """The trace of the tier-1 tests, written to ``out``."""
    import pytest

    run, code = traced(pytest.main, ["-q", "-p", "no:cacheprovider",
                                     "--continue-on-collection-errors"])
    Path(out).write_text(json.dumps({"tests": run, "status": int(code)}), encoding="utf-8")


def fresh(tmp: Path) -> dict:
    """Both traces, each in a new interpreter, run at once and merged.  The
    tests run from the root, where pytest finds its testpaths; the other
    runs from ``tmp``, so the files perfbench writes relative to the working
    directory are neither shared with the tests nor left behind."""
    children = []
    for name, cwd in (("trace_runs", tmp), ("trace_tests", ROOT)):
        out = tmp / f"{name}.json"
        code = (f"import sys; sys.path[:1] = [{str(ROOT / 'src')!r}, {str(ROOT / 'tools')!r}]; "
                f"import census; census.{name}({str(out)!r})")
        children.append((out, subprocess.Popen([sys.executable, "-c", code], cwd=cwd,
                                                stdout=subprocess.DEVNULL)))
    if any([child.wait() for _, child in children]):
        raise SystemExit("census: a traced interpreter failed")
    return {k: v for out, _ in children for k, v in json.loads(out.read_text(encoding="utf-8")).items()}


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        runs = fresh(Path(tmp))
    entered = {k: {tuple(e) for e in runs[k]["entered"]} for k in LABELS[:-1]}
    totals = {k: [0, 0] for k in LABELS}
    listing = []
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        functions, statements = spans(ast.parse(text))
        for first, name, lines in functions:
            k = label((str(path), first), entered)
            totals[k][0] += 1
            totals[k][1] += lines
            print(f"{k:5s} {path.stem}:{first} {name} ({lines})")
        hit = set(runs["tests"]["lines"].get(str(path), ()))
        for line, first, last in statements:
            if not hit.intersection(range(first, last + 1)):
                listing.append(f"{path.stem}:{line}: {text.splitlines()[line - 1].strip()}")
    print("\nstatements no test executes:", *listing, sep="\n")
    print(f"\n{runs['scenarios']} scenarios; pytest exit status {runs['status']}")
    for k, (count, lines) in totals.items():
        print(f"{k}: {count} functions, {lines} lines")
    for module, count in sorted(Counter(item.split(":")[0] for item in listing).items()):
        print(f"{module}: {count} statements")
    print(f"total: {len(listing)} statements")
    lines = module_lines(PACKAGE)
    for name, count in lines.items():
        print(f"{name}: {count} lines")
    print(f"{PACKAGE.relative_to(ROOT)}: {sum(lines.values())} lines")


if __name__ == "__main__":
    main()
