"""Which runs enter each function of ``src/spectral_forge``.

Runs three sets of calls in this process under ``sys.setprofile`` and
records the code objects of ``src/spectral_forge`` that each one enters:

- ``CLI``: the seven subcommands at 64 and 256 samples on the golden
  documents of ``tests/test_cli.py`` and on the scenarios the perfbench
  workloads write (their seed-11 inputs);
- ``bench``: two rounds of each perfbench workload's tasks at seed 11;
- ``tools``: one call of each timed layer of the per-layer bench scripts
  ``tools/bench_{exact,fibre,journal,sample_path}.py``.

It then prints one line per function, method and nested function defined
in the package, ``label module:line qualname (lines)``, where the label
is the first of "CLI", "bench" and "tools" whose runs entered it, else
"tests only" (``python tools/unexecuted.py`` shows whether a test does),
and last the functions and source lines per label.  Standard library
only, apart from what it runs (the package, the golden documents, which
import pytest, and perfbench); no options:

    python tools/reach.py
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "spectral_forge"
LABELS = ("CLI", "bench", "tools", "tests only")
COMMANDS = ("cover", "fm", "roundtrip", "classify", "modify", "props", "sample")
SAMPLES = (64, 256)
SEED = 11
ROUNDS = 2
TOOLS = ("bench_exact", "bench_fibre", "bench_journal", "bench_sample_path")


def definitions() -> list[tuple[Path, int, str, int]]:
    """(file, first line, qualified name, lines) of every function in the
    package; the first line is that of the first decorator, as in
    ``co_firstlineno``."""
    found = []

    def walk(path: Path, node, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                name = prefix + child.name
                found.append((path, first, name, child.end_lineno - first + 1))
                walk(path, child, name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(path, child, prefix + child.name + ".")
            else:
                walk(path, child, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(path, ast.parse(path.read_text(encoding="utf-8")), "")
    return found


class Entered:
    """(file, first line) of every code object called while active."""

    def __init__(self) -> None:
        self.seen: set[tuple[str, int]] = set()

    def _hook(self, frame, event, arg) -> None:
        if event == "call":
            self.seen.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    def __enter__(self) -> "Entered":
        sys.setprofile(self._hook)
        return self

    def __exit__(self, *exc) -> None:
        sys.setprofile(None)


def quiet(fn, *args):
    """``fn(*args)`` with its standard output and error discarded."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return fn(*args)


def scenario_paths(tmp: Path, workloads: dict) -> list[str]:
    """The golden documents, written to ``tmp``, and the scenarios the
    perfbench workloads write for their first round."""
    from test_cli import GOLDEN_DOCS

    for wl in workloads.values():
        wl.round_tasks(0)
    paths = []
    for name, doc in sorted(GOLDEN_DOCS.items()):
        path = tmp / f"{name}.json"
        path.write_text(json.dumps(doc()), encoding="utf-8")
        paths.append(str(path))
    written = sorted((ROOT / "perfbench" / "_work" / "scenarios").glob("*.json"))
    return paths + [str(p) for p in written if any(p.name.startswith(w) for w in workloads)]


def run_cli(paths: list[str], tmp: Path) -> None:
    """Each report through ``main``, the console script's entry point."""
    from spectral_forge.cli import main

    out = str(tmp / "report.json")
    for path in paths:
        for cmd in COMMANDS:
            for n in SAMPLES:
                quiet(main, [cmd, "--scenario", path, "--samples", str(n), "--json", out])


def run_bench(workloads: dict) -> None:
    from workloads import make_out_dir

    make_out_dir()
    for wl in workloads.values():
        for rnd in range(ROUNDS):
            for task in wl.round_tasks(rnd):
                quiet(wl.execute, task)


def run_tools() -> None:
    import _layer_bench

    def once(fn, items: int = 1, min_run_s: float = 0.0) -> dict:
        fn()
        return {"best_s": 0.0, "median_s": 0.0}

    _layer_bench.timed = once     # before the scripts import it
    for name in TOOLS:
        quiet(__import__(name).measure)


def main() -> int:
    os.chdir(ROOT)      # perfbench writes its scenarios relative to the root
    for sub in ("src", "tests", "perfbench", "tools"):
        sys.path.insert(0, str(ROOT / sub))
    from workloads import WORKLOADS

    workloads = {name: cls(SEED) for name, cls in WORKLOADS.items()}
    runs = {}
    with tempfile.TemporaryDirectory() as tmp:
        paths = scenario_paths(Path(tmp), workloads)
        with Entered() as runs["CLI"]:
            run_cli(paths, Path(tmp))
    with Entered() as runs["bench"]:
        run_bench(workloads)
    with Entered() as runs["tools"]:
        run_tools()

    totals = {label: [0, 0] for label in LABELS}
    for path, first, name, lines in definitions():
        label = next((k for k, e in runs.items() if (str(path), first) in e.seen),
                     "tests only")
        totals[label][0] += 1
        totals[label][1] += lines
        print(f"{label:10s} {path.stem}:{first} {name} ({lines})")
    print(f"\n{len(paths)} scenarios x {len(COMMANDS)} commands x samples {SAMPLES}; "
          f"{ROUNDS} rounds of {len(workloads)} workloads at seed {SEED}; "
          f"{len(TOOLS)} tools")
    for label, (count, lines) in totals.items():
        print(f"{label}: {count} functions, {lines} lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
