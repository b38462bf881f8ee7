# tests/test_import.py
"""
The numpy boundary: ``_carray`` is the only module that imports numpy, and
it does so lazily, so work without arrays never loads it.  The public
names: each declared once, all exported by the package and named in README.

Each numpy check runs in a fresh interpreter, because this test process
already has numpy loaded (through ``oracles``).  Until the first array
operation ``numpy`` sits in ``sys.modules`` as a lazy module that has run
none of numpy's code, so no ``numpy.*`` submodule is loaded yet.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import spectral_forge

SRC = Path(spectral_forge.__file__).resolve().parents[1]
PACKAGE = SRC / "spectral_forge"
README = SRC.parent / "README.md"

F_G1 = [[1, 1, 0, 1], [0, 1, 0, 1], [0, 1, 0, 1], [1, 1, 0, 1]]
POINTS = ([3, 1, 0, 1], [-3, 1, 0, 1], [0, 1, 3, 1], [0, 1, -3, 1],
          [5, 2, 1, 1], [-5, 2, -1, 1], [7, 3, 0, 1], [1, 2, 5, 2])


def push_g1_doc() -> dict:
    """The genus-1 pushforward (w^2 = b^3 + 1, map (3 + w) / (3 - w))."""
    return {"surface": {"tau": [2.0, 0.0], "theta_degree": 1},
            "family": {"presentation": {
                "type": "pushforward", "cover": {"f": F_G1},
                "map": {"p": [[3, 1, 0, 1]], "q": [[1, 1, 0, 1]],
                        "s": [1, 1, 0, 1]}}}}


def journal_doc(length: int = 800) -> dict:
    """The genus-1 pushforward with a push/pop journal over eight points."""
    steps = []
    for k in range(length // len(POINTS)):
        for at in POINTS:
            steps.append({"op": "push", "at": at, "degree": 1,
                          "line_point": [1.7, 0.0]} if k % 2 == 0
                         else {"op": "pop", "at": at})
    doc = push_g1_doc()
    doc["family"]["modifications"] = steps
    return doc


def run_fresh(body: str, tmp_path: Path, **docs: dict) -> dict:
    """Run ``body`` in a fresh interpreter in ``tmp_path``, with each of
    ``docs`` written there as ``<name>.json``, and return the JSON of the
    ``result`` it sets; ``loaded()`` lists the ``numpy.*`` submodules."""
    for name, doc in docs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    script = "\n".join([
        "import json, sys",
        "def loaded():",
        "    return sorted(m for m in sys.modules if m.startswith('numpy.'))",
        textwrap.dedent(body),
        "print(json.dumps(result))",
    ])
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_no_numpy(tmp_path):
    result = run_fresh("""
        import spectral_forge, spectral_forge.cli
        result = {"loaded": loaded(), "lazy": "numpy" in sys.modules}
    """, tmp_path)
    assert result == {"loaded": [], "lazy": True}


@pytest.mark.parametrize("argv", [
    ["modify", "--scenario", "journal.json"],
    ["classify", "--scenario", "push.json", "--samples", "256"],
], ids=["modify-800-steps", "classify-genus-1"])
def test_exact_reports_load_no_numpy(tmp_path, argv):
    result = run_fresh(f"""
        from spectral_forge.cli import run_command
        code = run_command({argv!r} + ["--json", "out.json"])
        result = {{"code": code, "loaded": loaded()}}
    """, tmp_path, journal=journal_doc(), push=push_g1_doc())
    assert result == {"code": 0, "loaded": []}


def test_class_add_chain_loads_no_numpy(tmp_path):
    result = run_fresh("""
        from spectral_forge import HyperCover, Poly, QI, class_add, point_class
        cover = HyperCover(Poly.of(1, -1, 0, 0, 0, 1))   # w^2 = b^5 - b + 1
        p = point_class(cover, QI.of(0), QI.of(1))
        acc = p
        for _ in range(59):
            acc = class_add(acc, p)
        result = {"degree": acc.u.degree, "loaded": loaded()}
    """, tmp_path)
    assert result == {"degree": 2, "loaded": []}


def test_sampling_loads_numpy_as_a_plain_module(tmp_path):
    """The negative control: a sampled report loads numpy, after which the
    name every module holds is numpy itself, with no proxy in between."""
    result = run_fresh("""
        import types
        from spectral_forge import _carray, fiber
        from spectral_forge.cli import run_command
        code = run_command(["cover", "--scenario", "push.json", "--samples",
                            "32", "--seed", "1", "--json", "out.json"])
        result = {"code": code, "loaded": len(loaded()),
                  "same": _carray.np is sys.modules["numpy"] is fiber.np,
                  "plain": type(_carray.np) is types.ModuleType}
    """, tmp_path, push=push_g1_doc())
    assert result["code"] == 0
    assert result["loaded"] > 0
    assert result["same"] and result["plain"]


def test_numpy_imported_first_is_kept(tmp_path):
    result = run_fresh("""
        import types
        import numpy
        from spectral_forge import _carray, surface
        result = {"same": _carray.np is numpy is surface.np,
                  "plain": type(_carray.np) is types.ModuleType}
    """, tmp_path)
    assert result == {"same": True, "plain": True}


def test_lazy_import_keeps_a_loaded_module_and_names_a_missing_one():
    """``_carray._lazy`` hands back a module already in ``sys.modules`` as
    it is, and refuses a name no finder knows with ModuleNotFoundError
    naming it."""
    from spectral_forge import _carray

    assert _carray._lazy("math") is sys.modules["math"]
    missing = "spectral_forge_no_such_module"
    with pytest.raises(ModuleNotFoundError, match=missing) as info:
        _carray._lazy(missing)
    assert info.value.name == missing


def test_numpy_is_imported_only_by_carray():
    importers = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom)
                     else [])
            if any(n == "numpy" or n.startswith("numpy.") for n in names):
                importers.add(path.name)
    assert importers <= {"_carray.py"}
    users = {p.name for p in PACKAGE.glob("*.py") if "np." in p.read_text()}
    for name in users - {"_carray.py"}:
        assert "from ._carray import np" in (PACKAGE / name).read_text(), name


def test_package_exports_are_the_union_of_the_module_lists():
    """Each public name is declared in one module's ``__all__``, by the
    module that defines it, and the package exports exactly their union."""
    lists = {}
    for path in sorted(PACKAGE.glob("[!_]*.py")):
        module = importlib.import_module(f"spectral_forge.{path.stem}")
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__module__ == module.__name__, name
            assert lists.setdefault(name, path.stem) == path.stem, name
    lists.pop("main"), lists.pop("run_command")    # cli: not imported by the package
    assert sorted(spectral_forge.__all__) == sorted(lists)


def test_every_public_name_is_in_the_readme():
    """README's library section names every export; a name added to a
    module's ``__all__`` needs a line there too."""
    text = README.read_text(encoding="utf-8")
    assert [n for n in spectral_forge.__all__ if not re.search(rf"\b{n}\b", text)] == []
