"""Shared driver of the per-layer bench scripts ``tools/bench_*.py``.

Each script defines ``measure()``, which times its layers and returns the
entry of one run (``layers`` plus any extra tables), and hands it to
``main`` with its docstring, written as the file's ``description``, and the
functions whose calls it counts (a script timing fresh processes may time
two trees at once, see ``main``).  ``main`` parses
``--src``/``--label``/``--out``, puts ``--src`` first on the import path
and ``perfbench/`` after it, adds provenance to the entry and merges it
into the output file under the label.  Each timed layer then carries, under
``calls``, the calls of each counted function in one more run of the layer
under ``census.traced``: counts repeat exactly where times drift.
With a ``change`` run next to a ``parent`` (or ``seed``) run it also writes
their best-time ratios (``speedup_best``, ``seed_speedup_best``) and,
against the parent, their median-time ratios (``speedup_median``) next to
each tree's own ``spread``: (max - min) / median of its per-round median
times, per layer.  A median
ratio is printed as resolved only where every round of one tree beat every
round of the other.  For two equally fast trees, 2 of the 924 equally likely
orderings of their 12 round times do that, about 0.12 false resolutions in a
recording of 56 layers; a ratio of medians outside both spreads is no such
test, since one slow round moves a median of 6.

The inputs a script shares with the end-to-end benchmark (scenario
documents, journals, covers and equality jobs) are read from
``perfbench/workloads.py`` inside ``measure`` (see ``workload``), so both
time the same inputs.

Every script takes ``--against``, a second tree written under ``parent``.
A process can import only one tree, so an in-process script then runs
itself in a child process per tree, ROUNDS times, alternating which tree
goes first (``alternate``): timings of two trees taken minutes apart carry
the host's drift, and timings taken in alternation much less.  Record a
before/after comparison this way:

    python tools/bench_sample_path.py --against /path/to/parent/src
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable

import census

ROOT = Path(__file__).resolve().parent.parent
REPEAT = 7
ROUNDS = 6
# the functions, by ``module.qualname``, whose calls each timed layer counts; set by ``main``
COUNTED: tuple[str, ...] = ()


def timed(fn, items: int = 1, min_run_s: float = 0.0) -> dict:
    """Best and median seconds per item of ``fn``, which handles ``items``,
    over REPEAT runs after one warm-up call.  Each run is a batch of calls
    lasting at least about ``min_run_s`` (a single call when it is 0).
    With COUNTED, ``calls`` holds the calls of each of its functions in
    ``spectral_forge`` (0 for one not called) in one more run, untimed,
    under ``census.traced``."""
    t0 = time.perf_counter()
    fn()
    number = max(1, int(min_run_s / max(time.perf_counter() - t0, 1e-9)))
    runs = []
    for _ in range(REPEAT):
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        runs.append((time.perf_counter() - t0) / (number * items))
    out = {"best_s": min(runs), "median_s": statistics.median(runs)}
    if COUNTED:
        import spectral_forge

        run, _ = census.traced(fn, package=Path(spectral_forge.__file__).parent)
        out["calls"] = {name: run["calls"].get(name, 0) for name in COUNTED}
    return out


def git_commit(src: Path) -> str | None:
    try:
        proc = subprocess.run(["git", "-C", str(src), "describe", "--always", "--dirty"],
                              capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return proc.stdout.strip() or None


def flat(tree, path: tuple[str, ...] = ()) -> dict:
    """{path: leaf} of a tree of dicts, in depth-first order; a leaf is a
    timing (a dict holding ``best_s``) or anything that is not a dict."""
    if not isinstance(tree, dict) or "best_s" in tree:
        return {path: tree}
    return {leaf_path: leaf for key, value in tree.items()
            for leaf_path, leaf in flat(value, path + (key,)).items()}


def nest(leaf_at: dict):
    """The tree whose ``flat`` is ``leaf_at``."""
    if () in leaf_at:
        return leaf_at[()]
    tree: dict = {}
    for (*path, key), leaf in leaf_at.items():
        node = tree
        for part in path:
            node = node.setdefault(part, {})
        node[key] = leaf
    return tree


def ratios(before: dict, after: dict, stat: str = "best_s") -> dict:
    """Ratio before over after of ``stat`` at every timing of the flat tree
    ``after`` that ``before`` has too (an older run may lack layers added
    since)."""
    return {path: round(before[path][stat] / timing[stat], 2)
            for path, timing in after.items() if path in before}


def leaves(layers: dict, key: str) -> dict:
    """The tree of the ``key`` of every timing of the flat tree ``layers``
    (None where it has none, as a run not merged from rounds has no
    ``spread``)."""
    return nest({path: timing.get(key) for path, timing in layers.items()})


def print_ratios(ratio: dict, rounds: dict[str, dict | None]) -> None:
    """Print each median ratio of the tree ``ratio``, marked unresolved
    unless every round time of one tree lies below every round time of the
    other; ``rounds`` is {label: tree of each timing's round times} for the
    two trees (None where a run has none)."""
    a_rounds, b_rounds = (flat(tree or {}) for tree in rounds.values())
    for path, value in flat(ratio).items():
        a, b = a_rounds.get(path), b_rounds.get(path)
        apart = bool(a and b) and (max(a) < min(b) or max(b) < min(a))
        print("median ratio", *path, f"{value:.2f}{'' if apart else ' unresolved'}")


def merge_rounds(rows: list[dict]) -> dict:
    """One layers tree from the trees of several rounds: each timing keeps
    its best time, each round's median time (``rounds``), their median and
    their spread, and its call counts, which every round must repeat."""
    flats = [flat(row) for row in rows]
    merged = {}
    for path in flats[0]:
        medians = [f[path]["median_s"] for f in flats]
        mid = statistics.median(medians)
        merged[path] = {"best_s": min(f[path]["best_s"] for f in flats), "median_s": mid,
                        "rounds": medians,
                        "spread": round((max(medians) - min(medians)) / mid, 3)}
        counts = [f[path].get("calls") for f in flats]
        if any(c != counts[0] for c in counts):
            raise ValueError(f"rounds counted different calls at {'/'.join(path)}: {counts}")
        if counts[0] is not None:
            merged[path]["calls"] = counts[0]
    return nest(merged)


@contextlib.contextmanager
def hooked(owner, name: str, hook: Callable[..., object]):
    """Within the block, ``owner.name`` first calls ``hook`` with the
    arguments of each call, then the original, which is put back after."""
    plain = getattr(owner, name)

    def call(*args, **kwargs):
        hook(*args, **kwargs)
        return plain(*args, **kwargs)

    setattr(owner, name, call)
    try:
        yield
    finally:
        setattr(owner, name, plain)


def workload(name: str):
    """The perfbench workload ``name`` of ``perfbench/workloads.py``, built
    in a temporary working directory: it writes its scenario files relative
    to that."""
    from workloads import WORKLOADS

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            return WORKLOADS[name](0)
        finally:
            os.chdir(cwd)


def alternate(trees: dict[str, Path]) -> dict[str, dict]:
    """{label: entry} of the running script over ROUNDS rounds, each a child
    process per tree (``--src``, ``--label`` and a temporary ``--out``),
    the first tree going first in even rounds and last in odd ones.  The
    layers are merged by ``merge_rounds``; other tables are the first
    round's."""
    script = [sys.executable, str(Path(sys.argv[0]).resolve())]
    entries: dict[str, list[dict]] = {label: [] for label in trees}
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "round.json"
        for i in range(ROUNDS):
            for label in list(trees)[::1 if i % 2 == 0 else -1]:
                subprocess.run([*script, "--src", str(trees[label]), "--label", label,
                                "--out", str(out)], check=True, stdout=subprocess.DEVNULL)
                entries[label].append(json.loads(out.read_text())["runs"][label])
                out.unlink()
    return {label: {**runs[0], "layers": merge_rounds([r["layers"] for r in runs]),
                    "provenance": {**runs[0]["provenance"], "rounds": ROUNDS,
                                   "interleaved_with": sorted(trees)}}
            for label, runs in entries.items()}


def main(doc: str, out_name: str, measure: Callable[..., dict],
         counted: tuple[str, ...] = (), paired: bool = False) -> None:
    """Run ``measure``, counting the calls of ``counted`` in each timed
    layer, and merge its entry into the output file, described by ``doc``.
    With ``--against`` a second tree is timed in alternation with ``--src``
    and its run labelled ``parent``: a ``paired`` script's ``measure`` gets
    {label: tree} and returns {label: entry}, any other script is run by
    ``alternate``."""
    global COUNTED
    COUNTED = counted
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="source tree holding spectral_forge (default: this repo's)")
    parser.add_argument("--label", default="change", help="key of this run in the output")
    parser.add_argument("--out", default=str(ROOT / out_name))
    parser.add_argument("--against", default=None,
                        help="second source tree, timed in alternation with "
                             "--src and written under the label 'parent'")
    args = parser.parse_args()
    src = Path(args.src).resolve()
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    trees = {args.label: src}
    if args.against:
        trees["parent"] = Path(args.against).resolve()
    if paired:
        entries = measure(trees)
    elif args.against:
        entries = alternate(trees)
    else:
        entries = {args.label: measure()}

    out_path = Path(args.out)
    out = json.loads(out_path.read_text()) if out_path.exists() else {}
    out["description"] = doc
    runs = out.setdefault("runs", {})
    for label, entry in entries.items():
        entry["provenance"] = {"python": platform.python_version(),
                               "machine": platform.machine(), "nproc": os.cpu_count(),
                               "commit": git_commit(trees[label]), "repeat": REPEAT,
                               **entry.get("provenance", {})}
        runs[label] = entry
    layers = {label: flat(runs[label]["layers"])
              for label in {*entries, "change", "parent", "seed"} if label in runs}
    if "change" in layers:
        after = layers["change"]
        for before, key in (("parent", "speedup_best"), ("seed", "seed_speedup_best")):
            if before in layers:
                out[key] = nest(ratios(layers[before], after))
        if "parent" in layers:
            out["speedup_median"] = nest(ratios(layers["parent"], after, "median_s"))
            out["spread"] = {label: leaves(layers[label], "spread")
                             for label in ("parent", "change")}
    out_path.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    for label in entries:
        rows: dict[tuple[str, ...], list[str]] = {}
        for (*path, key), timing in layers[label].items():
            rows.setdefault(tuple(path), []).append(f"{key}={timing['best_s'] * 1e3:.3f}ms")
        for path, row in rows.items():
            print(label, *path, " ".join(row))
    if "spread" in out:
        print_ratios(out["speedup_median"], {label: leaves(layers[label], "rounds")
                                             for label in ("parent", "change")})
