"""Cold-start wall times of the CLI, written to BENCH_cold.json.

Every timing is one fresh interpreter, from process start to exit, the
median (and best) of 11 runs:

- ``baseline``: the bare interpreter (``-c pass``), ``import numpy`` and
  ``import spectral_forge.cli``;
- the seven subcommands at 32, 256 and 2,048 samples (seed 1) on the three
  jump-free documents of the benchmark's sample-sweep workload: the split
  family at tau = 2 (with a descent point), the genus-1 pushforward
  (w^2 = b^3 + 1) at tau = 2 and the genus-2 pushforward
  (w^2 = b^5 - b + 1) at tau = 1.5+0.5i;
- ``journal-800``: ``modify`` on the 800-step push/pop journal of
  ``tools/bench_journal.py`` (the journal-replay workload's variant 0) over
  the genus-1 pushforward.

The runs go round all commands 11 times, so a drift of the host spreads
over every entry.  Given a second tree (``--against``), each run of a
command is followed by the same run on the other tree, alternating which
goes first: on a shared host, timings taken minutes apart can differ by
a third with neither tree changed, and timings taken together much less.  Each run
imports from cached bytecode: the interpreters share a private
``PYTHONPYCACHEPREFIX`` in a temporary directory, filled by one warm-up
run of each command, so two trees are measured the same way whatever
their own ``__pycache__`` holds.  The same run records the ``-X
importtime`` self time of each ``spectral_forge`` module (median
microseconds) and the exit code of each command.  Results are merged into
the output file under ``--label`` (and ``parent`` for ``--against``):

    python tools/bench_cold.py --against /path/to/parent/src
"""

from __future__ import annotations

import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from _layer_bench import main, nest, workload
from bench_journal import with_journal

COLD_REPEAT = 11
SIZES = (32, 256, 2048)
COMMANDS = ("cover", "fm", "roundtrip", "classify", "modify", "props", "sample")
IMPORTTIME = re.compile(r"import time:\s+(\d+) \|\s+\d+ \|\s+(spectral_forge\S*)")


def commands(workdir: Path) -> dict[tuple[str, ...], list[str]]:
    """The argv of every timed process, by its path in the ``layers`` tree."""
    py = [sys.executable]

    def report(cmd: str, path: Path, samples: int) -> list[str]:
        argv = [cmd, "--scenario", str(path), "--samples", str(samples),
                "--seed", "1", "--json", str(workdir / "out.json")]
        if cmd == "sample":
            argv += ["--csv", str(workdir / "rows.csv")]
        return py + ["-m", "spectral_forge.cli"] + argv

    out = {("baseline", "python"): py + ["-c", "pass"],
           ("baseline", "import numpy"): py + ["-c", "import numpy"],
           ("baseline", "import spectral_forge.cli"):
               py + ["-c", "import spectral_forge.cli"]}
    docs = workload("sample-sweep").docs
    journal = with_journal(workload("journal-replay").bases["push-g1-t2"], 800)
    for name, doc in {**docs, "journal-800": journal}.items():
        (workdir / f"{name}.json").write_text(json.dumps(doc))
    for name in docs:
        for n in SIZES:
            for cmd in COMMANDS:
                out[(name, str(n), cmd)] = report(cmd, workdir / f"{name}.json", n)
    out[("journal-800", "32", "modify")] = report(
        "modify", workdir / "journal-800.json", 32)
    return out


def measure(trees: dict[str, Path]) -> dict[str, dict]:
    with tempfile.TemporaryDirectory() as tmp:
        return measure_in(Path(tmp), trees)


def measure_in(workdir: Path, trees: dict[str, Path]) -> dict[str, dict]:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPYCACHEPREFIX"] = str(workdir / "pycache")
    envs = {label: {**env, "PYTHONPATH": str(src)} for label, src in trees.items()}
    runs = commands(workdir)
    walls = {label: {key: [] for key in runs} for label in trees}
    # warm-up: writes the bytecode of both trees and numpy
    exits = {label: {"/".join(key): subprocess.run(argv, env=envs[label],
                                                   capture_output=True).returncode
                     for key, argv in runs.items()} for label in trees}
    selves: dict[str, dict[str, list[int]]] = {label: {} for label in trees}
    for i in range(COLD_REPEAT):
        order = list(trees) if i % 2 == 0 else list(trees)[::-1]
        for key, argv in runs.items():
            for label in order:
                t0 = time.perf_counter()
                subprocess.run(argv, env=envs[label], capture_output=True)
                walls[label][key].append(time.perf_counter() - t0)
        for label in order:
            proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                                   "import spectral_forge.cli"],
                                  env=envs[label], capture_output=True, text=True)
            for self_us, module in IMPORTTIME.findall(proc.stderr):
                selves[label].setdefault(module, []).append(int(self_us))
    out = {}
    for label in trees:
        out[label] = {
            "layers": nest({key: {"best_s": min(times), "median_s": statistics.median(times),
                                  "rounds": times} for key, times in walls[label].items()}),
            "exit_codes": exits[label],
            "importtime_self_us": {m: statistics.median(v)
                                   for m, v in sorted(selves[label].items())},
            "provenance": {"repeat": COLD_REPEAT, "interleaved_with": sorted(trees),
                           "bytecode": "cached, in a private PYTHONPYCACHEPREFIX "
                                       "written by one warm-up run per command"}}
    return out


if __name__ == "__main__":
    main(__doc__, "BENCH_cold.json", measure, paired=True)
