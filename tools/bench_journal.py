"""Per-layer timings of journal replay, written to BENCH_journal.json.

Times seven layers on push/pop journals of 200, 400, 800 and 1,600 steps
over eight base points (three pushes to two pops at each), on the split
family at tau = 2 and on the genus-1 pushforward family (w^2 = b^3 + 1,
map (10 + b^3 + 6w) / (8 - b^3), tau = 2).  The families, the points and
the journals (variant 0 of ``make_journal``) are those of the benchmark's
journal-replay workload:

- ``parse_scenario``: the scenario document to a family, journal replayed;
- ``determinant``: ``FamilySpec.determinant`` of the parsed family, its
  cached value dropped before each run;
- ``elem_mod``: one degree-1 push at a point off the journal, on the
  parsed family;
- ``attach_generic_jumps``: as many degree-1 steps as the journal has,
  spread over eight points off the journal, on the parsed family;
- ``modify``, ``props``, ``cover``: the CLI reports at 32 samples, in
  process, scenario file included.

Next to the timings, ``point_hashes`` counts, per family and length, the
``QI.__hash__`` calls of one ``parse_scenario`` and of one run of each
report; a journal point (``BasePoint``) hashes as its ``QI`` coordinate.
They are counted once, outside the timed runs, and do not drift with the
host.

Each layer is run 7 times after one warm-up; best and median seconds are
kept.  Results are merged into the output file under ``--label``.  A
before/after comparison times both trees in alternation, in child
processes, over several rounds (``_layer_bench.alternate``):

    python tools/bench_journal.py --against /path/to/parent/src
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from _layer_bench import hooked, main, timed, workload

DESCRIPTION = (
    "Per-layer timings of journal replay, written by tools/bench_journal.py: "
    "parse_scenario, FamilySpec.determinant, one elem_mod, "
    "attach_generic_jumps of as many steps as the journal has, and the CLI "
    "modify, props and cover reports (32 samples, in process) on push/pop "
    "journals of 200 to "
    "1600 steps over 8 points, for the split family and the genus-1 "
    "pushforward family at tau = 2; best and median seconds of 'repeat' "
    "runs after one warm-up, one entry of 'runs' per source tree; "
    "speedup_best is parent over change.  'point_hashes' counts, per family "
    "and length, the QI.__hash__ calls of parse_scenario and of each report.")
LENGTHS = (200, 400, 800, 1600)
COMMANDS = ("modify", "props", "cover")
# Off the journal points, the sample circle, the branch points and the poles:
# where elem_mod and attach_generic_jumps push.
FRESH = ((4, 0), (-4, 0), (0, 4), (0, -4), (5, 0), (-5, 0), (0, 5), (0, -5))


def with_journal(base: dict, length: int) -> dict:
    """The scenario document ``base`` with the journal-replay workload's
    journal of ``length`` steps (variant 0)."""
    from workloads import make_journal

    return {**base, "family": {**base["family"],
                               "modifications": make_journal(0, length)}}


def measure() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        layers, hashes = measure_in(Path(tmp))
        return {"layers": layers, "point_hashes": hashes}


def count_hashes(run) -> int:
    """``QI.__hash__`` calls during one call of ``run``."""
    from spectral_forge import QI

    seen = [0]

    def count(*args):
        seen[0] += 1

    with hooked(QI, "__hash__", count):
        run()
    return seen[0]


def measure_in(workdir: Path) -> tuple[dict, dict]:
    from spectral_forge import (BasePoint, attach_generic_jumps, elem_mod,
                                parse_scenario)
    from spectral_forge.cli import run_command

    fresh = [BasePoint.of(*xy) for xy in FRESH]

    out: dict = {}
    hashes: dict = {}
    for name, base in workload("journal-replay").bases.items():
        out[name], hashes[name] = {}, {}
        for length in LENGTHS:
            doc = with_journal(base, length)
            path = workdir / f"{name}-{length}.json"
            path.write_text(json.dumps(doc))
            family = parse_scenario(doc).family

            def determinant():
                family.__dict__.pop("determinant", None)
                return family.determinant

            plan = [(at, length // len(fresh)) for at in fresh]
            row = {"parse_scenario": timed(lambda: parse_scenario(doc)),
                   "determinant": timed(determinant),
                   "elem_mod": timed(lambda: elem_mod(family, fresh[0], 1, 2.0)),
                   "attach_generic_jumps": timed(
                       lambda: attach_generic_jumps(family, plan))}
            counts = {"parse_scenario": count_hashes(lambda: parse_scenario(doc))}
            for cmd in COMMANDS:
                argv = [cmd, "--scenario", str(path), "--samples", "32",
                        "--json", str(workdir / "report.json")]
                row[cmd] = timed(lambda: run_command(argv))
                counts[cmd] = count_hashes(lambda: run_command(argv))
            out[name][str(length)] = row
            hashes[name][str(length)] = counts
    return out, hashes


if __name__ == "__main__":
    main(__doc__, "BENCH_journal.json", DESCRIPTION, measure)
