"""Per-layer timings of journal replay, written to BENCH_journal.json.

Times six layers on push/pop journals of 200, 400, 800 and 1,600 steps
over eight base points (three pushes to two pops at each), on the split
family at tau = 2 and on the genus-1 pushforward family (w^2 = b^3 + 1,
map (10 + b^3 + 6w) / (8 - b^3), tau = 2).  The families, the points and
the journals (variant 0 of ``make_journal``) are those of the benchmark's
journal-replay workload:

- ``parse_scenario``: the scenario document to a family, journal replayed;
- ``elem_mod``: one degree-1 push at a point off the journal, on the
  parsed family;
- ``attach_generic_jumps``: as many degree-1 steps as the journal has,
  spread over eight points off the journal, on the parsed family;
- ``modify``, ``props``, ``cover``: the CLI reports at 32 samples, in
  process, scenario file included.

Each layer also counts its ``QI.__hash__`` calls, in one more run under
``census.traced``; a journal point (``BasePoint``) hashes as its ``QI``
coordinate.

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

from _layer_bench import main, timed, workload

LENGTHS = (200, 400, 800, 1600)
COMMANDS = ("modify", "props", "cover")
COUNTED = ("covers.QI.__hash__",)
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
        return {"layers": measure_in(Path(tmp))}


def measure_in(workdir: Path) -> dict:
    from spectral_forge import (BasePoint, attach_generic_jumps, elem_mod,
                                parse_scenario)
    from spectral_forge.cli import run_command

    fresh = [BasePoint.of(*xy) for xy in FRESH]

    out: dict = {}
    for name, base in workload("journal-replay").bases.items():
        out[name] = {}
        for length in LENGTHS:
            doc = with_journal(base, length)
            path = workdir / f"{name}-{length}.json"
            path.write_text(json.dumps(doc))
            family = parse_scenario(doc).family
            plan = [(at, length // len(fresh)) for at in fresh]
            row = {"parse_scenario": timed(lambda: parse_scenario(doc)),
                   "elem_mod": timed(lambda: elem_mod(family, fresh[0], 1, 2.0)),
                   "attach_generic_jumps": timed(
                       lambda: attach_generic_jumps(family, plan))}
            for cmd in COMMANDS:
                argv = [cmd, "--scenario", str(path), "--samples", "32",
                        "--json", str(workdir / "report.json")]
                row[cmd] = timed(lambda: run_command(argv))
            out[name][str(length)] = row
    return out


if __name__ == "__main__":
    main(__doc__, "BENCH_journal.json", measure, COUNTED)
