"""Per-layer timings of journal replay, written to BENCH_journal.json.

Times seven layers on push/pop journals of 200, 400, 800 and 1,600 steps
over eight base points (three pushes to two pops at each), on the split
family at tau = 2 and on the genus-1 pushforward family (w^2 = b^3 + 1,
map (10 + b^3 + 6w) / (8 - b^3), tau = 2):

- ``parse_scenario``: the scenario document to a family, journal replayed;
- ``determinant``: ``FamilySpec.determinant`` of the parsed family, its
  cached value dropped before each run;
- ``elem_mod``: one degree-1 push at a point off the journal, on the
  parsed family;
- ``attach_generic_jumps``: as many degree-1 steps as the journal has,
  spread over eight points off the journal, on the parsed family;
- ``modify``, ``props``, ``cover``: the CLI reports at 32 samples, in
  process, scenario file included.

Each layer is run 7 times after one warm-up; best and median seconds are
kept.  Results are merged into the output file under ``--label``.  A
before/after comparison times both trees in alternation, in child
processes, over several rounds (``_layer_bench.alternate``):

    python tools/bench_journal.py --against /path/to/parent/src
"""

from __future__ import annotations

import json
import random
import tempfile
from pathlib import Path

from _layer_bench import main, timed

DESCRIPTION = (
    "Per-layer timings of journal replay, written by tools/bench_journal.py: "
    "parse_scenario, FamilySpec.determinant, one elem_mod, "
    "attach_generic_jumps of as many steps as the journal has, and the CLI "
    "modify, props and cover reports (32 samples, in process) on push/pop "
    "journals of 200 to "
    "1600 steps over 8 points, for the split family and the genus-1 "
    "pushforward family at tau = 2; best and median seconds of 'repeat' "
    "runs after one warm-up, one entry of 'runs' per source tree; "
    "speedup_best is parent over change.")
LENGTHS = (200, 400, 800, 1600)
COMMANDS = ("modify", "props", "cover")
F_G1 = [[1, 1, 0, 1], [0, 1, 0, 1], [0, 1, 0, 1], [1, 1, 0, 1]]
PRESENTATIONS = {
    "split-t2": {"type": "split", "factors": [[0.7, 0.1], [1.3, -0.2]]},
    "push-g1-t2": {"type": "pushforward", "cover": {"f": F_G1},
                   "map": {"p": [[3, 1, 0, 1]], "q": [[1, 1, 0, 1]],
                           "s": [1, 1, 0, 1]}},
}
# Away from the sample circle |b| = 2, the branch points of b^3 + 1 and the
# poles b^3 = 8 of the genus-1 map.
POINTS = ([3, 1, 0, 1], [-3, 1, 0, 1], [0, 1, 3, 1], [0, 1, -3, 1],
          [5, 2, 1, 1], [-5, 2, -1, 1], [7, 3, 0, 1], [1, 2, 5, 2])
# Off the journal points, the sample circle, the branch points and the poles:
# where elem_mod and attach_generic_jumps push.
FRESH = ((4, 0), (-4, 0), (0, 4), (0, -4), (5, 0), (-5, 0), (0, 5), (0, -5))


def journal(length: int) -> list[dict]:
    """A valid journal: pops only on jumped fibres, pushes never below the
    current height (equal height reuses the line point)."""
    rng = random.Random(length)
    per_point = length // len(POINTS)
    order = [i for i in range(len(POINTS)) for _ in range(per_point)]
    rng.shuffle(order)
    pops_left = [per_point * 2 // 5] * len(POINTS)
    pushes_left = [per_point - q for q in pops_left]
    stacks: list[list[int]] = [[] for _ in POINTS]
    steps = []
    for i in order:
        stack, at = stacks[i], POINTS[i]
        p, q = pushes_left[i], pops_left[i]
        if stack and q and (not p or rng.random() < q / (p + q)):
            pops_left[i] -= 1
            stack.pop()
            steps.append({"op": "pop", "at": at})
            continue
        pushes_left[i] -= 1
        degree = (stack[-1] if stack else 1) + rng.randrange(2)
        stack.append(degree)
        steps.append({"op": "push", "at": at, "degree": degree,
                      "line_point": [1.7, 0.0]})
    return steps


def measure() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        return {"layers": measure_in(Path(tmp))}


def measure_in(workdir: Path) -> dict:
    from spectral_forge import (BasePoint, attach_generic_jumps, elem_mod,
                                parse_scenario)
    from spectral_forge.cli import run_command

    fresh = [BasePoint.of(*xy) for xy in FRESH]

    out: dict = {}
    for name, pres in PRESENTATIONS.items():
        out[name] = {}
        for length in LENGTHS:
            doc = {"surface": {"tau": [2.0, 0.0], "theta_degree": 1},
                   "family": {"presentation": pres,
                              "modifications": journal(length)}}
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
            for cmd in COMMANDS:
                argv = [cmd, "--scenario", str(path), "--samples", "32",
                        "--json", str(workdir / "report.json")]
                row[cmd] = timed(lambda: run_command(argv))
            out[name][str(length)] = row
    return out


if __name__ == "__main__":
    main(__doc__, "BENCH_journal.json", DESCRIPTION, measure)
