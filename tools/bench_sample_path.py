"""Per-layer timings of the per-sample path, written to BENCH_sample_path.json.

Times ten layers at 256, 2,048 and 20,000 samples on the genus-1
pushforward family (w^2 = b^3 + 1, map (10 + b^3 + 6w) / (8 - b^3), tau = 2),
the ``push-g1-t2`` document of the benchmark's sample-sweep workload:

- ``ladder``: ``default_sample_points`` at phase 0.05, the sample ladder's
  array tests and its scalar map test (``PellMap.punctures_near``);
- ``sheet_values``: the factor map's two sheet values at every sample
  (``_values_array``);
- ``canonical_rep``: the canonical representatives of those 2n values
  (``_canonical_array``);
- ``lattice_distance``: the nearest powers of tau to those 2n values
  (``_lattice_distance_array``);
- ``cover_from_family``: the family's cover with its per-sample check;
- ``cover``, ``fm``, ``roundtrip``, ``props``, ``sample``: the CLI reports,
  in process, ladder included;
- ``descent``: ``z_action_residual`` with the descent twist at b0 = 0 on
  and off (two calls), on the |tau| circle around b0.

Next to the timings, ``array_calls`` counts, per report at each size, the
calls of the array routines that a report should build once: ``PellMap``
and ``TwoSections._values_array``, ``HyperCover._sheets_array`` and
``TateCurve._canonical_array``; ``eval_complex_calls`` counts the scalar
``Poly.eval_complex`` calls of the ladder and of each report, and
``math_log_elements`` the elements each report passes to a per-element
``math.log`` (through ``_carray.each``; lattice reduction rechecks only
elements at a rounding edge of an exponent).  Counts do not drift with the
host.

Each layer is run 7 times after one warm-up; best and median seconds are
kept.  Results are merged into the output file under ``--label``.  A
before/after comparison times both trees in alternation, in child
processes, over several rounds (``_layer_bench.alternate``):

    python tools/bench_sample_path.py --against /path/to/parent/src
"""

from __future__ import annotations

import contextlib
import json
import math
import tempfile
from functools import partial
from pathlib import Path

from _layer_bench import hooked, main, timed, workload

DESCRIPTION = (
    "Per-layer timings of the per-sample path on the genus-1 pushforward "
    "family at tau = 2, written by tools/bench_sample_path.py: the sample "
    "ladder (default_sample_points), the factor map's sheet values, "
    "canonical_rep and lattice_distance of those values, cover_from_family, "
    "the CLI cover, fm, roundtrip, props and sample reports (ladder "
    "included) and z_action_residual with the descent twist at b0 = 0 on "
    "and off, at 256, 2048 and 20000 samples; best and median seconds of "
    "'repeat' runs after one warm-up, one entry of 'runs' per source tree; "
    "speedup_best is parent over change.  'array_calls' counts, per report "
    "and size, the _values_array, _sheets_array and _canonical_array calls; "
    "'eval_complex_calls' the scalar Poly.eval_complex calls of the ladder "
    "and of each report; 'math_log_elements' the elements each report passes "
    "to a per-element math.log.")
REPORTS = ("cover", "fm", "roundtrip", "props", "sample")
# the array routines a report should build once, by the class that owns them
ARRAY_ROUTINES = (("PellMap", "_values_array"), ("TwoSections", "_values_array"),
                  ("HyperCover", "_sheets_array"), ("TateCurve", "_canonical_array"))
EVAL_COMPLEX = (("Poly", "eval_complex"),)
SIZES = (256, 2048, 20_000)


def measure() -> dict:
    import numpy as np

    with tempfile.TemporaryDirectory() as tmp:
        layers, calls, evals, logs = measure_in(Path(tmp))
        return {"layers": layers, "array_calls": calls, "eval_complex_calls": evals,
                "math_log_elements": logs, "provenance": {"numpy": np.__version__}}


def count_calls(report, routines=ARRAY_ROUTINES) -> dict:
    """{routine: calls} during one run of ``report``, each routine wrapped
    for that run only."""
    import spectral_forge

    counts = {}
    with contextlib.ExitStack() as stack:
        for cls_name, name in routines:
            key = f"{cls_name}.{name}"
            counts[key] = 0

            def count(*args, _key=key, **kwargs):
                counts[_key] += 1
            stack.enter_context(hooked(getattr(spectral_forge, cls_name), name, count))
        report()
    return counts


def count_log_elements(report) -> int:
    """Elements passed to a per-element ``math.log`` by ``_carray.each``
    during one run of ``report``."""
    from spectral_forge import _carray

    seen = [0]

    def count(fn, *args):
        seen[0] += len(args[0]) if fn is math.log else 0

    with hooked(_carray, "each", count):
        report()
    return seen[0]


def measure_in(workdir: Path) -> tuple[dict, dict, dict, dict]:
    import numpy as np
    from spectral_forge import (BasePoint, cover_from_family, default_sample_points,
                                descent_divisor, parse_scenario, z_action_residual)
    from spectral_forge.cli import run_command

    doc = workload("sample-sweep").docs["push-g1-t2"]
    path = workdir / "push-g1-t2.json"
    path.write_text(json.dumps(doc))
    family = parse_scenario(doc).family
    fmap = family.data.factor_map
    curve = family.curve
    twist = descent_divisor(family, BasePoint.of(0))
    untwisted = twist.disabled()
    out, calls, evals, logs = {}, {}, {}, {}
    for n in SIZES:
        ladder = partial(default_sample_points, family, n, phase=0.05)
        pts = ladder()
        b = np.array(pts, dtype=complex)
        v0, v1, _ = fmap._values_array(b)
        values = np.concatenate([v0, v1])

        def report(cmd):
            csv = ["--csv", str(workdir / "s.csv")] if cmd == "sample" else []
            return lambda: run_command([cmd, "--scenario", str(path), "--samples", str(n),
                                        "--seed", "1", "--json", str(workdir / "r.json"),
                                        *csv])

        out[str(n)] = {
            "ladder": timed(ladder),
            "sheet_values": timed(lambda: fmap._values_array(b)),
            "canonical_rep": timed(lambda: curve._canonical_array(values)),
            "lattice_distance": timed(lambda: curve._lattice_distance_array(values)),
            "cover_from_family": timed(lambda: cover_from_family(family, pts)),
            **{cmd: timed(report(cmd)) for cmd in REPORTS},
            "descent": timed(lambda: (z_action_residual(family, twist, n),
                                      z_action_residual(family, untwisted, n))),
        }
        calls[str(n)] = {cmd: count_calls(report(cmd)) for cmd in REPORTS}
        evals[str(n)] = {name: count_calls(run, EVAL_COMPLEX)["Poly.eval_complex"]
                         for name, run in (("ladder", ladder),
                                           *((cmd, report(cmd)) for cmd in REPORTS))}
        logs[str(n)] = {cmd: count_log_elements(report(cmd)) for cmd in REPORTS}
    return out, calls, evals, logs


if __name__ == "__main__":
    main(__doc__, "BENCH_sample_path.json", DESCRIPTION, measure)
