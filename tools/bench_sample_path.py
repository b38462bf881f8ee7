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

Each layer also counts the calls of the array routines that a report
should build once (``PellMap`` and ``TwoSections._values_array``,
``HyperCover._sheets_array`` and ``TateCurve._canonical_array``) and of the
scalar ``Poly.eval_complex``, in one more run under ``census.traced``.

Each layer is run 7 times after one warm-up; best and median seconds are
kept.  Results are merged into the output file under ``--label``.  A
before/after comparison times both trees in alternation, in child
processes, over several rounds (``_layer_bench.alternate``):

    python tools/bench_sample_path.py --against /path/to/parent/src
"""

from __future__ import annotations

import json
import tempfile
from functools import partial
from pathlib import Path

from _layer_bench import main, timed, workload

REPORTS = ("cover", "fm", "roundtrip", "props", "sample")
COUNTED = ("spectral.PellMap._values_array", "spectral.TwoSections._values_array",
           "covers.HyperCover._sheets_array", "tate.TateCurve._canonical_array",
           "covers.Poly.eval_complex")
SIZES = (256, 2048, 20_000)


def measure() -> dict:
    import numpy as np

    with tempfile.TemporaryDirectory() as tmp:
        return {"layers": measure_in(Path(tmp)), "provenance": {"numpy": np.__version__}}


def measure_in(workdir: Path) -> dict:
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
    out = {}
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
    return out


if __name__ == "__main__":
    main(__doc__, "BENCH_sample_path.json", measure, COUNTED)
