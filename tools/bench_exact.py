"""Per-layer timings of the exact group law, written to BENCH_exact.json.

Times Cantor's group law by genus and by coefficient height, on n*P chains
for n = 10, 30, 61 and 120 on three curves: w^2 = b^3 + b + 1 with P = (0, 1)
(of infinite order, so heights grow; the benchmark's genus-1 points are
torsion), w^2 = b^5 - b + 1 and w^2 = b^7 - b + 1 with P = (1, 1).  At
each n it times

- ``class_add``: one step (n - 1)P + P;
- ``mumford_compose``: the composition of that step alone;
- ``cantor_reduce``: the reduction of that step alone, from the composed
  class;
- ``chain``: the whole chain P, 2P, ..., nP by repeated ``class_add``;

and keeps the largest coefficient bit length of nP (numerators and
denominators of its Q(i) coefficients).  Each layer is run REPEAT times
after one warm-up, every run a batch of calls lasting at least about a
millisecond; best and median seconds per call are kept.  Results are merged
into the output file under ``--label``, so two runs (one per tree) give the
before and after:

    python tools/bench_exact.py --src /path/to/parent/src --label parent
    python tools/bench_exact.py --label change

A run labelled ``seed`` (the first source tree) is compared with
``change`` as well.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DESCRIPTION = (
    "Per-layer timings of the exact group law, written by tools/bench_exact.py: "
    "class_add, mumford_compose and cantor_reduce of the step (n-1)P + P, and "
    "the whole chain P..nP, for n = 10, 30, 61, 120 on w^2 = b^3 + b + 1 "
    "(P = (0, 1)), w^2 = b^5 - b + 1 and w^2 = b^7 - b + 1 (P = (1, 1)); "
    "best and median seconds per call of 'repeat' runs after one warm-up, "
    "one entry of 'runs' per source tree, with the largest coefficient bit "
    "length of nP; speedup_best is parent over change, seed_speedup_best "
    "seed over change.")
CURVES = {"g1": ((1, 1, 0, 1), (0, 1)),
          "g2": ((1, -1, 0, 0, 0, 1), (1, 1)),
          "g3": ((1, -1, 0, 0, 0, 0, 0, 1), (1, 1))}
HEIGHTS = (10, 30, 61, 120)
REPEAT = 7
MIN_RUN_S = 1e-3


def timed(fn) -> dict:
    """Best and median seconds per call of ``fn``."""
    t0 = time.perf_counter()
    fn()
    number = max(1, int(MIN_RUN_S / max(time.perf_counter() - t0, 1e-9)))
    runs = []
    for _ in range(REPEAT):
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        runs.append((time.perf_counter() - t0) / number)
    return {"best_s": min(runs), "median_s": statistics.median(runs)}


def coeff_bits(d) -> int:
    return max(max(abs(c.re.numerator).bit_length(), c.re.denominator.bit_length(),
                   abs(c.im.numerator).bit_length(), c.im.denominator.bit_length())
               for p in (d.u, d.v) for c in p.coeffs)


def measure() -> tuple[dict, dict]:
    import spectral_forge.covers as sf

    layers: dict = {}
    bits: dict = {}
    for name, (f, (x, w)) in CURVES.items():
        cover = sf.HyperCover(sf.Poly.of(*f))
        p = sf.point_class(cover, sf.QI.of(x), sf.QI.of(w))
        layers[name], bits[name] = {}, {}
        for n in HEIGHTS:
            def chain(n=n):
                d = p
                for _ in range(n - 1):
                    d = sf.class_add(d, p)
                return d

            prev = chain(n - 1)
            composed = sf.mumford_compose(prev, p)
            layers[name][str(n)] = {
                "class_add": timed(lambda: sf.class_add(prev, p)),
                "mumford_compose": timed(lambda: sf.mumford_compose(prev, p)),
                "cantor_reduce": timed(lambda: sf.cantor_reduce(composed)),
                "chain": timed(chain)}
            bits[name][str(n)] = coeff_bits(sf.class_add(prev, p))
    return layers, bits


def git_commit(src: Path) -> str | None:
    try:
        proc = subprocess.run(["git", "-C", str(src), "describe", "--always", "--dirty"],
                              capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return proc.stdout.strip() or None


def ratios(before: dict, after: dict) -> dict:
    return {name: {n: {layer: round(before[name][n][layer]["best_s"] / t["best_s"], 2)
                       for layer, t in row.items()}
                   for n, row in after[name].items()}
            for name in after}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="source tree holding spectral_forge (default: this repo's)")
    parser.add_argument("--label", default="change", help="key of this run in the output")
    parser.add_argument("--out", default=str(ROOT / "BENCH_exact.json"))
    args = parser.parse_args()
    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))

    layers, bits = measure()
    out_path = Path(args.out)
    doc = json.loads(out_path.read_text()) if out_path.exists() else {}
    doc["description"] = DESCRIPTION
    doc.setdefault("runs", {})[args.label] = {
        "layers": layers,
        "coeff_bits": bits,
        "provenance": {"python": platform.python_version(),
                       "machine": platform.machine(), "nproc": os.cpu_count(),
                       "commit": git_commit(src), "repeat": REPEAT},
    }
    runs = doc["runs"]
    if "change" in runs:
        after = runs["change"]["layers"]
        for before, key in (("parent", "speedup_best"), ("seed", "seed_speedup_best")):
            if before in runs:
                doc[key] = ratios(runs[before]["layers"], after)
    out_path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    for name, rows in layers.items():
        for n, row in rows.items():
            print(name, n, f"bits={bits[name][n]}",
                  " ".join(f"{k}={v['best_s'] * 1e3:.3f}ms" for k, v in row.items()))


if __name__ == "__main__":
    main()
