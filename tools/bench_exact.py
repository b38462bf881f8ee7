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
denominators of its Q(i) coefficients).  Each layer is run 7 times after
one warm-up, every run a batch of calls lasting at least about a
millisecond; best and median seconds per call are kept.  Results are
merged into the output file under ``--label``.  A before/after comparison
times both trees in alternation, in child processes, over several rounds
(``_layer_bench.alternate``):

    python tools/bench_exact.py --against /path/to/parent/src

A run labelled ``seed`` (the first source tree) is compared with
``change`` as well.
"""

from __future__ import annotations

from _layer_bench import main, timed

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
MIN_RUN_S = 1e-3


def coeff_bits(d) -> int:
    return max(max(abs(c.re.numerator).bit_length(), c.re.denominator.bit_length(),
                   abs(c.im.numerator).bit_length(), c.im.denominator.bit_length())
               for p in (d.u, d.v) for c in p.coeffs)


def measure() -> dict:
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
                "class_add": timed(lambda: sf.class_add(prev, p), min_run_s=MIN_RUN_S),
                "mumford_compose": timed(lambda: sf.mumford_compose(prev, p),
                                         min_run_s=MIN_RUN_S),
                "cantor_reduce": timed(lambda: sf.cantor_reduce(composed),
                                       min_run_s=MIN_RUN_S),
                "chain": timed(chain, min_run_s=MIN_RUN_S)}
            bits[name][str(n)] = coeff_bits(sf.class_add(prev, p))
    return {"layers": layers, "coeff_bits": bits}


if __name__ == "__main__":
    main(__doc__, "BENCH_exact.json", DESCRIPTION, measure)
