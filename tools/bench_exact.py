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
denominators of its Q(i) coefficients).  On the genus-3 curve it also times
the Q(i) and ``Poly`` operations on the coefficients of nP at n = 10 and 61
(``qi``: the sum and product of u_0 and u_1, the inverse of u_0; ``poly``:
u * v and the division of v^2 by u, with remainder).

The function search (``search``) is timed on the low-height pairs of the
benchmark's cantor-chain workload (its ``CANTOR_COVERS``), at genus 1-3 on
w^2 = b^3 + 1, w^2 = b^5 - b + 1 and w^2 = b^7 - b + 1 with P = (0, 1) and
Q its second rational point: ``classes_equal_by_search`` of P and Q, and of
the semi-reduced and the reduced kP at the least k = g+1..g+3 whose supports
are disjoint, and ``conjugate_sum_principal_witness`` of that semi-reduced
kP.

The rest of the workload's group-law work is timed at n = 61 on the
genus-3 curve (``group``): ``sum``, the generic add aP + bP of the two
full-degree classes 30P and 31P; ``difference``, D - D as
``class_equal(nP, nP)``; and ``prym``, D + iota(D) as ``in_prym(nP)``.
``nullspace`` times ``qi_nullspace`` on every matrix the function search
builds for the workload's pool of equality jobs, collected by running
those jobs, all of them per call.

Each layer is run 7 times after one warm-up, every run a batch of calls
lasting at least about a millisecond; best and median seconds per call are
kept.  Results are merged into the output file under ``--label``.  A
before/after comparison times both trees in alternation, in child
processes, over several rounds (``_layer_bench.alternate``):

    python tools/bench_exact.py --against /path/to/parent/src

A run labelled ``seed`` (the first source tree) is compared with
``change`` as well.
"""

from __future__ import annotations

from _layer_bench import hooked, main, timed, workload

CURVES = {"g1": ((1, 1, 0, 1), (0, 1)),
          "g2": ((1, -1, 0, 0, 0, 1), (1, 1)),
          "g3": ((1, -1, 0, 0, 0, 0, 0, 1), (1, 1))}
HEIGHTS = (10, 30, 61, 120)
ARITH_HEIGHTS = (10, 61)
GROUP_N, GROUP_SPLIT = 61, 30
MIN_RUN_S = 1e-3


def measure() -> dict:
    import spectral_forge.covers as sf
    from workloads import CANTOR_COVERS, coeff_bits

    layers: dict = {}
    bits: dict = {}
    qi: dict = {}
    poly: dict = {}
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
            if name == "g3" and n in ARITH_HEIGHTS:
                qi[str(n)], poly[str(n)] = arithmetic(sf.class_add(prev, p))
    chain = workload("cantor-chain")
    matrices = search_matrices(sf, chain)
    layers.update(qi=qi, poly=poly, search={f"g{g}": search(sf, chain.point(g, 0, 1),
                                                            chain.point(g, 1, 1))
                                            for g in CANTOR_COVERS},
                  group=group(sf), nullspace={"search_matrices": timed(
                      lambda: [sf.qi_nullspace(rows, n) for rows, n in matrices],
                      min_run_s=MIN_RUN_S)})
    return {"layers": layers, "coeff_bits": bits, "nullspace_matrices": len(matrices)}


def arithmetic(d) -> tuple[dict, dict]:
    """Q(i) and Poly operations on the coefficients of the class d."""
    u, v = d.u, d.v
    a, b, square = u.coeffs[0], u.coeffs[1], v * v
    return ({"add": timed(lambda: a + b, min_run_s=MIN_RUN_S),
             "mul": timed(lambda: a * b, min_run_s=MIN_RUN_S),
             "inv": timed(lambda: a.inv(), min_run_s=MIN_RUN_S)},
            {"mul": timed(lambda: u * v, min_run_s=MIN_RUN_S),
             "divmod": timed(lambda: square.divmod(u), min_run_s=MIN_RUN_S)})


def search(sf, p, q) -> dict:
    """The function search on the points P and Q of one of the cantor-chain
    covers."""
    genus = p.cover.genus
    composed = reduced = p
    for k in range(2, genus + 4):
        composed, reduced = sf.mumford_compose(composed, p), sf.class_add(reduced, p)
        if k > genus and composed.u.gcd(reduced.u).degree == 0:
            break
    return {"points": timed(lambda: sf.classes_equal_by_search(p, q), min_run_s=MIN_RUN_S),
            "kP": timed(lambda: sf.classes_equal_by_search(composed, reduced),
                        min_run_s=MIN_RUN_S),
            "witness": timed(lambda: sf.conjugate_sum_principal_witness(composed),
                             min_run_s=MIN_RUN_S)}


def group(sf) -> dict:
    """aP + bP, D - D and D + iota(D) at n = GROUP_N on the genus-3 curve."""
    f, (x, w) = CURVES["g3"]
    cover = sf.HyperCover(sf.Poly.of(*f))
    p = sf.point_class(cover, sf.QI.of(x), sf.QI.of(w))
    d, kept = p, {}
    for n in range(2, GROUP_N + 1):
        d = kept[n] = sf.class_add(d, p)
    a, b = kept[GROUP_SPLIT], kept[GROUP_N - GROUP_SPLIT]
    return {"sum": timed(lambda: sf.class_add(a, b), min_run_s=MIN_RUN_S),
            "difference": timed(lambda: sf.class_equal(d, d), min_run_s=MIN_RUN_S),
            "prym": timed(lambda: sf.in_prym(d), min_run_s=MIN_RUN_S)}


def search_matrices(sf, chain) -> list:
    """(rows, n_cols) of every ``qi_nullspace`` call of the equality jobs in
    the pool of the cantor-chain workload ``chain``."""
    matrices: list = []
    with hooked(sf, "qi_nullspace", lambda rows, n_cols: matrices.append((rows, n_cols))):
        for task in chain.pool():
            if task.kind == "equal":
                chain.execute(task)
    return matrices


if __name__ == "__main__":
    main(__doc__, "BENCH_exact.json", measure)
