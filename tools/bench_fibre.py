"""Per-layer timings of the theta and obstruction solves, written to BENCH_fibre.json.

Times three layers at tau = 2, 1.5+0.5i and 1.3:

- ``solve``: ``obstruction_zeros`` on the extension data of g0 =
  |tau|^rho e^(2 pi i (a + 0.37)/16) for rho in (0.2, 0.7) and a in
  (0, 5, 10), seconds per solve; a solve that raises ``ArithmeticError``
  (|tau| near 1, where the theta series cancel) is timed as it is and
  counted under ``raised``;
- ``chart``: ``regular_chart`` at a branch point (a1 = a2, so g = 1 or -1)
  followed by ``make_extension``, for a1 = 1.3+0.4i and -0.8+0.6i, seconds
  per chart;
- ``theta``: ``theta_sections`` of degree d = 1, 2, 3 (factor 0.8+0.3i,
  64*d terms) and the largest functional-equation residual of its d
  sections at three points, seconds per degree.

Each layer also counts its ``fiber._node_values`` calls, in one more run
under ``census.traced``: the node counts K = 16, 32, ... at which the
contour sums were formed, over all radii tried (one more per radius than
the node doublings).

Each layer is run 7 times after one warm-up, every run a batch lasting
at least about a millisecond; best and median seconds are kept.  Results
are merged into the output file under ``--label``.  A before/after
comparison times both trees in alternation, in child processes, over
several rounds (``_layer_bench.alternate``):

    python tools/bench_fibre.py --against /path/to/parent/src
"""

from __future__ import annotations

import cmath
import math

from _layer_bench import main, timed

TAUS = {"2": 2.0 + 0j, "1.5+0.5i": 1.5 + 0.5j, "1.3": 1.3 + 0j}
RHOS = (0.2, 0.7)
ANGLES = (0, 5, 10)
CHART_VALUES = (1.3 + 0.4j, -0.8 + 0.6j)
THETA_DEGREES = (1, 2, 3)
THETA_FACTOR = 0.8 + 0.3j
THETA_POINTS = (1.1 + 0.2j, -0.7 + 0.9j, 0.2 - 1.05j)
MIN_RUN_S = 1e-3
COUNTED = ("fiber._node_values",)


def measure() -> dict:
    import spectral_forge as sf

    layers: dict = {}
    solves: dict = {}
    for name, tau in TAUS.items():
        curve = sf.TateCurve(tau)
        data = []
        for rho in RHOS:
            for a in ANGLES:
                g0 = abs(tau) ** rho * cmath.exp(2j * math.pi * (a + 0.37) / 16)
                data.append(sf.extension_from_pair(curve, 1.0 + 0j, g0))

        def solve_all():
            raised = 0
            for p, q in data:
                try:
                    sf.obstruction_zeros(curve, 1.0 + 0j, p, q)
                except ArithmeticError:
                    raised += 1
            return raised

        def chart_all():
            for value in CHART_VALUES:
                chart = sf.regular_chart(curve, value, value)
                try:
                    sf.make_extension(curve, 1.0 + 0j, chart.p, chart.q)
                except ArithmeticError:
                    pass

        solves[name] = {"solves": len(data), "raised": solve_all()}
        layers[name] = {"solve": timed(solve_all, len(data), MIN_RUN_S),
                        "chart": timed(chart_all, len(CHART_VALUES), MIN_RUN_S)}
        for d in THETA_DEGREES:
            lb = sf.TateLineBundle(curve, d, THETA_FACTOR)

            def theta(lb=lb, d=d):
                basis = sf.theta_sections(lb, n_terms=64 * d)
                return max(basis.residual(j, z) for j in range(d) for z in THETA_POINTS)
            layers[name][f"theta_d{d}"] = timed(theta, 1, MIN_RUN_S)
            solves[name][f"theta_d{d}_residual"] = theta()
    return {"layers": layers, "solves": solves}


if __name__ == "__main__":
    main(__doc__, "BENCH_fibre.json", measure, COUNTED)
