# tests/test_fiber.py
"""
Rank-2 fibre classes and the extension chart, verified against the
functional-equation nullity oracle: twist-cohomology support, fibre-class
constructors, theta identities, zero pairs and chart inversion.
"""

from __future__ import annotations

import cmath
import random

import pytest

from spectral_forge import (
    AtiyahRegular,
    SplitFiber,
    TateCurve,
    TateLineBundle,
    UnstableFiber,
    is_regular,
    make_extension,
    spectral_points,
    theta_sections,
)
from spectral_forge import fiber
from spectral_forge.fiber import (
    _theta_window,
    extension_from_pair,
    obstruction,
    obstruction_zeros,
    theta_even,
    theta_odd,
)
from conftest import TAU_DYADIC, TAU_GENERIC, TAU_WIDE
from oracles import (
    automorphy_nullity,
    dual_extension_entries,
    extension_h0,
    extension_h1,
    mp_theta_pair,
    mp_zero_near,
    reference_theta_even,
    reference_theta_odd,
)

DY = TateCurve(TAU_DYADIC)
GEN = TateCurve(TAU_GENERIC)


def split_two_three() -> SplitFiber:
    return SplitFiber(TateLineBundle(DY, 0, 2.0), TateLineBundle(DY, 0, 3.0))


# ============================================================
# Twist-cohomology support
# ============================================================

def test_split_spectral_points_are_inverse_factors():
    pts = spectral_points(split_two_three())
    assert len(pts) == 2
    want = [0.5, 1 / 3]
    assert ((DY.same_point(pts[0].value, want[0])
             and DY.same_point(pts[1].value, want[1]))
            or (DY.same_point(pts[0].value, want[1])
                and DY.same_point(pts[1].value, want[0])))


def test_split_support_confirmed_by_nullity_scan():
    # direct-sum automorphy [[2, 0], [0, 3]]; the dual twisted by g gains a
    # section exactly where a factor trivialises, i.e. on the mod-lattice
    # orbit of the inverse factors
    tau = GEN.tau
    candidates = [0.5, 1 / 3, tau / 2, tau ** -2 / 3, 1.0, 2.0, 0.9 + 0.2j]
    for g in candidates:
        entries = [[{0: 1 / (2 * g)}, {}], [{}, {0: 1 / (3 * g)}]]
        h1 = automorphy_nullity(tau, entries)
        expected = int(GEN.in_lattice(2 * g)) + int(GEN.in_lattice(3 * g))
        assert h1 == expected, g


def test_regular_nonsplit_support_is_doubled():
    alpha = 0.8 + 0.3j
    fc = AtiyahRegular(TateLineBundle(GEN, 0, alpha))
    pts = spectral_points(fc)
    assert len(pts) == 2
    assert pts[0] == pts[1]
    assert pts[0].equivalent(GEN.point(1 / alpha))


def test_unstable_support_is_vertical():
    fc = UnstableFiber(1, TateLineBundle(DY, 1, 1.0), TateLineBundle(DY, 0, 1.0))
    assert spectral_points(fc) is None


def test_unstable_restriction_matches_nullity_oracle():
    # destabilised automorphy [[s z^3, z], [0, d z^-3 / s]]: the dual twisted
    # by any g has h^1 = height, so the support is the whole fibre
    s, det = 1.3, 0.9
    fc = UnstableFiber(3, TateLineBundle(DY, 3, s), TateLineBundle(DY, 0, det))
    assert spectral_points(fc) is None
    for g in (1.0, 0.7 + 0.1j, 2.0):
        dual = [[{-3: 1 / (s * g)}, {}],
                [{-1: -1 / g}, {3: s / (det * g)}]]
        assert automorphy_nullity(DY.tau, dual) == fc.height


# ============================================================
# Fibre-class constructors
# ============================================================

@pytest.mark.parametrize("build, message", [
    (lambda: SplitFiber(TateLineBundle(DY, 1, 2.0), TateLineBundle(DY, 0, 3.0)),
     "split fibre classes use degree-0 factors"),
    (lambda: SplitFiber(TateLineBundle(DY, 0, 2.0), TateLineBundle(GEN, 0, 3.0)),
     "factors live on different curves"),
    (lambda: AtiyahRegular(TateLineBundle(DY, 1, 2.0)),
     "regular nonsplit classes use a degree-0 factor"),
    (lambda: UnstableFiber(0, TateLineBundle(DY, 0, 1.3), TateLineBundle(DY, 0, 0.9)),
     "unstable fibres need height >= 1"),
    (lambda: UnstableFiber(2, TateLineBundle(DY, 1, 1.3), TateLineBundle(DY, 0, 0.9)),
     "sub must have degree equal to height"),
    (lambda: UnstableFiber(1, TateLineBundle(DY, 1, 1.3), TateLineBundle(DY, 1, 0.9)),
     "det of a relatively-degree-0 fibre must be 0"),
    (lambda: make_extension(DY, 0j, 1.0, 0.5), "sub factor must be nonzero"),
], ids=["split-degree", "split-curves", "atiyah-degree", "unstable-height",
        "unstable-sub", "unstable-det", "extension-sub"])
def test_fibre_classes_refuse_bad_data(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_nonsplit_class_curve_determinant_and_isomorphism():
    fc = AtiyahRegular(TateLineBundle(DY, 0, 2.0))
    assert fc.curve is DY
    assert fc.det_factor() == 4.0
    assert fc.isomorphic(AtiyahRegular(TateLineBundle(DY, 0, 2.0 * DY.tau)))
    assert not fc.isomorphic(AtiyahRegular(TateLineBundle(DY, 0, 3.0)))
    assert not fc.isomorphic(SplitFiber(TateLineBundle(DY, 0, 2.0),
                                        TateLineBundle(DY, 0, 2.0)))


def test_unstable_class_curve_determinant_and_isomorphism():
    fc = UnstableFiber(2, TateLineBundle(DY, 2, 1.3), TateLineBundle(DY, 0, 0.9))
    assert fc.curve is DY
    assert fc.det_factor() == 0.9
    assert fc.isomorphic(UnstableFiber(2, TateLineBundle(DY, 2, 1.3 * DY.tau),
                                       TateLineBundle(DY, 0, 0.9 / DY.tau)))
    assert not fc.isomorphic(UnstableFiber(1, TateLineBundle(DY, 1, 1.3),
                                           TateLineBundle(DY, 0, 0.9)))
    assert not fc.isomorphic(UnstableFiber(2, TateLineBundle(DY, 2, 1.3),
                                           TateLineBundle(DY, 0, 1.1)))
    assert not fc.isomorphic(AtiyahRegular(TateLineBundle(DY, 0, 0.9)))


# ============================================================
# Theta identities
# ============================================================

@pytest.mark.parametrize("curve", [DY, GEN])
def test_theta_quasi_periodicity_and_symmetry(curve):
    rng = random.Random(41)
    tau = curve.tau
    for _ in range(12):
        g = cmath.rect(10 ** rng.uniform(-0.2, 0.2),
                       rng.uniform(0.0, 2 * cmath.pi))
        e, o = theta_even(tau, g), theta_odd(tau, g)
        assert abs(theta_even(tau, tau * g) - g ** 2 * e) < 1e-10 * max(1, abs(e))
        assert abs(theta_odd(tau, tau * g) - g ** 2 * o) < 1e-10 * max(1, abs(o))
        assert abs(theta_even(tau, 1 / g) - g ** 2 * e) < 1e-10 * max(1, abs(e))
        assert abs(theta_odd(tau, 1 / g) - g ** 2 * o) < 1e-10 * max(1, abs(o))


def test_obstruction_quasi_periodicity():
    c, p, q = 1.3, 0.8 - 0.2j, 1.1 + 0.4j
    for g in (1.1, 0.9 + 0.4j, 1.3 - 0.2j):
        lhs = obstruction(DY, c, p, q, DY.tau * g)
        rhs = g ** 2 * obstruction(DY, c, p, q, g)
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))


# ============================================================
# Zeros and the chart
# ============================================================

def test_monomial_cocycle_zeros_are_fourth_roots():
    # p-only data: even theta cancels pairwise at g = +-i, exactly
    # compared as points of T: a zero on |g| = 1 may be represented just
    # inside |g| = |tau| = 2 (here -i as -2i)
    z0, z1 = obstruction_zeros(DY, 1.0, 1.0, 0.0)
    assert ((z0 == -1j and z1 == 1j) or (z0 == 1j and z1 == -1j))
    assert abs(theta_even(DY.tau, 1j)) < 1e-12


@pytest.mark.parametrize("curve", [DY, GEN])
def test_zero_pair_multiplies_to_lattice(curve):
    rng = random.Random(59)
    for _ in range(6):
        c = cmath.rect(10 ** rng.uniform(-0.2, 0.2), rng.uniform(0, 6.28))
        p = cmath.rect(1.0, rng.uniform(0, 6.28))
        q = cmath.rect(10 ** rng.uniform(-0.3, 0.3), rng.uniform(0, 6.28))
        z0, z1 = obstruction_zeros(curve, c, p, q)
        assert abs(obstruction(curve, c, p, q, z0.value)) < 1e-9
        assert abs(obstruction(curve, c, p, q, z1.value)) < 1e-9
        # determinant-trivial pair: the zeros are mutually inverse on T
        assert curve.in_lattice(z0.value * z1.value)


def test_extension_gains_section_exactly_at_zeros():
    c, p, q = 1.3, 1.0, 0.5
    z0, z1 = obstruction_zeros(DY, c, p, q)
    for g in (z0.value, z1.value):
        assert extension_h0(DY.tau, c, p, q, g) == 1
        assert extension_h1(DY.tau, c, p, q, g) == 1
    # and nowhere else on a probe set
    for g in (1.0, 0.77 + 0.2j, 1.9):
        assert extension_h0(DY.tau, c, p, q, g) == 0


def test_make_extension_classes_are_regular_with_oracle_support():
    rng = random.Random(73)
    for _ in range(5):
        c = cmath.rect(10 ** rng.uniform(-0.15, 0.15), rng.uniform(0, 6.28))
        p = cmath.rect(1.0, rng.uniform(0, 6.28))
        q = cmath.rect(10 ** rng.uniform(-0.3, 0.3), rng.uniform(0, 6.28))
        fc = make_extension(DY, c, p, q)
        assert is_regular(fc)
        assert extension_h0(DY.tau, c, p, q) == 0
        assert extension_h1(DY.tau, c, p, q) == 0
        pts = spectral_points(fc)
        for pt in pts:
            # support point s corresponds to a section of E (x) L_s via the
            # determinant-trivial pairing
            assert extension_h1(DY.tau, c, p, q, pt.value) == 1


@pytest.mark.parametrize("c", [1.0, 0.7 + 0.2j], ids=["one", "generic"])
def test_zero_extension_data_gives_the_unstable_split(c):
    """(p, q) = (0, 0) is the split extension L(1) + L(-1): unstable of
    height 1 with sub L(1) of factor 1/c and trivial determinant, returned
    without an obstruction solve."""
    fc = make_extension(DY, c, 0.0, 0.0)
    assert isinstance(fc, UnstableFiber) and fc.height == 1
    assert fc.sub.degree == 1 and fc.sub.factor == 1.0 / c
    assert fc.det.degree == 0 and fc.det.factor == 1.0
    assert not is_regular(fc) and spectral_points(fc) is None


def test_trivial_cocycle_gives_regular_split():
    fc = make_extension(DY, 1.0, 1.0, 0.0)
    assert isinstance(fc, SplitFiber)
    assert is_regular(fc)
    assert DY.in_lattice(fc.det_factor())


TWO_TORSION = {"one": lambda t: 1.0 + 0j, "minus-one": lambda t: -1.0 + 0j,
               "sqrt-tau": cmath.sqrt, "minus-sqrt-tau": lambda t: -cmath.sqrt(t)}


@pytest.mark.parametrize("target", TWO_TORSION.values(), ids=TWO_TORSION.keys())
@pytest.mark.parametrize("curve", [DY, GEN], ids=["dyadic", "generic"])
def test_two_torsion_target_gives_regular_nonsplit(curve, target):
    # each target is a double zero of the obstruction
    g0 = target(curve.tau)
    p, q = extension_from_pair(curve, 1.0, g0)
    fc = make_extension(curve, 1.0, p, q)
    assert isinstance(fc, AtiyahRegular)
    assert curve.same_point(fc.line.factor, g0)
    assert curve.same_point(fc.line.factor ** 2, 1.0)


def test_close_roots_off_two_torsion_give_a_split_class():
    """Near but off 2-torsion (g0 = 1 + 1e-3 at tau = 2) the contour sums
    give two close roots and Obs does not vanish between them: the solver
    takes them as centre +- sqrt(-2 Obs / Obs''), and the fibre splits on
    {g0, 1/g0} within the curve's tolerance."""
    g0 = 1 + 1e-3
    fc = make_extension(DY, 1.0, *extension_from_pair(DY, 1.0, g0))
    assert isinstance(fc, SplitFiber)
    assert DY.same_pair((fc.l1.factor, fc.l2.factor), (g0, 1 / g0))


def test_chart_roundtrip_reproduces_class():
    rng = random.Random(97)
    for _ in range(4):
        c = cmath.rect(10 ** rng.uniform(-0.1, 0.1), rng.uniform(0, 6.28))
        p = cmath.rect(1.0, rng.uniform(0, 6.28))
        q = cmath.rect(10 ** rng.uniform(-0.2, 0.2), rng.uniform(0, 6.28))
        fc = make_extension(DY, c, p, q)
        g0 = spectral_points(fc)[0].value
        p2, q2 = extension_from_pair(DY, c, g0)
        fc2 = make_extension(DY, c, p2, q2)
        assert fc.isomorphic(fc2)


def test_obstruction_rejects_zero_data():
    with pytest.raises(ValueError):
        obstruction_zeros(DY, 1.0, 0.0, 0.0)


# ============================================================
# The contour solver: conditioning, cost and the mpmath oracle
# ============================================================

@pytest.mark.parametrize("tau", [1.05, 1.1, 1.2])
def test_near_unit_modulus_never_returns_a_wrong_pair(tau):
    """Near |tau| = 1 the theta series cancel below double precision, so
    most of these round trips cannot be solved; each must then raise rather
    than return a pair other than {g0, 1/g0}."""
    curve = TateCurve(tau)
    for rho in (0.2, 0.5, 0.7):
        for k in range(6):
            g0 = abs(tau) ** rho * cmath.exp(2j * cmath.pi * (k + 0.37) / 6)
            p, q = extension_from_pair(curve, 1.0, g0)
            try:
                z0, z1 = obstruction_zeros(curve, 1.0, p, q)
            except ArithmeticError:
                continue
            assert ((z0 == g0 and z1 == 1 / g0)
                    or (z0 == 1 / g0 and z1 == g0)), (tau, g0)


def test_solver_makes_no_scalar_theta_calls(monkeypatch):
    calls = [0]
    for name in ("theta_even", "theta_odd"):
        plain = getattr(fiber, name)

        def counted(*args, plain=plain, **kwargs):
            calls[0] += 1
            return plain(*args, **kwargs)
        monkeypatch.setattr(fiber, name, counted)
    p, q = extension_from_pair(GEN, 1.0, 1.1 + 0.3j)
    assert calls[0] == 2            # the counter sees the module's calls
    calls[0] = 0
    obstruction_zeros(GEN, 1.0, p, q)
    make_extension(GEN, 1.0, p, q)
    assert calls[0] == 0


def scalar_node_values(poly, radius: float, nodes) -> tuple[list, list]:
    """P and g P' at the given nodes by the scalar Horner ``at``: it returns
    Obs' times g**shift, which is P' - shift P / g."""
    vals, gders = [], []
    for g in nodes:
        f, f1, _, _ = poly.at(radius * g)
        vals.append(f)
        gders.append(radius * g * f1 + poly.shift * f)
    return vals, gders


def fft_deviation(tau: complex, k: int, offset: float) -> float:
    """Largest gap between the DFT node values and the scalar ones at nodes
    r e^(i pi (2l + offset)/k), relative to the sum of the moduli of the
    row's terms: sum_n |c_n| r**n for P, sum_n n |c_n| r**n for g P'."""
    poly = fiber._ObstructionPoly(tau, 1.3 - 0.2j, 0.8 + 0.1j, -0.4 + 1.1j)
    rho = abs(tau) ** 0.5
    radii = (rho * abs(tau), rho)
    rows = poly.circle_rows(*radii)
    got = fiber._node_values(rows, k)
    nodes = [cmath.exp(1j * cmath.pi * (2 * l + offset) / k) for l in range(k)]
    worst = 0.0
    for i, r in enumerate(radii):
        want = scalar_node_values(poly, r, nodes)
        for j in (0, 1):
            size = sum(abs(a) * r ** n * (n if j else 1)
                       for n, a in enumerate(poly.top_down[::-1]))
            gap = max(abs(x - y) for x, y in zip(got[2 * i + j], want[j]))
            worst = max(worst, gap / size)
    return worst


@pytest.mark.parametrize("tau", [TAU_DYADIC, TAU_GENERIC], ids=["dyadic", "generic"])
@pytest.mark.parametrize("k", [16, 128], ids=["folded", "padded"])
def test_fft_node_values_match_scalar_horner(tau, k):
    """The contour's P and g P' by one inverse FFT equal the scalar Horner
    values at every node on both circles, with the powers folded mod K
    (K = 16 is below the 4m + 2 coefficients) or zero-padded (K = 128)."""
    assert len(fiber._ObstructionPoly(tau, 1.0, 1.0, 1.0).top_down) > 16
    assert fft_deviation(tau, k, 1.0) <= 1e-13


@pytest.mark.parametrize("k", [16, 128], ids=["folded", "padded"])
def test_fft_node_values_see_a_half_step_shift(k):
    """Negative control: against nodes shifted by half a step (l instead of
    l + 1/2), the same comparison fails."""
    assert fft_deviation(TAU_DYADIC, k, 0.0) > 1e-6


def test_contour_uses_horner_only_where_the_dft_loses_digits(monkeypatch):
    """At tau = 1.5 with g0 on the middle circle |P| falls to 1e-8 of the
    sum of its terms' moduli at some nodes; from the DFT alone the contour
    sums never settle there and the solve raises.  Horner at those nodes
    recovers the pair, and at tau = 2 no node needs it."""
    calls = [0]
    plain = fiber._ObstructionPoly.horner

    def counted(self, g):
        calls[0] += len(g)
        return plain(self, g)
    monkeypatch.setattr(fiber._ObstructionPoly, "horner", counted)
    for tau, rho in ((TAU_DYADIC, 0.2), (TAU_DYADIC, 0.7), (1.5, 0.5)):
        curve = TateCurve(tau)
        g0 = abs(tau) ** rho * cmath.exp(2j * cmath.pi * 0.37 / 6)
        z0, z1 = obstruction_zeros(curve, 1.0, *extension_from_pair(curve, 1.0, g0))
        assert curve.same_pair((z0.value, z1.value), (g0, 1 / g0))
        assert (calls[0] > 0) == (tau == 1.5), (tau, calls[0])


def fake_polynomial(monkeypatch, roots):
    """Make the solver see prod (g - r) over roots in place of P."""
    top_down = [1.0 + 0j]
    for r in roots:
        top_down = [a - r * b for a, b in zip(top_down + [0j], [0j] + top_down)]

    def init(self, tau, c, p, q):
        self.shift = 0
        self.top_down = top_down
    monkeypatch.setattr(fiber._ObstructionPoly, "__init__", init)


@pytest.mark.parametrize("roots, message", [
    ([1.5, 2.5j], "|tau|^0.5: inverse-pair symmetry check failed"),
    ([1.5, 2.5j, -1.7], "|tau|^0.5: contour sums did not converge"),
    ([1.5, 1.5], "|tau|^0.5: double obstruction zero is not 2-torsion"),
], ids=["not-inverse", "three-zeros", "double-not-2-torsion"])
def test_solver_checks_reject_a_wrong_zero_set(monkeypatch, roots, message):
    """Negative controls for the checks: at tau = 2 the annulus
    sqrt(2) < |g| < 2 sqrt(2) holds exactly these roots."""
    fake_polynomial(monkeypatch, roots)
    with pytest.raises(ArithmeticError) as info:
        obstruction_zeros(DY, 1.0, 1.0, 1.0)
    assert message in str(info.value)


def same_mod_tau(tau: complex, x: complex, y: complex, tol: float) -> bool:
    ratio = x / y
    k = round(cmath.log(abs(ratio)).real / cmath.log(abs(tau)).real)
    return abs(ratio / tau ** k - 1) <= tol


@pytest.mark.parametrize("tau", [TAU_DYADIC, TAU_GENERIC, TAU_WIDE],
                         ids=["dyadic", "generic", "wide"])
def test_zero_pairs_match_mpmath(tau):
    curve = TateCurve(tau)
    rng = random.Random(131)
    for _ in range(3):
        c = cmath.rect(10 ** rng.uniform(-0.2, 0.2), rng.uniform(0, 2 * cmath.pi))
        # random extension data: both zeros are zeros of the 50-digit series
        p = cmath.rect(1.0, rng.uniform(0, 2 * cmath.pi))
        q = cmath.rect(10 ** rng.uniform(-0.3, 0.3), rng.uniform(0, 2 * cmath.pi))
        z0, z1 = obstruction_zeros(curve, c, p, q)
        for z in (z0.value, z1.value):
            assert abs(z - mp_zero_near(tau, c, p, q, z)) <= 1e-10 * abs(z)
        # data built in mpmath from a chosen zero g0: the pair is {g0, 1/g0}
        g0 = cmath.rect(abs(tau) ** rng.uniform(0.05, 0.95),
                        rng.uniform(0, 2 * cmath.pi))
        p, q = mp_theta_pair(tau, c, g0)
        want = [mp_zero_near(tau, c, p, q, g) for g in (g0, 1 / g0)]
        got = [z.value for z in obstruction_zeros(curve, c, p, q)]
        assert ((same_mod_tau(tau, got[0], want[0], 1e-10)
                 and same_mod_tau(tau, got[1], want[1], 1e-10))
                or (same_mod_tau(tau, got[0], want[1], 1e-10)
                    and same_mod_tau(tau, got[1], want[0], 1e-10))), (g0, got)


def bits(z: complex) -> tuple[str, str]:
    return (z.real.hex(), z.imag.hex())


@pytest.mark.parametrize("tau", [TAU_DYADIC, TAU_GENERIC, TAU_WIDE, 1.2 + 0j,
                                 1.05 + 0.01j])
def test_theta_table_sums_are_bit_identical_to_the_term_loops(tau):
    curve = TateCurve(tau)
    m = _theta_window(tau)
    rng = random.Random(7)
    c, p, q = 1.3 - 0.2j, 0.8 + 0.1j, -0.4 + 1.1j
    for _ in range(20):
        g = cmath.rect(abs(tau) ** rng.uniform(-1.0, 2.0), rng.uniform(0, 2 * cmath.pi))
        for window in (None, m, 8):
            w = window or m
            assert bits(theta_even(tau, g, window)) == bits(reference_theta_even(tau, g, w))
            assert bits(theta_odd(tau, g, window)) == bits(reference_theta_odd(tau, g, w))
        t0, t1 = reference_theta_even(tau, g, m), reference_theta_odd(tau, g, m)
        assert bits(obstruction(curve, c, p, q, g)) == bits(p * t0 + q * c * t1)
        pp, qq = t1, -t0 / c
        s = max(abs(pp), abs(qq))
        assert ([bits(z) for z in extension_from_pair(curve, c, g)]
                == [bits(pp / s), bits(qq / s)])


def worst_theta_defect(tau: complex, factor: complex, divide_by_tau: bool) -> float:
    """Largest |Theta_j(g) - s_j(g)| over the sum of the moduli of the terms
    of Theta_j, for the degree-2 theta sections s_0 and s_1 (the second
    divided by tau if asked) of the bundle with the given factor, at
    g = |tau|^rho e^(2 pi i (k + 0.37) / 12)."""
    m = _theta_window(tau)
    basis = theta_sections(TateLineBundle(TateCurve(tau), 2, factor), n_terms=2 * m)
    even, odd = fiber._theta_table(tau, m)
    worst = 0.0
    for rho in (0.05, 0.25, 0.5, 0.75, 0.95):
        for k in range(12):
            g = abs(tau) ** rho * cmath.exp(2j * cmath.pi * (k + 0.37) / 12)
            for j, theta, table in ((0, theta_even, even), (1, theta_odd, odd)):
                scale = sum(abs(a * g ** (2 * n - j))
                            for n, a in zip(range(-m, m + 1), table))
                s = basis.evaluate(j, g) / (tau if j and divide_by_tau else 1)
                worst = max(worst, abs(theta(tau, g) - s) / scale)
    return worst


@pytest.mark.parametrize("tau", [2 + 0j, 1.5 + 0.5j, 0.5 + 3j, 1.3 + 0j])
def test_obstruction_thetas_are_the_degree_two_sections(tau):
    """Theta0 = s_0 and Theta1 = s_1 / tau for the factor-1 degree-2 bundle:
    the two theta implementations agree to rounding.  Controls: factor 1.01
    or a missing 1/tau is seen at every tau."""
    assert worst_theta_defect(tau, 1.0, True) <= 1e-13
    assert worst_theta_defect(tau, 1.01, True) >= 1e-3
    assert worst_theta_defect(tau, 1.0, False) >= 0.1
