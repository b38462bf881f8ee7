# tests/test_tate.py
"""
Fibre-level layer: points of the torus, line bundles, cohomology counts
and explicit section bases, each checked against the seed-counting and
functional-equation oracles.
"""

from __future__ import annotations

import cmath
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_forge import (TateCurve, TateLineBundle, UnsupportedError,
                            theta_sections)
from conftest import TAU_DYADIC, TAU_GENERIC
from oracles import (
    automorphy_nullity,
    dual_line_entries,
    laurent_h0,
    laurent_h1,
    line_entries,
    mp_theta_coefficients,
    reference_factor_close,
    reference_invariance_defect,
    reference_lattice_log,
    reference_nearest_translate,
    reference_product_defect,
)

CURVES = [TateCurve(TAU_DYADIC), TateCurve(TAU_GENERIC)]


def random_factor(rng: random.Random) -> complex:
    mag = 10 ** rng.uniform(-0.7, 0.7)
    return cmath.rect(mag, rng.uniform(0.0, 2.0 * cmath.pi))


# ============================================================
# Canonical representatives and lattice tests
# ============================================================

@pytest.mark.parametrize("curve", CURVES)
def test_canonical_rep_lands_in_annulus(curve):
    rng = random.Random(11)
    r = abs(curve.tau)
    for _ in range(50):
        z = random_factor(rng) * curve.tau ** rng.randint(-4, 4)
        p = curve.canonical_rep(z)
        assert 1.0 <= abs(p.value) < r * (1 + 1e-12)
        assert curve.same_point(p.value, z)


@pytest.mark.parametrize("curve", CURVES)
def test_lattice_log_roundtrip(curve):
    for n in range(-6, 7):
        assert curve.lattice_log(curve.tau ** n) == n
        assert curve.in_lattice(curve.tau ** n)
    assert curve.lattice_log(1.7 + 0.3j) is None


LATTICE_TAUS = [2 + 0j, 1.5 + 0.5j, 1.2 + 0.1j, 1 + 1e-5 + 0j]

# x = tau^n * (1 + delta e^(i phi)) on the lattice (delta = 0) or off it by
# 1e-16 up to 10; and x anywhere in C* with e^-40 <= |x| <= e^40
NEAR_LATTICE = st.tuples(
    st.integers(-40, 40),
    st.one_of(st.just(0.0),
              st.floats(-16.0, 1.0).map(lambda e: 10.0 ** e)),
    st.floats(0.0, 2.0 * math.pi),
)
ANYWHERE = st.tuples(st.floats(-40.0, 40.0), st.floats(-math.pi, math.pi))


def away_from(value: float, threshold: float) -> bool:
    """Two roundings of one defect can straddle a threshold only within a
    few ulps of it."""
    return abs(value - threshold) > 1e-12 * threshold


def check_against_old_routes(curve: TateCurve, x: complex) -> None:
    tau, tol = curve.tau, curve.tolerance
    k, defect = curve.lattice_distance(x)
    assert k == reference_nearest_translate(tau, x)
    old_k = reference_lattice_log(tau, x, tol)
    if old_k is not None:
        old = (old_k, abs(x / tau ** old_k - 1.0))
        assert (k, defect) == old
        assert reference_product_defect(tau, x, tol) == defect
    fallback = reference_invariance_defect(tau, x, tol)
    assert defect <= fallback
    gap = (abs(tau) - 1.0) / (abs(tau) + 1.0)
    if fallback < gap:
        assert defect == fallback
    if away_from(defect, tol):
        assert curve.lattice_log(x) == old_k
    for close_tol in (1e-6, 1e-9, 1e-12):
        if away_from(defect, close_tol):
            assert (TateCurve(tau, close_tol).same_point(x, 1.0)
                    == reference_factor_close(tau, x, 1.0, close_tol,
                                              close_tol))


@pytest.mark.parametrize("tau", LATTICE_TAUS)
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(near=NEAR_LATTICE, anywhere=ANYWHERE)
def test_lattice_distance_matches_the_old_routes(tau, near, anywhere):
    curve = TateCurve(tau)
    n, delta, phi = near
    check_against_old_routes(curve, tau ** n * (1.0 + cmath.rect(delta, phi)))
    log_mod, arg = anywhere
    check_against_old_routes(curve, cmath.rect(math.exp(log_mod), arg))


def test_same_pair_is_unordered_and_modulo_tau():
    curve = TateCurve(TAU_GENERIC)
    tau = curve.tau
    a, b = 0.8 + 0.5j, 1.3 - 0.4j
    assert curve.same_pair((a, b), (a, b))
    assert curve.same_pair((a, b), (b, a))
    assert curve.same_pair((a, b), (b * tau ** 2, a / tau))
    assert curve.same_pair((a * tau ** -3, b), (a, b * tau))
    assert not curve.same_pair((a, b), (a, a))
    assert not curve.same_pair((a, a), (a, b))
    assert not curve.same_pair((a, b), (a, 1.7 + 0.2j))


def test_same_pair_within_the_curve_tolerance():
    a, b = 0.8 + 0.5j, 1.3 - 0.4j
    moved = (b * (1 + 1e-6), a)
    assert not TateCurve(TAU_GENERIC).same_pair((a, b), moved)
    assert TateCurve(TAU_GENERIC, 1e-5).same_pair((a, b), moved)


def test_lattice_distance_at_zero():
    curve = TateCurve(TAU_GENERIC)
    with pytest.raises(ValueError):
        curve.lattice_distance(0)
    assert curve.lattice_log(0) is None
    assert not curve.in_lattice(0)


def test_lattice_distance_past_the_float_range():
    """Where |x|, or a power of tau searched near it, leaves the float range
    (here tau^1024 at tau = 2, and |x| itself), the lattice distance is
    unsupported, never an OverflowError, and ``lattice_log`` finds no
    lattice point, as at 0 and NaN.  The array route leaves exactly those
    values odd, so the scalar route decides them."""
    curve = TateCurve(TAU_DYADIC)
    far = [1.26e308 + 0j, (1e308 + 1e308j) / 1.7, 1.7e308 + 1.7e308j]
    for x in far:
        with pytest.raises(UnsupportedError, match="past the float range"):
            curve.lattice_distance(x)
        assert curve.lattice_log(x) is None and not curve.in_lattice(x)
    assert curve.lattice_log(complex(math.nan, 0.0)) is None
    _, d, odd = curve._lattice_distance_array(np.array([*far, 3 + 0j]))
    assert odd.tolist() == [True, True, True, False]
    assert d[-1] == curve.lattice_distance(3 + 0j)[1]


def test_lattice_distance_skips_a_nan_power():
    """At tau = 1e160 CPython's tau ** k is nan+nanj for every k <= -2.  At
    x = 1e-300 the rounded exponent is k0 = -2, whose NaN defect loses to
    k = -1 (defect 1 - 1e-140, which rounds to 1.0): the distance is never
    NaN, so a max over defects cannot drop it."""
    curve = TateCurve(1e160)
    assert cmath.isnan(curve.tau ** -2)
    assert curve.lattice_distance(1e-300) == (-1, 1.0)
    assert curve.lattice_log(1e-300) is None


def test_lattice_arrays_at_a_nan_power_match_the_scalar_route():
    """At tau = 1e160 the arrays leave odd every value that meets a NaN or
    overflowing power of tau (k0 = -2 at 1e-300 and 1e-250, k0 + 1 = 2 at
    1e200) and agree bit for bit with ``lattice_distance`` elsewhere; on
    the odd values the scalar route returns a finite defect or raises
    UnsupportedError."""
    curve = TateCurve(1e160)
    xs = np.array([1e-300, 1e-250, 3e-170, 1e-160, 1.0, 2.5, 1e150j, 1e159,
                   1e200, 1e300], dtype=complex)
    k, d, odd = curve._lattice_distance_array(xs)
    assert odd[[0, 1, 8]].all()
    for i, x in enumerate(xs.tolist()):
        try:
            want = curve.lattice_distance(x)
        except UnsupportedError:
            assert odd[i]
            continue
        assert math.isfinite(want[1])
        if not odd[i]:
            assert (int(k[i]), d[i].hex()) == (want[0], want[1].hex())


@pytest.mark.parametrize("tau,z", [(2.0, 1e-310), (1e160, 1e-300),
                                   (2.0, 1e308 + 1.7e308j)],
                         ids=["subnormal", "nan-power", "huge-modulus"])
def test_canonical_rep_past_the_float_range_is_unsupported(tau, z):
    """Where the power of tau a representative needs overflows (tau^1030 at
    tau = 2, tau^2 at 1e160) or |z| does, ``canonical_rep`` raises
    UnsupportedError naming z, never OverflowError; the array route leaves
    exactly those values odd."""
    curve = TateCurve(tau)
    with pytest.raises(UnsupportedError, match=re.escape(f"{complex(z)} past the float range")):
        curve.canonical_rep(z)
    _, odd = curve._canonical_array(np.array([z, 1.5], dtype=complex))
    assert odd.tolist() == [True, False]


def test_point_rejects_zero():
    curve = TateCurve(TAU_DYADIC)
    with pytest.raises(ValueError):
        curve.point(0.0)


def test_points_multiply_modulo_tau():
    """The group law of T = C*/tau^Z: products land on the canonical
    representative, whichever lattice translate a factor is given by."""
    curve = TateCurve(TAU_GENERIC)
    p, q = curve.point(0.8 + 0.5j), curve.point(1.2 - 0.4j)
    pq = p * q
    assert pq.equivalent((0.8 + 0.5j) * (1.2 - 0.4j))
    assert pq.value == curve.canonical_rep(pq.value).value
    assert (p * ((1.2 - 0.4j) * curve.tau ** 3)).equivalent(pq)
    assert (p * p.inverse()).equivalent(1.0)


def test_point_equality_leaves_other_types_to_them():
    """A point compares equal to a lattice translate of its value; against
    anything that is not a point or a number it returns NotImplemented, so
    ``==`` falls back to identity and reads False."""
    curve = TateCurve(TAU_DYADIC)
    p = curve.point(1.5)
    assert p == 1.5 * curve.tau ** 3
    assert p.__eq__("x") is NotImplemented
    assert not p == "x"
    assert repr(p) == "TatePoint(1.5+0j)"


# ============================================================
# Cohomology closed form vs oracle
# ============================================================

def test_frozen_positive_degree():
    lb = TateLineBundle(TateCurve(2 + 0j), 2, 0.7 + 0.1j)
    assert lb.cohomology() == (2, 0)
    assert (laurent_h0(2, 2, 0.7 + 0.1j), laurent_h1(2, 2, 0.7 + 0.1j)) == (2, 0)


def test_frozen_negative_degree():
    lb = TateLineBundle(TateCurve(2 + 0j), -3, 5)
    assert lb.cohomology() == (0, 3)
    assert (laurent_h0(2, -3, 5), laurent_h1(2, -3, 5)) == (0, 3)


@pytest.mark.parametrize("curve", CURVES)
def test_degree_zero_dichotomy(curve):
    trivial = TateLineBundle(curve, 0, curve.tau ** 3)
    assert trivial.cohomology() == (1, 1)
    assert trivial.is_trivial()
    generic = TateLineBundle(curve, 0, 1.3 + 0.4j)
    assert generic.cohomology() == (0, 0)
    assert laurent_h0(curve.tau, 0, curve.tau ** 3) == 1
    assert laurent_h0(curve.tau, 0, 1.3 + 0.4j) == 0


@pytest.mark.parametrize("curve", CURVES)
def test_cohomology_matches_seed_count_oracle(curve):
    rng = random.Random(23)
    for d in range(-5, 6):
        for _ in range(10):
            alpha = random_factor(rng)
            lb = TateLineBundle(curve, d, alpha)
            h0, h1 = lb.cohomology()
            assert h0 == laurent_h0(curve.tau, d, alpha)
            assert h1 == laurent_h1(curve.tau, d, alpha)
            assert h0 - h1 == d


@pytest.mark.parametrize("curve", CURVES)
def test_cohomology_matches_nullity_oracle(curve):
    rng = random.Random(31)
    for d in range(-2, 3):
        alpha = random_factor(rng)
        lb = TateLineBundle(curve, d, alpha)
        assert lb.h0() == automorphy_nullity(curve.tau, line_entries(d, alpha))
        assert lb.h1() == automorphy_nullity(curve.tau,
                                             dual_line_entries(d, alpha))


def test_duality_swaps_dimensions():
    rng = random.Random(5)
    curve = TateCurve(TAU_GENERIC)
    for d in range(-4, 5):
        lb = TateLineBundle(curve, d, random_factor(rng))
        h0, h1 = lb.cohomology()
        d0, d1 = lb.dual().cohomology()
        assert (d0, d1) == (h1, h0)


def test_tensor_adds_degrees_and_multiplies_factors():
    curve = TateCurve(TAU_DYADIC)
    a = TateLineBundle(curve, 2, 0.7 + 0.1j)
    b = TateLineBundle(curve, -1, 1.5)
    ab = a * b
    assert ab.degree == 1
    assert ab.factor == (0.7 + 0.1j) * 1.5
    assert (a * a.dual()).is_trivial()


def test_isomorphism_ignores_lattice_factors():
    curve = TateCurve(TAU_DYADIC)
    a = TateLineBundle(curve, 1, 0.9 + 0.2j)
    b = TateLineBundle(curve, 1, (0.9 + 0.2j) * curve.tau ** 2)
    assert a.isomorphic(b)
    assert not a.isomorphic(TateLineBundle(curve, 1, 1.1))


def test_bundle_equality_is_isomorphism():
    """``==`` on line bundles is isomorphism: true for factors a lattice
    power apart, false for another degree, and NotImplemented (so False)
    against anything that is not a bundle."""
    curve = TateCurve(TAU_DYADIC)
    a = TateLineBundle(curve, 1, 0.9 + 0.2j)
    assert a == TateLineBundle(curve, 1, (0.9 + 0.2j) * curve.tau ** 2)
    assert not a == TateLineBundle(curve, 2, 0.9 + 0.2j)
    assert a.__eq__("x") is NotImplemented
    assert not a == "x"
    assert repr(a) == "TateLineBundle(d=1, factor=0.9+0.2j)"


def test_degree_0_point_is_the_canonical_representative():
    """A degree-0 bundle's point of Pic^0 is its factor moved by powers of
    tau into 1 <= |v| < |tau|, the same for factors a lattice power apart."""
    curve = TateCurve(TAU_DYADIC)
    for factor in (1.5, 12.0, 0.375, 1.5 * curve.tau ** -7):
        point = TateLineBundle(curve, 0, factor).point()
        assert point.value == 1.5


# ============================================================
# Explicit section bases
# ============================================================

def test_theta_basis_frozen_counts():
    curve = TateCurve(TAU_DYADIC)
    assert len(theta_sections(TateLineBundle(curve, 1, 1), 40).vectors) == 1
    assert len(theta_sections(TateLineBundle(curve, 2, 1), 40).vectors) == 2


@pytest.mark.parametrize("curve", CURVES)
@pytest.mark.parametrize("d", [1, 2, 3])
def test_theta_basis_satisfies_functional_equation(curve, d):
    rng = random.Random(100 + d)
    lb = TateLineBundle(curve, d, random_factor(rng))
    basis = theta_sections(lb, 96)
    assert len(basis.vectors) == d == lb.h0()
    for j in range(d):
        for _ in range(8):
            z = cmath.rect(10 ** rng.uniform(-0.3, 0.3),
                           rng.uniform(0.0, 2.0 * cmath.pi))
            assert basis.residual(j, z) < 1e-10


THETA_FACTORS = (1.0, 0.8 + 0.3j, -0.6 + 0.9j, 1e5, 1e-3 + 2e-3j)


def worst_coefficient_error(basis, alpha: complex) -> tuple[float, int]:
    """The largest relative error of the basis coefficients with modulus in
    [1e-280, 1e280] against the 50-digit closed form for the factor alpha,
    and how many were compared."""
    import mpmath as mp
    lb = basis.bundle
    worst, seen = 0.0, 0
    for j, coeffs in enumerate(basis.vectors):
        exact = mp_theta_coefficients(lb.curve.tau, alpha, lb.degree, j, basis.bands)
        for a, ref in zip(coeffs.tolist(), exact):
            if mp.mpf(1e-280) <= abs(ref) <= mp.mpf(1e280):
                worst, seen = max(worst, float(abs(mp.mpc(a) - ref) / abs(ref))), seen + 1
    return worst, seen


@pytest.mark.parametrize("curve", CURVES)
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("factor", THETA_FACTORS)
def test_theta_coefficients_match_the_closed_form_in_50_digits(curve, d, factor):
    """Every kept coefficient within [1e-280, 1e280] is the closed form with
    seeds a_j = 1 to 1e-12 relative; that pins the seed normalisation, which
    the functional equation cannot see.  Control: the same check against a
    factor moved by 1e-9 relative fails."""
    basis = theta_sections(TateLineBundle(curve, d, factor), n_terms=64 * d)
    worst, seen = worst_coefficient_error(basis, factor)
    assert seen >= 40 * d and worst <= 1e-12
    assert worst_coefficient_error(basis, factor * (1 + 1e-9))[0] > 1e-12


def test_theta_basis_refuses_thin_truncation():
    # huge factor pushes the tail bound above tolerance at small n_terms
    curve = TateCurve(1.2 + 0.1j)
    lb = TateLineBundle(curve, 1, 1e6)
    with pytest.raises(ValueError):
        theta_sections(lb, 4)


def test_theta_tail_past_the_float_range_is_decided_in_logarithms():
    """At tau = 2 and alpha = 1e5 the default 64 terms make the first omitted
    band m = 65, and alpha^65 = 1e325 overflows; the bound 1e325 * 2^-2080,
    about 1e-301, is decided in logarithms and the basis is built.  Where
    the bound is past the float range as well, the truncation is refused."""
    basis = theta_sections(TateLineBundle(TateCurve(TAU_DYADIC), 1, 1e5))
    for z in (1.0, 1.3 + 0.2j, 0.7j, -0.9 + 0.4j):
        assert basis.residual(0, z) < 1e-12
    with pytest.raises(ValueError, match="tail bound inf exceeds"):
        theta_sections(TateLineBundle(TateCurve(1.2 + 0.1j), 1, 1e200))


def test_theta_coefficient_past_the_float_range_is_refused():
    """At tau = 2 and alpha = 1e300 with 4,000 terms the tail bound passes,
    but log|a_k| = 690.8 k - 0.69 k (k + 1) / 2 peaks near 344,000 at band
    996: the coefficients from band 2 on are past the float range.  They
    used to read 0 (7,996 of 8,001), with residual(0, 1) NaN; the basis is
    refused naming the first such band.  Coefficients below the float
    range still read 0: at alpha = 1e5 band -64 is about 1e-928."""
    with pytest.raises(ValueError,
                       match=r"^theta coefficient of seed 0 in band 2 is past the float range$"):
        theta_sections(TateLineBundle(TateCurve(TAU_DYADIC), 1, 1e300), 4000)
    basis = theta_sections(TateLineBundle(TateCurve(TAU_DYADIC), 1, 1e5))
    assert basis.vectors[0][0] == 0 and basis.residual(0, 1.0) < 1e-12


@pytest.mark.parametrize("alpha, bound", [(1e-320, "inf"), (5e-324, "inf"),
                                          (math.nan, "nan")],
                         ids=["subnormal", "smallest-subnormal", "nan"])
def test_theta_tail_with_an_overflowing_inverse_factor_is_refused(alpha, bound):
    """At a subnormal alpha, 1/|alpha| overflows to inf and inf ** m does
    not raise, so the plain bound would be inf * 0.0, NaN, and the basis
    was built with residual 1.0 at z = 1.  The bound is decided in
    logarithms (inf) and refused; a NaN bound is refused as well."""
    with pytest.raises(ValueError, match=f"tail bound {bound} exceeds"):
        theta_sections(TateLineBundle(TateCurve(TAU_DYADIC), 1, alpha))


def test_theta_basis_rejects_nonpositive_degree():
    curve = TateCurve(TAU_DYADIC)
    with pytest.raises(ValueError):
        theta_sections(TateLineBundle(curve, 0, 1.0), 40)


# ============================================================
# Refused inputs, one raise each
# ============================================================

def two_bundles_on_different_curves() -> None:
    TateLineBundle(TateCurve(2.0), 0, 1.0).tensor(TateLineBundle(TateCurve(3.0), 0, 1.0))


@pytest.mark.parametrize("make, message", [
    (lambda: TateCurve(2.0, tolerance=1.0), "tolerance must be in (0, 1); got 1.0"),
    (lambda: TateCurve(2.0).same_point(0j, 1.5), "points of T are nonzero"),
    (lambda: TateLineBundle(TateCurve(2.0), 0, 0j), "automorphy factor must be nonzero"),
    (two_bundles_on_different_curves, "line bundles live on different curves"),
    (lambda: TateLineBundle(TateCurve(2.0), 1, 1.0).point(),
     "only degree-0 bundles define a point of Pic^0"),
    (lambda: theta_sections(TateLineBundle(TateCurve(2.0), 2, 1.0), 3),
     "n_terms too small for one band per seed"),
], ids=["tolerance", "same-point-at-zero", "zero-factor", "tensor-across-curves",
        "point-of-degree-1", "too-few-terms"])
def test_refused_inputs_raise_a_value_error_naming_the_rule(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()
