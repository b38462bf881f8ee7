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

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_forge import TateCurve, TateLineBundle, theta_sections
from conftest import TAU_DYADIC, TAU_GENERIC
from oracles import (
    automorphy_nullity,
    dual_line_entries,
    laurent_h0,
    laurent_h1,
    line_entries,
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


def test_square_roots_square_back():
    curve = TateCurve(TAU_GENERIC)
    p = curve.point(0.8 + 0.5j)
    roots = curve.square_roots(p)
    assert len(roots) == 4
    for q in roots:
        assert (q * q).equivalent(p)
    # the four roots are pairwise distinct on the torus
    for i in range(4):
        for j in range(i + 1, 4):
            assert not roots[i].equivalent(roots[j])


def test_point_rejects_zero():
    curve = TateCurve(TAU_DYADIC)
    with pytest.raises(ValueError):
        curve.point(0.0)


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


def test_theta_basis_refuses_thin_truncation():
    # huge factor pushes the tail bound above tolerance at small n_terms
    curve = TateCurve(1.2 + 0.1j)
    lb = TateLineBundle(curve, 1, 1e6)
    with pytest.raises(ValueError):
        theta_sections(lb, 4)


def test_theta_basis_rejects_nonpositive_degree():
    curve = TateCurve(TAU_DYADIC)
    with pytest.raises(ValueError):
        theta_sections(TateLineBundle(curve, 0, 1.0), 40)
