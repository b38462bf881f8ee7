# tests/test_spectral.py
"""
Spectral covers and their bisections: exact norm identities, invariance
against the declared bundle, perturbation detection and the local regular
charts.
"""

from __future__ import annotations

import cmath
import random
import struct
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spectral_forge import (
    AtiyahRegular,
    LineBundleOnX,
    PellMap,
    Poly,
    PunctureError,
    QI,
    SpectralCover,
    TateCurve,
    TwoSections,
    invariance_residual,
    make_extension,
    sample_circle,
)
from spectral_forge.spectral import bisection_torus_degree, regular_chart
from conftest import (
    TAU_DYADIC,
    cover_g0,
    cover_g1,
    cover_g2,
    cover_g3,
    pell_g0,
    pell_g1,
    pell_g2,
    pell_g3,
    perturbed,
    surf_plain,
)
from oracles import (
    reference_eval_complex,
    reference_punctures_near,
    reference_sheet_values,
)


# ============================================================
# Exact Pell identities
# ============================================================

def test_pell_identity_is_checked_exactly():
    cov = cover_g1()
    with pytest.raises(ValueError):
        # U^2 - f V^2 != R^2 for this triple
        PellMap(cov, Poly.of(3), Poly.of(1), Poly.of(1), QI.of(1))


def test_pell_norm_is_constant_squared_scale():
    pm = pell_g1(QI.of(2))
    assert pm.norm_constant() == QI.of(4)
    rng = random.Random(3)
    for _ in range(10):
        b = cmath.rect(2.0, rng.uniform(0, 6.28))
        v0, v1 = pm.sheet_values(b)
        assert abs(v0 * v1 - 4.0) < 1e-9


def test_pell_inverse_multiplies_to_one():
    pm = pell_g2()
    inv = pm.inverse()
    for b in sample_circle(12, 2.0):
        for v, iv in zip(pm.sheet_values(b), inv.sheet_values(b)):
            assert abs(v * iv - 1.0) < 1e-9


@pytest.mark.parametrize("make", [pell_g1, pell_g2, pell_g3], ids=["g1", "g2", "g3"])
def test_pell_inverse_inverts_back_to_the_map_itself(make):
    """The inverse's inverse is the map itself, which is sound because the
    map an inverse builds afresh equals it: s -> 1/s and V -> -V are exact."""
    for m in (make(), make(QI.of(2, 1))):
        inv = m.inverse()
        assert inv.inverse() is m
        assert replace(inv).inverse() == m and replace(inv).inverse() is not m


def test_sheet_flip_swaps_values():
    for pm in (pell_g1(), pell_g1(QI.of(2, 1))):
        flip = pm.sheet_flip()
        for b in sample_circle(8, 2.0):
            v = pm.sheet_values(b)
            f = flip.sheet_values(b)
            assert abs(v[0] - f[1]) < 1e-12 and abs(v[1] - f[0]) < 1e-12


def test_two_sections_basics():
    ts = TwoSections(0.7 + 0.1j, 1.3 - 0.2j)
    assert ts.sheet_values(0.4) == (0.7 + 0.1j, 1.3 - 0.2j)
    assert abs(ts.norm_value() - (0.7 + 0.1j) * (1.3 - 0.2j)) < 1e-15
    inv = ts.inverse()
    for v, iv in zip(ts.sheet_values(0.0), inv.sheet_values(0.0)):
        assert abs(v * iv - 1.0) < 1e-15
    assert bisection_torus_degree(ts) == 0


def test_torus_degree_is_inversion_invariant_and_positive_for_maps():
    for pm in (pell_g0(), pell_g1(), pell_g2()):
        d = bisection_torus_degree(pm)
        assert d >= 1
        assert bisection_torus_degree(pm.inverse()) == d
        assert bisection_torus_degree(pm.sheet_flip()) == d


def test_constant_pell_maps_have_torus_degree_zero():
    """V = 0 and P constant: U = R = P^2, so A is the constant s and its
    torus degree is 0, whatever the genus of the cover."""
    for cover in (cover_g0(), cover_g1(), cover_g2(), cover_g3()):
        pm = PellMap.from_pell_pair(cover, Poly.of(2), Poly(), QI.of(3))
        assert pm.v_part.is_zero()
        assert bisection_torus_degree(pm) == 0
        assert bisection_torus_degree(pm.inverse()) == 0


def test_cover_totals():
    s = surf_plain()
    from spectral_forge import BasePoint
    cov = SpectralCover(s, ((BasePoint.of(3), 2), (BasePoint.of(-1), 1)),
                        pell_g1())
    assert cov.vertical_total() == 3
    assert cov.n_total() == 3 + cov.torus_degree()
    with pytest.raises(ValueError):
        SpectralCover(s, ((BasePoint.of(3), 0),), pell_g1())


def refused(build) -> str:
    """The message of the ValueError that ``build()`` raises."""
    with pytest.raises(ValueError) as info:
        build()
    return str(info.value)


def test_two_sections_refuse_a_zero_value():
    assert refused(lambda: TwoSections(0.7 + 0.1j, 0j)) == "section values must be nonzero"


def test_pell_map_refuses_a_zero_scale():
    m = pell_g1()
    assert (refused(lambda: PellMap(m.cover, m.u_part, m.v_part, m.r_part, QI.of(0)))
            == "scale must be nonzero")


def test_pell_map_refuses_a_zero_denominator():
    """U = V = R = 0 satisfies the Pell identity, so only the denominator
    check refuses it."""
    assert (refused(lambda: PellMap(cover_g1(), Poly(), Poly(), Poly(), QI.of(1)))
            == "denominator must be nonzero")


def test_spectral_cover_refuses_a_repeated_vertical():
    from spectral_forge import BasePoint
    twice = ((BasePoint.of(3), 1), (BasePoint.of(3), 2))
    assert (refused(lambda: SpectralCover(surf_plain(), twice, pell_g1()))
            == "duplicate vertical component")


# ============================================================
# Invariance
# ============================================================

def test_corpus_covers_are_invariant(invariant_covers):
    for cov, delta in invariant_covers:
        res = invariance_residual(cov, delta, 32)
        assert res < 1e-9
        assert res <= cov.curve.tolerance


def test_wrong_bundle_is_detected(invariant_covers):
    cov, delta = invariant_covers[0]
    off = LineBundleOnX(delta.surface, 0, delta.constant_factor * 1.05)
    res = invariance_residual(cov, off, 32)
    assert res > 1e-3
    assert res > cov.curve.tolerance


@pytest.mark.parametrize("eps", [1e-3, 1e-3j])
def test_perturbed_map_is_detected(invariant_covers, eps):
    for cov, delta in invariant_covers[:5]:
        broken = SpectralCover(cov.surface, cov.verticals,
                               perturbed(cov.bisection, eps))
        res = invariance_residual(broken, delta, 32)
        assert res > 1e-4
        assert res > broken.curve.tolerance


@pytest.mark.parametrize("tol, invariant", [((), False), ((1e-5,), True)],
                         ids=["default", "1e-5"])
def test_curve_tolerance_decides_invariance(invariant_covers, tol, invariant):
    """Covers perturbed by 1e-6 fail on TateCurve(tau) and pass on
    TateCurve(tau, 1e-5): the gates take their tolerance from the curve."""
    for cov, delta in invariant_covers:
        surface = replace(cov.surface, curve=TateCurve(cov.curve.tau, *tol))
        broken = SpectralCover(surface, cov.verticals,
                               perturbed(cov.bisection, 1e-6))
        delta = replace(delta, surface=surface)
        res = invariance_residual(broken, delta, 32)
        assert (res <= broken.curve.tolerance) is invariant


def test_a_count_samples_the_covers_ladder(invariant_covers, monkeypatch):
    """A sample count is the cover's own ladder: its rung 0 is
    ``sample_circle(count, |tau|)``, bit for bit, and a Pell cover with a
    puncture near a rung-0 sample is evaluated on rung 1 instead."""
    seen: list[list[complex]] = []
    for cls in (TwoSections, PellMap):
        monkeypatch.setattr(cls, "_values_array", lambda self, b, f=cls._values_array:
                            seen.append(b.tolist()) or f(self, b))
    pell = 0
    for cov, delta in invariant_covers:
        radius = abs(cov.curve.tau)
        rung0 = sample_circle(32, radius)
        seen.clear()
        assert (invariance_residual(cov, delta, 32).hex()
                == invariance_residual(cov, delta, rung0).hex())
        assert seen == [rung0, rung0]
        if isinstance(cov.bisection, PellMap):
            pell += 1
            with monkeypatch.context() as m:
                m.setattr(PellMap, "punctures_near",
                          lambda self, b, margin=1e-6: b == rung0[5])
                seen.clear()
                invariance_residual(cov, delta, 32)
            assert seen == [sample_circle(32, radius * (1.0 + 0.13), 0j, phase=0.05)]
    assert pell == 3


# ============================================================
# Regular charts
# ============================================================

def test_regular_chart_splits_generic_pair():
    curve = surf_plain().curve
    a1, a2 = 0.7 + 0.1j, 1.3 - 0.2j
    ch = regular_chart(curve, a1, a2)
    assert abs(ch.scale ** 2 - a1 * a2) < 1e-12
    fc = make_extension(curve, 1.0 + 0j, ch.p, ch.q)
    # scaled back by the determinant split, the factors are {a1, a2}
    facs = [fc.l1.factor * ch.scale, fc.l2.factor * ch.scale]
    assert ((curve.same_point(facs[0], a1) and curve.same_point(facs[1], a2))
            or (curve.same_point(facs[0], a2) and curve.same_point(facs[1], a1)))


def test_regular_chart_at_branch_value_is_nonsplit():
    curve = surf_plain().curve
    a = 0.9 + 0.4j
    ch = regular_chart(curve, a, a)
    fc = make_extension(curve, 1.0 + 0j, ch.p, ch.q)
    assert isinstance(fc, AtiyahRegular)
    assert curve.same_point(fc.line.factor * ch.scale, a)


# ============================================================
# Punctures
# ============================================================

def tiny_pell_g0() -> PellMap:
    """pell_g0's data times 10^-290.  A Pell map has R^2 = (U + Vw)(U - Vw),
    so an exact zero of U + Vw is always a root of R; near the underflow
    threshold |U + Vw| falls below 1e-300 at b = 1 - 1e-6 on sheet 1 while
    |R| ~ 1e-296 stays above it."""
    c = Poly.of(Fraction(1, 10 ** 145))
    return PellMap.from_pell_pair(cover_g0(), c, c, QI.of(1))


def test_root_of_r_is_a_pole():
    m = pell_g0()
    # R is shared by the map, its inverse and its sheet flip
    for pm in (m, m.inverse(), m.sheet_flip()):
        with pytest.raises(PunctureError, match="pole"):
            pm.sheet_values(1 + 0j)
    assert m.punctures_near(1 + 0j)
    assert not m.punctures_near(-2 + 0j)


def test_pole_is_checked_before_zero():
    # at b = 1 both R and U + Vw (sheet 1, w = -1) vanish; the sheet flip
    # moves that zero to sheet 0, which is checked before sheet 1
    m = pell_g0()
    assert m.u_part.eval_complex(1 + 0j) + m.v_part.eval_complex(1 + 0j) * -1 == 0
    flip = m.sheet_flip()
    assert flip.u_part.eval_complex(1 + 0j) + flip.v_part.eval_complex(1 + 0j) == 0
    for pm in (m, flip):
        with pytest.raises(PunctureError, match="pole"):
            pm.sheet_values(1 + 0j)


def test_zero_of_numerator_is_a_zero():
    m = tiny_pell_g0()
    b = 1 - 1e-6 + 0j
    w0, w1 = m.cover.sheets(b)
    u, v = m.u_part.eval_complex(b), m.v_part.eval_complex(b)
    # only sheet 1 is a zero; the sheet flip moves it to sheet 0
    assert abs(u + v * w0) > 1e-300 > abs(u + v * w1)
    for pm in (m, m.sheet_flip()):
        with pytest.raises(PunctureError, match="zero"):
            pm.sheet_values(b)
    # |R| stays above this margin, so only the zero can trip it
    assert m.punctures_near(b, margin=1e-298)
    assert not m.punctures_near(0.5 + 0j, margin=1e-298)


# ============================================================
# Float image of exact data: bit-for-bit against the uncached route
# ============================================================

def float_bits(*zs: complex) -> bytes:
    """Exact bit pattern, so signed zeros count as different."""
    return b"".join(struct.pack("<2d", z.real, z.imag) for z in zs)


def outcome(call, *args):
    try:
        out = call(*args)
    except PunctureError as e:
        return ("puncture", str(e))
    return float_bits(*(out if isinstance(out, tuple) else (out,)))


HEIGHT = 2 ** 200
QIS = st.builds(
    lambda a, b, c, d: QI(Fraction(a, b), Fraction(c, d)),
    st.integers(-HEIGHT, HEIGHT), st.integers(1, HEIGHT),
    st.integers(-HEIGHT, HEIGHT), st.integers(1, HEIGHT))
SMALL_QIS = st.builds(QI.of, st.integers(-9, 9), st.integers(-9, 9))
POINTS = st.complex_numbers(max_magnitude=1e3, allow_nan=False,
                            allow_infinity=False)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.one_of(QIS, SMALL_QIS, st.just(QI())), max_size=8), POINTS)
def test_eval_complex_matches_uncached_horner(coeffs, b):
    poly = Poly(tuple(coeffs))
    expected = float_bits(reference_eval_complex(poly, b))
    assert float_bits(poly.eval_complex(b)) == expected
    # the second call reads the cache
    assert float_bits(poly.eval_complex(b)) == expected


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([cover_g0, cover_g1, cover_g2, cover_g3]),
       st.lists(st.one_of(QIS, SMALL_QIS), min_size=1, max_size=3),
       st.lists(st.one_of(QIS, SMALL_QIS), max_size=3),
       st.one_of(QIS, SMALL_QIS), st.lists(POINTS, min_size=1, max_size=4))
def test_pell_map_matches_two_call_evaluation(cover, p, q, s, points):
    assume(not s.is_zero() and not Poly(tuple(p)).is_zero())
    pell = PellMap.from_pell_pair(cover(), Poly(tuple(p)), Poly(tuple(q)), s)
    for m in (pell, pell.inverse(), pell.sheet_flip()):
        for b in points + [0j]:  # b = 0: the branch point of w^2 = b
            assert outcome(m.sheet_values, b) == outcome(reference_sheet_values, m, b)
            assert m.punctures_near(b) == reference_punctures_near(m, b)
