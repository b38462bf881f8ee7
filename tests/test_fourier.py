# tests/test_fourier.py
"""
Relative transform and descent: cocycle-closure residuals of the lattice
action on twisted data, forward/inverse roundtrips on jump-free families,
and inverse-then-forward roundtrips on directly-built torsion sheaves.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from spectral_forge import cli, families, fourier
from spectral_forge import (
    BasePoint,
    ChernData,
    DescentTwist,
    FamilySpec,
    LineData,
    PellMap,
    SpectralCover,
    SurfaceSpec,
    TateCurve,
    TransformedSheaf,
    TwoSections,
    UnsupportedError,
    attach_generic_jumps,
    descent_divisor,
    elem_mod,
    fm_inverse,
    fm_transform,
    roundtrip_check,
    torsion_roundtrip_check,
    z_action_residual,
)
from conftest import (
    TAU_DYADIC,
    combine,
    cover_g1,
    pell_g0,
    pell_g1,
    prym_generators,
    push_family,
    split_family,
    surf_m23,
    surf_plain,
)

B0 = BasePoint.of(0)


# ============================================================
# Sampling and descent divisor
# ============================================================

def test_transforms_run_the_sample_ladder_once(monkeypatch):
    """Counted through every module that binds the family sample ladder."""
    calls = [0]
    ladder = families.default_sample_points

    def counted(*args, **kwargs):
        calls[0] += 1
        return ladder(*args, **kwargs)

    for mod in (families, fourier, cli):
        if getattr(mod, "default_sample_points", None) is ladder:
            monkeypatch.setattr(mod, "default_sample_points", counted)
    fam = push_family(surf_plain(), cover_g1(), pell_g1())
    sheaf = fm_transform(fam, 16)
    assert calls[0] == 1
    calls[0] = 0
    assert torsion_roundtrip_check(sheaf, 16).passed()
    assert calls[0] == 1


def test_descent_divisor_records_pair_and_coefficients():
    s = surf_plain(theta_degree=2)
    fam = split_family(s, 0.7 + 0.1j, 1.3 - 0.2j)
    tw = descent_divisor(fam, B0)
    assert tw.theta_degree == 2
    assert tw.pair == fam.spectral_values_at(0.0)
    assert [tw.coefficient(i) for i in (-1, 0, 1, 2)] == [-2, 0, 2, 4]
    off = tw.disabled()
    assert all(off.coefficient(i) == 0 for i in (-1, 0, 1, 2))


def test_descent_divisor_guards():
    fam = split_family(surf_m23(), 0.7 + 0.1j, 1.3 - 0.2j)
    with pytest.raises(UnsupportedError):
        descent_divisor(fam, BasePoint.infinity())
    with pytest.raises(UnsupportedError):
        descent_divisor(fam, BasePoint.of(5))
    jumped = elem_mod(split_family(surf_plain(), 0.7 + 0.1j, 1.3 - 0.2j),
                      BasePoint.of(3), 1, 1.7 + 0j)
    with pytest.raises(UnsupportedError):
        descent_divisor(jumped, BasePoint.of(3))
    at_infinity = DescentTwist(BasePoint.infinity(), (0.7 + 0.1j, 1.3 - 0.2j), 1)
    with pytest.raises(UnsupportedError, match="descent base point must be affine"):
        z_action_residual(fam, at_infinity, 20)


def test_descent_corpus_closure(descent_corpus):
    assert len(descent_corpus) >= 10
    for fam, b0 in descent_corpus:
        tw = descent_divisor(fam, b0)
        assert z_action_residual(fam, tw, 20) < 1e-9
        assert z_action_residual(fam, tw.disabled(), 20) > 0.1


def test_residual_rejects_wrong_twist_degree(descent_corpus):
    fam, b0 = descent_corpus[-1]
    tw = descent_divisor(fam, b0)
    for degree in (tw.theta_degree + 1, tw.theta_degree - 1):
        wrong = DescentTwist(tw.b0, tw.pair, degree, True)
        assert z_action_residual(fam, wrong, 20) >= 0.1


# ============================================================
# Forward transform
# ============================================================

def test_transform_of_generic_family_kills_degree_zero_piece():
    fam = split_family(surf_plain(), 0.7 + 0.1j, 1.3 - 0.2j)
    sheaf = fm_transform(fam, 16)
    assert sheaf.phi0_vanishes
    assert sheaf.support.verticals == ()
    assert isinstance(sheaf.support.bisection, TwoSections)
    assert sheaf.chern == fam.chern
    assert sheaf.line_data.split_base_classes == (0, 0)


def test_trivial_sub_restores_degree_zero_piece():
    fam = split_family(surf_plain(), 1.0 + 0j, 1.3 - 0.2j)
    assert not fm_transform(fam, 16).phi0_vanishes


def test_jumps_restore_degree_zero_piece():
    base = split_family(surf_plain(), 0.7 + 0.1j, 1.3 - 0.2j)
    fam = attach_generic_jumps(base, [(BasePoint.of(3), 2)])
    sheaf = fm_transform(fam, 16)
    assert not sheaf.phi0_vanishes
    assert sheaf.support.verticals == ((BasePoint.of(3), 2),)


def test_split_support_is_the_inverse_section_pair():
    fam = split_family(surf_plain(), 0.5 + 0j, 0.25 + 0j)
    sheaf = fm_transform(fam, 16)
    bis = sheaf.support.bisection
    assert sorted([bis.a1, bis.a2], key=abs) == [2.0 + 0j, 4.0 + 0j]


# ============================================================
# Inverse transform
# ============================================================

def test_inverse_guards():
    fam = push_family(surf_plain(), cover_g1(), pell_g1())
    good = fm_transform(fam, 16)
    vert = TransformedSheaf(
        SpectralCover(fam.surface, ((BasePoint.of(3), 1),),
                      good.support.bisection),
        good.line_data, good.chern, True)
    with pytest.raises(UnsupportedError):
        fm_inverse(vert)


def test_regular_family_is_the_inverse_of_trivial_line_data(invariant_covers):
    for cov, delta in invariant_covers[:5]:
        sheaf = TransformedSheaf(cov, LineData(), ChernData(0, 0), True)
        assert families.build_regular_family(cov, delta, 16) == fm_inverse(sheaf)


# ============================================================
# Roundtrips
# ============================================================

def test_roundtrip_corpus_passes(roundtrip_corpus):
    assert len(roundtrip_corpus) >= 5
    for fam in roundtrip_corpus:
        report = roundtrip_check(fam, 50)
        assert report.passed(), report.checks
        assert report.phi0_vanishes


@pytest.mark.parametrize("tol, passes", [((), False), ((1e-5,), True)],
                         ids=["default", "1e-5"])
def test_roundtrip_tolerance_is_the_curve_tolerance(monkeypatch, tol, passes):
    """An inverse that moves one line factor by 1e-6 fails the fibre and
    determinant comparisons on TateCurve(tau) and passes on
    TateCurve(tau, 1e-5)."""
    plain = fourier.fm_inverse

    def nudged(sheaf):
        data = plain(sheaf).data
        moved = replace(data.l1,
                        constant_factor=data.l1.constant_factor * (1 + 1e-6))
        return FamilySpec.split(moved.surface, moved, data.l2)

    monkeypatch.setattr(fourier, "fm_inverse", nudged)
    fam = split_family(SurfaceSpec(TateCurve(TAU_DYADIC, *tol)),
                       0.7 + 0.1j, 1.3 - 0.2j)
    report = roundtrip_check(fam, 16)
    failed = [name for name, ok, _ in report.checks if not ok]
    assert failed == ([] if passes
                      else ["fiberwise_classes", "determinant_section"])


def test_roundtrip_refuses_jumped_families():
    base = split_family(surf_plain(), 0.7 + 0.1j, 1.3 - 0.2j)
    fam = attach_generic_jumps(base, [(BasePoint.of(3), 1)])
    report = roundtrip_check(fam, 20)
    assert report.status == "hypothesis_violated"
    assert not report.passed()


def torsion_sheaves() -> list[TransformedSheaf]:
    s = surf_plain()
    cov = cover_g1()
    pm = pell_g1()
    nu = combine(prym_generators(cov), [1, -1])
    out = [
        TransformedSheaf(
            SpectralCover(s, (), TwoSections(2.0 + 0j, 4.0 + 0j)),
            LineData(split_base_classes=(0, 0)), ChernData(0, 0), True),
        TransformedSheaf(
            SpectralCover(s, (), pm.inverse()),
            LineData(twist=nu), ChernData(0, 1), True),
        TransformedSheaf(
            SpectralCover(s, (), pell_g0().inverse()),
            LineData(), ChernData(0, 1), True),
        TransformedSheaf(
            SpectralCover(surf_m23(), (), pm.inverse()),
            LineData(torsion_pairs=((1, 0), (0, 2))), ChernData(0, 1), True),
    ]
    return out


def test_direct_torsion_sheaves_roundtrip():
    sheaves = torsion_sheaves()
    assert len(sheaves) >= 3
    for sheaf in sheaves:
        report = torsion_roundtrip_check(sheaf, 50)
        assert report.passed(), report.checks


def test_torsion_roundtrip_flags_vertical_support():
    fam = push_family(surf_plain(), cover_g1(), pell_g1())
    good = fm_transform(fam, 16)
    vert = TransformedSheaf(
        SpectralCover(fam.surface, ((BasePoint.of(3), 1),),
                      good.support.bisection),
        good.line_data, good.chern, True)
    report = torsion_roundtrip_check(vert, 16)
    assert report.status == "hypothesis_violated"
