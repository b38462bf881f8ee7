# tests/conftest.py
"""
Shared corpus: curves, covers, bisection maps, surfaces and families.

Factories are plain functions so tests can build variants freely; the
heavier corpora (descent families, roundtrip families, invariant covers)
are session fixtures because their members get re-verified many times.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

import pytest

from spectral_forge import (
    BasePoint,
    DivisorClass,
    FamilySpec,
    HyperCover,
    LineBundleOnX,
    MultipleFibre,
    PellMap,
    Poly,
    QI,
    SpectralCover,
    SurfaceSpec,
    TateCurve,
    TwoSections,
    class_add,
    class_neg,
    point_class,
)

# ============================================================
# Curves
# ============================================================

TAU_DYADIC = 2 + 0j
TAU_GENERIC = 1.5 + 0.5j
TAU_WIDE = 2.2 + 0.3j  # non-dyadic with |tau| > 2


def curve(tau: complex = TAU_DYADIC) -> TateCurve:
    return TateCurve(tau)


# ============================================================
# Hyperelliptic covers with rational point catalogues
# ============================================================

def cover_g0() -> HyperCover:
    """w^2 = b: genus 0, single affine branch point at b = 0."""
    return HyperCover(Poly.of(0, 1))


def cover_g1() -> HyperCover:
    """w^2 = b^3 + 1: genus 1, rational branch point at b = -1."""
    return HyperCover(Poly.of(1, 0, 0, 1))


def cover_g2() -> HyperCover:
    """w^2 = b^5 - b + 1: genus 2, affine points over 0, 1, -1, i, -i."""
    return HyperCover(Poly.of(1, -1, 0, 0, 0, 1))


def cover_g3() -> HyperCover:
    """w^2 = b^7 - b + 1: genus 3."""
    return HyperCover(Poly.of(1, -1, 0, 0, 0, 0, 0, 1))


def affine_points(cov: HyperCover) -> list[tuple[QI, QI]]:
    """Known non-branch rational points (x, w), one per involution orbit."""
    deg = cov.f.degree
    if deg == 1:
        return [(QI.of(1), QI.of(1)), (QI.of(4), QI.of(2)),
                (QI.of(-1), QI.of(0, 1))]
    if deg == 3:
        return [(QI.of(0), QI.of(1)), (QI.of(2), QI.of(3))]
    if deg == 5:
        return [(QI.of(0), QI.of(1)), (QI.of(1), QI.of(1)),
                (QI.of(-1), QI.of(1)), (QI.of(0, 1), QI.of(1))]
    if deg == 7:
        return [(QI.of(0), QI.of(1)), (QI.of(1), QI.of(1)),
                (QI.of(-1), QI.of(1))]
    raise ValueError(f"no catalogue for degree {deg}")


def prym_generators(cov: HyperCover) -> list[DivisorClass]:
    """Classes P - iota(P); the sheet involution negates them."""
    out = []
    for x, w in affine_points(cov):
        out.append(class_add(point_class(cov, x, w),
                             class_neg(point_class(cov, x, -w))))
    return out


def combine(classes: list[DivisorClass],
            coeffs: list[int]) -> DivisorClass:
    total = DivisorClass.zero(classes[0].cover)
    for d, n in zip(classes, coeffs):
        step = d if n > 0 else class_neg(d)
        for _ in range(abs(n)):
            total = class_add(total, step)
    return total


# ============================================================
# Bisection maps (exact Pell identities)
# ============================================================

def pell_g0(s: QI | None = None) -> PellMap:
    """(1 + b + 2w) / (1 - b) on w^2 = b."""
    return PellMap.from_pell_pair(cover_g0(), Poly.of(1), Poly.of(1),
                                  s or QI.of(1))


def pell_g1(s: QI | None = None) -> PellMap:
    """(10 + b^3 + 6w) / (8 - b^3) on w^2 = b^3 + 1."""
    return PellMap.from_pell_pair(cover_g1(), Poly.of(3), Poly.of(1),
                                  s or QI.of(1))


def pell_g2(s: QI | None = None) -> PellMap:
    """(b^2 + f + 2bw) / (b^2 - f) on w^2 = b^5 - b + 1."""
    return PellMap.from_pell_pair(cover_g2(), Poly.of(0, 1), Poly.of(1),
                                  s or QI.of(1))


def pell_g3(s: QI | None = None) -> PellMap:
    return PellMap.from_pell_pair(cover_g3(), Poly.of(0, 1), Poly.of(1),
                                  s or QI.of(1))


def perturbed(bis: "TwoSections | PellMap", eps: complex) -> "TwoSections | PellMap":
    """``bis`` moved off invariance by the factor 1 + eps: two sections on
    a1 alone, a Pell map through its scale s (both sheets, so the sheet
    product moves by (1 + eps)^2)."""
    if isinstance(bis, TwoSections):
        return TwoSections(bis.a1 * (1 + eps), bis.a2)
    re, im = Fraction(1 + eps.real), Fraction(eps.imag)
    return replace(bis, scale=bis.scale * QI.from_pair(
        re.numerator, re.denominator, im.numerator, im.denominator))


# ============================================================
# Surfaces
# ============================================================

def surf_plain(tau: complex = TAU_DYADIC, theta_degree: int = 1) -> SurfaceSpec:
    return SurfaceSpec(TateCurve(tau), theta_degree, ())


def surf_m23(tau: complex = TAU_DYADIC) -> SurfaceSpec:
    """Multiplicity 2 over b=5 and 3 over b=-7 (away from cover branches)."""
    return SurfaceSpec(TateCurve(tau), 1,
                       (MultipleFibre(BasePoint.of(5), 2),
                        MultipleFibre(BasePoint.of(-7), 3)))


def surf_m22(tau: complex = TAU_DYADIC) -> SurfaceSpec:
    return SurfaceSpec(TateCurve(tau), 1,
                       (MultipleFibre(BasePoint.of(5), 2),
                        MultipleFibre(BasePoint.of(-7), 2)))


def surf_m5_branch(tau: complex = TAU_DYADIC) -> SurfaceSpec:
    """Multiplicity 5 over b=-1, the rational branch point of cover_g1."""
    return SurfaceSpec(TateCurve(tau), 1,
                       (MultipleFibre(BasePoint.of(-1), 5),))


# ============================================================
# Families
# ============================================================

def split_family(surface: SurfaceSpec, a1: complex, a2: complex,
                 bases: tuple[int, int] = (0, 0)) -> FamilySpec:
    return FamilySpec.split(
        surface,
        LineBundleOnX(surface, bases[0], a1),
        LineBundleOnX(surface, bases[1], a2),
    )


def push_family(surface: SurfaceSpec, cov: HyperCover,
                factor_map: PellMap, **kw) -> FamilySpec:
    return FamilySpec.pushforward(surface, cov, factor_map, **kw)


# ============================================================
# Call counts
# ============================================================

def count_calls(monkeypatch, owner, name) -> list[int]:
    """Replace ``owner.name`` by a wrapper that counts its calls, for the
    test's duration; the count is the one item of the returned list."""
    calls = [0]
    plain = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return plain(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


# ============================================================
# Corpora
# ============================================================

@pytest.fixture(scope="session")
def descent_corpus() -> list[tuple[FamilySpec, BasePoint]]:
    """Twelve families over |tau| >= 2 surfaces with twist degree 1, 2, 3.

    The pushforward base point sits at 1/4 so its |tau|-radius sample circle
    clears the map's poles (|b| = 2 for the genus-1 map).
    """
    out: list[tuple[FamilySpec, BasePoint]] = []
    quarter = BasePoint.of(Fraction(1, 4))
    for tau in (TAU_DYADIC, TAU_WIDE):
        for d in (1, 2, 3):
            s = surf_plain(tau, d)
            out.append((split_family(s, 0.7 + 0.1j, 1.3 - 0.2j),
                        BasePoint.of(0)))
            out.append((push_family(s, cover_g1(), pell_g1()), quarter))
    return out


@pytest.fixture(scope="session")
def roundtrip_corpus() -> list[FamilySpec]:
    """Five jump-free families covering both presentations and three covers."""
    return [
        split_family(surf_plain(TAU_DYADIC), 0.7 + 0.1j, 1.3 - 0.2j),
        split_family(surf_plain(TAU_GENERIC), 1.25j, 0.8 - 0.44j),
        push_family(surf_plain(TAU_DYADIC), cover_g1(), pell_g1()),
        push_family(surf_plain(TAU_DYADIC), cover_g2(), pell_g2()),
        push_family(surf_plain(TAU_GENERIC), cover_g0(), pell_g0()),
    ]


@pytest.fixture(scope="session")
def invariant_covers() -> list[tuple[SpectralCover, LineBundleOnX]]:
    """Covers paired with the bundle their sheet product realises.

    First five are vertical-free (usable for the regular construction);
    the last carries a vertical component.
    """
    out: list[tuple[SpectralCover, LineBundleOnX]] = []

    s = surf_plain(TAU_DYADIC)
    a1, a2 = 0.7 + 0.1j, 1.3 - 0.2j
    out.append((SpectralCover(s, (), TwoSections(a1, a2)),
                LineBundleOnX(s, 0, a1 * a2)))

    sg = surf_plain(TAU_GENERIC)
    b1, b2 = 1.25j, 0.8 - 0.44j
    out.append((SpectralCover(sg, (), TwoSections(b1, b2)),
                LineBundleOnX(sg, 0, b1 * b2)))

    for surface, pm in ((s, pell_g1()), (s, pell_g2()), (sg, pell_g0())):
        out.append((SpectralCover(surface, (), pm),
                    LineBundleOnX(surface, 0, pm.norm_value())))

    vert = SpectralCover(s, ((BasePoint.of(3), 2),), TwoSections(a1, a2))
    out.append((vert, LineBundleOnX(s, 0, a1 * a2)))
    return out
