# tests/test_surface.py
"""
Surface-level bookkeeping: line bundle algebra, refused inputs, the
relative Picard presentation and classification component groups, with
group shapes cross-checked against the Smith-form oracle.
"""

from __future__ import annotations

import pytest

from spectral_forge import (
    BasePoint,
    GroupPresentation,
    LineBundleOnX,
    MultipleFibre,
    MultipleFibreRestrictionError,
    SurfaceSpec,
    TateCurve,
    fibre_component_groups,
    invariant_factors,
    pic_relative,
)
from conftest import (
    TAU_DYADIC,
    cover_g1,
    cover_g2,
    surf_m22,
    surf_m23,
    surf_m5_branch,
    surf_plain,
)
from oracles import smith_invariant_factors


# ============================================================
# Line bundle algebra
# ============================================================

def test_tensor_and_dual_track_all_parts():
    s = surf_m23()
    a = LineBundleOnX(s, 1, 0.7 + 0.1j, (1, 2))
    b = LineBundleOnX(s, 2, 2.0, (1, 2))
    ab = a * b
    assert ab.base_class == 3
    assert abs(ab.constant_factor - (0.7 + 0.1j) * 2.0) < 1e-15
    # residues add mod the multiplicities (2, 3)
    assert ab.fibre_parts == (0, 1)
    assert a.tensor(a.dual()).isomorphic(LineBundleOnX(s, 0, 1.0))


def test_fibre_parts_are_canonicalised_mod_multiplicity():
    s = surf_m23()
    lb = LineBundleOnX(s, 0, 1.0, (5, -1))
    assert lb.fibre_parts == (1, 2)


def test_restriction_to_smooth_fibre():
    s = surf_m23()
    lb = LineBundleOnX(s, 2, 0.9 + 0.2j, (1, 0))
    r = lb.restrict_to_fiber(0.3)
    assert r.degree == 0
    assert r.factor == 0.9 + 0.2j


def test_restriction_at_multiple_fibre_is_refused():
    s = surf_m23()
    lb = LineBundleOnX(s, 0, 1.5)
    with pytest.raises(MultipleFibreRestrictionError):
        lb.restrict_to_fiber(5.0)


def test_isomorphic_ignores_lattice_factor():
    s = surf_plain()
    tau = s.curve.tau
    assert LineBundleOnX(s, 0, 1.3).isomorphic(LineBundleOnX(s, 0, 1.3 * tau))
    assert not LineBundleOnX(s, 0, 1.3).isomorphic(LineBundleOnX(s, 1, 1.3))


def test_duplicate_multiple_fibre_rejected():
    with pytest.raises(ValueError):
        SurfaceSpec(TateCurve(TAU_DYADIC), 1,
                    (MultipleFibre(BasePoint.of(5), 2),
                     MultipleFibre(BasePoint.of(5), 3)))


@pytest.mark.parametrize("build, message", [
    (lambda: MultipleFibre(BasePoint.of(5), 1),
     "multiple fibres have multiplicity >= 2"),
    (lambda: SurfaceSpec(TateCurve(TAU_DYADIC), 0), "theta_degree must be >= 1"),
    (lambda: LineBundleOnX(surf_plain(), 0, 0j), "constant factor must be nonzero"),
    (lambda: LineBundleOnX(surf_m23(), 0, 1.5, (1,)),
     "fibre_parts length must match multiple fibres"),
    (lambda: LineBundleOnX(surf_plain(), 0, 1.5).tensor(LineBundleOnX(surf_m23(), 0, 1.5)),
     "bundles live on different surfaces"),
    (lambda: GroupPresentation(torsion=(3, 1)), "torsion orders must be >= 2"),
], ids=["multiplicity", "theta-degree", "factor", "fibre-parts", "tensor",
        "torsion"])
def test_surface_data_refuse_bad_input(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


# ============================================================
# Relative Picard presentation
# ============================================================

def test_pic_relative_plain_surface():
    g = pic_relative(surf_plain())
    assert g.free_rank == 1
    assert g.divisible == ("C*",)
    assert g.torsion == ()
    assert g.invariant_factors() == ()


def test_pic_relative_picks_up_multiple_fibres():
    g = pic_relative(surf_m23())
    assert g.free_rank == 1
    assert g.torsion == (2, 3)
    assert g.invariant_factors() == (6,)
    assert g.torsion_order() == 6

    g22 = pic_relative(surf_m22())
    assert g22.torsion == (2, 2)
    assert g22.invariant_factors() == (2, 2)


@pytest.mark.parametrize("orders", [
    (), (2,), (2, 3), (2, 2), (2, 4), (2, 3, 4), (6, 10), (2, 2, 3, 9),
    (0, 1, 5), (1, 1), (4, 6, 10), (8, 12, 18, 27), (9, 3, 27, 1, 6),
])
def test_invariant_factors_match_smith_form_oracle(orders):
    assert list(invariant_factors(orders)) == smith_invariant_factors(list(orders))


def test_invariant_factors_divisibility_chain():
    fs = invariant_factors((2, 3, 4, 9))
    for a, b in zip(fs, fs[1:]):
        assert b % a == 0


# ============================================================
# Component groups for a fixed cover
# ============================================================

def test_plain_surface_has_connected_moduli():
    fg = fibre_component_groups(surf_plain(), cover_g1())
    assert fg.components == 1
    assert fg.prym_genus == 1
    assert fg.kernel_components == 1
    assert fg.collapsed_multiplicities == ()


def test_prym_rank_equals_cover_genus():
    for cov in (cover_g1(), cover_g2()):
        fg = fibre_component_groups(surf_plain(), cov)
        assert fg.prym_genus == cov.genus


def test_nonbranch_multiple_fibres_multiply_components():
    fg = fibre_component_groups(surf_m23(), cover_g1())
    assert fg.components == 6
    assert fg.twist_group.torsion == (2, 3)
    assert fg.twist_group.invariant_factors() == (6,)
    assert fg.collapsed_multiplicities == ()


def test_branch_multiple_fibre_collapses():
    # multiplicity 5 over b=-1, which is a branch point of the cover
    fg = fibre_component_groups(surf_m5_branch(), cover_g1())
    assert fg.components == 1
    assert fg.collapsed_multiplicities == (5,)
    assert fg.twist_group.torsion == ()


def test_component_count_factorises_through_the_twist_group():
    # the identity-component quotient carries exactly the twist torsion:
    # component count = kernel components times the twist order
    for surf, cov in ((surf_plain(), cover_g1()),
                      (surf_m23(), cover_g1()),
                      (surf_m5_branch(), cover_g1()),
                      (surf_m22(), cover_g2())):
        fg = fibre_component_groups(surf, cov)
        assert fg.identity_quotient.torsion_order() == fg.twist_group.torsion_order()
        assert fg.components == fg.kernel_components * fg.twist_group.torsion_order()
        assert fg.jacobian_copies == fg.twist_group.torsion_order()
