# tests/test_acceptance.py
"""
Release gate: eight end-to-end checks at fixed tolerances and sample
counts, each printing a single pass/fail line.  Everything here runs the
public API against independent oracles or exact integer identities; no
check may be weakened to pass.
"""

from __future__ import annotations

import cmath
import math
import random
import time

from spectral_forge import (
    AtiyahRegular,
    BasePoint,
    ChernData,
    DivisorClass,
    LineData,
    PellMap,
    SpectralCover,
    TateCurve,
    TateLineBundle,
    TransformedSheaf,
    TwoSections,
    allowable_mod,
    build_regular_family,
    can_add_jump,
    class_equal,
    classes_equal_by_search,
    cover_from_family,
    default_sample_points,
    descent_divisor,
    elem_mod,
    fibre_component_groups,
    in_prym,
    invariance_residual,
    is_regular,
    jump_report,
    jumping_sequence,
    point_class,
    roundtrip_check,
    torsion_roundtrip_check,
    z_action_residual,
)
from spectral_forge.covers import mumford_compose

from conftest import (
    TAU_DYADIC,
    TAU_GENERIC,
    affine_points,
    combine,
    cover_g1,
    cover_g2,
    cover_g3,
    pell_g0,
    pell_g1,
    pell_g2,
    pell_g3,
    perturbed,
    prym_generators,
    push_family,
    split_family,
    surf_m23,
    surf_m5_branch,
    surf_plain,
)
from oracles import laurent_h0, laurent_h1


def _line(tag: str, ok: bool, detail: str = "") -> None:
    note = f" ({detail})" if detail else ""
    print(f"[{tag}] {'pass' if ok else 'fail'}{note}")
    assert ok, f"{tag} failed{note}"


# ============================================================
# C1: closed-form cohomology against the truncated-Laurent oracle
# ============================================================

def test_c1_cohomology_closed_form_vs_laurent_oracle():
    rng = random.Random(11)
    t0 = time.perf_counter()
    cases = 0
    ok = True
    for tau in (TAU_DYADIC, TAU_GENERIC):
        curve = TateCurve(tau)
        for d in range(-5, 6):
            for _ in range(100):
                mag = math.exp(rng.uniform(math.log(0.3), math.log(3.0)))
                alpha = mag * cmath.exp(2j * math.pi * rng.random())
                closed = TateLineBundle(curve, d, alpha).cohomology()
                oracle = (laurent_h0(tau, d, alpha),
                          laurent_h1(tau, d, alpha))
                ok = ok and closed == oracle
                ok = ok and closed[0] - closed[1] == d
                cases += 1
    dt = time.perf_counter() - t0
    _line("C1", ok and dt < 5.0,
          f"{cases} cases over 2 lattices, {dt:.2f}s < 5s")


# ============================================================
# C2: the twist divisor is exactly what makes the data descend
# ============================================================

def test_c2_descent_twist_closure(descent_corpus):
    worst_on = 0.0
    best_off = math.inf
    ok = len(descent_corpus) >= 10
    for fam, b0 in descent_corpus:
        ok = ok and abs(fam.curve.tau) >= 2
        tw = descent_divisor(fam, b0)
        worst_on = max(worst_on, z_action_residual(fam, tw, 20))
        best_off = min(best_off, z_action_residual(fam, tw.disabled(), 20))
    degrees = {fam.surface.theta_degree for fam, _ in descent_corpus}
    kinds = {type(fam.data).__name__ for fam, _ in descent_corpus}
    ok = ok and degrees == {1, 2, 3} and len(kinds) == 2
    ok = ok and worst_on < 1e-9 and best_off > 0.1
    _line("C2", ok,
          f"{len(descent_corpus)} families, twisted <= {worst_on:.1e}, "
          f"untwisted >= {best_off:.2f}")


# ============================================================
# C3: transform roundtrips in both directions
# ============================================================

def _torsion_sheaves() -> list[TransformedSheaf]:
    s = surf_plain()
    nu = combine(prym_generators(cover_g1()), [1, -1])
    return [
        TransformedSheaf(
            SpectralCover(s, (), TwoSections(2.0 + 0j, 4.0 + 0j)),
            LineData(split_base_classes=(0, 0)), ChernData(0, 0), True),
        TransformedSheaf(
            SpectralCover(s, (), pell_g1().inverse()),
            LineData(twist=nu), ChernData(0, 1), True),
        TransformedSheaf(
            SpectralCover(s, (), pell_g0().inverse()),
            LineData(), ChernData(0, 1), True),
    ]


def test_c3_roundtrips_both_directions(roundtrip_corpus):
    t0 = time.perf_counter()
    ok = len(roundtrip_corpus) >= 5
    for fam in roundtrip_corpus:
        ok = ok and not fam.has_jumps()
        ok = ok and roundtrip_check(fam, 50).passed()
    sheaves = _torsion_sheaves()
    ok = ok and len(sheaves) >= 3
    for sheaf in sheaves:
        ok = ok and torsion_roundtrip_check(sheaf, 50).passed()
    dt = time.perf_counter() - t0
    _line("C3", ok and dt < 30.0,
          f"{len(roundtrip_corpus)} families + {len(sheaves)} torsion "
          f"sheaves at 50 samples, {dt:.2f}s < 30s")


# ============================================================
# C4: sheet-product invariance on every corpus cover
# ============================================================

def test_c4_involution_invariance(invariant_covers, descent_corpus,
                                  roundtrip_corpus):
    ok = True
    worst = 0.0
    n = 0
    for cov, delta in invariant_covers:
        worst = max(worst, invariance_residual(cov, delta, 50))
        n += 1
    for fam in roundtrip_corpus + [f for f, _ in descent_corpus]:
        pts = default_sample_points(fam, 50)
        cov = cover_from_family(fam, pts)
        worst = max(worst, invariance_residual(cov, fam.involution_bundle(),
                                               pts))
        n += 1
    ok = ok and worst < 1e-9
    detected = 0
    for cov, delta in invariant_covers[:3]:
        bent = SpectralCover(cov.surface, cov.verticals,
                             perturbed(cov.bisection, 1e-3))
        if invariance_residual(bent, delta, 50) > 1e-4:
            detected += 1
    ok = ok and detected == 3
    _line("C4", ok,
          f"{n} covers <= {worst:.1e}, 1e-3 perturbation detected on "
          f"{detected}/3")


# ============================================================
# C5: component groups of the fixed-determinant fibration
# ============================================================

def test_c5_component_group_report():
    plain1 = fibre_component_groups(surf_plain(), cover_g1())
    plain2 = fibre_component_groups(surf_plain(), cover_g2())
    m23 = fibre_component_groups(surf_m23(), cover_g1())
    m5 = fibre_component_groups(surf_m5_branch(), cover_g1())
    ok = plain1.components == 1 and plain1.prym_genus == 1
    ok = ok and plain2.components == 1 and plain2.prym_genus == 2
    ok = ok and m23.components == 6
    ok = ok and m5.components == 1
    for fg in (plain1, plain2, m23, m5):
        ok = ok and (fg.identity_quotient.torsion_order()
                     == fg.twist_group.torsion_order())
        ok = ok and fg.components == (fg.kernel_components
                                      * fg.twist_group.torsion_order())
    _line("C5", ok,
          "plain -> 1 with Prym rank = genus, m2+m3 -> 6, m5@branch -> 1, "
          "quotient order = twist order")


# ============================================================
# C6: Prym twists are invisible; non-Prym data is not
# ============================================================

def _search_instances(cov):
    """Equal and unequal class pairs with disjoint Mumford supports."""
    from spectral_forge import class_add
    pts = [point_class(cov, x, w) for x, w in affine_points(cov)]
    composed = pts[0]
    reduced = pts[0]
    for _ in range(cov.genus + 1):
        composed = mumford_compose(composed, pts[0])
        reduced = class_add(reduced, pts[0])
    return [
        (composed, reduced, True),
        (pts[0], pts[1], False),
        (pts[0], DivisorClass.zero(cov), False),
        (pts[1], DivisorClass.zero(cov), False),
    ]


def test_c6_prym_twist_invisibility():
    rng = random.Random(23)
    fams = [push_family(surf_plain(), cov, pm) for cov, pm in
            ((cover_g1(), pell_g1()), (cover_g2(), pell_g2()),
             (cover_g3(), pell_g3()))]
    ok = True
    twisted = 0
    while twisted < 20:
        fam = fams[twisted % len(fams)]
        gens = prym_generators(fam.data.cover)
        coeffs = [rng.randint(-2, 2) for _ in gens]
        if not any(coeffs):
            continue
        nu = combine(gens, coeffs)
        ok = ok and in_prym(nu)
        tw = fam.twisted(nu)
        ok = ok and tw.determinant.isomorphic(fam.determinant)
        for b in default_sample_points(fam, 12):
            a, c = fam.spectral_values_at(b), tw.spectral_values_at(b)
            ok = ok and abs(a[0] - c[0]) < 1e-12 and abs(a[1] - c[1]) < 1e-12
            ok = ok and fam.fiber_factors_at(b) == tw.fiber_factors_at(b)
        twisted += 1
    # degree-0 data outside the Prym kernel: an asymmetric residue pair at a
    # multiple fibre shifts the determinant bookkeeping
    mfam = push_family(surf_m23(), cover_g1(), pell_g1())
    moved = mfam.twisted_torsion(((1, 0), (0, 0)))
    ok = ok and moved.determinant.fibre_parts != mfam.determinant.fibre_parts
    balanced = mfam.twisted_torsion(((1, -1), (0, 0)))
    ok = ok and balanced.determinant.fibre_parts == mfam.determinant.fibre_parts
    # principality by exact reduction, cross-checked by function search
    crosschecked = 0
    for cov in (cover_g1(), cover_g2(), cover_g3()):
        for d1, d2, expected in _search_instances(cov):
            agree = (class_equal(d1, d2) == expected
                     and classes_equal_by_search(d1, d2) == expected)
            ok = ok and agree
            crosschecked += 1
    ok = ok and crosschecked >= 10
    _line("C6", ok,
          f"{twisted} exact Prym twists invisible, det residues move for "
          f"asymmetric pairs, {crosschecked} search cross-checks")


# ============================================================
# C7: modification-journal identities
# ============================================================

def test_c7_journal_calculus_identities():
    rng = random.Random(77)
    x0, x1 = BasePoint.of(3), BasePoint.of(-2)
    nu = 1.7 + 0j
    ok = True
    for _ in range(100):
        fam = split_family(surf_plain(), 0.7 + 0.1j, 1.3 - 0.2j)
        for _ in range(rng.randint(1, 8)):
            at = rng.choice([x0, x1])
            stack = fam.jump_stack(at)
            if stack and rng.random() < 0.35:
                fam = allowable_mod(fam, at)
                continue
            if stack and rng.random() < 0.4:
                r, lp = stack[-1].degree, stack[-1].line_point
            else:
                h = stack[-1].degree if stack else 0
                r, lp = h + rng.randint(1, 2), nu
            fam = elem_mod(fam, at, r, lp)
        total_mu = 0
        for rec in jump_report(fam):
            ok = ok and rec.height == rec.sequence[0]
            ok = ok and rec.multiplicity == sum(rec.sequence)
            ok = ok and rec.length == len(rec.sequence)
            ok = ok and rec.height <= rec.multiplicity
            ok = ok and all(b <= a for a, b in
                            zip(rec.sequence, rec.sequence[1:]))
            total_mu += rec.multiplicity
        # each push adds one fibre twist to det and its degree to c2
        ok = ok and fam.chern.c2 == fam.base_c2 + total_mu
        ok = ok and fam.determinant.base_class == -len(fam.steps)
        # push then pop is the identity on jump data and c2
        at = rng.choice([x0, x1])
        stack = fam.jump_stack(at)
        r = (stack[-1].degree if stack else 0) + 1
        popped = allowable_mod(elem_mod(fam, at, r, nu), at)
        ok = ok and popped.chern.c2 == fam.chern.c2
        ok = ok and [s.degree for s in popped.jump_stack(at)] == [
            s.degree for s in stack]
        # one allowable modification drops the length by exactly one
        pts = fam.jump_points()
        if pts:
            before = jumping_sequence(fam, pts[0])
            after_fam = allowable_mod(fam, pts[0])
            if after_fam.jump_stack(pts[0]):
                ok = ok and (jumping_sequence(after_fam, pts[0]).length
                             == before.length - 1)
            else:
                ok = ok and before.length == 1
    # refusal matrix: the equal-factor split fibre admits r >= 2 only
    lam2 = split_family(surf_plain(), 1.3 + 0.2j, 1.3 + 0.2j)
    reg = split_family(surf_plain(), 0.7 + 0.1j, 1.3 - 0.2j)
    ok = ok and not can_add_jump(lam2, x0, 1)
    ok = ok and can_add_jump(lam2, x0, 2)
    ok = ok and can_add_jump(reg, x0, 1)
    _line("C7", ok,
          "100 journals: sequences non-increasing, mu = sum, push/pop "
          "inverse, length decrement, det/c2 updates, r=1 refusal on "
          "equal-factor split")


# ============================================================
# C8: regular families rebuilt from invariant covers
# ============================================================

def _exact_branch_points(pm: PellMap) -> list[complex]:
    f = pm.cover.f
    return [complex(b) for b in (-3, -2, -1, 0, 1, 2, 3)
            if f.eval_complex(complex(b)) == 0]


def test_c8_regular_constructor_reproduces_covers(invariant_covers):
    ok = True
    branch_checked = 0
    irreducible = 0
    for cov, delta in invariant_covers[:5]:
        fam = build_regular_family(cov, delta, 50)
        recomputed = cover_from_family(fam, 50)
        curve = cov.curve
        for b in default_sample_points(fam, 50):
            got = recomputed.values_at(b)
            want = cov.values_at(b)
            ok = ok and ((curve.same_point(got[0], want[0])
                          and curve.same_point(got[1], want[1]))
                         or (curve.same_point(got[0], want[1])
                             and curve.same_point(got[1], want[0])))
            ok = ok and is_regular(fam.fiber_class_at(b))
        if isinstance(cov.bisection, PellMap):
            irreducible += 1
            for b in _exact_branch_points(cov.bisection):
                fc = fam.fiber_class_at(b)
                ok = ok and isinstance(fc, AtiyahRegular)
                branch_checked += 1
    ok = ok and irreducible >= 1 and branch_checked >= 1
    _line("C8", ok,
          f"5 covers at 50 samples (tol 1e-9), {irreducible} irreducible, "
          f"{branch_checked} branch fibres nonsplit-regular")
