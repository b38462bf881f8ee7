# tests/test_families.py
"""
Elementary-modification journals: exact integer invariants of pushes and
pops, refusal rules, jumping sequences, twisting, and the consistency
between a family and its recomputed spectral cover.
"""

from __future__ import annotations

import json
import random
import struct
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_forge import (
    AtiyahRegular,
    BasePoint,
    FamilySpec,
    HyperCover,
    InvalidFamilyError,
    JumpRecord,
    LineBundleOnX,
    MultipleFibre,
    NoSurjectionError,
    PellMap,
    PopStep,
    PushStep,
    QI,
    SplitData,
    SplitFiber,
    SurfaceSpec,
    TateCurve,
    TwoSections,
    UnstableFiber,
    UnsupportedError,
    allowable_mod,
    attach_generic_jumps,
    assign_jumping_sequence,
    build_regular_family,
    can_add_jump,
    cover_from_family,
    default_sample_points,
    elem_mod,
    is_regular,
    jump_report,
    jumping_sequence,
    parse_scenario,
    sample_circle,
)
from spectral_forge.errors import SchemaError
from conftest import (
    TAU_DYADIC,
    combine,
    cover_g1,
    pell_g1,
    prym_generators,
    push_family,
    split_family,
    surf_m23,
    surf_plain,
)
from oracles import (
    replay_c2,
    replay_determinant,
    replay_jump_points,
    replay_jump_stack,
    replay_jumping_sequence,
)

X0 = BasePoint.of(3)
X1 = BasePoint.of(-2)
NU = 1.7 + 0j


def fresh_split() -> FamilySpec:
    return split_family(surf_plain(), 0.7 + 0.1j, 1.3 - 0.2j)


def fresh_push() -> FamilySpec:
    return push_family(surf_plain(), cover_g1(), pell_g1())


# ============================================================
# Single modifications
# ============================================================

def test_single_push_updates_all_invariants():
    fam = fresh_split()
    out = elem_mod(fam, X0, 1, NU)
    assert out.chern.c2 == fam.chern.c2 + 1
    assert out.determinant.base_class == fam.determinant.base_class - 1
    assert out.determinant.constant_factor == fam.determinant.constant_factor
    rec = jumping_sequence(out, X0)
    assert (rec.height, rec.multiplicity, rec.length) == (1, 1, 1)
    assert rec.sequence == (1,)
    fc = out.fiber_class_at(X0.to_complex())
    assert isinstance(fc, UnstableFiber)
    assert fc.height == 1
    cov = cover_from_family(out, 16)
    assert cov.verticals == ((X0, 1),)
    assert cov.vertical_total() == 1


def test_distinct_points_accumulate_verticals():
    fam = fresh_split()
    out = elem_mod(elem_mod(fam, X0, 1, NU), X1, 2, NU)
    cov = cover_from_family(out, 16)
    assert dict((p.to_complex(), m) for p, m in cov.verticals) == {3: 1, -2: 2}
    assert out.chern.c2 == 3
    assert out.determinant.base_class == -2


def test_pop_is_inverse_on_jump_data():
    fam = assign_jumping_sequence(fresh_split(), X0, [2, 1], NU)
    before = jumping_sequence(fam, X0)
    pushed = elem_mod(fam, X0, 3, NU)
    assert jumping_sequence(pushed, X0).sequence == (3, 2, 1)
    popped = allowable_mod(pushed, X0)
    after = jumping_sequence(popped, X0)
    assert after.sequence == before.sequence
    assert after.multiplicity == before.multiplicity
    assert popped.chern.c2 == fam.chern.c2
    # both the push and the pop are modifications: each twists the determinant
    assert popped.determinant.base_class == fam.determinant.base_class - 2


def test_pop_without_jump_is_refused():
    with pytest.raises(NoSurjectionError):
        allowable_mod(fresh_split(), X0)
    with pytest.raises(InvalidFamilyError):
        # a raw pop journal entry with no matching push
        from spectral_forge import PopStep
        FamilySpec(surf_plain(), fresh_split().data, 0, (PopStep(X0),)).chern


# Raw journals, each with one step the replay refuses, as scenario entries.
RAW_JOURNALS = {
    "pop-empty": ((0.7 + 0.1j, 1.3 - 0.2j),
                  [{"op": "push", "at": [3, 1, 0, 1], "degree": 1},
                   {"op": "pop", "at": [3, 1, 0, 1]},
                   {"op": "pop", "at": [3, 1, 0, 1]}]),
    "equal-factor-degree-one": ((1.3 + 0.2j, 1.3 + 0.2j),
                                [{"op": "push", "at": [-2, 1, 0, 1], "degree": 2},
                                 {"op": "push", "at": [3, 1, 0, 1], "degree": 1}]),
}


@pytest.mark.parametrize("name", sorted(RAW_JOURNALS))
def test_raw_journal_is_checked_on_first_read(name):
    """A family built from a raw steps tuple replays it through the checked
    push and pop when its stacks are first read, and fails as the same
    journal in a scenario does."""
    factors, mods = RAW_JOURNALS[name]
    steps = []
    for mod in mods:
        at = BasePoint.of(mod["at"][0])
        steps.append(PushStep(at, mod["degree"], NU) if mod["op"] == "push"
                     else PopStep(at))
    data = split_family(surf_plain(), *factors).data
    for read in (FamilySpec.jump_points, FamilySpec.has_jumps,
                 lambda fam: elem_mod(fam, X1, 3, NU),
                 lambda fam: cover_from_family(fam, 16)):
        with pytest.raises(NoSurjectionError) as raw:
            read(FamilySpec(surf_plain(), data, 0, tuple(steps)))
    doc = {"surface": {"tau": [2.0, 0.0], "theta_degree": 1},
           "family": {"presentation": {
               "type": "split",
               "factors": [[z.real, z.imag] for z in factors]},
               "modifications": [dict(m, line_point=[NU.real, NU.imag])
                                 if m["op"] == "push" else m for m in mods]}}
    with pytest.raises(SchemaError) as parsed:
        parse_scenario(doc)
    assert str(parsed.value) == f"family.modifications[{len(mods) - 1}]: {raw.value}"
    if name == "pop-empty":
        with pytest.raises(InvalidFamilyError):
            FamilySpec(surf_plain(), data, 0, tuple(steps)).chern


# ============================================================
# Refusal rules
# ============================================================

def test_regular_fibre_admits_every_degree():
    fam = fresh_split()
    for r in (1, 2, 3):
        assert can_add_jump(fam, X0, r)


def test_equal_factor_split_refuses_degree_one():
    s = surf_plain()
    fam = split_family(s, 1.3 + 0.2j, 1.3 + 0.2j)
    assert not is_regular(fam.fiber_class_at(X0.to_complex()))
    assert not can_add_jump(fam, X0, 1)
    assert can_add_jump(fam, X0, 2)
    with pytest.raises(NoSurjectionError):
        elem_mod(fam, X0, 1, NU)
    with pytest.raises(NoSurjectionError):
        attach_generic_jumps(fam, [(X0, 1)])


def test_stacked_fibre_needs_matching_line_point():
    fam = assign_jumping_sequence(fresh_split(), X0, [2], NU)
    assert not can_add_jump(fam, X0, 1)
    assert can_add_jump(fam, X0, 3)
    assert can_add_jump(fam, X0, 3, 0.9 + 0.4j)
    # equal degree climbs the same destabilising sub: the line point must
    # agree up to the lattice
    assert not can_add_jump(fam, X0, 2)
    assert can_add_jump(fam, X0, 2, NU)
    assert can_add_jump(fam, X0, 2, NU * TAU_DYADIC)
    assert not can_add_jump(fam, X0, 2, 0.9 + 0.4j)


def test_infinity_and_degree_zero_are_refused():
    fam = fresh_split()
    assert not can_add_jump(fam, BasePoint.infinity(), 1)
    assert not can_add_jump(fam, X0, 0)
    with pytest.raises(ValueError):
        elem_mod(fam, X0, 0, NU)


def test_multiple_fibre_point_routes_through_cyclic_cover():
    fam = split_family(surf_m23(), 0.7 + 0.1j, 1.3 - 0.2j)
    at = BasePoint.of(5)  # multiplicity 2
    assert can_add_jump(fam, at, 1)
    out = elem_mod(fam, at, 1, NU)
    assert out.chern.c2 == 1
    # the twist at a multiple fibre moves the residue, not the base class
    assert out.determinant.base_class == fam.determinant.base_class
    assert out.determinant.fibre_parts == (1, 0)


# ============================================================
# Jumping sequences
# ============================================================

def test_allowable_peels_the_sequence_head():
    fam = assign_jumping_sequence(fresh_split(), X0, [2, 1], NU)
    assert jumping_sequence(fam, X0).sequence == (2, 1)
    peeled = allowable_mod(fam, X0)
    assert jumping_sequence(peeled, X0).sequence == (1,)
    clean = allowable_mod(peeled, X0)
    assert not clean.has_jumps()
    with pytest.raises(NoSurjectionError):
        jumping_sequence(clean, X0)


def test_assign_rejects_increasing_sequences():
    with pytest.raises(ValueError):
        assign_jumping_sequence(fresh_split(), X0, [1, 2], NU)
    with pytest.raises(ValueError):
        assign_jumping_sequence(fresh_split(), X0, [], NU)


def test_assign_refuses_dirty_fibre():
    fam = assign_jumping_sequence(fresh_split(), X0, [2], NU)
    with pytest.raises(UnsupportedError):
        assign_jumping_sequence(fam, X0, [1], NU)


def test_assign_single_height_is_one_push():
    fam = assign_jumping_sequence(fresh_split(), X0, [3], NU)
    assert len(fam.steps) == 1
    assert jumping_sequence(fam, X0).sequence == (3,)


@pytest.mark.parametrize("build, message", [
    (lambda: JumpRecord(X0, 0, 0, 0, ()), "empty jumping sequence"),
    (lambda: JumpRecord(X0, 1, 3, 2, (2, 1)), "height must head the sequence"),
    (lambda: JumpRecord(X0, 2, 4, 2, (2, 1)), "multiplicity must be the sequence sum"),
    (lambda: JumpRecord(X0, 2, 3, 3, (2, 1)), "length must be the sequence length"),
    (lambda: JumpRecord(X0, 1, 3, 2, (1, 2)), "jumping sequences are non-increasing"),
    (lambda: attach_generic_jumps(fresh_split(), [(X0, 2), (X1, 0)]),
     "plan multiplicities must be >= 1"),
    (lambda: SplitData(LineBundleOnX(surf_plain(), 0, 0.7),
                       LineBundleOnX(surf_m23(), 0, 1.3)),
     "summands live on different surfaces"),
], ids=["empty", "height", "multiplicity", "length", "increasing", "plan",
        "split-surfaces"])
def test_presentations_and_jumps_refuse_bad_input(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_generic_jumps_have_unit_sequences():
    fam = attach_generic_jumps(fresh_split(), [(X0, 2), (X1, 1)])
    assert jumping_sequence(fam, X0).sequence == (1, 1)
    assert jumping_sequence(fam, X0).multiplicity == 2
    assert jumping_sequence(fam, X1).sequence == (1,)
    assert attach_generic_jumps(fresh_split(), []).steps == ()


def test_random_journals_satisfy_integer_identities():
    rng = random.Random(2024)
    for _ in range(30):
        fam = fresh_split()
        for _ in range(rng.randint(1, 8)):
            at = rng.choice([X0, X1])
            stack = fam.jump_stack(at)
            if stack and rng.random() < 0.35:
                fam = allowable_mod(fam, at)
                continue
            if stack and rng.random() < 0.4:
                r, lp = stack[-1].degree, stack[-1].line_point
            else:
                h = stack[-1].degree if stack else 0
                r, lp = h + rng.randint(1, 2), NU
            fam = elem_mod(fam, at, r, lp)
        records = jump_report(fam)
        total_mu = 0
        for rec in records:
            assert rec.height == rec.sequence[0]
            assert rec.multiplicity == sum(rec.sequence)
            assert rec.length == len(rec.sequence)
            assert rec.height <= rec.multiplicity
            assert all(b <= a for a, b in zip(rec.sequence, rec.sequence[1:]))
            total_mu += rec.multiplicity
        assert fam.chern.c2 == fam.base_c2 + total_mu
        assert fam.determinant.base_class == -len(fam.steps)
        # journal twists never touch the constant factor
        assert (fam.determinant.constant_factor
                == fresh_split().determinant.constant_factor)


# ============================================================
# Journal index against a linear replay
# ============================================================

# Eight points: 3 twice (built differently, so both must share one stack),
# the multiple fibre at 5 of surf_m23 and five plain fibres.
JOURNAL_POINTS = (BasePoint.of(3), BasePoint(QI(Fraction(6, 2))),
                  BasePoint.of(5), BasePoint.of(-2), BasePoint.of(0, 3),
                  BasePoint(QI.from_pair(5, 2, 1, 1)), BasePoint.of(7, -1),
                  BasePoint.of(-4))
JOURNAL_OPS = st.lists(
    st.tuples(st.integers(0, len(JOURNAL_POINTS) - 1), st.booleans(),
              st.integers(0, 2)),
    max_size=40)


def journal_family(signed_zero: bool, ops) -> FamilySpec:
    """A valid journal: pops only on jumped fibres, pushes never below the
    current height (equal height reuses the line point).  Each step's
    validity is read from the replay, not from the library."""
    fam = (split_family(surf_m23(), complex(0.7, -0.0), complex(1.3, -0.0))
           if signed_zero else split_family(surf_m23(), 0.7 + 0.1j, 1.3 - 0.2j))
    for i, pop, bump in ops:
        at = JOURNAL_POINTS[i]
        stack = replay_jump_stack(fam.steps, at)
        if pop:
            if stack:
                fam = allowable_mod(fam, at)
            else:
                with pytest.raises(NoSurjectionError):
                    allowable_mod(fam, at)
            continue
        if stack and bump == 0:
            fam = elem_mod(fam, at, stack[-1].degree, stack[-1].line_point)
        else:
            fam = elem_mod(fam, at, (stack[-1].degree if stack else 0)
                           + max(bump, 1), NU)
    return fam


def float_bits(z: complex) -> tuple[str, str]:
    return z.real.hex(), z.imag.hex()


def assert_matches_replay(fam: FamilySpec) -> None:
    steps = fam.steps
    for at in JOURNAL_POINTS:
        got = fam.jump_stack(at)
        assert got == replay_jump_stack(steps, at)
        got.append(None)
        assert fam.jump_stack(at) == replay_jump_stack(steps, at)
    points = replay_jump_points(steps)
    assert fam.jump_points() == points
    assert fam.has_jumps() == bool(points)
    assert [(r.at, r.sequence) for r in jump_report(fam)] == [
        (p, replay_jumping_sequence(steps, p)) for p in points]
    want = replay_determinant(fam)
    det = fam.determinant
    assert det.base_class == want.base_class
    assert det.fibre_parts == want.fibre_parts
    assert float_bits(det.constant_factor) == float_bits(want.constant_factor)
    assert fam.chern.c2 == replay_c2(fam.base_c2, steps)
    assert fam.chern.c1_fibre_multiple == want.base_class


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.booleans(), JOURNAL_OPS)
def test_journal_index_matches_linear_replay(signed_zero, ops):
    fam = journal_family(signed_zero, ops)
    assert_matches_replay(fam)
    # the same journal built in one go derives its own index
    direct = FamilySpec(fam.surface, fam.data, fam.base_c2, fam.steps)
    assert direct == fam and hash(direct) == hash(fam)
    assert repr(direct) == repr(fam)
    assert_matches_replay(direct)
    # a shorter journal never inherits the longer one's index
    for k in (0, len(fam.steps) // 2):
        assert_matches_replay(replace(fam, steps=fam.steps[:k]))


# Scenario spellings of JOURNAL_POINTS, index for index; 6/2 spells 3 again.
JOURNAL_SPELLINGS = ([3, 1, 0, 1], [6, 2, 0, 1], [5, 1, 0, 1], [-2, 1, 0, 1],
                     [0, 1, 3, 1], [5, 2, 1, 1], [7, 1, -1, 1], [-4, 1, 0, 1])


def journal_doc(fam: FamilySpec) -> dict:
    """The scenario document of a split family on surf_m23 and its journal,
    each point spelled as the JOURNAL_POINTS entry it was built from."""
    def spell(at: BasePoint) -> list[int]:
        return JOURNAL_SPELLINGS[next(i for i, p in enumerate(JOURNAL_POINTS)
                                      if p is at)]

    mods = []
    for step in fam.steps:
        if isinstance(step, PushStep):
            lp = step.line_point
            mods.append({"op": "push", "at": spell(step.at),
                         "degree": step.degree, "line_point": [lp.real, lp.imag]})
        else:
            mods.append({"op": "pop", "at": spell(step.at)})
    factors = [[z.real, z.imag] for z in (fam.data.l1.constant_factor,
                                          fam.data.l2.constant_factor)]
    return {"surface": {"tau": [2.0, 0.0], "multiple_fibres": [
                {"at": [5, 1, 0, 1], "m": 2}, {"at": [-7, 1, 0, 1], "m": 3}]},
            "family": {"presentation": {"type": "split", "factors": factors},
                       "modifications": mods}}


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.booleans(), JOURNAL_OPS)
def test_parsed_journal_matches_elem_mod_family(signed_zero, ops):
    """The scenario parser's one-pass replay gives the family elem_mod and
    allowable_mod build step by step, through JSON."""
    fam = journal_family(signed_zero, ops)
    parsed = parse_scenario(json.loads(json.dumps(journal_doc(fam)))).family
    assert parsed == fam and hash(parsed) == hash(fam)
    assert repr(parsed) == repr(fam)
    assert_matches_replay(parsed)


@pytest.mark.parametrize("factors,first", [
    ((complex(0.7, -0.0), complex(1.3, -0.0)), ("0x1.d1eb851eb851ep-1", "-0x0.0p+0")),
    ((1e200 + 0j, 3e200 + 0j), ("inf", "0x0.0p+0")),
], ids=["signed-zero", "overflow"])
def test_determinant_factor_keeps_the_per_step_bits(factors, first):
    """Each step's twist multiplies the factor by 1+0j.  That turns a -0.0
    part into +0.0 once, and an infinite factor into nan over two steps;
    the step counts must keep those bits at every journal length."""
    fam = split_family(surf_m23(), *factors)
    assert float_bits(fam.determinant.constant_factor) == first
    for at in (X0, BasePoint.of(5), X1, BasePoint.of(-7)):
        fam = elem_mod(fam, at, 1, NU)
        want = replay_determinant(fam)
        assert (fam.determinant.base_class, fam.determinant.fibre_parts) == (
            want.base_class, want.fibre_parts)
        assert float_bits(fam.determinant.constant_factor) == float_bits(
            want.constant_factor)


def test_equal_points_share_one_stack():
    three = BasePoint(QI(Fraction(6, 2)))
    fam = elem_mod(elem_mod(fresh_split(), X0, 1, NU), three, 2, NU)
    assert fam.jump_points() == [X0]
    assert jumping_sequence(fam, three).sequence == (2, 1)
    assert not allowable_mod(allowable_mod(fam, X0), three).has_jumps()


def test_modifications_leave_their_source_unchanged():
    """elem_mod and allowable_mod resume from copies of the source's steps
    and stacks: the source and every family branched from it keep the
    stacks of a replay of their own steps."""
    x7 = BasePoint.of(7)
    base = elem_mod(elem_mod(fresh_split(), X0, 1, NU), X1, 2, NU)
    branches = [elem_mod(base, X0, 1, NU), elem_mod(base, x7, 1, NU),
                allowable_mod(base, X1), allowable_mod(base, X0)]
    branches.append(elem_mod(branches[0], X0, 2, NU))
    for fam in (base, *branches):
        for at in (X0, X1, x7):
            assert fam.jump_stack(at) == replay_jump_stack(fam.steps, at)
        assert fam.jump_points() == replay_jump_points(fam.steps)
        assert all(type(stack) is tuple for stack in fam._stacks.values())
    assert base.jump_points() == [X0, X1] and len(base.steps) == 2


def test_sample_ladder_steps_past_a_multiple_fibre():
    """A multiple fibre about 1e-4 from the first point of the 32-sample
    circle at tau = 2 rejects that circle, so the samples come from the
    second rung: radius 2 * 1.13 = 2.26, phase 0.05."""
    near = BasePoint(QI.from_pair(499, 250, 78, 625))
    surface = SurfaceSpec(TateCurve(TAU_DYADIC), 1, (MultipleFibre(near, 2),))
    fam = split_family(surface, 0.7 + 0.1j, 1.3 - 0.2j)
    assert abs(sample_circle(32, 2.0)[0] - near.to_complex()) < 2e-4
    pts = default_sample_points(fam, 32)
    assert pts == sample_circle(32, 2.0 * 1.13, 0j, phase=0.05)
    assert default_sample_points(fresh_split(), 32) == sample_circle(32, 2.0)


# ============================================================
# Family <-> cover consistency
# ============================================================

@pytest.mark.parametrize("maker", [fresh_split, fresh_push],
                         ids=["split", "pushforward"])
def test_cover_values_invert_fibre_factors(maker):
    fam = maker()
    cov = cover_from_family(fam, 20)
    curve = fam.curve
    for b in default_sample_points(fam, 20):
        v = cov.values_at(b)
        f = fam.fiber_factors_at(b)
        assert ((curve.same_point(v[0], 1 / f[0])
                 and curve.same_point(v[1], 1 / f[1]))
                or (curve.same_point(v[0], 1 / f[1])
                    and curve.same_point(v[1], 1 / f[0])))


def test_pushforward_cover_is_the_inverse_map():
    fam = fresh_push()
    cov = cover_from_family(fam, 16)
    assert isinstance(cov.bisection, PellMap)
    inv = fam.data.factor_map.inverse()
    for b in default_sample_points(fam, 16):
        got = cov.bisection.sheet_values(b)
        want = inv.sheet_values(b)
        assert abs(got[0] - want[0]) < 1e-12
        assert abs(got[1] - want[1]) < 1e-12


def test_spectral_values_build_no_checked_map(monkeypatch):
    """Counts, not time: 1,000 spectral_values_at calls build no PellMap
    through the Pell-identity check, reuse one inverse map, and return the
    bits of the checked inverse; the trusted inverse and sheet flip pass
    the check when rebuilt."""
    fam = fresh_push()
    m = fam.data.factor_map
    checked = PellMap(m.cover, m.u_part, -m.v_part, m.r_part, m.scale.inv())
    pts = default_sample_points(fam, 1000)
    calls = []
    plain = PellMap.__post_init__
    monkeypatch.setattr(PellMap, "__post_init__",
                        lambda self: calls.append(self) or plain(self))
    got = [fam.spectral_values_at(b) for b in pts]
    assert calls == [] and m.inverse() is m.inverse()

    def bits(values):
        return struct.pack(f"<{4 * len(values)}d",
                           *(x for pair in values for z in pair for x in (z.real, z.imag)))

    assert bits(got) == bits([checked.sheet_values(b) for b in pts])
    for trusted in (m.inverse(), m.sheet_flip()):
        assert PellMap(trusted.cover, trusted.u_part, trusted.v_part,
                       trusted.r_part, trusted.scale) == trusted
    assert len(calls) == 2


def test_sample_points_avoid_special_fibres():
    fam = elem_mod(fresh_push(), X0, 1, NU)
    pts = default_sample_points(fam, 24)
    assert len(pts) == 24
    for b in pts:
        assert abs(b - 3.0) > 1e-3
        assert fam.data.cover.branch_distance(b) > 1e-6
        assert not fam.data.factor_map.punctures_near(b)


# ============================================================
# Twisting
# ============================================================

def test_prym_twist_preserves_cover_and_determinant():
    fam = fresh_push()
    gens = prym_generators(fam.data.cover)
    nu = combine(gens, [1, -2])
    twisted = fam.twisted(nu)
    assert twisted.determinant.isomorphic(fam.determinant)
    pts = default_sample_points(fam, 12)
    for b in pts:
        a = fam.spectral_values_at(b)
        c = twisted.spectral_values_at(b)
        assert abs(a[0] - c[0]) < 1e-12 and abs(a[1] - c[1]) < 1e-12


def test_twist_guards():
    fam = fresh_push()
    gens = prym_generators(fam.data.cover)
    from spectral_forge import DivisorClass, Poly, QI
    unbalanced = DivisorClass(fam.data.cover, Poly.x_minus(QI.of(0)),
                              Poly.const(QI.of(1)), 0)
    with pytest.raises(ValueError):
        fam.twisted(unbalanced)
    with pytest.raises(UnsupportedError):
        fresh_split().twisted(gens[0])
    with pytest.raises(UnsupportedError, match="twisting requires a pushforward family"):
        fresh_split().twisted_torsion(((1, -1),))


def test_pushforward_data_refuses_mismatched_parts():
    """Each guard of ``PushforwardData`` with its message: a factor map or
    a twist class on another cover, a twist of nonzero degree."""
    from spectral_forge import DivisorClass, Poly, PushforwardData
    other = HyperCover(Poly.of(1, -1, 0, 0, 0, 1))
    elsewhere = DivisorClass(other, Poly.x_minus(QI.of(0)), Poly.const(QI.of(1)), 1)
    unbalanced = DivisorClass(cover_g1(), Poly.x_minus(QI.of(0)), Poly.const(QI.of(1)), 0)
    cases = ((other, pell_g1(), None, "factor map lives on a different cover"),
             (cover_g1(), pell_g1(), elsewhere, "twist class lives on a different cover"),
             (cover_g1(), pell_g1(), unbalanced, "twist must be a degree-0 class"))
    for cover, factor_map, twist, message in cases:
        with pytest.raises(ValueError) as info:
            PushforwardData(cover, factor_map, twist)
        assert str(info.value) == message


@pytest.mark.parametrize("degree, line_point, message", [
    (0, NU, "modification degree must be >= 1"),
    (1, 0j, "line_point must be nonzero")], ids=["degree", "line-point"])
def test_push_step_refuses_bad_data(degree, line_point, message):
    with pytest.raises(ValueError) as info:
        PushStep(X0, degree, line_point)
    assert str(info.value) == message


def test_torsion_twist_moves_determinant_residues():
    fam = push_family(surf_m23(), cover_g1(), pell_g1(),
                      torsion_pairs=((1, 1), (0, 2)))
    assert fam.determinant.fibre_parts == (0, 2)
    sym = fam.twisted_torsion(((1, -1), (0, 0)))
    assert sym.determinant.fibre_parts == (0, 2)
    moved = fam.twisted_torsion(((1, 0), (0, 0)))
    assert moved.determinant.fibre_parts == (1, 2)


# ============================================================
# Regular construction from an invariant cover
# ============================================================

def test_regular_families_reproduce_their_covers(invariant_covers):
    for cov, delta in invariant_covers[:5]:
        fam = build_regular_family(cov, delta, 32)
        assert fam.determinant.isomorphic(delta.dual())
        recomputed = cover_from_family(fam, 32)
        curve = cov.curve
        for b in default_sample_points(fam, 32):
            got = recomputed.values_at(b)
            want = cov.values_at(b)
            assert ((curve.same_point(got[0], want[0])
                     and curve.same_point(got[1], want[1]))
                    or (curve.same_point(got[0], want[1])
                        and curve.same_point(got[1], want[0])))
            assert is_regular(fam.fiber_class_at(b))


def test_regular_family_is_nonsplit_at_branch_points():
    s = surf_plain()
    for pm, branch in ((pell_g1(), -1.0), (None, 0.0)):
        if pm is None:
            from conftest import pell_g0
            pm = pell_g0()
        from spectral_forge import LineBundleOnX, SpectralCover
        cov = SpectralCover(s, (), pm)
        delta = LineBundleOnX(s, 0, pm.norm_value())
        fam = build_regular_family(cov, delta, 32)
        fc = fam.fiber_class_at(branch)
        assert isinstance(fc, AtiyahRegular)
        off = fam.fiber_class_at(branch + 0.7)
        assert isinstance(off, SplitFiber)
        assert is_regular(off)


def test_regular_construction_guards(invariant_covers):
    from spectral_forge import LineBundleOnX, VerificationError
    cov, delta = invariant_covers[2]
    wrong = LineBundleOnX(delta.surface, 0, delta.constant_factor * 1.1)
    with pytest.raises(VerificationError):
        build_regular_family(cov, wrong, 16)
    vert_cov, vert_delta = invariant_covers[5]
    with pytest.raises(UnsupportedError):
        build_regular_family(vert_cov, vert_delta, 16)
