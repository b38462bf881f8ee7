# tests/test_covers.py
"""
Exact divisor-class arithmetic on the double covers: reduction invariants,
group laws, principality by reduction cross-checked against the
function-search route, the branch two-torsion classes, and the integer
polynomial kernels against schoolbook Q(i) loops and Cantor in sympy.
"""

from __future__ import annotations

import copy
import functools
import pickle
import random
import re
import struct
import sys
from collections import Counter
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from spectral_forge import (
    BasePoint,
    DivisorClass,
    HyperCover,
    PellMap,
    Poly,
    QI,
    UnsupportedError,
    class_add,
    class_equal,
    class_neg,
    classes_equal_by_search,
    in_prym,
    parse_scenario,
    point_class,
)
from spectral_forge import covers
from spectral_forge.covers import (
    _poly_over,
    cantor_reduce,
    conjugate_sum_principal_witness,
    involution_pullback,
    mumford_compose,
    qi_nullspace,
)
from conftest import (affine_points, combine, count_calls, cover_g1, cover_g2, cover_g3, cover_g0,
                      prym_generators)
from oracles import (FractionQI, from_sympy, reference_add, reference_divmod, reference_eval,
                     reference_eval_complex, reference_gcd, reference_monic, reference_mul, reference_neg, reference_scale,
                     reference_qi_nullspace, reference_sub, reference_xgcd, sympy_compose,
                     sympy_reduce, to_sympy)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import census  # noqa: E402

COVERS = [cover_g1(), cover_g2(), cover_g3()]


def one_point_classes(cov: HyperCover) -> list[DivisorClass]:
    return [point_class(cov, x, w) for x, w in affine_points(cov)]


# ============================================================
# Reduction invariants
# ============================================================

@pytest.mark.parametrize("cov", COVERS, ids=lambda c: f"g{c.genus}")
def test_reduction_bounds_degree_by_genus(cov):
    rng = random.Random(17)
    gens = prym_generators(cov)
    for _ in range(12):
        coeffs = [rng.randint(-2, 2) for _ in gens]
        d = combine(gens, coeffs)
        assert d.u.degree <= cov.genus
        assert d.degree() == 0


def test_compose_then_reduce_equals_add():
    cov = cover_g2()
    a, b = one_point_classes(cov)[:2]
    composed = mumford_compose(a, b)
    assert composed.u.degree == 2
    assert class_equal(cantor_reduce(composed), class_add(a, b))


def test_genus_zero_jacobian_is_trivial():
    cov = cover_g0()
    for x, w in affine_points(cov):
        assert cantor_reduce(point_class(cov, x, w)).is_zero_class()


# ============================================================
# Group laws (exact)
# ============================================================

@pytest.mark.parametrize("cov", COVERS, ids=lambda c: f"g{c.genus}")
def test_group_laws(cov):
    gens = prym_generators(cov)
    a = gens[0]
    b = class_add(gens[-1], gens[0])
    c = class_neg(gens[-1])
    assert class_equal(class_add(a, b), class_add(b, a))
    assert class_equal(class_add(class_add(a, b), c),
                       class_add(a, class_add(b, c)))
    assert class_add(a, class_neg(a)).is_zero_class()
    zero = DivisorClass.zero(cov)
    assert class_equal(class_add(a, zero), a)


def test_conjugate_pair_composes_to_zero():
    cov = cover_g1()
    x, w = affine_points(cov)[0]
    p, ip = point_class(cov, x, w), point_class(cov, x, -w)
    assert mumford_compose(p, ip).is_zero_class()
    assert class_add(p, ip).is_zero_class()


# ============================================================
# Branch two-torsion
# ============================================================

def test_branch_point_class_is_two_torsion_and_involution_fixed():
    cov = cover_g1()
    t = point_class(cov, QI.of(-1), QI.of(0))
    assert not t.is_zero_class()
    assert class_add(t, t).is_zero_class()
    assert involution_pullback(t) == t
    assert in_prym(t)


# ============================================================
# Involution and the norm-trivial part
# ============================================================

@pytest.mark.parametrize("cov", COVERS, ids=lambda c: f"g{c.genus}")
def test_involution_negates_classes(cov):
    for g in prym_generators(cov):
        assert class_equal(involution_pullback(g), class_neg(g))
        assert in_prym(g)


def test_in_prym_requires_degree_zero():
    cov = cover_g1()
    unbalanced = DivisorClass(cov, Poly.x_minus(QI.of(0)), Poly.const(QI.of(1)), 0)
    assert unbalanced.degree() == 1
    with pytest.raises(ValueError):
        in_prym(unbalanced)


# ============================================================
# Dual-route equality: Cantor reduction vs function search
# ============================================================

def search_route_instances(cov: HyperCover):
    """(d1, d2, expected) triples with disjoint Mumford supports.

    Equal pairs take a semi-reduced composite of genus+2 points against its
    Cantor-reduced form; the extra degree forces the reduction to move the
    support off the input points, which the caller asserts.
    """
    pts = one_point_classes(cov)
    k = cov.genus + 2
    composed = pts[0]
    reduced = pts[0]
    for _ in range(k - 1):
        composed = mumford_compose(composed, pts[0])
        reduced = class_add(reduced, pts[0])
    out = [(composed, reduced, True)]
    # distinct single points: unequal (nonzero difference class)
    out.append((pts[0], pts[1], False))
    # a nonzero class against the zero class
    out.append((pts[0], DivisorClass.zero(cov), False))
    return out


@pytest.mark.parametrize("cov", COVERS, ids=lambda c: f"g{c.genus}")
def test_search_equality_agrees_with_cantor(cov):
    for d1, d2, expected in search_route_instances(cov):
        assert d1.u.gcd(d2.u).degree == 0
        assert class_equal(d1, d2) == expected
        assert classes_equal_by_search(d1, d2) == expected


def test_search_route_rejects_shared_support():
    cov = cover_g1()
    p = one_point_classes(cov)[0]
    with pytest.raises(ValueError):
        classes_equal_by_search(p, p)


# ============================================================
# Principality witnesses
# ============================================================

@pytest.mark.parametrize("cov", COVERS, ids=lambda c: f"g{c.genus}")
def test_conjugate_sum_witness_satisfies_norm_identity(cov):
    gens = prym_generators(cov)
    for d in (gens[0], class_add(gens[0], gens[-1])):
        if d.is_zero_class():
            continue
        a, c = conjugate_sum_principal_witness(d)
        nrm = a * a - c * c * cov.f
        target = d.u * d.u
        q, rem = nrm.divmod(target)
        assert rem.is_zero()
        assert q.degree == 0


@pytest.mark.parametrize("nullspace", ["empty", "no witness"])
def test_search_oracles_without_a_witness(monkeypatch, nullspace):
    """Both oracles run one search.  With the nullspace emptied the equality
    answers False and the witness search raises; with a basis vector (a = 1,
    c = 0) that fails the norm identity each raises its own message."""
    p, q = one_point_classes(cover_g2())[:2]

    def fake(rows, n_cols):
        return [] if nullspace == "empty" else [[QI.of(1)] + [QI.of(0)] * (n_cols - 1)]

    monkeypatch.setattr(covers, "qi_nullspace", fake)
    if nullspace == "empty":
        assert classes_equal_by_search(p, q) is False
    else:
        with pytest.raises(ArithmeticError, match="^nullspace nonempty but no vector "
                           "satisfied the norm identity; inputs violate the "
                           "generic-position precondition$"):
            classes_equal_by_search(p, q)
    with pytest.raises(ArithmeticError,
                       match=r"^no principality witness found for D \+ iota\(D\)$"):
        conjugate_sum_principal_witness(p)


# ============================================================
# The nullspace over Z[i] vs the Q(i) Fraction elimination
# ============================================================

def random_qi(rng: random.Random, bits: int) -> QI:
    """Zero one time in six, real one in three, else non-real; each part up
    to 2^bits over a denominator up to 2^bits."""
    def part() -> Fraction:
        return Fraction(rng.randint(-2 ** bits, 2 ** bits), rng.randint(1, 2 ** bits))
    kind = rng.randrange(6)
    return QI() if kind == 0 else QI(part(), part() if kind > 2 else 0)


# rows, columns and the rank of the random factors
NULLSPACE_SHAPES = {"rank-0": (3, 4, 0), "full-rank": (5, 5, 5), "tall": (7, 3, 3),
                    "tall-deficient": (7, 3, 2), "wide": (3, 7, 3),
                    "deficient": (5, 6, 2), "no-rows": (0, 4, 0)}


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("shape", NULLSPACE_SHAPES)
def test_nullspace_matches_the_fraction_elimination(shape, seed):
    """Products of random n x r and r x m Q(i) matrices (complex pivots
    among them), parts and denominators up to 2, 2^8, 2^32 and 2^64; at odd
    seeds one row and one column are zeroed too.  The basis is the
    reference's, vector for vector."""
    rng = random.Random(f"{shape}:{seed}")
    n_rows, n_cols, rank = NULLSPACE_SHAPES[shape]
    bits = (1, 8, 32, 64)[seed]
    left = [[random_qi(rng, bits) for _ in range(rank)] for _ in range(n_rows)]
    right = [[random_qi(rng, bits) for _ in range(n_cols)] for _ in range(rank)]
    rows = [[sum((a * right[k][j] for k, a in enumerate(row)), QI()) for j in range(n_cols)]
            for row in left]
    if rows and seed % 2:
        rows[rng.randrange(n_rows)] = [QI()] * n_cols
        zero = rng.randrange(n_cols)
        rows = [[QI() if j == zero else x for j, x in enumerate(row)] for row in rows]
    assert qi_nullspace(rows, n_cols) == reference_qi_nullspace(rows, n_cols)


def cantor_chain_search_pairs() -> list[tuple[DivisorClass, DivisorClass]]:
    """The pairs the cantor-chain benchmark's pool of equality jobs hands
    to ``classes_equal_by_search``: one job per point P (both signs of w),
    other point Q and k = genus + 1 .. genus + 3 on the genus 1-3 covers,
    each searching P against Q and, where their supports are disjoint, k*P
    composed against k*P reduced."""
    pairs = []
    for cov in COVERS:
        pts = affine_points(cov)
        for k in range(cov.genus + 1, cov.genus + 4):
            for i, (x, w) in enumerate(pts):
                for sign in (1, -1):
                    p = point_class(cov, x, w if sign > 0 else -w)
                    composed = reduced = p
                    for _ in range(k - 1):
                        composed, reduced = mumford_compose(composed, p), class_add(reduced, p)
                    for j in range(len(pts)):
                        if j != i:
                            pairs.append((p, point_class(cov, *pts[j])))
                            if composed.u.gcd(reduced.u).degree == 0:
                                pairs.append((composed, reduced))
    return pairs


FRACTION_OPS = ("__new__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                "__rmul__")


def count_fraction_ops(monkeypatch) -> Counter[str]:
    """The Fractions built and the Fraction +, - and * made from now until
    ``monkeypatch.undo()``, counted per operator."""
    counts: Counter[str] = Counter()

    def counted(op, fn):
        def wrapper(*args, **kwargs):
            counts[op] += 1
            return fn(*args, **kwargs)
        return wrapper

    for op in FRACTION_OPS:
        monkeypatch.setattr(Fraction, op, counted(op, getattr(Fraction, op)))
    return counts


def test_nullspace_makes_no_fraction_arithmetic(monkeypatch):
    """Counts, not time: on every matrix the cantor-chain benchmark's search
    jobs build, the elimination builds no Fraction and does no Fraction +,
    - or * (the former Q(i) elimination does thousands), and each basis is
    the reference's."""
    matrices = []
    plain = covers.qi_nullspace

    def spy(rows, n_cols):
        matrices.append((rows, n_cols))
        return plain(rows, n_cols)

    monkeypatch.setattr(covers, "qi_nullspace", spy)
    for d1, d2 in cantor_chain_search_pairs():
        classes_equal_by_search(d1, d2)
    monkeypatch.undo()
    assert len(matrices) == 230
    counts = count_fraction_ops(monkeypatch)
    bases = [qi_nullspace(rows, n_cols) for rows, n_cols in matrices]
    assert not counts, counts
    reference = [reference_qi_nullspace(rows, n_cols) for rows, n_cols in matrices]
    assert sum(counts.values()) > 1000
    monkeypatch.undo()
    assert bases == reference


def test_exact_evaluation_makes_no_fraction_arithmetic(monkeypatch):
    """Counts, not time: building the four test covers, testing their
    points and branch points with ``is_branch`` and evaluating f there, and
    building each point's class build no Fraction and do no Fraction +, -
    or *; the Q(i) Horner of the reference does, at the same points, and
    gives the same values."""
    counts = count_fraction_ops(monkeypatch)
    covs = [cover_g0(), cover_g1(), cover_g2(), cover_g3()]
    branch = [(covs[0], QI.of(0)), (covs[1], QI.of(-1))]
    points = [(cov, x, w) for cov in covs for x, w in affine_points(cov)]
    assert all(cov.is_branch(BasePoint(x)) for cov, x in branch)
    assert not any(cov.is_branch(BasePoint(x)) for cov, x, _ in points)
    at = [(cov, x) for cov, x, _ in points] + branch
    values = [cov.f.eval(x) for cov, x in at]
    classes = [point_class(cov, x, w) for cov, x, w in points]
    assert not counts, counts
    reference = [reference_eval(cov.f, x) for cov, x in at]
    assert sum(counts.values()) > 0
    monkeypatch.undo()
    assert values == reference and values[-2:] == [QI(), QI()]
    assert [d.u for d in classes] == [Poly.x_minus(x) for _, x, _ in points]


def chain_coefficients() -> list[tuple[QI, ...]]:
    """The coefficients of u and v at every step of a 40-step n*P chain on
    w^2 = b^7 - b + 1, P = (1, 1)."""
    cov = cover_g3()
    p = d = point_class(cov, QI.of(1), QI.of(1))
    out = []
    for _ in range(40):
        d = class_add(d, p)
        out += [d.u.coeffs, d.v.coeffs]
    return out


def search_jobs() -> list[bool]:
    pairs = cantor_chain_search_pairs()
    assert len(pairs) == 230
    return [classes_equal_by_search(d1, d2) for d1, d2 in pairs]


def pell_scales() -> list[QI]:
    """The scales of a Pell map's inverse and of its inverse's inverse,
    and its norm constant."""
    s = QI.from_pair(3, 2, -1, 5)
    m = PellMap.from_pell_pair(cover_g1(), Poly.of(3), Poly.of(1), s)
    assert m.inverse().scale * s == QI.of(1) and m.inverse().inverse().scale == s
    assert m.norm_constant() == s * s == QI.from_pair(221, 100, -3, 5)
    return [m.inverse().scale, m.norm_constant()]


def parse_readme() -> object:
    from test_cli import readme_doc
    return parse_scenario(readme_doc()).family


EXACT_JOBS = {"chain": chain_coefficients, "search": search_jobs, "pell": pell_scales,
              "parse": parse_readme}


@pytest.mark.parametrize("job", EXACT_JOBS)
def test_the_exact_layer_builds_no_fraction(monkeypatch, job):
    """Counts, not time: a 40-step genus-3 chain with the coefficients of
    every class read, the cantor-chain benchmark's 230 search jobs from
    their points on, a Pell map's inverse and norm constant, and the parse
    of the README scenario (a pushforward with a journal) build no Fraction
    and do no Fraction +, - or *.  Reading a part of a Q(i) number does
    build one: the positive control."""
    counts = count_fraction_ops(monkeypatch)
    assert EXACT_JOBS[job]()
    assert not counts, counts
    part = QI.from_pair(1, 3).re
    assert counts == {"__new__": 1}, counts
    assert part == Fraction(1, 3)


def test_point_class_tests_divisibility_once(monkeypatch):
    """Counts, not time: ``point_class`` divides once, for its on-curve
    test, and builds its class without the checking constructor, whose
    third invariant is the same test; every class passes the check when
    rebuilt."""
    points = [(cov, x, w) for cov in (cover_g0(), *COVERS) for x, w in affine_points(cov)]
    plain, calls = Poly._pseudo_divmod, [0]

    def counted(self, o):
        calls[0] += 1
        return plain(self, o)

    monkeypatch.setattr(Poly, "_pseudo_divmod", counted)
    classes = [point_class(cov, x, w) for cov, x, w in points]
    assert calls[0] == len(points) == 12
    monkeypatch.undo()
    for d in classes:
        assert DivisorClass(d.cover, d.u, d.v, d.inf_mult) == d


# ============================================================
# Q(i) numbers vs the Fraction-pair definitions
# ============================================================

BIG = 2 ** 500
PARTS = st.one_of(st.just(Fraction(0)), st.integers(-3, 3).map(Fraction),
                  st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG)))
NUMBERS = st.builds(QI, PARTS, PARTS)
HUGE = QI(Fraction(BIG - 1, 3 ** 300), Fraction(-(BIG // 7), 5 ** 200))
INTS = st.one_of(st.integers(-3, 3), st.integers(-BIG, BIG))


def assert_canonical_qi(x: QI) -> None:
    """den > 0 and gcd(den, re, im) = 1."""
    assert x._den > 0 and gcd(x._den, x._re, x._im) == 1, (x._den, x._re, x._im)


@settings(max_examples=200, derandomize=True, deadline=None,
          database=None)
@given(x=NUMBERS, y=NUMBERS, k=INTS.filter(bool))
@example(x=HUGE, y=HUGE.conj(), k=-3)
@example(x=QI(), y=QI(), k=1)
@example(x=QI(Fraction(2, 4)), y=QI.from_pair(1, 2, 0, 5), k=6)
@example(x=QI.of(1), y=QI.of(0, -1), k=-1)
@example(x=QI(Fraction(-6, 4), 3), y=QI.from_pair(3, -2, 6, 2), k=2)
def test_qi_matches_the_fraction_pair_definitions(x, y, k):
    """+, -, *, /, inv, conj, neg, ==, is_zero, is_one, the float value bit
    for bit and repr against the former Fraction-pair number
    (``oracles.FractionQI``).  Every result keeps the canonical image, and
    equal values are equal and hash alike however they are spelled: from
    parts, from a pair with both fractions over k (negative k among them),
    through pickle and deepcopy."""
    fx, fy = FractionQI.of(x), FractionQI.of(y)
    pairs = [(x + y, fx + fy), (y + x, fy + fx), (x - y, fx - fy), (y - x, fy - fx),
             (x * y, fx * fy), (-x, -fx), (x.conj(), fx.conj())]
    if fy.is_zero():
        for op in (y.inv, lambda: x / y):
            with pytest.raises(ZeroDivisionError, match=r"^division by zero in Q\(i\)$"):
                op()
    else:
        pairs += [(y.inv(), fy.inv()), (x / y, fx / fy)]
    for got, want in pairs:
        assert (got.re, got.im) == (want.re, want.im)
        assert_canonical_qi(got)
    assert (x == y) == (fx == fy) and (x != y) == (not fx == fy)
    if x == y:
        assert hash(x) == hash(y)
    for a, fa in ((x, fx), (y, fy)):
        assert_canonical_qi(a)
        assert a.is_zero() == fa.is_zero() and a.is_one() == fa.is_one()
        assert complex_bits(a.to_complex()) == complex_bits(fa.to_complex())
        assert repr(a) == repr(fa)
        re, im = a.re, a.im
        spellings = [QI(re, im), QI.of(re, im), fa.qi(), pickle.loads(pickle.dumps(a)),
                     copy.deepcopy(a), QI.from_pair(re.numerator * k, re.denominator * k,
                                                    im.numerator * k, im.denominator * k)]
        for b in spellings:
            assert b == a and hash(b) == hash(a) and repr(b) == repr(a)
            assert_canonical_qi(b)


# ============================================================
# Integer kernels vs schoolbook Q(i) loops
# ============================================================

GAUSSIAN = st.builds(QI, PARTS, PARTS.filter(bool))


def polys(max_size: int):
    return st.lists(NUMBERS, max_size=max_size).map(
        lambda cs: Poly(tuple(cs)))


def divisors(max_size: int):
    """Nonzero polynomials, half of them with a non-real leading coefficient."""
    return st.one_of(polys(max_size).filter(lambda p: not p.is_zero()),
                     st.builds(lambda p, c: Poly(p.coeffs + (c,)),
                               polys(max_size - 1), GAUSSIAN))


EDGE_CASES = [
    (Poly(), Poly.of(3)),
    (Poly.of(5), Poly((QI.of(1), QI.of(0), QI(Fraction(2, 3), Fraction(-1))))),
    (Poly((HUGE, QI.of(1, 1), HUGE)), Poly((QI.of(-2), HUGE.conj()))),
    (Poly((QI.of(7), HUGE)), Poly((HUGE, QI.of(0), QI.of(2, -3)))),
    # divisors whose division takes an exact step, then steps that need a
    # multiplier: rational content 2 (3 divides 6 but not 1), and lead 1 + i
    # (which divides 2 but not -1 + 2i)
    (Poly.of(7, 1, 5, 6), Poly.of(4, 6)),
    (Poly.of(3, 1, 2), Poly((QI.of(2), QI.of(1, 1)))),
]


@settings(max_examples=200, derandomize=True, deadline=None,
          database=None)
@given(cs=st.lists(NUMBERS, max_size=6), zeros=st.integers(0, 2))
@example(cs=[HUGE, QI.of(1, 1), HUGE.conj()], zeros=1)
@example(cs=[QI(Fraction(1, 6)), QI(0, Fraction(1, 10)), QI(Fraction(1, 15))], zeros=0)
@example(cs=[QI(), QI()], zeros=2)
def test_poly_keeps_the_coefficients_it_is_given(cs, zeros):
    """``Poly(coeffs)`` keeps the given QIs, trailing zeros stripped, as its
    ``coeffs`` and divides out no content (no ``_poly_over`` call): its
    image over the lcm of the dens is the canonical image ``_poly_over``
    makes of it, and the coefficients read back from that image are the
    given ones."""
    given_coeffs = (*cs, *[QI()] * zeros)
    kept = list(given_coeffs)
    while kept and kept[-1].is_zero():
        kept.pop()
    with pytest.MonkeyPatch.context() as m:
        calls = count_calls(m, covers, "_poly_over")
        p = Poly(given_coeffs)
    assert calls[0] == 0
    assert len(p.coeffs) == len(kept) and all(a is b for a, b in zip(p.coeffs, kept))
    assert p._image == _poly_over(*covers._image_of(given_coeffs))._image
    assert pickle.loads(pickle.dumps(p)).coeffs == tuple(kept)


def with_edge_cases(test):
    for a, b in EDGE_CASES:
        test = example(a=a, b=b)(test)
    return test


@settings(max_examples=150, derandomize=True, deadline=None,
          database=None)
@given(a=polys(7), b=divisors(7))
@with_edge_cases
def test_kernels_match_schoolbook(a, b):
    product = a * b
    assert product == reference_mul(a, b)
    q, r = a.divmod(b)
    assert (q, r) == reference_divmod(a, b)
    assert a // b == q and a % b == r
    assert product.exact_div(b) == a
    if not r.is_zero():
        with pytest.raises(ArithmeticError):
            a.exact_div(b)
    c = b.lead()
    linear = [(a + b, reference_add(a, b)), (b + a, reference_add(b, a)),
              (a - b, reference_sub(a, b)), (b - a, reference_sub(b, a)),
              (a - a, Poly()), (-a, reference_neg(a)), (-b, reference_neg(b)),
              (a.scale(c), reference_scale(a, c)), (b.scale(c), reference_scale(b, c)),
              (a.monic(), reference_monic(a)), (b.monic(), reference_monic(b))]
    for got, want in linear:
        assert got == want
    # the image a result keeps is the one its coefficients give
    for p in (product, q, r, *(got for got, _ in linear)):
        assert p._image == Poly(p.coeffs)._image
    with pytest.raises(ZeroDivisionError):
        a.divmod(Poly())


# ============================================================
# Lazy coefficients: a Poly built from an integer image is the Poly of its
# coefficients
# ============================================================

def complex_bits(z: complex) -> bytes:
    return struct.pack("<2d", z.real, z.imag)


@settings(max_examples=150, derandomize=True, deadline=None,
          database=None)
@given(nums=st.lists(st.tuples(INTS, INTS), max_size=6),
       div=st.tuples(INTS, INTS).filter(any), k=INTS.filter(bool))
@example(nums=[], div=(1, 0), k=-5)
@example(nums=[(0, 0), (0, 0)], div=(2, 1), k=3)
@example(nums=[(1, 0)], div=(1, 0), k=1)
@example(nums=[(6, 0)], div=(-4, 0), k=3)
@example(nums=[(1, 0), (0, 0), (2, -2), (0, 0)], div=(1, 1), k=-2)
def test_lazy_and_eager_polys_agree(nums, div, k):
    """sum_j num_j b^j / (c + d i), built once from the image
    k * (N, num_j conj(c + d i)) with N = c^2 + d^2 (no Fraction, k may be
    negative or share factors with everything), once from its QI
    coefficients; the zero polynomial, constants, Gaussian and negative
    denominators and trailing zeros are among the examples."""
    c, d = div
    n = c * c + d * d

    def lazy() -> Poly:
        return _poly_over(k * n, [k * (a * c + b * d) for a, b in nums],
                          [k * (b * c - a * d) for a, b in nums])

    eager = Poly(tuple(QI.of(a, b) / QI.of(c, d) for a, b in nums))
    p = lazy()
    assert p == eager and eager == p
    moved = eager + Poly((QI.of(0, 1),))
    assert p != moved and moved != p
    assert "coeffs" not in vars(p)
    assert p.degree == eager.degree and p.is_zero() == eager.is_zero()
    assert p.is_one() == eager.is_one()
    for j in range(-1, len(nums) + 1):
        assert p.coeff(j) == eager.coeff(j)
    if eager.is_zero():
        with pytest.raises(ValueError):
            p.lead()
    else:
        assert p.lead() == eager.lead()
    for z in (0.5 + 0.25j, -1.5 + 2j):
        want = complex_bits(reference_eval_complex(eager, z))
        assert complex_bits(p.eval_complex(z)) == want
        assert complex_bits(eager.eval_complex(z)) == want
    assert "coeffs" not in vars(p)
    assert p.eval(QI.of(2, -1)) == reference_eval(eager, QI.of(2, -1))
    assert p.coeffs == eager.coeffs
    assert hash(p) == hash(eager) and repr(p) == repr(eager)
    for q in (pickle.loads(pickle.dumps(lazy())), copy.deepcopy(lazy()),
              pickle.loads(pickle.dumps(eager)), copy.deepcopy(eager)):
        assert q == eager and q._image == eager._image
        assert hash(q) == hash(eager) and repr(q) == repr(eager)


@settings(max_examples=150, derandomize=True, deadline=None,
          database=None)
@given(a=polys(7), x=NUMBERS)
@example(a=Poly(), x=HUGE)
@example(a=Poly.of(Fraction(-2, 3)), x=QI.of(0, 1))
@example(a=Poly((HUGE, QI.of(1, 1), HUGE)), x=HUGE.conj())
def test_eval_is_the_remainder_by_b_minus_x(a, x):
    """f(x) as the remainder of f by b - x is the Q(i) Horner value, for
    the zero polynomial, constants and Gaussian points among others."""
    assert a.eval(x) == reference_eval(a, x)


# Euclid over Q(i) roughly doubles the coefficient height per step, which the
# schoolbook reference pays for in full: keep the degrees lower here.
@settings(max_examples=60, derandomize=True, deadline=None,
          database=None)
@given(a=polys(4), b=divisors(4))
@with_edge_cases
def test_euclid_matches_schoolbook(a, b):
    assert a.gcd(b) == reference_gcd(a, b)
    assert a.xgcd(b) == reference_xgcd(a, b)


def test_xgcd_of_two_zero_polynomials():
    """gcd(0, 0) = 0 with cofactors (1, 0): Euclid's loop does not run and
    no leading coefficient is inverted."""
    g, s, t = Poly().xgcd(Poly())
    assert g.is_zero() and s == Poly.of(1) and t.is_zero()
    assert (s * Poly() + t * Poly() - g).is_zero()


# ============================================================
# Every result keeps the canonical image
# ============================================================

def assert_canonical(p: Poly) -> None:
    """den > 0, gcd(den, re, im) = 1 and no trailing zero."""
    den, re, im = p._image
    assert den > 0 and len(re) == len(im), p._image
    assert gcd(den, *re, *im) == 1, p._image
    assert not re or re[-1] or im[-1], p._image


# non-monic, with a leading numerator that shares a factor with den: the
# constant term puts 6m into den, the lead 1/3 or (-2 + i)/3 gives den / 3
SHARED_LEAD = st.builds(lambda p, m, c: Poly(p.coeffs + (c,)) + Poly.of(Fraction(1, 6 * m)),
                        polys(4), st.integers(1, 40),
                        st.sampled_from([QI.of(Fraction(1, 3)),
                                         QI(Fraction(-2, 3), Fraction(1, 3))]))


@settings(max_examples=120, derandomize=True, deadline=None,
          database=None)
@given(a=st.one_of(polys(6), SHARED_LEAD), b=st.one_of(divisors(6), SHARED_LEAD))
@example(a=Poly.of(Fraction(1, 6), Fraction(1, 3)), b=Poly.of(Fraction(1, 6), Fraction(1, 3)))
@example(a=Poly.of(5), b=Poly.of(Fraction(-4, 9)))
@with_edge_cases
def test_every_op_keeps_a_canonical_image(a, b):
    """Sums, products, divisions, monic, gcd and the cofactor routines,
    including the gcd with zero (whose cofactor is 1 / lead) and constant
    operands (whose inverse is taken without a gcd)."""
    q, r = a.divmod(b)
    results = [a + b, a - b, b - a, a * b, q, r, a % b, (a * b).exact_div(b), a.monic(),
               b.monic(), a.gcd(b), b.gcd(a), *a.xgcd(b), *b.xgcd(a), *a._gcd_cofactor(b),
               *b._gcd_cofactor(a), *a.xgcd(Poly()), *b._gcd_cofactor(Poly())]
    for p in results:
        assert_canonical(p)


# ============================================================
# Content gcds only where a content can exist
# ============================================================

# dens and Gaussian factors of the numerators from the inert prime 3, the
# split prime 5 = (2 + i)(2 - i) and the ramified prime 2 = -i (1 + i)^2
CONTENT_DENS = (1, 2, 4, 8, 3, 9, 5, 25, 6, 10, 12, 15, 20, 45, 60, 100, 120)
CONTENT_FACTORS = ((1, 0), (1, 1), (0, 2), (2, 1), (2, -1), (3, 0), (5, 0), (3, 3))


def content_poly(rng: random.Random, den: int = 0) -> Poly:
    """A canonical polynomial of degree <= 3 over ``den`` (else one of
    CONTENT_DENS), its numerators small Gaussian integers times one factor
    of CONTENT_FACTORS."""
    fr, fi = rng.choice(CONTENT_FACTORS)
    xs = [(rng.randint(-6, 6), rng.randint(-6, 6)) for _ in range(rng.randint(1, 4))]
    return _poly_over(den or rng.choice(CONTENT_DENS), [x * fr - y * fi for x, y in xs],
                      [x * fi + y * fr for x, y in xs])


def content_pairs() -> list[tuple[Poly, Poly]]:
    """(a, b) with b of any den, over a's den, of den 1, a itself, -a, and
    c - a for a c of small den, so that a + b = c carries a content."""
    rng = random.Random(11)
    pairs = []
    for _ in range(150):
        a = content_poly(rng)
        pairs += [(a, content_poly(rng)), (a, content_poly(rng, a._image[0])),
                  (a, content_poly(rng, 1)), (a, a), (a, -a),
                  (a, content_poly(rng, rng.choice((1, 2, 3, 5))) - a)]
    return pairs


def bounded_mismatches(pairs: list[tuple[Poly, Poly]]) -> list[tuple]:
    """Each (x, y, result) where x + y, x - y, y - x or x * x, its content
    bounded by its producer, is not ``_poly_over`` of the same raw image,
    which takes the full gcd."""
    bad = []
    for a, b in pairs:
        for x, y, sign in ((a, b, 1), (a, b, -1), (b, a, -1)):
            got = x + y if sign > 0 else x - y
            if got._image != _poly_over(*covers._sum(x._image, y._image, sign)[1:])._image:
                bad.append((x, y, got))
        if a * a != _poly_over(*covers._product(a._image, a._image)):
            bad.append((a, a, a * a))
    return bad


def test_sums_and_squares_bound_their_content():
    """Over canonical images with dens and numerators carrying 2, 3 and 5,
    equal dens and den-1 operands, every sum, difference and square is the
    canonical image the full gcd gives; a zero sum is (1, [], []), and a
    square over den 2 comes down to den 2: ((1 + i)/2)^2 = i/2."""
    pairs = content_pairs()
    assert bounded_mismatches(pairs) == []
    # raw images that had a content: 336 of 900 sums, 33 of 150 squares
    assert sum((a + b)._image[0] < covers._sum(a._image, b._image, 1)[1]
               for a, b in pairs) > 300
    assert sum((a * a)._image[0] < covers._product(a._image, a._image)[0]
               for a, _ in pairs[::6]) > 20
    for a, _ in pairs[:60]:
        assert (a - a)._image == (a + -a)._image == (1, [], [])
    half = Poly((QI(Fraction(1, 2), Fraction(1, 2)),))
    assert covers._product(half._image, half._image) == (4, [0], [2])
    assert (half * half)._image == (2, [0], [1])


def test_a_sum_rule_skipping_shared_dens_is_caught(monkeypatch):
    """Control: a sum that skips the gcd whenever gcd(da, db) != 1 (and
    takes the full gcd otherwise) leaves contents the check finds."""
    plain = covers._sum

    def skipping(a, b, sign):
        g, den, re, im = plain(a, b, sign)
        return (1 if g != 1 else 0), den, re, im

    monkeypatch.setattr(covers, "_sum", skipping)
    assert len(bounded_mismatches(content_pairs())) > 50


def test_a_monic_divisor_has_no_content():
    """The divisor content c that pseudo-division skips for a monic divisor
    is 1, and its quotient and remainder are still the division's."""
    rng = random.Random(5)
    for _ in range(200):
        u, a = content_poly(rng).monic(), content_poly(rng) * content_poly(rng)
        den, re, im = u._image
        assert re[-1] == den and not im[-1] and gcd(*re, *im) == 1
        q, r = a.divmod(u)
        assert q * u + r == a and r.degree < u.degree
        assert_canonical(q)
        assert_canonical(r)


def test_a_product_takes_its_content_from_a_split_prime():
    """(b + (2 + i)/5)(b + (2 - i)/5) = b^2 + 4/5 b + 1/5: each factor is
    canonical over 5, yet the raw product (25, [5, 20, 25]) has content 5,
    as (2 + i)(2 - i) = 5.  So products keep the full gcd: the square's
    bound, the power of 2 in den, would leave this one over 25."""
    a = Poly.x_minus(QI(Fraction(-2, 5), Fraction(-1, 5)))
    b = Poly.x_minus(QI(Fraction(-2, 5), Fraction(1, 5)))
    raw = covers._product(a._image, b._image)
    assert raw == (25, [5, 20, 25], [0, 0, 0])
    assert (a * b)._image == (5, [1, 4, 5], [0, 0, 0])
    assert covers._poly_lowest(25 & -25, *raw)._image[0] == 25


def chain_content_gcds() -> int:
    """Full content gcds (``covers._content``) of the chain P, 2P, ..., 61P
    on w^2 = b^7 - b + 1, P = (1, 1), counted by ``census.traced``."""
    cov = cover_g3()
    p = point_class(cov, QI.of(1), QI.of(1))

    def chain():
        d = p
        for _ in range(60):
            d = class_add(d, p)

    return census.traced(chain)[0]["calls"].get("covers._content", 0)


def test_the_genus_3_chain_takes_few_content_gcds(monkeypatch):
    """Counts, not time: 495 full content gcds on the chain, where a full
    gcd for every result and every divisor took 989.  Controls: sums and
    squares through the full gcd read 746, the content of each monic
    divisor taken again 801; the cap 550 sees either."""
    assert chain_content_gcds() <= 550
    plain_divmod = Poly._pseudo_divmod
    monkeypatch.setattr(covers, "_poly_lowest", lambda g, *image: _poly_over(*image))
    assert chain_content_gcds() > 550
    monkeypatch.undo()

    def with_content(self, o):
        covers._content(*o._image[1], *o._image[2])
        return plain_divmod(self, o)

    monkeypatch.setattr(Poly, "_pseudo_divmod", with_content)
    assert chain_content_gcds() > 550


# ============================================================
# Cantor's algorithm vs sympy over QQ_I
# ============================================================

def same_class(d, u, v, inf) -> bool:
    return (tuple((c.re, c.im) for c in d.u.coeffs) == from_sympy(u)
            and tuple((c.re, c.im) for c in d.v.coeffs) == from_sympy(v)
            and d.inf_mult == inf)


def add_matches_sympy(cov: HyperCover, d: DivisorClass,
                      e: DivisorClass) -> DivisorClass:
    """d + e by compose and reduce, each checked against sympy's Q(i) from
    the exact inputs; returns the sum."""
    f = to_sympy(cov.f)
    u, v, g = sympy_compose(f, to_sympy(d.u), to_sympy(d.v),
                            to_sympy(e.u), to_sympy(e.v))
    inf = d.inf_mult + e.inf_mult - 2 * g
    composed = mumford_compose(d, e)
    assert same_class(composed, u, v, inf)
    ru, rv = sympy_reduce(f, u, v, cov.genus)
    rinf = inf - (u.degree() - ru.degree())
    assert same_class(cantor_reduce(composed), ru, rv, rinf)
    total = class_add(d, e)
    assert same_class(total, ru, rv, rinf)
    assert same_class(class_neg(total), ru, (-rv).rem(ru), rinf)
    return total


def cover_points(cov: HyperCover) -> list[DivisorClass]:
    return [point_class(cov, x, w)
            for x, w0 in affine_points(cov) for w in (w0, -w0)]


@settings(max_examples=30, derandomize=True, deadline=None,
          database=None)
@given(data=st.data())
def test_cantor_matches_sympy(data):
    """Random walks of rational points (both signs of w) on genus 1-3
    covers, every step recomputed by compose and reduce over sympy's Q(i)
    from the previous exact class."""
    cov = data.draw(st.sampled_from(COVERS), label="cover")
    points = cover_points(cov)
    d = data.draw(st.sampled_from(points), label="start")
    for _ in range(data.draw(st.integers(1, 10), label="steps")):
        d = add_matches_sympy(cov, d, data.draw(st.sampled_from(points), label="step"))


@settings(max_examples=30, derandomize=True, deadline=None,
          database=None)
@given(data=st.data())
def test_cantor_matches_sympy_on_class_pairs(data):
    """Both operands reduced multi-point classes: D + E for a second walk E
    (supports mostly coprime, the CRT composition), D + D, D + iota(D), and
    D + (D + P), which shares part of D's support when no reduction moved
    it (the general numerator)."""
    cov = data.draw(st.sampled_from(COVERS), label="cover")
    points = cover_points(cov)

    def walk(label: str) -> DivisorClass:
        d = data.draw(st.sampled_from(points), label=label)
        for _ in range(data.draw(st.integers(1, 2 * cov.genus), label=f"{label} steps")):
            d = class_add(d, data.draw(st.sampled_from(points), label=f"{label} step"))
        return d

    d, e = walk("D"), walk("E")
    p = data.draw(st.sampled_from(points), label="P")
    for other in (e, d, class_neg(d), class_add(d, p)):
        add_matches_sympy(cov, d, other)


# Multiples n*P whose images hold integers of 1,000 bits or more: P = (0, 1)
# on w^2 = b^3 + b + 1 (of infinite order; cover_g1's points are torsion)
# and P = (1, 1) on cover_g2 and cover_g3.
HIGH_MULTIPLES = {1: ((1, 1, 0, 1), 0, 34), 2: ((1, -1, 0, 0, 0, 1), 1, 56),
                  3: ((1, -1, 0, 0, 0, 0, 0, 1), 1, 40)}


@functools.cache
def high_multiple(genus: int) -> tuple[DivisorClass, DivisorClass]:
    """(P, n*P) on the genus's curve of HIGH_MULTIPLES."""
    f, x, n = HIGH_MULTIPLES[genus]
    cov = HyperCover(Poly.of(*f))
    p = point_class(cov, QI.of(x), QI.of(1))
    d = p
    for _ in range(n - 1):
        d = class_add(d, p)
    assert max(abs(x).bit_length() for den, re, im in (d.u._image, d.v._image)
               for x in (den, *re, *im)) >= 1000
    return p, d


@pytest.mark.parametrize("genus", [1, 2, 3])
def test_compose_coprime_supports_at_height(genus):
    """n*P + (n+1)*P: disjoint supports, the CRT lift."""
    p, d = high_multiple(genus)
    e = class_add(d, p)
    assert d.u.gcd(e.u).degree == 0
    add_matches_sympy(d.cover, d, e)


@pytest.mark.parametrize("sign", [1, -1], ids=["doubling", "cancelling"])
@pytest.mark.parametrize("genus", [1, 2, 3])
def test_compose_shared_support_at_height(genus, sign):
    """D + E with E = D + P semi-reduced shares all of D's support.  Added
    as it is, D's points double (nothing cancels, u = u_D^2 (b - x(P)));
    added as iota(E), they cancel and leave u = b - x(P)."""
    p, d = high_multiple(genus)
    e = mumford_compose(d, p)
    e = e if sign > 0 else class_neg(e)
    add_matches_sympy(d.cover, d, e)
    assert mumford_compose(d, e).u.degree == (2 * genus + 1 if sign > 0 else 1)


@pytest.mark.parametrize("genus", [1, 2, 3])
def test_compose_full_cancellation_at_height(genus):
    """D + iota(D) cancels every point: u = 1, v = 0."""
    p, d = high_multiple(genus)
    add_matches_sympy(d.cover, d, involution_pullback(d))
    assert mumford_compose(d, class_neg(d)).is_zero_class()


# ============================================================
# The group law trusts its own classes
# ============================================================

def test_group_law_skips_the_check_and_the_qi_loops(monkeypatch):
    """Counts, not time: a genus-3 n*P chain builds no class through the
    checking constructor and no Q(i) number at all (counted at ``_qi``,
    which builds every QI), the coefficients of its classes are built when
    read, and every class passes the check when rebuilt."""
    cov = cover_g3()
    p = point_class(cov, QI.of(1), QI.of(1))
    counts = {"check": 0, "mul": 0, "qi": 0}
    plain_check, plain_mul, plain_qi = DivisorClass.__post_init__, QI.__mul__, covers._qi

    def counted_check(self):
        counts["check"] += 1
        plain_check(self)

    def counted_mul(self, o):
        counts["mul"] += 1
        return plain_mul(self, o)

    def counted_qi(*args):
        counts["qi"] += 1
        return plain_qi(*args)

    monkeypatch.setattr(DivisorClass, "__post_init__", counted_check)
    monkeypatch.setattr(QI, "__mul__", counted_mul)
    monkeypatch.setattr(covers, "_qi", counted_qi)
    for steps in (20, 40):
        counts.update(check=0, mul=0, qi=0)
        d, chain = p, []
        for _ in range(steps):
            d = class_add(d, p)
            chain.append(d)
        assert counts == {"check": 0, "mul": 0, "qi": 0}, counts
        assert d.u.coeffs and counts["qi"] >= len(d.u.coeffs), counts
        for d in chain:
            assert DivisorClass(cov, d.u, d.v, d.inf_mult) == d


def test_group_law_numbers_stay_near_the_result_height(monkeypatch):
    """Falsifiable guard on coefficient inflation: over 60 class_add steps
    of P = (1, 1) on w^2 = b^7 - b + 1, no integer handed to ``_poly_over``
    is more than twice as long as the longest integer of the final class.
    Pseudo-division that multiplies by the leading coefficient at every
    step reaches 12,335 bits here against 3,173."""
    cov = cover_g3()
    p = point_class(cov, QI.of(1), QI.of(1))
    plain = covers._poly_over
    longest = 0

    def spy(den, re, im):
        nonlocal longest
        longest = max(longest, *(abs(x).bit_length() for x in (den, *re, *im)))
        return plain(den, re, im)

    monkeypatch.setattr(covers, "_poly_over", spy)
    d = p
    for _ in range(60):
        d = class_add(d, p)
    monkeypatch.undo()
    final = max(abs(x).bit_length()
                for den, re, im in (d.u._image, d.v._image) for x in (den, *re, *im))
    assert final > 3000
    assert longest <= 2 * final, (longest, final)


def test_sums_and_squares_stay_near_the_result_height(monkeypatch):
    """The guard above for the images of sums and squares, which go to
    ``_poly_lowest`` instead of ``_poly_over``: over the same 60 steps none
    holds an integer longer than twice the final class's (4,161 bits here
    against 3,173)."""
    cov = cover_g3()
    p = point_class(cov, QI.of(1), QI.of(1))
    plain = covers._poly_lowest
    longest = 0

    def spy(g, den, re, im):
        nonlocal longest
        longest = max(longest, *(abs(x).bit_length() for x in (den, *re, *im)))
        return plain(g, den, re, im)

    monkeypatch.setattr(covers, "_poly_lowest", spy)
    d = p
    for _ in range(60):
        d = class_add(d, p)
    monkeypatch.undo()
    final = max(abs(x).bit_length()
                for den, re, im in (d.u._image, d.v._image) for x in (den, *re, *im))
    assert 3000 < final < longest <= 2 * final, (longest, final)


@pytest.mark.parametrize("corrupt", [
    lambda d: (d.u, d.v + Poly.of(1)),
    lambda d: (d.u.scale(QI.of(2)), d.v),
    lambda d: (d.u, d.v + d.u),
], ids=["divisibility", "monic", "degree"])
def test_checking_constructor_rejects_corrupted_classes(corrupt):
    cov = cover_g3()
    p = point_class(cov, QI.of(1), QI.of(1))
    d = class_add(class_add(p, p), p)
    u, v = corrupt(d)
    with pytest.raises(ValueError):
        DivisorClass(cov, u, v, d.inf_mult)


@pytest.mark.parametrize("value, bits", [
    (QI.of(10 ** 5000), 16610), (QI.of(1, -10 ** 400), 1329),
    (QI.from_pair(10 ** 400, 3), 1328)])
def test_qi_past_the_float_range_is_named_by_its_size(value, bits):
    """A Q(i) value past the float range is unsupported and named by the
    bit size of its larger part: ``str`` refuses integers past 4,300 digits,
    and the value at 10^5000 is one."""
    with pytest.raises(UnsupportedError,
                       match=rf"^Q\(i\) value near 2\^{bits} past the float range$"):
        value.to_complex()


# ============================================================
# Refused inputs, one raise each, and the degenerate returns
# ============================================================

def degree_one_class() -> DivisorClass:
    """(0, 1) on w^2 = b^3 + 1 without its balancing infinity."""
    return DivisorClass(cover_g1(), Poly.x_minus(QI.of(0)), Poly.of(1), 0)


def classes_on_two_covers() -> tuple[DivisorClass, DivisorClass]:
    return (point_class(cover_g1(), QI.of(0), QI.of(1)),
            point_class(cover_g2(), QI.of(0), QI.of(1)))


@pytest.mark.parametrize("make, error, message", [
    (lambda: setattr(QI.of(1), "re", Fraction(2)), AttributeError,
     "cannot assign to field 're' of an immutable QI"),
    (lambda: delattr(QI.of(1), "im"), AttributeError,
     "cannot delete field 'im' of an immutable QI"),
    (lambda: QI().inv(), ZeroDivisionError, "division by zero in Q(i)"),
    (lambda: QI.from_pair(1, 0), ZeroDivisionError, "division by zero in Q(i)"),
    (lambda: setattr(Poly.of(1), "coeffs", ()), AttributeError,
     "cannot assign to field 'coeffs' of an immutable Poly"),
    (lambda: delattr(Poly.of(1), "_image"), AttributeError,
     "cannot delete field '_image' of an immutable Poly"),
    (lambda: BasePoint.infinity().to_complex(), ValueError,
     "infinity has no affine coordinate"),
    (lambda: HyperCover(Poly.of(1, 0, 1)), ValueError, "deg f must be odd and >= 1; got 2"),
    (lambda: HyperCover(Poly.of(0, 0, 0, 1)), ValueError, "f must be squarefree"),
    (lambda: DivisorClass(cover_g1(), Poly(), Poly(), 0), ValueError, "u must be nonzero"),
    (lambda: point_class(cover_g1(), QI.of(0), QI.of(2)), ValueError,
     "(x, w) does not lie on the cover"),
    (lambda: mumford_compose(*classes_on_two_covers()), ValueError,
     "classes live on different covers"),
    (lambda: classes_equal_by_search(*classes_on_two_covers()), ValueError,
     "classes live on different covers"),
    (lambda: classes_equal_by_search(degree_one_class(), degree_one_class()), ValueError,
     "search oracle requires degree-0 classes"),
    (lambda: conjugate_sum_principal_witness(degree_one_class()), ValueError,
     "witness search requires a degree-0 class"),
], ids=["qi-assign", "qi-delete", "qi-inverse-of-zero", "qi-zero-denominator", "poly-assign",
        "poly-delete", "infinity-coordinate", "even-degree", "not-squarefree", "zero-u",
        "off-the-cover",
        "compose-across-covers", "search-across-covers", "search-of-degree-1",
        "witness-of-degree-1"])
def test_refused_inputs_raise_naming_the_rule(make, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        make()


def test_degenerate_inputs_have_plain_answers():
    """A Q(i) number survives pickle and deepcopy; Q(i) numbers and
    polynomials are never equal to an int; a nonzero constant is
    squarefree and 0 is not; infinity is a branch point of an odd model;
    the zero class equals itself by search, with the witness h = 1; and a
    class prints as its Mumford pair."""
    q = QI.from_pair(1, 3, -2, 5)
    assert pickle.loads(pickle.dumps(q)) == q and copy.deepcopy(q) == q
    assert QI.of(1) != 1 and Poly.of(1) != 1
    assert Poly.of(3).is_squarefree() and not Poly().is_squarefree()
    assert cover_g1().is_branch(BasePoint.infinity())
    zero = DivisorClass.zero(cover_g2())
    assert classes_equal_by_search(zero, zero)
    assert conjugate_sum_principal_witness(zero) == (Poly.of(1), Poly())
    assert repr(point_class(cover_g1(), QI.of(2), QI.of(3))) == (
        "DivisorClass(u=Poly(-2*b^0 + 1*b^1), v=Poly(3*b^0), -1*inf)")
