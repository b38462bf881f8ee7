# tests/test_covers.py
"""
Exact divisor-class arithmetic on the double covers: reduction invariants,
group laws, principality by reduction cross-checked against the
function-search route, the branch two-torsion classes, and the integer
polynomial kernels against schoolbook Q(i) loops and Cantor in sympy.
"""

from __future__ import annotations

import copy
import pickle
import random
import struct
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from spectral_forge import (
    DivisorClass,
    HyperCover,
    Poly,
    QI,
    UnsupportedError,
    class_add,
    class_equal,
    class_neg,
    classes_equal_by_search,
    in_prym,
    point_class,
)
from spectral_forge import covers
from spectral_forge.covers import (
    _poly_over,
    cantor_reduce,
    conjugate_sum_principal_witness,
    involution_pullback,
    mumford_compose,
    norm_degree,
)
from conftest import affine_points, combine, cover_g1, cover_g2, cover_g3, cover_g0, prym_generators
from oracles import (from_sympy, reference_add, reference_divmod,
                     reference_eval_complex, reference_gcd, reference_monic, reference_mul, reference_neg, reference_scale,
                     reference_sub, reference_xgcd, sympy_compose, sympy_reduce,
                     to_sympy)

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
        assert d.is_reduced()
        assert d.u.degree <= cov.genus
        assert d.degree() == 0
        assert norm_degree(d) == 0


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
# Integer kernels vs schoolbook Q(i) loops
# ============================================================

BIG = 2 ** 500
PARTS = st.one_of(st.just(Fraction(0)), st.integers(-3, 3).map(Fraction),
                  st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG)))
GAUSSIAN = st.builds(QI, PARTS, PARTS.filter(bool))


def polys(max_size: int):
    return st.lists(st.builds(QI, PARTS, PARTS), max_size=max_size).map(
        lambda cs: Poly(tuple(cs)))


def divisors(max_size: int):
    """Nonzero polynomials, half of them with a non-real leading coefficient."""
    return st.one_of(polys(max_size).filter(lambda p: not p.is_zero()),
                     st.builds(lambda p, c: Poly(p.coeffs + (c,)),
                               polys(max_size - 1), GAUSSIAN))


HUGE = QI(Fraction(BIG - 1, 3 ** 300), Fraction(-(BIG // 7), 5 ** 200))
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

INTS = st.one_of(st.integers(-3, 3), st.integers(-BIG, BIG))


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
    assert p.eval(QI.of(2, -1)) == eager.eval(QI.of(2, -1))
    assert p.coeffs == eager.coeffs
    assert hash(p) == hash(eager) and repr(p) == repr(eager)
    for q in (pickle.loads(pickle.dumps(lazy())), copy.deepcopy(lazy()),
              pickle.loads(pickle.dumps(eager)), copy.deepcopy(eager)):
        assert q == eager and q._image == eager._image
        assert hash(q) == hash(eager) and repr(q) == repr(eager)


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


# ============================================================
# The group law trusts its own classes
# ============================================================

def test_group_law_skips_the_check_and_the_qi_loops(monkeypatch):
    """Counts, not time: a genus-3 n*P chain builds no class through the
    checking constructor and no Q(i) number at all, the coefficients of
    its classes are built when read, and every class passes the check when
    rebuilt."""
    cov = cover_g3()
    p = point_class(cov, QI.of(1), QI.of(1))
    counts = {"check": 0, "mul": 0, "qi": 0}
    plain_check, plain_mul, plain_init = (DivisorClass.__post_init__, QI.__mul__,
                                          QI.__init__)

    def counted_check(self):
        counts["check"] += 1
        plain_check(self)

    def counted_mul(self, o):
        counts["mul"] += 1
        return plain_mul(self, o)

    def counted_init(self, *args):
        counts["qi"] += 1
        plain_init(self, *args)

    monkeypatch.setattr(DivisorClass, "__post_init__", counted_check)
    monkeypatch.setattr(QI, "__mul__", counted_mul)
    monkeypatch.setattr(QI, "__init__", counted_init)
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
