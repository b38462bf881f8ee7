# spectral_forge/covers.py
"""
Exact arithmetic on hyperelliptic double covers of the projective line.

Everything in this module is exact: coefficients live in Q(i) (integer
images, below), curves are odd models

    w**2 = f(b),   f squarefree over Q(i), deg f = 2g + 1, g >= 1,

with a single point at infinity fixed by the sheet involution iota: w -> -w.
Degree-0 divisor classes are stored in Mumford form (u, v) with u monic,
deg v < deg u, u | v**2 - f, balanced by a multiple of infinity; the
``DivisorClass`` constructor checks these invariants, and the group law,
which preserves them, builds its results without the check.  Group law is
Cantor composition plus reduction to deg u <= g.  When the supports are
coprime, composition is the CRT lift v = v1 + u1 (e1 (v2 - v1 mod u2) mod u2),
with e1 u1 = 1 mod u2, whose degree is already below deg u1 u2; Cantor's
general numerator is left to supports that share a point (doubling), and
when every shared point cancels (D + iota(D), D - D) the sum is 0 outright.
Numbers and polynomials are integer images, so the group law makes no Q(i)
number.  A division multiplies its remainder only by the least integer that
makes the next quotient digit integral.  Cantor's exact divisions by a monic
u over Q need no multiplier at all (Gauss's lemma), so the group law handles
integers near the height of its results.
Exact evaluation is a division too: f(a) is the remainder of f by b - a,
and so is the on-curve test of ``point_class``.  No floating point enters
the group law; float evaluation of the curve is provided separately for
sampling.

Two independent decision procedures for principality are provided:

- Cantor reduction (``cantor_reduce`` / ``class_add`` / ``in_prym``), and
- explicit function search (``classes_equal_by_search``,
  ``conjugate_sum_principal_witness``): fraction-free elimination over Z[i]
  finds a function a(b) + c(b) w with the prescribed divisor and verifies the
  norm identity a**2 - c**2 f = const * (target) exactly.

The second route never calls the first; the test suite plays them against
each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm, prod

from . import _carray
from ._carray import np
from .errors import UnsupportedError

__all__ = [
    "QI",
    "Poly",
    "BasePoint",
    "HyperCover",
    "DivisorClass",
    "point_class",
    "mumford_compose",
    "cantor_reduce",
    "class_add",
    "class_neg",
    "involution_pullback",
    "class_equal",
    "in_prym",
    "classes_equal_by_search",
    "conjugate_sum_principal_witness",
    "qi_nullspace",
]


# ============================================================
# Gaussian rationals and integer images
# ============================================================
#
# A Q(i) number or polynomial is its image (den, re, im): coefficient k is
# (re[k] + im[k] i) / den with integer re, im and one common den (a number
# holds bare integers).  The kept image is canonical: den > 0,
# gcd(den, re, im) = 1, no trailing zero; so equal values have equal images.
# A result costs a content gcd (``_content``) unless its producer bounds it: a
# sum's content divides gcd(da, db), a square's is a power of 2.  QIs and
# Fractions are built only when read.  Kept lists are never mutated.

_Image = tuple[int, list[int], list[int]]


class _Immutable:
    """Refuses assignment and deletion, naming the class."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(
            f"cannot assign to field {name!r} of an immutable {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(
            f"cannot delete field {name!r} of an immutable {type(self).__name__}")


def _qi(den: int, re: int, im: int) -> "QI":
    """The QI (re + im i) / den, den != 0, in lowest terms with den > 0."""
    g = gcd(den, re, im)
    if den < 0:
        g = -g
    x = object.__new__(QI)
    object.__setattr__(x, "_den", den // g)
    object.__setattr__(x, "_re", re // g)
    object.__setattr__(x, "_im", im // g)
    return x


def _sum(a: _Image, b: _Image, sign: int) -> tuple[int, int, list[int], list[int]]:
    """(g, den, re, im): a + sign * b over den = lcm(da, db), not canonical,
    and g = gcd(da, db), a multiple of its content for canonical a and b: a
    prime dividing da more often than db leaves a coefficient over it."""
    da, ar, ai = a
    db, br, bi = b
    g = gcd(da, db)
    den = da // g * db
    ma, mb = db // g, sign * (da // g)
    re = [x * ma for x in ar]
    im = [y * ma for y in ai]
    pad = len(br) - len(re)
    if pad > 0:
        re += [0] * pad
        im += [0] * pad
    for k, (x, y) in enumerate(zip(br, bi)):
        re[k] += x * mb
        im[k] += y * mb
    return g, den, re, im


def _product(a: _Image, b: _Image) -> _Image:
    """a * b over the product of the denominators, not canonical."""
    da, ar, ai = a
    db, br, bi = b
    re = [0] * (len(ar) + len(br) - 1)
    im = re[:]
    for i, (x, y) in enumerate(zip(ar, ai)):
        for j, (u, v) in enumerate(zip(br, bi)):
            re[i + j] += x * u - y * v
            im[i + j] += x * v + y * u
    return da * db, re, im


def _scalar(image: _Image) -> "QI":
    den, (re,), (im,) = image
    return _qi(den, re, im)


class QI(_Immutable):
    """Q(i) number: the canonical image of the constant it is, with the +, -
    and * of the polynomial kernels.  Built from int or Fraction parts."""

    __slots__ = ("_den", "_re", "_im")

    def __new__(cls, re: int | Fraction = 0, im: int | Fraction = 0) -> "QI":
        return QI.from_pair(re.numerator, re.denominator, im.numerator, im.denominator)

    def __reduce__(self) -> tuple:
        return _qi, (self._den, self._re, self._im)

    def __eq__(self, o: object) -> bool:
        if o.__class__ is not QI:
            return NotImplemented
        return self._den == o._den and self._re == o._re and self._im == o._im

    def __hash__(self) -> int:
        return hash((self._den, self._re, self._im))

    re = property(lambda self: Fraction(self._re, self._den), doc="Real part.")
    im = property(lambda self: Fraction(self._im, self._den), doc="Imaginary part.")
    _image = property(lambda self: (self._den, [self._re], [self._im]))

    # ----- constructors ---------------------------------------------------

    @staticmethod
    def of(re: int | Fraction, im: int | Fraction = 0) -> "QI":
        return QI(re, im)

    @staticmethod
    def from_pair(re_num: int, re_den: int, im_num: int = 0, im_den: int = 1) -> "QI":
        if not re_den or not im_den:
            raise ZeroDivisionError("division by zero in Q(i)")
        return _qi(re_den * im_den, re_num * im_den, im_num * re_den)

    # ----- predicates -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self._re and not self._im

    def is_one(self) -> bool:
        return self._re == self._den == 1 and not self._im

    # ----- arithmetic -----------------------------------------------------

    def __add__(self, o: "QI") -> "QI":
        return _scalar(_sum(self._image, o._image, 1)[1:])

    def __sub__(self, o: "QI") -> "QI":
        return _scalar(_sum(self._image, o._image, -1)[1:])

    def __neg__(self) -> "QI":
        return _qi(self._den, -self._re, -self._im)

    def __mul__(self, o: "QI") -> "QI":
        return _scalar(_product(self._image, o._image))

    def conj(self) -> "QI":
        return _qi(self._den, self._re, -self._im)

    def inv(self) -> "QI":
        n = self._re * self._re + self._im * self._im
        if not n:
            raise ZeroDivisionError("division by zero in Q(i)")
        return _qi(n, self._den * self._re, -self._den * self._im)

    def __truediv__(self, o: "QI") -> "QI":
        return self * o.inv()

    def to_complex(self) -> complex:
        den = self._den
        try:  # each part correctly rounded, as float(Fraction) is
            return complex(self._re / den, self._im / den)
        except OverflowError:  # named by its size: str() caps an integer's digits
            n = (max(abs(self._re), abs(self._im)) // den).bit_length()
            raise UnsupportedError(f"Q(i) value near 2^{n} past the float range") from None

    def __repr__(self) -> str:
        if not self._im:
            return f"{self.re}"
        return f"({self.re}{'+' if self._im > 0 else '-'}{abs(self.im)}i)"


_QI_ZERO = QI()


def _image_of(xs: list[QI]) -> _Image:
    """The image of ``xs`` as coefficients: den is the lcm of their dens.
    It has no content: a prime of the lcm does not divide the multiplier of
    the coefficient whose den it divides most, which is in lowest terms."""
    den = lcm(*(x._den for x in xs))
    return (den, [x._re * (den // x._den) for x in xs],
            [x._im * (den // x._den) for x in xs])


def _poly(image: _Image) -> "Poly":
    """The polynomial whose canonical image is ``image``."""
    p = object.__new__(Poly)
    p.__dict__["_image"] = image
    return p


def _poly_over(den: int, re: list[int], im: list[int]) -> "Poly":
    """The polynomial with image (den, re, im), den != 0; takes ownership of
    the lists.  Strips trailing zeros and divides out g = gcd(den, re, im),
    with the sign of den, which leaves the canonical image."""
    while re and not re[-1] and not im[-1]:
        re.pop()
        im.pop()
    g = _content(den, *re, *im)
    if den < 0:
        g = -g
    if g != 1:
        den, re, im = den // g, [a // g for a in re], [b // g for b in im]
    return _poly((den, re, im))


def _content(*ints: int) -> int:
    """gcd(ints): the full content gcds are one function, which counts see."""
    return gcd(*ints)


def _poly_lowest(g: int, den: int, re: list[int], im: list[int]) -> "Poly":
    """``_poly_over`` of an image, den > 0, whose content divides g, known
    from how it was made (``_sum``, ``Poly.__mul__``); g = 1 takes no gcd."""
    while re and not re[-1] and not im[-1]:
        re.pop()
        im.pop()
    if not re:
        return _poly((1, re, im))
    if g != 1:
        g = gcd(g, *re, *im)
    if g != 1:
        den, re, im = den // g, [a // g for a in re], [b // g for b in im]
    return _poly((den, re, im))


# ============================================================
# Dense univariate polynomials over Q(i)
# ============================================================

class Poly(_Immutable):
    """Dense polynomial over Q(i), coefficients ascending, no trailing zeros.

    Immutable.  Held as its canonical integer image (see above); ``coeffs``,
    the tuple of QI coefficients, is the one given, else built on first
    read.  Equality and the hash are those of the image; repr reads the
    coefficients."""

    def __init__(self, coeffs: tuple[QI, ...] = ()) -> None:
        coeffs = tuple(coeffs)
        while coeffs and coeffs[-1].is_zero():
            coeffs = coeffs[:-1]
        self.__dict__.update(coeffs=coeffs, _image=_image_of(coeffs))

    def __reduce__(self) -> tuple:
        den, re, im = self._image
        return _poly_over, (den, re[:], im[:])

    @cached_property
    def coeffs(self) -> tuple[QI, ...]:
        den, re, im = self._image
        return tuple(_qi(den, a, b) for a, b in zip(re, im))

    def __eq__(self, o: object) -> bool:
        if o.__class__ is not Poly:
            return NotImplemented
        return self._image == o._image

    def __hash__(self) -> int:
        return hash((self._image[0], *self._image[1], *self._image[2]))

    # ----- constructors ---------------------------------------------------

    @staticmethod
    def of(*ints: int | Fraction | QI) -> "Poly":
        return Poly(tuple(c if isinstance(c, QI) else QI.of(c) for c in ints))

    @staticmethod
    def const(c: QI) -> "Poly":
        return Poly((c,))

    @staticmethod
    def x_minus(a: QI) -> "Poly":
        return _poly((a._den, [-a._re, a._den], [-a._im, 0]))

    # ----- structure ------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self._image[1]) - 1

    def is_zero(self) -> bool:
        return not self._image[1]

    def is_one(self) -> bool:
        return self._image == _ONE._image

    def lead(self) -> QI:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeff(self.degree)

    def coeff(self, k: int) -> QI:
        den, re, im = self._image
        if not 0 <= k < len(re):
            return _QI_ZERO
        return _qi(den, re[k], im[k])

    # ----- ring operations ------------------------------------------------

    def __add__(self, o: "Poly") -> "Poly":
        return _poly_lowest(*_sum(self._image, o._image, 1))

    def __sub__(self, o: "Poly") -> "Poly":
        return _poly_lowest(*_sum(self._image, o._image, -1))

    def __neg__(self) -> "Poly":
        den, re, im = self._image
        return _poly((den, [-a for a in re], [-b for b in im]))

    def __mul__(self, o: "Poly") -> "Poly":
        if not self._image[1] or not o._image[1]:
            return _ZERO
        if o._image == _ONE._image:
            return self
        if self._image == _ONE._image:
            return o
        if o is self:  # of den^2's primes only 2 = -i (1 + i)^2 can divide A^2 (Gauss)
            den, re, im = _product(self._image, self._image)
            return _poly_lowest(den & -den, den, re, im)
        return _poly_over(*_product(self._image, o._image))

    def scale(self, c: QI) -> "Poly":
        return self * Poly((c,))

    def _pseudo_divmod(self, o: "Poly") -> tuple[_Image, _Image]:
        """Quotient and remainder as integer images.

        Divides the numerators r of self over Z[i] by d, the numerators of o
        over their rational-integer content c (1 for a monic o: c divides den_o).
        Each step removes the top coefficient t of r with the digit t / L,
        L = lead(d).  When L does not divide t, r and the digits so far are
        first multiplied by the least integer that makes it divide,
        N(L) / gcd(N(L), Re T, Im T) with T = t conj(L).  So M r = q d + rem,
        M the product of the multipliers; M = 1 when o divides self and no
        Gaussian prime divides all of d (Gauss's lemma).  The quotient is
        q den_o / (M c den_r) and the remainder rem / (M den_r)."""
        do, orr, oi = o._image
        if not orr:
            raise ZeroDivisionError("polynomial division by zero")
        dr, rr, ri = self._image
        m = len(orr) - 1
        k = len(rr) - m
        if k <= 0:
            return (1, [], []), (dr, rr[:], ri[:])
        c = 1 if orr[m] == do and not oi[m] else _content(*orr, *oi)
        if c != 1:
            orr, oi = [a // c for a in orr], [b // c for b in oi]
        rr, ri = rr[:], ri[:]
        # t / L is t conj(L) / N(L), or t sgn(L) / |L| when L is real
        lr, li = orr[m], oi[m]
        pr, pi, n = (lr, -li, lr * lr + li * li) if li else (1 if lr > 0 else -1, 0, abs(lr))
        qr, qi = [0] * k, [0] * k
        for j in range(k - 1, -1, -1):
            tr, ti = rr.pop(), ri.pop()
            tr, ti = tr * pr - ti * pi, tr * pi + ti * pr
            g = n if not (tr % n or ti % n) else gcd(n, tr, ti)
            if g != n:
                s = n // g
                dr *= s
                rr, ri = [a * s for a in rr], [b * s for b in ri]
                qr, qi = [a * s for a in qr], [b * s for b in qi]
            qr[j], qi[j] = tr, ti = tr // g, ti // g
            for s in range(m):
                a, b = orr[s], oi[s]
                rr[j + s] -= tr * a - ti * b
                ri[j + s] -= tr * b + ti * a
        return (dr * c, [a * do for a in qr], [b * do for b in qi]), (dr, rr, ri)

    def divmod(self, o: "Poly") -> tuple["Poly", "Poly"]:
        q, r = self._pseudo_divmod(o)
        return _poly_over(*q), _poly_over(*r)

    def __floordiv__(self, o: "Poly") -> "Poly":
        return _poly_over(*self._pseudo_divmod(o)[0])

    def __mod__(self, o: "Poly") -> "Poly":
        return _poly_over(*self._pseudo_divmod(o)[1])

    def exact_div(self, o: "Poly") -> "Poly":
        q, (_, rr, ri) = self._pseudo_divmod(o)
        if any(rr) or any(ri):
            raise ArithmeticError("polynomial division was not exact")
        return _poly_over(*q)

    def monic(self) -> "Poly":
        """self over its leading coefficient L / den: the numerators over L,
        through conj(L) / N(L) when L is not real."""
        den, re, im = self._image
        if not re:
            return self
        lr, li = re[-1], im[-1]
        if not li:
            return self if lr == den else _poly_over(lr, re[:], im[:])
        return _poly_over(lr * lr + li * li, [a * lr + b * li for a, b in zip(re, im)],
                          [b * lr - a * li for a, b in zip(re, im)])

    def deriv(self) -> "Poly":
        den, re, im = self._image
        return _poly_over(den, [k * a for k, a in enumerate(re)][1:],
                          [k * b for k, b in enumerate(im)][1:])

    def gcd(self, o: "Poly") -> "Poly":
        return self._gcd_cofactor(o)[0]

    def _gcd_cofactor(self, o: "Poly") -> tuple["Poly", "Poly"]:
        """(g, s) of ``xgcd``: the Euclid loop tracks only the cofactor of
        self.  The first quotient meets the cofactor 0, so that step is a
        remainder alone; a constant remainder ends the loop (the gcd is 1)."""
        r0, r1, s0, s1 = (self, o, _ONE, _ZERO) if o.is_zero() else (o, self % o, _ZERO, _ONE)
        while r1.degree > 0:
            q, r = r0.divmod(r1)
            r0, r1 = r1, r
            s0, s1 = s1, s0 - q * s1
        if not r1.is_zero():
            r0, s0 = r1, s1
        if r0.is_zero():
            return r0, s0
        # 1 / lead(r0) = den conj(L) / N(L) for the leading numerator L; a real
        # constant's canonical image has gcd(den, L) = 1, a longer one's need not
        den, re, im = r0._image
        lr, li = re[-1], im[-1]
        if len(re) == 1 and not li:
            return _ONE, s0 * _poly((abs(lr), [den if lr > 0 else -den], [0]))
        return r0.monic(), s0 * _poly_over(lr * lr + li * li, [den * lr], [-den * li])

    def xgcd(self, o: "Poly") -> tuple["Poly", "Poly", "Poly"]:
        """(g, s, t) with s*self + t*o = g, g monic (or zero)."""
        g, s = self._gcd_cofactor(o)
        return g, s, (g - s * self).exact_div(o) if not o.is_zero() else _ZERO

    def is_squarefree(self) -> bool:
        return self.gcd(self.deriv()).degree == 0

    # ----- evaluation -----------------------------------------------------

    def eval(self, b: QI) -> QI:
        """self(b), the remainder of self by b - x (Knuth, TAOCP 4.6.1)."""
        return (self % Poly.x_minus(b)).coeff(0)

    @cached_property
    def _horner_complex(self) -> tuple[complex, ...]:
        """Float coefficients, leading first, each part a correctly rounded
        integer quotient as ``float(Fraction)`` is.  Lazy: exact-only
        polynomials with coefficients thousands of bits high never pay for
        it."""
        den, re, im = self._image
        try:
            return tuple(complex(a / den, b / den) for a, b in zip(re[::-1], im[::-1]))
        except OverflowError:  # named by its size: str() caps an integer's digits
            n = max(abs(c).bit_length() for c in re + im) - den.bit_length()
            raise UnsupportedError(f"coefficient near 2^{n} past the float range") from None

    def eval_complex(self, b: complex) -> complex:
        acc = 0j
        for c in self._horner_complex:
            acc = acc * b + c
        return acc

    def _eval_array(self, b: np.ndarray) -> np.ndarray:
        """``eval_complex`` at each element of a complex128 array, bit for
        bit: the same Horner steps on separate real and imaginary parts."""
        br, bi = b.real, b.imag
        re = np.zeros(b.shape)
        im = np.zeros(b.shape)
        with np.errstate(all="ignore"):
            for c in self._horner_complex:
                re, im = re * br - im * bi + c.real, re * bi + im * br + c.imag
        return _carray.pack(re, im)

    def __repr__(self) -> str:
        if self.is_zero():
            return "Poly(0)"
        terms = [f"{c}*b^{k}" for k, c in enumerate(self.coeffs) if not c.is_zero()]
        return "Poly(" + " + ".join(terms) + ")"


_ZERO = _poly((1, [], []))
_ONE = _poly((1, [1], [0]))
_B = _poly((1, [0, 1], [0, 0]))


# ============================================================
# Base points of P^1
# ============================================================

# Absolute radius within which a float base coordinate b is taken to be a
# given base point.  Fixed: the run tolerance measures defects of ratios in
# C*/tau^Z, not distances on the base line.
BASE_POINT_RADIUS = 1e-9


def _base_point_near(points: list[BasePoint], b: complex) -> BasePoint | None:
    """The first finite point of `points` within BASE_POINT_RADIUS of b, or None."""
    return next((p for p in points if not p.is_infinity
                 and abs(p.to_complex() - b) <= BASE_POINT_RADIUS), None)


@dataclass(frozen=True)
class BasePoint:
    """Point of the base line: a Q(i) coordinate, or infinity (x=None)."""

    x: QI | None

    @staticmethod
    def of(re: int | Fraction, im: int | Fraction = 0) -> "BasePoint":
        return BasePoint(QI.of(re, im))

    @staticmethod
    def infinity() -> "BasePoint":
        return BasePoint(None)

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def to_complex(self) -> complex:
        if self.x is None:
            raise ValueError("infinity has no affine coordinate")
        return self.x.to_complex()

    def __repr__(self) -> str:
        return "BasePoint(inf)" if self.x is None else f"BasePoint({self.x})"


# ============================================================
# Hyperelliptic covers
# ============================================================

@dataclass(frozen=True)
class HyperCover:
    """Odd-model double cover w**2 = f(b) of the base line.

    Odd degree keeps infinity a single branch point; degree 1 (genus 0)
    covers like w**2 = b are allowed, they model irreducible bisections
    through a branch point."""

    f: Poly

    def __post_init__(self) -> None:
        d = self.f.degree
        if d < 1 or d % 2 == 0:
            raise ValueError(f"deg f must be odd and >= 1; got {d}")
        if not self.f.is_squarefree():
            raise ValueError("f must be squarefree")

    @property
    def genus(self) -> int:
        return (self.f.degree - 1) // 2

    def is_branch(self, b: BasePoint) -> bool:
        """Branch point of the cover: a root of f, or infinity (odd model)."""
        return b.is_infinity or self.f.eval(b.x).is_zero()

    def sheets(self, b: complex) -> tuple[complex, complex]:
        """(w, -w) over b, w the principal square root; UnsupportedError on overflow."""
        try:
            w = complex(self.f.eval_complex(b)) ** 0.5
        except OverflowError:
            raise UnsupportedError(f"sheet of the cover overflows at b={b}") from None
        return (w, -w)

    def branch_distance(self, b: complex) -> float:
        """|f(b)|, a cheap proximity measure to the branch locus."""
        return abs(self.f.eval_complex(b))

    def _sheets_array(self, b: np.ndarray) -> np.ndarray:
        """The first sheet w of ``sheets`` at each sample (the second is
        -w); an infinite part marks an overflow, which raises in ``sheets``."""
        return _carray.sqrt(self.f._eval_array(b))


# ============================================================
# Mumford divisor classes
# ============================================================

@dataclass(frozen=True)
class DivisorClass:
    """Semi-reduced Mumford pair (u, v) minus inf_mult * infinity.

    Invariants: u monic, deg v < deg u, u | v**2 - f.  The constructor checks
    them on every class built from outside data (scenario files, user code);
    the group law, whose classes satisfy them by construction, and
    ``point_class``, which tests the one left open, skip the check.
    degree() = deg u - inf_mult; the group law acts on degree-0 classes.
    """

    cover: HyperCover
    u: Poly
    v: Poly
    inf_mult: int

    def __post_init__(self) -> None:
        if self.u.is_zero():
            raise ValueError("u must be nonzero")
        if not self.u.lead().is_one():
            raise ValueError("u must be monic")
        if not self.v.is_zero() and self.v.degree >= self.u.degree:
            raise ValueError("deg v must be < deg u")
        rem = (self.v * self.v - self.cover.f) % self.u
        if not rem.is_zero():
            raise ValueError("u does not divide v^2 - f")

    @staticmethod
    def zero(cover: HyperCover) -> "DivisorClass":
        return DivisorClass(cover, _ONE, Poly(), 0)

    def degree(self) -> int:
        return self.u.degree - self.inf_mult

    def is_zero_class(self) -> bool:
        return self.u.degree == 0 and self.inf_mult == 0

    def __repr__(self) -> str:
        return f"DivisorClass(u={self.u}, v={self.v}, -{self.inf_mult}*inf)"


def _group_law_class(cover: HyperCover, u: Poly, v: Poly,
                     inf_mult: int) -> DivisorClass:
    """A class known to be valid (group law, ``point_class``), built unchecked."""
    d = object.__new__(DivisorClass)
    d.__dict__.update(cover=cover, u=u, v=v, inf_mult=inf_mult)
    return d


def point_class(cover: HyperCover, x: QI, w: QI) -> DivisorClass:
    """(P) - (inf) for P = (x, w): u = b - x, v = w; only u | f - v^2 needs a test."""
    u, v = Poly.x_minus(x), Poly.const(w)
    if not ((cover.f - v * v) % u).is_zero():
        raise ValueError("(x, w) does not lie on the cover")
    return _group_law_class(cover, u, v, 1)


# ----- Cantor composition and reduction ----------------------------------

def mumford_compose(d1: DivisorClass, d2: DivisorClass) -> DivisorClass:
    """Semi-reduced composition (no reduction step)."""
    if d1.cover != d2.cover:
        raise ValueError("classes live on different covers")
    f = d1.cover.f
    u1, v1, u2, v2 = d1.u, d1.v, d2.u, d2.v
    g1, e1 = u1._gcd_cofactor(u2)
    if g1.degree == 0:
        # coprime supports: v = v1 mod u1, and v = v2 mod u2 as e1 u1 = 1 mod u2
        v = v1 + u1 * (e1 * ((v2 - v1) % u2) % u2)
        return _group_law_class(d1.cover, u1 * u2, v, d1.inf_mult + d2.inf_mult)
    g, c1, c2 = g1.xgcd(v1 + v2)
    u = u1.exact_div(g) * u2.exact_div(g)
    # each cancelled conjugate pair P + iota(P) is equivalent to 2*inf
    inf = d1.inf_mult + d2.inf_mult - 2 * g.degree
    if u.degree == 0:  # full cancellation, D + iota(D): v = 0 mod 1
        return _group_law_class(d1.cover, u, _ZERO, inf)
    # Cantor's numerator s1 u1 v2 + s2 u2 v1 + s3 (v1 v2 + f), with s1 = c1 e1,
    # s2 = c1 e2, s3 = c2, equals g v1 + s1 u1 (v2 - v1) + s3 (f - v1^2)
    # because s1 u1 + s2 u2 + s3 (v1 + v2) = g; this form needs no e2
    num = c1 * e1 * u1 * (v2 - v1)
    if not c2.is_zero():
        num = num + c2 * (f - v1 * v1)
    v = (v1 + (num.exact_div(g) if g.degree > 0 else num)) % u
    return _group_law_class(d1.cover, u, v, inf)


def cantor_reduce(d: DivisorClass) -> DivisorClass:
    """Reduce to the unique representative with deg u <= genus."""
    cover = d.cover
    g = cover.genus
    u, v = d.u, d.v
    deg_in = u.degree
    while u.degree > g:
        u_next = (cover.f - v * v).exact_div(u)
        u_next = u_next.monic()
        v = (-v) % u_next if u_next.degree > 0 else _ZERO
        u = u_next
    # linear equivalence preserves total degree; rebalance against infinity
    inf = d.inf_mult - (deg_in - u.degree)
    return _group_law_class(cover, u, v, inf)


def class_add(d1: DivisorClass, d2: DivisorClass) -> DivisorClass:
    return cantor_reduce(mumford_compose(d1, d2))


def class_neg(d: DivisorClass) -> DivisorClass:
    v = (-d.v) % d.u if d.u.degree > 0 else _ZERO
    return _group_law_class(d.cover, d.u, v, d.inf_mult)


def involution_pullback(d: DivisorClass) -> DivisorClass:
    """Pullback along the sheet involution (b, w) -> (b, -w)."""
    return class_neg(d)


def class_equal(d1: DivisorClass, d2: DivisorClass) -> bool:
    """Exact class equality via Cantor reduction of the difference."""
    return class_add(d1, class_neg(d2)).is_zero_class()


def in_prym(d: DivisorClass) -> bool:
    """True iff D + iota*D is the zero class (decided by Cantor reduction).

    Over a rational base the pushforward of any degree-0 class is principal,
    so this holds for every degree-0 class; the function computes it rather
    than asserting it.
    """
    if d.degree() != 0:
        raise ValueError("in_prym is defined for degree-0 classes")
    return class_add(d, involution_pullback(d)).is_zero_class()


# ============================================================
# Exact linear algebra over Q(i), eliminated in Z[i]
# ============================================================

def qi_nullspace(rows: list[list[QI]], n_cols: int) -> list[list[QI]]:
    """Basis of the right nullspace of the matrix given by `rows`: for each
    free column of the reduced row echelon form, 1 there and minus that
    column's entries at the pivot columns.

    Each row is scaled to Gaussian integers by the lcm of its denominators
    and eliminated over Z[i] without division: row <- p row - a (pivot row),
    then over the rational content of its parts.  Each pivot row over its
    pivot is a row of the reduced form, which is unique."""
    m = [_image_of(row)[1:] for row in rows]
    pivots: list[int] = []
    for c in range(n_cols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(m)) if m[i][0][c] or m[i][1][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        sr, si = m[r]
        pr, pi = sr[c], si[c]
        for i, (xr, xi) in enumerate(m):
            ar, ai = xr[c], xi[c]
            if i != r and (ar or ai):
                re = [pr * x - pi * y - ar * s + ai * t for x, y, s, t in zip(xr, xi, sr, si)]
                im = [pr * y + pi * x - ar * t - ai * s for x, y, s, t in zip(xr, xi, sr, si)]
                g = gcd(*re, *im) or 1
                m[i] = [a // g for a in re], [b // g for b in im]
        pivots.append(c)
        if len(pivots) == len(m):
            break
    basis: list[list[QI]] = []
    for fc in (c for c in range(n_cols) if c not in pivots):
        vec = [_QI_ZERO] * n_cols
        vec[fc] = QI(1)
        for (xr, xi), pc in zip(m, pivots):
            a, b, p, q = xr[fc], xi[fc], xr[pc], xi[pc]
            n = p * p + q * q
            vec[pc] = _qi(n, -a * p - b * q, a * q - b * p)
        basis.append(vec)
    return basis


# ============================================================
# Function-search principality oracles (independent of Cantor)
# ============================================================

def _search_basis(genus: int, pole_order: int) -> tuple[int, int]:
    """Degree bounds (deg a, deg c) for functions a(b) + c(b) w with pole
    order <= pole_order at infinity.  deg c < 0 means no w-part is allowed."""
    da = pole_order // 2
    dc = (pole_order - (2 * genus + 1)) // 2 if pole_order >= 2 * genus + 1 else -1
    return da, dc


def _divisibility_rows(u: Poly, combo: Poly, da: int, dc: int) -> list[list[QI]]:
    """Linear conditions: u | (a + c * combo), as rows over the coefficient
    vector (a_0..a_da, c_0..c_dc).  `combo` is the signed v, reduced mod u.
    Column k is b^k mod u, column da + 1 + k is b^k combo mod u: each the
    one before it times b, mod u."""
    cols: list[tuple[QI, ...]] = []
    for rem, count in ((_ONE, da + 1), (combo, dc + 1)):
        for k in range(count):
            if k:
                rem = (rem * _B) % u
            cols.append(rem.coeffs)
    return [[col[j] if j < len(col) else _QI_ZERO for col in cols]
            for j in range(u.degree)]


def _search_witness(cover: HyperCover, conditions: list[tuple[Poly, Poly]],
                    pole_order: int) -> tuple[bool, tuple[Poly, Poly] | None]:
    """Search h = a(b) + c(b) w with pole order <= pole_order at infinity and
    u | a + c * combo for each (u, combo) of `conditions`.  Returns whether
    the nullspace is nonempty, and the first (a, c) of its basis whose norm
    a^2 - c^2 f is a nonzero constant times the product of the u, or None."""
    da, dc = _search_basis(cover.genus, pole_order)
    rows = []
    for u, combo in conditions:
        rows += _divisibility_rows(u, combo, da, dc)
    basis = qi_nullspace(rows, (da + 1) + (dc + 1 if dc >= 0 else 0))
    if not basis:
        return False, None
    target = prod((u for u, _ in conditions), start=_ONE)
    for vec in basis:
        a = Poly(tuple(vec[: da + 1]))
        c = Poly(tuple(vec[da + 1:])) if dc >= 0 else Poly()
        q, rem = (a * a - c * c * cover.f).divmod(target)
        if rem.is_zero() and q.degree == 0:
            return True, (a, c)
    return True, None


def classes_equal_by_search(d1: DivisorClass, d2: DivisorClass) -> bool:
    """Decide [D1] == [D2] by explicit function search (no Cantor reduction).

    Looks for h = a(b) + c(b) w with divisor D1 + iota(D2) - (r1+r2) inf and
    verifies the norm identity a^2 - c^2 f = const * u1 * u2 exactly.  Requires
    gcd(u1, u2) = 1 (generic position) and balanced degree-0 inputs.
    """
    if d1.cover != d2.cover:
        raise ValueError("classes live on different covers")
    if d1.degree() != 0 or d2.degree() != 0:
        raise ValueError("search oracle requires degree-0 classes")
    if d1.u.gcd(d2.u).degree != 0:
        raise ValueError("search oracle requires disjoint Mumford supports")
    r = d1.u.degree + d2.u.degree
    if r == 0:
        return True
    conditions = [(d.u, v % d.u) for d, v in ((d1, d1.v), (d2, -d2.v))
                  if d.u.degree > 0]
    # any nonzero solution vanishes on a degree-r divisor, hence has pole
    # order exactly r; the norm identity is a hard witness check
    found, witness = _search_witness(d1.cover, conditions, r)
    if found and witness is None:
        raise ArithmeticError(
            "nullspace nonempty but no vector satisfied the norm identity; "
            "inputs violate the generic-position precondition")
    return found


def conjugate_sum_principal_witness(d: DivisorClass) -> tuple[Poly, Poly]:
    """Explicit function with divisor D + iota(D) - 2r inf, by search.

    Returns (a, c) with h = a + c w; raises if no witness exists (which for a
    degree-0 class over a rational base never happens; the point is to find
    the witness without Cantor arithmetic and verify it exactly).
    """
    if d.degree() != 0:
        raise ValueError("witness search requires a degree-0 class")
    r = d.u.degree
    if r == 0:
        return _ONE, Poly()
    # vanishing on D and on iota(D) at shared u-roots forces u | a and u | c v;
    # impose the two divisibility conditions directly
    witness = _search_witness(d.cover, [(d.u, d.v % d.u), (d.u, (-d.v) % d.u)],
                              2 * r)[1]
    if witness is None:
        raise ArithmeticError("no principality witness found for D + iota(D)")
    return witness
