# spectral_forge/fiber.py
"""
Rank-2 bundles on a single multiplicative elliptic curve.

Every rank-2 bundle on the curve restricts to one of three shapes, recorded
here as frozen classes:

- ``SplitFiber(l1, l2)``: a direct sum of two degree-0 line bundles,
- ``AtiyahRegular(factor)``: the unique nonsplit self-extension of the
  degree-0 line bundle with the given factor (regular, one-dimensional
  endomorphism-wise),
- ``UnstableFiber(height, sub_factor, det_factor)``: contains a subline
  bundle of degree ``height`` >= 1; the quotient has degree ``-height``
  relative to the determinant.

Degree-0 classes with trivial determinant arise as extensions

    0 -> L(-1) -> E -> L(1) -> 0,   L(k) of degree k with factor data fixed,

classified by a two-dimensional extension space with coordinates (p, q) in
the monomial basis {1, z} of the quotient-model cocycle.  A twist L_g gains
a section exactly where the connecting map kills the quotient's theta
section; pairing that image against the one-dimensional cokernel of the
sub's twisted operator gives the obstruction

    Obs(g) = p * Theta0(g) + q * c * Theta1(g),

    Theta0(g) = sum_n tau**(-(n^2 + n)) g^(2n),
    Theta1(g) = sum_n tau**(-n^2) g^(2n - 1),

both invariant under g -> tau/g (equivalently f(1/g) = g^(-2) f(g)) and
quasi-periodic with multiplier g**2, so Obs has exactly two zeros per
fundamental annulus and they form the pair {g0, tau/g0}, which on the
curve is the inverse pair {g0, 1/g0}.  ``make_extension`` locates that
pair numerically (coarse scan plus Newton polish on the rapidly convergent
series) and returns the resulting fibre class; ``extension_from_pair``
inverts the correspondence.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .tate import TateCurve, TateLineBundle, TatePoint

__all__ = [
    "SplitFiber",
    "AtiyahRegular",
    "UnstableFiber",
    "FiberClass",
    "is_regular",
    "spectral_points",
    "h1_restrict",
    "theta_even",
    "theta_odd",
    "obstruction",
    "obstruction_zeros",
    "make_extension",
    "extension_from_pair",
]


# ============================================================
# Fibre classes
# ============================================================

@dataclass(frozen=True)
class SplitFiber:
    """Direct sum of two degree-0 line bundles (factors may coincide)."""

    l1: TateLineBundle
    l2: TateLineBundle

    def __post_init__(self) -> None:
        if self.l1.degree != 0 or self.l2.degree != 0:
            raise ValueError("split fibre classes use degree-0 factors")
        if self.l1.curve is not self.l2.curve and self.l1.curve != self.l2.curve:
            raise ValueError("factors live on different curves")

    @property
    def curve(self) -> TateCurve:
        return self.l1.curve

    def det_factor(self) -> complex:
        return self.l1.factor * self.l2.factor

    def isomorphic(self, other: "FiberClass") -> bool:
        if not isinstance(other, SplitFiber):
            return False
        return ((self.l1.isomorphic(other.l1) and self.l2.isomorphic(other.l2))
                or (self.l1.isomorphic(other.l2) and self.l2.isomorphic(other.l1)))


@dataclass(frozen=True)
class AtiyahRegular:
    """Nonsplit self-extension of a single degree-0 line bundle."""

    line: TateLineBundle

    def __post_init__(self) -> None:
        if self.line.degree != 0:
            raise ValueError("regular nonsplit classes use a degree-0 factor")

    @property
    def curve(self) -> TateCurve:
        return self.line.curve

    def det_factor(self) -> complex:
        return self.line.factor ** 2

    def isomorphic(self, other: "FiberClass") -> bool:
        return isinstance(other, AtiyahRegular) and self.line.isomorphic(other.line)


@dataclass(frozen=True)
class UnstableFiber:
    """Destabilised fibre: subline bundle of degree height >= 1."""

    height: int
    sub: TateLineBundle
    det: TateLineBundle

    def __post_init__(self) -> None:
        if self.height < 1:
            raise ValueError("unstable fibres need height >= 1")
        if self.sub.degree != self.height:
            raise ValueError("sub must have degree equal to height")
        if self.det.degree != 0:
            raise ValueError("det of a relatively-degree-0 fibre must be 0")

    @property
    def curve(self) -> TateCurve:
        return self.sub.curve

    def quotient(self) -> TateLineBundle:
        return self.det * self.sub.dual()

    def det_factor(self) -> complex:
        return self.det.factor

    def isomorphic(self, other: "FiberClass") -> bool:
        return (isinstance(other, UnstableFiber)
                and self.height == other.height
                and self.sub.isomorphic(other.sub)
                and self.det.isomorphic(other.det))


FiberClass = SplitFiber | AtiyahRegular | UnstableFiber


def is_regular(fc: FiberClass) -> bool:
    """Regular = automorphism group of minimal dimension for its type."""
    if isinstance(fc, SplitFiber):
        return not fc.l1.isomorphic(fc.l2)
    if isinstance(fc, AtiyahRegular):
        return True
    return False


def spectral_points(fc: FiberClass) -> tuple[TatePoint, ...] | None:
    """Support of the twist-cohomology on the dual curve.

    A degree-0 twist L_a sees cohomology exactly when a is inverse to a
    factor of the graded pieces; unstable fibres see every twist (vertical
    support), signalled by None.
    """
    if isinstance(fc, SplitFiber):
        c = fc.curve
        return (c.point(1.0 / fc.l1.factor), c.point(1.0 / fc.l2.factor))
    if isinstance(fc, AtiyahRegular):
        p = fc.curve.point(1.0 / fc.line.factor)
        return (p, p)
    return None


def h1_restrict(fc: FiberClass, alpha: complex) -> int:
    """dim H^1 of the fibre class twisted by the degree-0 bundle of factor alpha."""
    if isinstance(fc, SplitFiber):
        c = fc.curve
        total = 0
        for l in (fc.l1, fc.l2):
            if c.in_lattice(l.factor * alpha):
                total += 1
        return total
    if isinstance(fc, AtiyahRegular):
        return 1 if fc.curve.in_lattice(fc.line.factor * alpha) else 0
    # unstable: the degree-h sub always contributes through the quotient side
    return fc.height


# ============================================================
# Obstruction theta functions
# ============================================================

def _theta_window(tau: complex, digits: float = 32.0) -> int:
    """Series cutoff M with |tau|**(2M - M^2) below 10**-digits."""
    log_tau = math.log(abs(tau))
    target = digits * math.log(10.0)
    m = 1.0 + math.sqrt(1.0 + target / log_tau)
    return max(8, int(math.ceil(m)) + 2)


def theta_even(tau: complex, g: complex, window: int | None = None) -> complex:
    """Theta0(g) = sum_n tau**(-(n^2 + n)) g^(2n)."""
    m = window or _theta_window(tau)
    total = 0j
    for n in range(-m, m + 1):
        total += tau ** (-(n * n + n)) * g ** (2 * n)
    return total


def theta_odd(tau: complex, g: complex, window: int | None = None) -> complex:
    """Theta1(g) = sum_n tau**(-n^2) g^(2n - 1)."""
    m = window or _theta_window(tau)
    total = 0j
    for n in range(-m, m + 1):
        total += tau ** (-n * n) * g ** (2 * n - 1)
    return total


def _theta_even_deriv(tau: complex, g: complex, window: int) -> complex:
    total = 0j
    for n in range(-window, window + 1):
        if n != 0:
            total += (2 * n) * tau ** (-(n * n + n)) * g ** (2 * n - 1)
    return total


def _theta_odd_deriv(tau: complex, g: complex, window: int) -> complex:
    total = 0j
    for n in range(-window, window + 1):
        total += (2 * n - 1) * tau ** (-n * n) * g ** (2 * n - 2)
    return total


def obstruction(curve: TateCurve, c: complex, p: complex, q: complex,
                g: complex) -> complex:
    """Extension obstruction p * Theta0(g) + q * c * Theta1(g).

    Vanishes exactly at the twists g whose tensor product with the extension
    gains a section.  Quasi-periodic: Obs(tau*g) = g**2 * Obs(g).
    """
    tau = curve.tau
    m = _theta_window(tau)
    return p * theta_even(tau, g, m) + q * c * theta_odd(tau, g, m)


def obstruction_zeros(curve: TateCurve, c: complex, p: complex,
                      q: complex) -> tuple[TatePoint, TatePoint]:
    """The two zeros of the obstruction on the fundamental annulus.

    Coarse 24 x 96 log-polar scan of |Obs|, then Newton iteration from the
    144 smallest values; Obs(1/g) = g**(-2) Obs(g) supplies the partner
    zero, which also serves as a cross-check.
    """
    if p == 0 and q == 0:
        raise ValueError("zero extension data has no obstruction zeros")
    tau = curve.tau
    m = _theta_window(tau)

    def f(g: complex) -> complex:
        return p * theta_even(tau, g, m) + q * c * theta_odd(tau, g, m)

    def fp(g: complex) -> complex:
        return (p * _theta_even_deriv(tau, g, m)
                + q * c * _theta_odd_deriv(tau, g, m))

    # scale reference for convergence tests
    scale = max(abs(p), abs(q * c), 1e-300)

    radial, angular = 24, 96
    log_r_max = math.log(abs(tau))
    candidates: list[complex] = []
    values: list[float] = []
    for i in range(radial):
        r = math.exp(log_r_max * i / radial)
        for j in range(angular):
            th = 2.0 * math.pi * j / angular
            g = r * cmath.exp(1j * th)
            candidates.append(g)
            values.append(abs(f(g)))
    order = sorted(range(len(candidates)), key=values.__getitem__)

    zeros: list[TatePoint] = []
    for idx in order[: 12 * angular // 8]:
        g = candidates[idx]
        ok = False
        for _ in range(60):
            fg = f(g)
            if abs(fg) < 1e-13 * scale:
                ok = True
                break
            d = fp(g)
            if d == 0:
                break
            step = fg / d
            if abs(step) > 0.5 * abs(g):
                step *= 0.5 * abs(g) / abs(step)
            g = g - step
        if not ok or g == 0:
            continue
        pt = curve.point(g)
        if not any(pt == z for z in zeros):
            zeros.append(pt)
        if len(zeros) >= 2:
            break

    if not zeros:
        raise ArithmeticError("obstruction zero search failed to converge")
    g0 = zeros[0]
    partner = g0.inverse()
    if abs(f(partner.value)) > 1e-8 * scale:
        raise ArithmeticError("inverse-pair symmetry check failed")
    return (g0, partner)


# ============================================================
# Extension <-> fibre class correspondence
# ============================================================

def make_extension(curve: TateCurve, c: complex, p: complex, q: complex) -> FiberClass:
    """Fibre class of the extension of L(1) by L(-1) with data (p, q).

    The degree -1 sub has factor c, the degree +1 quotient has factor 1/c, so
    the determinant is trivial.  (p, q) are coordinates on the extension
    space with respect to the monomial basis of the quotient model; (0, 0)
    is excluded (the split extension of nonzero degrees is unstable of
    height 1 and is returned explicitly).
    """
    if c == 0:
        raise ValueError("sub factor must be nonzero")
    if p == 0 and q == 0:
        sub = TateLineBundle(curve, 1, 1.0 / c)
        det = TateLineBundle(curve, 0, 1.0 + 0j)
        return UnstableFiber(1, sub, det)
    g0, g1 = obstruction_zeros(curve, c, p, q)
    if g0 == g1:
        if not g0.is_two_torsion():
            raise ArithmeticError("doubled obstruction zero is not 2-torsion")
        return AtiyahRegular(TateLineBundle(curve, 0, g0.value))
    return SplitFiber(TateLineBundle(curve, 0, g0.value),
                      TateLineBundle(curve, 0, g1.value))


def extension_from_pair(curve: TateCurve, c: complex,
                        g0: complex) -> tuple[complex, complex]:
    """Extension data (p, q) whose obstruction vanishes at {g0, 1/g0}.

    Inverts ``make_extension`` up to overall scale: returns the projective
    solution (Theta1(g0), -Theta0(g0) / c), normalised to unit max modulus.
    """
    tau = curve.tau
    m = _theta_window(tau)
    t0 = theta_even(tau, g0, m)
    t1 = theta_odd(tau, g0, m)
    p, q = t1, -t0 / c
    s = max(abs(p), abs(q))
    if s == 0:
        raise ArithmeticError("degenerate pair: both thetas vanish")
    return (p / s, q / s)
