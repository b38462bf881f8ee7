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
pair numerically (the argument principle on the two circles bounding one
fundamental annulus, then Newton polish on the truncated series, which is
a polynomial after multiplying by a power of g) and returns the resulting
fibre class; ``extension_from_pair`` inverts the correspondence.

The contour sums are trapezoid sums at K equispaced nodes per circle, so
the polynomial and g times its derivative at all nodes are one length-K
inverse DFT of the coefficients scaled to the circle (Trefethen and
Weideman, SIAM Rev. 56 (2014) 385-458): one ``numpy.fft`` call per node
doubling, loaded on the first solve.  Nodes where the polynomial is too
small a fraction of its terms for the DFT's uniform rounding error are
evaluated again by Horner.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

from ._carray import np
from .tate import TateCurve, TateLineBundle, TatePoint

__all__ = [
    "SplitFiber",
    "AtiyahRegular",
    "UnstableFiber",
    "FiberClass",
    "is_regular",
    "spectral_points",
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
        return (isinstance(other, SplitFiber)
                and self.curve.same_pair((self.l1.factor, self.l2.factor),
                                         (other.l1.factor, other.l2.factor)))


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
    return isinstance(fc, AtiyahRegular) or (isinstance(fc, SplitFiber)
                                             and not fc.l1.isomorphic(fc.l2))


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


# ============================================================
# Obstruction theta functions
# ============================================================

def _theta_window(tau: complex) -> int:
    """Series cutoff M with |tau|**(2M - M^2) below 10**-32."""
    log_tau = math.log(abs(tau))
    m = 1.0 + math.sqrt(1.0 + 32.0 * math.log(10.0) / log_tau)
    return max(8, int(math.ceil(m)) + 2)


@lru_cache(maxsize=32, typed=True)
def _theta_table(tau: complex, m: int) -> tuple[tuple[complex, ...], tuple[complex, ...]]:
    """tau**(-(n^2 + n)) and tau**(-n^2) for n = -m..m: the coefficients of
    Theta0 and Theta1 in the window m."""
    ns = range(-m, m + 1)
    return (tuple(tau ** (-(n * n + n)) for n in ns),
            tuple(tau ** (-n * n) for n in ns))


def theta_even(tau: complex, g: complex, window: int | None = None) -> complex:
    """Theta0(g) = sum_n tau**(-(n^2 + n)) g^(2n)."""
    m = window or _theta_window(tau)
    total = 0j
    for n, a in zip(range(-m, m + 1), _theta_table(tau, m)[0]):
        total += a * g ** (2 * n)
    return total


def theta_odd(tau: complex, g: complex, window: int | None = None) -> complex:
    """Theta1(g) = sum_n tau**(-n^2) g^(2n - 1)."""
    m = window or _theta_window(tau)
    total = 0j
    for n, b in zip(range(-m, m + 1), _theta_table(tau, m)[1]):
        total += b * g ** (2 * n - 1)
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


# Contour radii |tau|**f tried in turn, and the node cap per circle.
_CONTOUR_FRACTIONS = (0.5, 0.0, 0.25, 0.75)
_MAX_NODES = 4096
# Contour sums converge once they agree to this between K and 2K nodes (the
# trapezoid error roughly squares when K doubles), relative to the radius.
_SUM_AGREEMENT = 1e-8
# A contour on which |P| at a node falls below this fraction of the sum of
# the moduli of its terms has lost its digits to cancellation (|tau| near 1)
# or passes next to a zero; the next radius is tried.
_CONTOUR_FLOOR = 1e-11
# The DFT's error at a node is about 4e-16 of the sum of the moduli of the
# terms, so w = g P'/P loses digits where |P| is a small fraction of that
# sum (|tau| near 1.5 and below): nodes under this fraction are evaluated
# again by Horner, whose error there is smaller.
_DFT_TRUST = 1e-7
# Roots closer than this (relative to the outer radius) are resolved
# around the critical point of Obs between them.
_CLOSE_ROOTS = 1e-3
# |Obs| relative to the sum of the moduli of its terms below which a
# critical point is taken to be a double zero.
_DOUBLE_RESIDUAL = 1e-14
# The second zero must be the inverse of the first to this relative defect.
_PARTNER_DEFECT = 1e-8


@lru_cache(maxsize=32)
def _dft_level(k: int, length: int) -> tuple[np.ndarray, np.ndarray]:
    """The half-step twiddles e^(i pi n/k) for n < length, and the powers
    u**j / k, j = 0, 1, 2, of the k nodes u = e^(i pi (2l + 1)/k) as columns:
    one row times them is the trapezoid mean of u**j times that row."""
    t = np.exp(1j * math.pi / k * np.arange(max(length, 2 * k)))
    unit = t[1:2 * k:2]
    powers = np.stack((np.ones(k), unit, unit * unit), axis=1) / k
    twiddle = t[:length]
    twiddle.flags.writeable = powers.flags.writeable = False
    return twiddle, powers


def _node_values(rows: np.ndarray, k: int) -> np.ndarray:
    """sum_n rows[:, n] e^(i pi n (2l + 1)/k) for l < k: each row's polynomial
    at the k nodes offset by half a step.  One inverse FFT of the rows times
    the half-step twiddle e^(i pi n/k), folded mod k when k is below their
    length and zero-padded otherwise."""
    count, length = rows.shape
    twiddled = rows * _dft_level(k, length)[0]
    if k < length:
        blocks = -(-length // k)
        folded = np.zeros((count, blocks * k), dtype=complex)
        folded[:, :length] = twiddled
        twiddled = folded.reshape(count, blocks, k).sum(axis=1)
    return np.fft.ifft(twiddled, n=k, axis=1, norm="forward")


class _ObstructionPoly:
    """P(g) = g**(2m + 1) * Obs(g): a polynomial of degree 4m + 1 whose odd
    coefficients are p * tau**(-(n^2 + n)) and even ones q * c * tau**(-n^2),
    so Obs and P share their zeros in C*."""

    def __init__(self, tau: complex, c: complex, p: complex, q: complex):
        m = _theta_window(tau)
        even, odd = _theta_table(tau, m)
        coef = [0j] * (4 * m + 2)
        coef[1::2] = [p * a for a in even]
        coef[0::2] = [q * c * b for b in odd]
        self.shift = 2 * m + 1
        self.top_down = coef[::-1]

    def derivatives(self, g: complex) -> tuple[complex, complex, complex]:
        """Obs, Obs' and Obs'' at g, all times g**(2m + 1)."""
        p0 = p1 = p2 = 0j
        for a in self.top_down:
            p2 = p2 * g + p1
            p1 = p1 * g + p0
            p0 = p0 * g + a
        p2 *= 2
        s = self.shift
        return (p0, p1 - s * p0 / g,
                p2 - 2 * s * p1 / g + s * (s + 1) * p0 / (g * g))

    def at(self, g: complex) -> tuple[complex, complex, complex, float]:
        """``derivatives`` at g and sum_n |c_n| |g|**n for P(g) = sum_n c_n g**n."""
        r = abs(g)
        size = 0.0
        for a in self.top_down:
            size = size * r + abs(a)
        return (*self.derivatives(g), size)

    def circle_rows(self, *radii: float) -> np.ndarray:
        """Two rows per radius r, c_n r**n and n c_n r**n for P(g) = sum_n
        c_n g**n: on |g| = r their DFTs are P and g P'."""
        coef = np.array(self.top_down[::-1], dtype=complex)
        n = np.arange(len(coef))
        scaled = coef * np.power.outer(np.array(radii), n)
        return np.stack((scaled, scaled * n), axis=1).reshape(-1, len(coef))

    def horner(self, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """P and P' at the nodes g by Horner's rule."""
        val = np.zeros_like(g)
        der = np.zeros_like(g)
        for a in self.top_down:
            der *= g
            der += val
            val *= g
            val += a
        return val, der

    def annulus_sums(self, rho: float, big: float) -> np.ndarray:
        """N, s1, s2 for the zeros of Obs in rho < |g| < big: trapezoid values
        of (1/2 pi i) int g**j P'/P dg, j = 0, 1, 2, over |g| = big minus
        |g| = rho, with K nodes per circle offset by half a step.  P and g P'
        at the 2K nodes are one inverse DFT of the coefficients scaled to
        each circle (``_node_values``); nodes where |P| is below
        ``_DFT_TRUST`` of the sum of the moduli of its terms are evaluated
        again by Horner.  K doubles until N is 2 and s1, s2 agree between K
        and 2K nodes."""
        rows = self.circle_rows(big, rho)
        sizes = np.abs(rows[0::2]).sum(axis=1, keepdims=True)
        floor = _CONTOUR_FLOOR * sizes.min()
        radii = np.array([[big], [rho]])
        scales = np.array([[1.0, big, big * big], [1.0, rho, rho * rho]])
        prev = None
        k = 16
        while k <= _MAX_NODES:
            vals = _node_values(rows, k)
            weak = np.abs(vals[0::2]) < _DFT_TRUST * sizes
            if weak.any():
                g = (radii * np.exp(1j * math.pi * (2 * np.arange(k) + 1) / k))[weak]
                val, der = self.horner(g)
                vals[0::2][weak] = val
                vals[1::2][weak] = g * der
            if not np.abs(vals[0::2]).min() > floor:
                raise ArithmeticError("contour values lost to cancellation")
            w = vals[1::2] / vals[0::2]          # g P'(g) / P(g)
            means = (w @ _dft_level(k, rows.shape[1])[1]) * scales
            sums = means[0] - means[1]
            if (prev is not None and abs(sums[0] - 2) < 1e-8
                    and abs(sums[1] - prev[1]) <= _SUM_AGREEMENT * big
                    and abs(sums[2] - prev[2]) <= _SUM_AGREEMENT * big * big):
                return sums
            prev = sums
            k *= 2
        raise ArithmeticError(f"contour sums did not converge in {_MAX_NODES} nodes "
                              f"(N = {complex(prev[0]):.6g})")

    def newton(self, g: complex, order: int, scale: float) -> complex:
        """Zero of Obs (order 0) or Obs' (order 1) near g.  Stops after a step
        below 1e-10 * scale: convergence is quadratic, so the error left is
        at the rounding level."""
        for _ in range(12):
            vals = self.derivatives(g)
            step = vals[order] / vals[order + 1]
            g -= step
            if abs(step) <= 1e-10 * scale:
                return g
        raise ArithmeticError("Newton polish of an obstruction zero did not converge")


def _zeros_in_annulus(curve: TateCurve, poly: _ObstructionPoly,
                      rho: float) -> tuple[TatePoint, TatePoint]:
    """The checked pair from the zeros of Obs in rho < |g| < rho*|tau|."""
    big = rho * abs(curve.tau)
    _, s1, s2 = (complex(s) for s in poly.annulus_sums(rho, big))
    half = cmath.sqrt(2 * s2 - s1 * s1) / 2
    centre = s1 / 2
    if abs(half) <= _CLOSE_ROOTS * big:
        # the quadratic gives close roots only to about the square root of
        # the sums' accuracy; the critical point between them is a double
        # zero when Obs vanishes there, else the roots are about
        # centre +- sqrt(-2 Obs / Obs'')
        centre = poly.newton(centre, 1, big)
        f, _, f2, size = poly.at(centre)
        if abs(f) <= _DOUBLE_RESIDUAL * size:
            if curve.lattice_distance(centre * centre)[1] > _PARTNER_DEFECT:
                raise ArithmeticError("double obstruction zero is not 2-torsion")
            g0 = curve.point(centre)
            return (g0, g0.inverse())
        half = cmath.sqrt(-2 * f / f2)
    z0 = poly.newton(centre + half, 0, big)
    z1 = poly.newton(centre - half, 0, big)
    if curve.lattice_distance(z0 * z1)[1] > _PARTNER_DEFECT:
        raise ArithmeticError("inverse-pair symmetry check failed")
    g0 = curve.point(z0)
    return (g0, g0.inverse())


def obstruction_zeros(curve: TateCurve, c: complex, p: complex,
                      q: complex) -> tuple[TatePoint, TatePoint]:
    """The two zeros {g0, 1/g0} of the obstruction on the fundamental annulus.

    Argument principle: on the circles |g| = rho and rho*|tau| the trapezoid
    rule gives the count N and the power sums s1, s2 of the zeros between
    them, with the nodes doubled until N is 2 and the sums settle; the
    zeros solve z^2 - s1 z + (s1^2 - s2)/2 = 0 and are polished by Newton.
    A double zero (at a 2-torsion point) is polished as a zero of Obs'.
    Each radius in ``_CONTOUR_FRACTIONS`` is tried in turn; raises
    ArithmeticError when none yields a pair that passes these checks (and
    the inverse-pair check), and never returns an unchecked pair.
    """
    if p == 0 and q == 0:
        raise ValueError("zero extension data has no obstruction zeros")
    tau = curve.tau
    poly = _ObstructionPoly(tau, c, p, q)
    failures = []
    for frac in _CONTOUR_FRACTIONS:
        try:
            return _zeros_in_annulus(curve, poly, abs(tau) ** frac)
        except ArithmeticError as exc:
            failures.append(f"|tau|^{frac}: {exc}")
    raise ArithmeticError("obstruction zero search failed: " + "; ".join(failures))


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
