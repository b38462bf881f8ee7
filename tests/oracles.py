# tests/oracles.py
"""
Independent engines used to verify library outputs.

Everything here recomputes a quantity from first principles (coefficient
recursions, truncated functional-equation matrices, Smith normal forms,
linear journal replays, uncached float evaluation, the former per-module
lattice distances, the former scalar sample loops, schoolbook Q(i)
polynomial loops and Gauss-Jordan elimination on pairs of Fractions (the
library's former number type), Cantor's
algorithm in sympy, the per-term theta loops and 50-digit theta zeros in
mpmath) without touching the library's closed forms, so each test compares
two genuinely different computation routes.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from itertools import zip_longest

import numpy as np

from spectral_forge import (LineBundleOnX, Poly, PopStep, PunctureError,
                            PushforwardData, PushStep,
                            QI, UnsupportedError, VerificationError,
                            sample_circle, spectral_points)

# ============================================================
# Rank-1 cohomology: Laurent seed counting
# ============================================================

def laurent_h0(tau: complex, d: int, alpha: complex,
               window: int = 40, eps: float = 1e-9) -> int:
    """Count independent Laurent solutions of s(tau*z) = alpha * z^d * s(z).

    The coefficient recursion is a_n = alpha * tau^(-n) * a_(n-d).  Each
    residue class mod |d| carries one orbit; a seed contributes a section
    exactly when the orbit decays to zero in both directions, which is
    decided numerically on a two-sided window.
    """
    if d == 0:
        # a_n * (tau^n - alpha) = 0: a single surviving index, if any
        for n in range(-window, window + 1):
            t = tau ** n
            if abs(t - alpha) <= eps * max(1.0, abs(t)):
                return 1
        return 0
    step = abs(d)
    count = 0
    for seed in range(step):
        mags = [1.0]
        a = 1.0 + 0j
        n = seed
        # march towards +infinity: a_{n+step} from a_n
        while n + step <= window:
            if d > 0:
                a = alpha * tau ** (-(n + step)) * a
            else:
                a = tau ** n / alpha * a
            n += step
            mags.append(abs(a))
        up_edge = mags[-1]
        peak = max(mags)
        a = 1.0 + 0j
        n = seed
        mags = [1.0]
        # march towards -infinity: a_{n-step} from a_n
        while n - step >= -window:
            if d > 0:
                a = tau ** n / alpha * a
            else:
                a = alpha * tau ** (step - n) * a
            n -= step
            mags.append(abs(a))
        down_edge = mags[-1]
        peak = max(peak, max(mags))
        if up_edge <= eps * peak and down_edge <= eps * peak:
            count += 1
    return count


def laurent_h1(tau: complex, d: int, alpha: complex,
               window: int = 40, eps: float = 1e-9) -> int:
    """h^1 through duality: the canonical bundle is trivial, so
    h^1(L(d, alpha)) = h^0 of the dual automorphy (degree -d, factor 1/alpha)."""
    return laurent_h0(tau, -d, 1.0 / alpha, window, eps)


# ============================================================
# Any-rank cohomology: functional-equation nullity
# ============================================================

Entries = "list[list[dict[int, complex]]]"


def automorphy_nullity(tau: complex, entries: Entries,
                       n_max: int | None = None, eps: float = 1e-8) -> int:
    """dim of the Laurent solution space of s(tau*z) = A(z) * s(z).

    A is a rank x rank matrix of finite Laurent polynomials, each given as
    {power: coefficient}.  Unknowns are the coefficients c[i, n], |n| <= n_max;
    matching the coefficient of z^m for |m| <= n_max + S (S the largest
    entry degree) gives the linear system.  Out-of-window coefficients are
    dropped: true solutions decay like |tau|^(-n^2 / (2 S)), so the window
    grows with S to keep the truncation error far below the SVD threshold.
    Rows are sup-normalized to keep the huge tau^m diagonal from swamping
    the spectrum.
    """
    rank = len(entries)
    spread = max((abs(k) for row in entries for e in row for k in e),
                 default=0)
    if n_max is None:
        n_max = max(16, 12 * spread)
    m_max = n_max + spread
    width = 2 * n_max + 1
    n_unk = rank * width
    rows = []
    for m in range(-m_max, m_max + 1):
        for i in range(rank):
            row = np.zeros(n_unk, dtype=complex)
            if abs(m) <= n_max:
                row[i * width + (m + n_max)] += tau ** m
            for j in range(rank):
                for k, coeff in entries[i][j].items():
                    n = m - k
                    if abs(n) <= n_max:
                        row[j * width + (n + n_max)] -= coeff
            top = np.max(np.abs(row))
            if top > 0:
                rows.append(row / top)
    if not rows:
        return n_unk
    mat = np.array(rows)
    sigma = np.linalg.svd(mat, compute_uv=False)
    cut = eps * max(1.0, float(sigma[0]))
    # nullity is unknowns minus rank; dropped all-zero rows leave unknowns
    # that never appear in the singular value list
    rank = int(np.sum(sigma >= cut))
    return n_unk - rank


def line_entries(d: int, alpha: complex) -> list:
    return [[{d: alpha}]]


def dual_line_entries(d: int, alpha: complex) -> list:
    return [[{-d: 1.0 / alpha}]]


def extension_entries(c: complex, p: complex, q: complex,
                      g: complex = 1.0 + 0j) -> list:
    """Automorphy of the (p, q) extension of L(1, 1/c) by L(-1, c), twisted
    by the degree-0 bundle of factor g: upper triangular with the cocycle
    p + q*z in the corner."""
    return [
        [{-1: c * g}, {0: p * g, 1: q * g}],
        [{}, {1: g / c}],
    ]


def dual_extension_entries(c: complex, p: complex, q: complex,
                           g: complex = 1.0 + 0j) -> list:
    """Inverse transpose of ``extension_entries``; the diagonal product is 1
    (trivial determinant), so the corner is just the negated cocycle."""
    return [
        [{1: 1.0 / (c * g)}, {}],
        [{0: -p / g, 1: -q / g}, {-1: c / g}],
    ]


def extension_h0(tau: complex, c: complex, p: complex, q: complex,
                 g: complex = 1.0 + 0j) -> int:
    return automorphy_nullity(tau, extension_entries(c, p, q, g))


def extension_h1(tau: complex, c: complex, p: complex, q: complex,
                 g: complex = 1.0 + 0j) -> int:
    return automorphy_nullity(tau, dual_extension_entries(c, p, q, g))


# ============================================================
# Abelian group shapes: Smith normal form via sympy
# ============================================================

def smith_invariant_factors(orders: "list[int]") -> "list[int]":
    """Nontrivial invariant factors of sum_i Z/orders[i], via sympy's SNF of
    the diagonal relation matrix."""
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form
    if not orders:
        return []
    mat = Matrix.diag(*orders)
    snf = smith_normal_form(mat, domain=ZZ)
    out = [int(snf[i, i]) for i in range(min(snf.shape))]
    return [x for x in out if x not in (0, 1)]


# ============================================================
# Modification journals: linear replay
# ============================================================

def replay_jump_stack(steps, at) -> list:
    """The push stack at `at`, by scanning the whole journal."""
    stack: list = []
    for step in steps:
        if step.at == at:
            if isinstance(step, PushStep):
                stack.append(step)
            else:
                if not stack:
                    raise ValueError("pop without a jump in journal")
                stack.pop()
    return stack


def replay_jump_points(steps) -> list:
    """Points with a nonempty stack, in order of first appearance."""
    pts: list = []
    for step in steps:
        if not any(step.at == p for p in pts):
            pts.append(step.at)
    return [p for p in pts if replay_jump_stack(steps, p)]


def replay_jumping_sequence(steps, at) -> tuple[int, ...]:
    """Heights peeled off by repeated pops at `at`, each read from a fresh
    replay of the lengthened journal."""
    steps = list(steps)
    heights: list[int] = []
    while stack := replay_jump_stack(steps, at):
        heights.append(stack[-1].degree)
        steps.append(PopStep(at))
    return tuple(heights)


def replay_c2(base_c2: int, steps) -> int:
    """Second Chern number: a push adds its degree, a pop removes the degree
    of the push it cancels (points matched by linear search)."""
    c2 = base_c2
    keys: list = []
    stacks: list[list[int]] = []
    for step in steps:
        i = next((j for j, k in enumerate(keys) if k == step.at), None)
        if i is None:
            keys.append(step.at)
            stacks.append([])
            i = len(keys) - 1
        if isinstance(step, PushStep):
            stacks[i].append(step.degree)
            c2 += step.degree
        else:
            c2 -= stacks[i].pop()
    return c2


def replay_determinant(family):
    """The presentation determinant twisted, step by step, by the dual of
    each step's fibre: a residue at a multiple fibre, else the base class."""
    surface = family.surface
    det = family.presentation_determinant()
    for step in family.steps:
        parts = tuple(int(mf.at == step.at) for mf in surface.multiple_fibres)
        twist = LineBundleOnX(surface, 0 if any(parts) else 1, 1.0 + 0j, parts)
        det = det.tensor(twist.dual())
    return det


# ============================================================
# Float image of exact data: uncached evaluation
# ============================================================

def reference_eval_complex(poly, b: complex) -> complex:
    """Horner's rule with every coefficient converted to float afresh, part
    by part through ``float(Fraction)``."""
    acc = 0j
    for c in reversed(poly.coeffs):
        acc = acc * b + FractionQI.of(c).to_complex()
    return acc


def reference_sheets(cover, b: complex) -> tuple[complex, complex]:
    w = complex(reference_eval_complex(cover.f, b)) ** 0.5
    return (w, -w)


def reference_evaluate_at(pell, b: complex, w: complex) -> complex:
    """s (U + V w) / R at one (b, w), evaluating R, U, V and s for this w
    alone; the pole is checked before the zero."""
    den = reference_eval_complex(pell.r_part, b)
    if abs(den) < 1e-300:
        raise PunctureError(f"pole of bisection map at b={b}")
    num = (reference_eval_complex(pell.u_part, b)
           + reference_eval_complex(pell.v_part, b) * w)
    if abs(num) < 1e-300:
        raise PunctureError(f"zero of bisection map at b={b}")
    return FractionQI.of(pell.scale).to_complex() * num / den


def reference_sheet_values(pell, b: complex) -> tuple[complex, complex]:
    """One full evaluation per sheet, sheet 0 first."""
    w0, w1 = reference_sheets(pell.cover, b)
    return (reference_evaluate_at(pell, b, w0),
            reference_evaluate_at(pell, b, w1))


def reference_punctures_near(pell, b: complex, margin: float = 1e-6) -> bool:
    den = abs(reference_eval_complex(pell.r_part, b))
    num = min(abs(reference_eval_complex(pell.u_part, b)
                  + reference_eval_complex(pell.v_part, b) * w)
              for w in reference_sheets(pell.cover, b))
    return den < margin or num < margin


# ============================================================
# Lattice distance: the former per-module routes
# ============================================================

def reference_lattice_log(tau: complex, x: complex,
                          tol: float = 1e-9) -> "int | None":
    """First k of k0 - 1, k0, k0 + 1 with |x - tau^k| <= tol |tau^k|."""
    if x == 0:
        return None
    k0 = round(math.log(abs(x)) / math.log(abs(tau)))
    for k in (k0 - 1, k0, k0 + 1):
        t = tau ** k
        if abs(x - t) <= tol * abs(t):
            return k
    return None


def reference_nearest_translate(tau: complex, value: complex) -> int:
    """Integer n minimising |value / tau^n - 1| over a local window."""
    guess = round(math.log(abs(value)) / math.log(abs(tau)))
    best_n, best_d = guess, abs(value / tau ** guess - 1.0)
    for n in (guess - 1, guess + 1):
        d = abs(value / tau ** n - 1.0)
        if d < best_d:
            best_n, best_d = n, d
    return best_n


def reference_factor_close(tau: complex, x: complex, y: complex, tol: float,
                           curve_tol: float = 1e-9) -> bool:
    """x / y is a power of tau within the curve tolerance and within tol."""
    ratio = x / y
    k = reference_lattice_log(tau, ratio, curve_tol)
    if k is None:
        return False
    return abs(ratio / tau ** k - 1.0) <= tol


def reference_invariance_defect(tau: complex, ratio: complex,
                                tol: float = 1e-9) -> float:
    """Defect at the lattice power if there is one, else at the
    log-rounded power."""
    k = reference_lattice_log(tau, ratio, tol)
    if k is None:
        k = round(math.log(abs(ratio)) / math.log(abs(tau)))
    return abs(ratio / tau ** k - 1.0)


def reference_product_defect(tau: complex, ratio: complex,
                             tol: float = 1e-9) -> float:
    """Defect at the lattice power if there is one, else |ratio|: off the
    lattice this is a modulus, not a defect."""
    k = reference_lattice_log(tau, ratio, tol)
    if k is None:
        return abs(ratio)
    return abs(ratio / tau ** k - 1.0)


# ============================================================
# The per-sample path: the library's former scalar loops
# ============================================================
# One sample at a time through the single-point methods, as the library
# ran before its sample path moved to arrays.

def reference_sample_circle(count: int, radius: float, center: complex = 0j,
                            phase: float = 0.0) -> list[complex]:
    pts = []
    for k in range(count):
        th = phase + 2.0 * math.pi * (k + 0.318) / count
        pts.append(center + radius * cmath.exp(1j * th))
    return pts


def reference_sample_ladder(family, count: int, phase: float = 0.0,
                            punctures_near=reference_punctures_near
                            ) -> tuple[int, list[complex]]:
    """(rung, samples) of ``default_sample_points`` as one scalar loop: each
    rung's samples are tested in order, one at a time, against every
    multiple fibre and journal point (within 1e-3), then, on a pushforward,
    against the branch locus (|f(b)| < 1e-6) and the factor map's punctures
    (``punctures_near(map, b)``); the first rejected sample ends the rung."""
    specials = [mf.at.to_complex() for mf in family.surface.multiple_fibres
                if not mf.at.is_infinity]
    specials += [at.to_complex() for at in family._stacks if not at.is_infinity]
    pell = family.data.factor_map if isinstance(family.data, PushforwardData) else None

    def reject(b: complex) -> bool:
        if any(abs(b - s) < 1e-3 for s in specials):
            return True
        return pell is not None and (abs(reference_eval_complex(pell.cover.f, b)) < 1e-6
                                     or punctures_near(pell, b))

    radius = abs(family.curve.tau)
    for rung in range(8):
        pts = reference_sample_circle(count, radius * (1.0 + 0.13 * rung), 0j,
                                      phase + 0.05 * rung)
        if not any(reject(b) for b in pts):
            return rung, pts
    raise PunctureError("sampling: no clean sample circle among 8 rungs")


def reference_invariance_residual(cover, delta, pts) -> float:
    curve = cover.curve
    worst = 0.0
    for b in pts:
        v0, v1 = cover.bisection.sheet_values(b)
        target = delta.restrict_to_fiber(b).factor
        worst = max(worst, curve.lattice_distance(v0 * v1 / target)[1])
    return worst


def reference_cover_check(family, bis, pts) -> None:
    """The consistency loop of ``cover_from_family`` against ``bis``."""
    curve = family.curve
    for b in pts:
        pts_fc = spectral_points(family.fiber_class_at(b))
        if pts_fc is None:
            continue
        want = [p.value for p in pts_fc]
        got = [curve.canonical_rep(v).value for v in bis.sheet_values(b)]
        if not curve.same_pair(want, got):
            raise VerificationError(
                f"declared and recomputed covers disagree at b={b}")


def reference_max_product_defect(family, pts) -> float:
    """The largest ``props`` fibre-product defect."""
    def product_defect(b: complex) -> float:
        spts = spectral_points(family.fiber_class_at(b))
        if spts is None:
            return 0.0
        product = spts[0].value * spts[1].value
        target = family.involution_bundle().restrict_to_fiber(b).factor
        return family.curve.lattice_distance(product / target)[1]

    defects = [product_defect(b) for b in pts]
    return max(defects) if defects else 0.0


def reference_fibre_mismatch(family, rebuilt, pts) -> str:
    """The fibre-class check of ``roundtrip_check``: its detail."""
    for b in pts:
        if not family.fiber_class_at(b).isomorphic(rebuilt.fiber_class_at(b)):
            return f"fibre class mismatch at b={b}"
    return ""


def reference_support_mismatch(sheaf, sheaf2, pts) -> str:
    """The support check of ``torsion_roundtrip_check``: its detail."""
    curve = sheaf2.support.curve
    for b in pts:
        if not curve.same_pair(sheaf.support.values_at(b),
                               sheaf2.support.values_at(b)):
            return f"support values differ at b={b}"
    return ""


def reference_has_trivial_sub(family, pts) -> bool:
    curve = family.curve
    flags = [True, True]
    for b in pts:
        f0, f1 = family.fiber_factors_at(b)
        flags[0] = flags[0] and curve.in_lattice(f0)
        flags[1] = flags[1] and curve.in_lattice(f1)
        if not (flags[0] or flags[1]):
            return False
    return flags[0] or flags[1]


def reference_z_action_residual(family, twist,
                                samples: "int | list[complex]" = 20) -> float:
    """The descent closure defect over both sheets and levels -2 .. 2, the
    loop that ``fourier.z_action_residual`` reduces to the frame factor."""
    curve = family.curve
    tau = curve.tau
    if twist.b0.is_infinity:
        raise UnsupportedError("descent base point must be affine")
    b0 = twist.b0.to_complex()
    d = family.surface.theta_degree
    if isinstance(samples, int):
        pts = sample_circle(samples, abs(tau), center=b0)
    else:
        pts = list(samples)
    worst = 0.0
    for x in pts:
        alphas = family.spectral_values_at(x)
        betas = family.fiber_factors_at(x)
        for alpha, beta in zip(alphas, betas):
            for j in range(-2, 2):
                c_j = beta * tau ** j * alpha
                c_next = beta * tau ** (j + 1) * alpha
                n_j = curve.lattice_distance(c_j)[0]
                n_next = curve.lattice_distance(c_next)[0]
                step = twist.coefficient(j + 1) - twist.coefficient(j)
                frame = (x - b0) ** (d - step)
                closure = (frame * tau ** (n_next - n_j - 1)
                           * (c_next * tau ** (-n_next))
                           / (c_j * tau ** (-n_j)))
                worst = max(worst, abs(closure - 1.0))
    return worst


def reference_sample_rows(cover, pts) -> list[str]:
    """The CSV lines of ``sample`` after its header."""
    curve = cover.curve
    lines = []
    for b in pts:
        for sheet, v in enumerate(cover.values_at(b)):
            alpha = curve.canonical_rep(v).value
            lines.append(f"{b.real!r},{b.imag!r},{sheet},{alpha.real!r},{alpha.imag!r}")
    return lines


# ============================================================
# Exact polynomials: schoolbook Q(i) loops on Fraction parts
# ============================================================

class FractionQI:
    """re + im*i with Fraction parts, every operation a Fraction operation
    on the parts: the library's former Q(i) number, kept here so that the
    references below share no arithmetic with its integer images."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0) -> None:
        self.re, self.im = Fraction(re), Fraction(im)

    @staticmethod
    def of(x) -> "FractionQI":
        """The parts of a library QI (or of another FractionQI)."""
        return FractionQI(x.re, x.im)

    def qi(self) -> QI:
        return QI(self.re, self.im)

    def __eq__(self, o: object) -> bool:
        return isinstance(o, FractionQI) and self.re == o.re and self.im == o.im

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_one(self) -> bool:
        return self.re == 1 and self.im == 0

    def __add__(self, o: "FractionQI") -> "FractionQI":
        return FractionQI(self.re + o.re, self.im + o.im)

    def __sub__(self, o: "FractionQI") -> "FractionQI":
        return FractionQI(self.re - o.re, self.im - o.im)

    def __neg__(self) -> "FractionQI":
        return FractionQI(-self.re, -self.im)

    def __mul__(self, o: "FractionQI") -> "FractionQI":
        return FractionQI(self.re * o.re - self.im * o.im,
                          self.re * o.im + self.im * o.re)

    def conj(self) -> "FractionQI":
        return FractionQI(self.re, -self.im)

    def inv(self) -> "FractionQI":
        n = self.re * self.re + self.im * self.im
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return FractionQI(self.re / n, -self.im / n)

    def __truediv__(self, o: "FractionQI") -> "FractionQI":
        return self * o.inv()

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self) -> str:
        if self.im == 0:
            return f"{self.re}"
        return f"({self.re}{'+' if self.im >= 0 else '-'}{abs(self.im)}i)"


def fraction_coeffs(p) -> list[FractionQI]:
    return [FractionQI.of(c) for c in p.coeffs]


def poly_of(cs) -> Poly:
    """The library polynomial with FractionQI coefficients ``cs``."""
    return Poly(tuple(c.qi() for c in cs))


def reference_mul(a, b):
    """Product coefficient by coefficient, every step a Q(i) operation."""
    if a.is_zero() or b.is_zero():
        return Poly()
    xs, ys = fraction_coeffs(a), fraction_coeffs(b)
    out = [FractionQI()] * (len(xs) + len(ys) - 1)
    for i, x in enumerate(xs):
        if x.is_zero():
            continue
        for j, y in enumerate(ys):
            out[i + j] = out[i + j] + x * y
    return poly_of(out)


def reference_divmod(a, b):
    """Long division, one Q(i) quotient coefficient per step."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    q = [FractionQI()] * max(0, a.degree - b.degree + 1)
    r, ys = fraction_coeffs(a), fraction_coeffs(b)
    inv_lead = ys[-1].inv()
    while len(r) - 1 >= b.degree and any(not c.is_zero() for c in r):
        while r and r[-1].is_zero():
            r.pop()
        if len(r) - 1 < b.degree:
            break
        k = len(r) - 1 - b.degree
        c = r[-1] * inv_lead
        q[k] = q[k] + c
        for j, y in enumerate(ys):
            r[k + j] = r[k + j] - c * y
    return poly_of(q), poly_of(r)


def reference_add(a, b):
    return poly_of(x + y for x, y in zip_longest(fraction_coeffs(a), fraction_coeffs(b),
                                                 fillvalue=FractionQI()))


def reference_sub(a, b):
    return poly_of(x - y for x, y in zip_longest(fraction_coeffs(a), fraction_coeffs(b),
                                                 fillvalue=FractionQI()))


def reference_neg(p):
    return poly_of(-c for c in fraction_coeffs(p))


def reference_scale(p, c):
    """p times c, a library QI or a FractionQI."""
    c = FractionQI.of(c)
    return poly_of(x * c for x in fraction_coeffs(p))


def reference_monic(p):
    if p.is_zero():
        return p
    lead = fraction_coeffs(p)[-1]
    return p if lead.is_one() else reference_scale(p, lead.inv())


def reference_eval(p, b):
    """p(b) by Horner, every step a Q(i) operation."""
    acc, x = FractionQI(), FractionQI.of(b)
    for c in reversed(fraction_coeffs(p)):
        acc = acc * x + c
    return acc.qi()


def reference_gcd(a, b):
    while not b.is_zero():
        a, b = b, reference_divmod(a, b)[1]
    return reference_monic(a)


def reference_xgcd(a, b):
    """(g, s, t) with s a + t b = g, g monic or zero, by the Euclid loop."""
    r0, r1 = a, b
    s0, s1 = Poly.of(1), Poly()
    t0, t1 = Poly(), Poly.of(1)
    while not r1.is_zero():
        q, r = reference_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, reference_sub(s0, reference_mul(q, s1))
        t0, t1 = t1, reference_sub(t0, reference_mul(q, t1))
    if r0.is_zero():
        return r0, s0, t0
    c = fraction_coeffs(r0)[-1].inv()
    return reference_scale(r0, c), reference_scale(s0, c), reference_scale(t0, c)


# ============================================================
# Exact linear algebra: Gauss-Jordan on Fraction parts
# ============================================================

def reference_qi_nullspace(rows, n_cols):
    """Basis of the right nullspace of the matrix given by `rows`: the
    former ``covers.qi_nullspace``, every step a Q(i) Fraction operation."""
    m = [[FractionQI.of(x) for x in r] for r in rows]
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        pivot = None
        for i in range(r, len(m)):
            if not m[i][c].is_zero():
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = m[r][c].inv()
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and not m[i][c].is_zero():
                factor = m[i][c]
                m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    free = [c for c in range(n_cols) if c not in pivots]
    basis: list[list[QI]] = []
    for fc in free:
        vec = [FractionQI()] * n_cols
        vec[fc] = FractionQI(1)
        for row_idx, pc in enumerate(pivots):
            vec[pc] = -m[row_idx][fc]
        basis.append([x.qi() for x in vec])
    return basis


# ============================================================
# Cantor's algorithm over sympy's Q(i)
# ============================================================

def to_sympy(p):
    """The library polynomial as a sympy Poly in x over QQ_I."""
    from sympy import QQ, QQ_I, Poly as SymPoly, symbols
    coeffs = [QQ_I(QQ(c.re.numerator, c.re.denominator),
                   QQ(c.im.numerator, c.im.denominator))
              for c in reversed(p.coeffs)]
    return SymPoly.from_list(coeffs or [QQ_I.zero], symbols("x"), domain=QQ_I)


def from_sympy(p):
    """The sympy polynomial as a tuple of (re, im) Fraction pairs, constant
    term first, in the library's coefficient order."""
    return tuple((Fraction(int(c.x.numerator), int(c.x.denominator)),
                  Fraction(int(c.y.numerator), int(c.y.denominator)))
                 for c in reversed(p.rep.to_list()))


def sympy_compose(f, u1, v1, u2, v2):
    """Semi-reduced Mumford sum (Cantor 1987, composition step) of two
    classes given as sympy polynomials; returns (u, v, deg d)."""
    d1, e1, e2 = _sympy_xgcd(u1, u2)
    d, c1, c2 = _sympy_xgcd(d1, v1 + v2)
    s1, s2, s3 = c1 * e1, c1 * e2, c2
    u = (u1 * u2).exquo(d * d)
    num = s1 * u1 * v2 + s2 * u2 * v1 + s3 * (v1 * v2 + f)
    v = num.exquo(d).rem(u)
    return u.monic(), v, d.degree()


def sympy_reduce(f, u, v, genus):
    """Cantor's reduction step repeated until deg u <= genus."""
    while u.degree() > genus:
        u = (f - v * v).exquo(u).monic()
        v = (-v).rem(u)
    return u, v


def _sympy_xgcd(a, b):
    """(g, s, t) with s a + t b = g monic; g = a when b is zero."""
    if b.is_zero:
        return a.monic(), a.monic().exquo(a), b
    s, t, g = a.gcdex(b)
    return g, s, t


# ============================================================
# Obstruction thetas: the per-term loops and 50-digit zeros
# ============================================================

def reference_theta_even(tau: complex, g: complex, m: int) -> complex:
    """Theta0 summed term by term, each coefficient a fresh power of tau."""
    total = 0j
    for n in range(-m, m + 1):
        total += tau ** (-(n * n + n)) * g ** (2 * n)
    return total


def reference_theta_odd(tau: complex, g: complex, m: int) -> complex:
    """Theta1 summed term by term, each coefficient a fresh power of tau."""
    total = 0j
    for n in range(-m, m + 1):
        total += tau ** (-n * n) * g ** (2 * n - 1)
    return total


def mp_obstruction(tau: complex, c: complex, p: complex, q: complex):
    """g -> p * Theta0(g) + q * c * Theta1(g) in mpmath at the working
    precision, with the series cut where |tau|**(-n^2) |g|**(2|n|) falls
    below 1e-60 on the annulus 1/|tau| <= |g| <= |tau|**2."""
    import mpmath as mp
    t, cc, pp, qq = (mp.mpc(z) for z in (tau, c, p, q))
    log_t = math.log(abs(tau))
    m = int(math.sqrt(60 * math.log(10) / log_t)) + 6
    even = [(n, t ** (-(n * n + n))) for n in range(-m, m + 1)]
    odd = [(n, t ** (-n * n)) for n in range(-m, m + 1)]

    def obs(g):
        return (pp * mp.fsum(a * g ** (2 * n) for n, a in even)
                + qq * cc * mp.fsum(b * g ** (2 * n - 1) for n, b in odd))
    return obs


def mp_theta_pair(tau: complex, c: complex, g0: complex) -> tuple[complex, complex]:
    """Extension data (p, q) = (Theta1(g0), -Theta0(g0) / c), scaled to unit
    max modulus, from the 50-digit series and rounded to complex: Obs then
    vanishes at g0 up to that rounding."""
    import mpmath as mp
    with mp.workdps(50):
        theta0 = mp_obstruction(tau, 1, 1, 0)(mp.mpc(g0))
        theta1 = mp_obstruction(tau, 1, 0, 1)(mp.mpc(g0))
        p, q = theta1, -theta0 / mp.mpc(c)
        scale = max(abs(p), abs(q))
        return complex(p / scale), complex(q / scale)


def mp_zero_near(tau: complex, c: complex, p: complex, q: complex,
                 start: complex) -> complex:
    """The zero of the 50-digit obstruction that mpmath's findroot reaches
    from start."""
    import mpmath as mp
    with mp.workdps(50):
        return complex(mp.findroot(mp_obstruction(tau, c, p, q), mp.mpc(start)))
