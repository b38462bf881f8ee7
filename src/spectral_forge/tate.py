# spectral_forge/tate.py
"""
Multiplicative elliptic curves T = C*/<tau> (|tau| > 1) and their line bundles.

Conventions
-----------
- Points of T are represented by their canonical lift into the fundamental
  annulus 1 <= |v| < |tau|.  Two complex numbers represent the same point iff
  their ratio is an exact integer power of tau (numerically: within the
  curve's relative tolerance, set by the scenario's ``run.tol``).
- A line bundle of degree d with constant factor alpha is the bundle whose
  sections are holomorphic s on C* with

      s(tau * z) = alpha * z**d * s(z).

  Degree-0 bundles are classified by alpha in C*/tau**Z = T itself; the bundle
  is trivial iff alpha is a power of tau.
- Cohomology (closed form used throughout; the test suite re-derives it from a
  truncated Laurent recursion):
      d > 0  -> (d, 0)
      d < 0  -> (0, -d)
      d = 0  -> (1, 1) if trivial else (0, 0)
  and h0 - h1 = d always.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "TateCurve",
    "TatePoint",
    "TateLineBundle",
    "ThetaBasis",
    "theta_sections",
]

_MIN_TAU_GAP = 1e-6


# ============================================================
# Curve
# ============================================================

@dataclass(frozen=True)
class TateCurve:
    """The curve C*/<tau>.  |tau| must exceed 1 + 1e-6."""

    tau: complex
    tolerance: float = 1e-9

    def __post_init__(self) -> None:
        t = complex(self.tau)
        if abs(t) < 1.0 + _MIN_TAU_GAP:
            raise ValueError(f"|tau| must be > 1 + {_MIN_TAU_GAP}; got |{t}| = {abs(t)}")
        if not (0.0 < self.tolerance < 1.0):
            raise ValueError(f"tolerance must be in (0, 1); got {self.tolerance}")
        object.__setattr__(self, "tau", t)

    # ----- canonical representatives -------------------------------------

    def canonical_rep(self, z: complex) -> "TatePoint":
        """Canonical representative of z in the annulus 1 <= |v| < |tau|.

        The returned value is z * tau**k for an exact integer k, so the point
        is tau**Z-equal to z by construction.
        """
        z = complex(z)
        if z == 0 or not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise ValueError(f"point representative must lie in C*; got {z}")
        log_mod = math.log(abs(z)) / math.log(abs(self.tau))
        k = -math.floor(log_mod + 1e-12)
        v = z * self.tau ** k
        # float drift can leave |v| a hair outside the annulus
        if abs(v) < 1.0:
            v *= self.tau
        elif abs(v) >= abs(self.tau):
            v /= self.tau
        return TatePoint(self, v)

    def point(self, z: complex) -> "TatePoint":
        return self.canonical_rep(z)

    @cached_property
    def _log_tau_and_gap(self) -> tuple[float, float]:
        """log|tau|, and the defect (|tau| - 1)/(|tau| + 1) below which no
        neighbouring power of tau can be closer."""
        r = abs(self.tau)
        return math.log(r), (r - 1.0) / (r + 1.0)

    def lattice_distance(self, x: complex) -> tuple[int, float]:
        """The power k of tau nearest to x and its defect |x / tau**k - 1|.

        k is searched among k0 - 1, k0, k0 + 1 with k0 the log-rounded
        exponent; ties keep k0, then k0 - 1.  Raises ValueError at 0.
        """
        x = complex(x)
        if x == 0:
            raise ValueError("0 has no lattice distance")
        log_tau, gap = self._log_tau_and_gap
        k0 = round(math.log(abs(x)) / log_tau)
        best_k, best_d = k0, abs(x / self.tau ** k0 - 1.0)
        if best_d < gap:
            return best_k, best_d
        for k in (k0 - 1, k0 + 1):
            d = abs(x / self.tau ** k - 1.0)
            if d < best_d:
                best_k, best_d = k, d
        return best_k, best_d

    def lattice_log(self, x: complex) -> int | None:
        """Integer k with x = tau**k (within relative tolerance), or None."""
        if x == 0:
            return None
        k, defect = self.lattice_distance(x)
        return k if defect <= self.tolerance else None

    def in_lattice(self, x: complex) -> bool:
        return self.lattice_log(x) is not None

    def same_point(self, x: complex, y: complex) -> bool:
        """True iff x and y represent the same point of T."""
        if x == 0 or y == 0:
            raise ValueError("points of T are nonzero")
        return self.in_lattice(complex(x) / complex(y))

    def same_pair(self, a: tuple[complex, complex],
                  b: tuple[complex, complex]) -> bool:
        """True iff the unordered pairs {a[0], a[1]} and {b[0], b[1]} are
        the same two points of T: matched in order, else crossed."""
        return ((self.same_point(a[0], b[0]) and self.same_point(a[1], b[1]))
                or (self.same_point(a[0], b[1])
                    and self.same_point(a[1], b[0])))

    def square_roots(self, p: "TatePoint") -> tuple["TatePoint", ...]:
        """The four points q with q*q = p on T (2-torsion translates)."""
        r = cmath.sqrt(p.value)
        rt = cmath.sqrt(p.value * self.tau)
        return (
            self.canonical_rep(r),
            self.canonical_rep(-r),
            self.canonical_rep(rt),
            self.canonical_rep(-rt),
        )

    def close(self, other: "TateCurve") -> bool:
        return abs(self.tau - other.tau) <= self.tolerance * abs(self.tau)


# ============================================================
# Points
# ============================================================

@dataclass(frozen=True, eq=False)
class TatePoint:
    """A point of T, stored as its canonical annulus representative."""

    curve: TateCurve
    value: complex

    def equivalent(self, other: "TatePoint | complex") -> bool:
        v = other.value if isinstance(other, TatePoint) else complex(other)
        return self.curve.same_point(self.value, v)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (TatePoint, complex, float, int)):
            return self.equivalent(other)  # type: ignore[arg-type]
        return NotImplemented

    __hash__ = None  # tolerance-based equality is not hashable

    def __mul__(self, other: "TatePoint | complex") -> "TatePoint":
        v = other.value if isinstance(other, TatePoint) else complex(other)
        return self.curve.canonical_rep(self.value * v)

    def inverse(self) -> "TatePoint":
        return self.curve.canonical_rep(1.0 / self.value)

    def is_two_torsion(self) -> bool:
        return self.curve.in_lattice(self.value * self.value)

    def __repr__(self) -> str:
        return f"TatePoint({self.value:.12g})"


# ============================================================
# Line bundles
# ============================================================

@dataclass(frozen=True, eq=False)
class TateLineBundle:
    """Line bundle with factor of automorphy alpha * z**degree."""

    curve: TateCurve
    degree: int
    factor: complex

    def __post_init__(self) -> None:
        if complex(self.factor) == 0:
            raise ValueError("automorphy factor must be nonzero")
        object.__setattr__(self, "degree", int(self.degree))
        object.__setattr__(self, "factor", complex(self.factor))

    # ----- algebra --------------------------------------------------------

    def tensor(self, other: "TateLineBundle") -> "TateLineBundle":
        if not self.curve.close(other.curve):
            raise ValueError("line bundles live on different curves")
        return TateLineBundle(self.curve, self.degree + other.degree,
                              self.factor * other.factor)

    def dual(self) -> "TateLineBundle":
        return TateLineBundle(self.curve, -self.degree, 1.0 / self.factor)

    def __mul__(self, other: "TateLineBundle") -> "TateLineBundle":
        return self.tensor(other)

    def is_trivial(self) -> bool:
        """True iff degree 0 and the factor is a power of tau."""
        return self.degree == 0 and self.curve.in_lattice(self.factor)

    def isomorphic(self, other: "TateLineBundle") -> bool:
        """Same degree and factors equal modulo tau**Z."""
        return (self.degree == other.degree
                and self.curve.same_point(self.factor, other.factor))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TateLineBundle):
            return self.isomorphic(other)
        return NotImplemented

    __hash__ = None

    def point(self) -> TatePoint:
        """Canonical point of Pic^0 for a degree-0 bundle."""
        if self.degree != 0:
            raise ValueError("only degree-0 bundles define a point of Pic^0")
        return self.curve.canonical_rep(self.factor)

    # ----- cohomology -----------------------------------------------------

    def cohomology(self) -> tuple[int, int]:
        """(h0, h1); satisfies h0 - h1 = degree."""
        d = self.degree
        if d > 0:
            return (d, 0)
        if d < 0:
            return (0, -d)
        if self.is_trivial():
            return (1, 1)
        return (0, 0)

    def h0(self) -> int:
        return self.cohomology()[0]

    def h1(self) -> int:
        return self.cohomology()[1]

    def __repr__(self) -> str:
        return f"TateLineBundle(d={self.degree}, factor={self.factor:.12g})"


# ============================================================
# Theta bases (explicit sections of positive-degree bundles)
# ============================================================

@dataclass
class ThetaBasis:
    """Truncated Laurent basis of H^0 for a degree-d bundle, d >= 1.

    Coefficient vectors share the index window `indices`; vector j is the
    solution seeded at Laurent index j (one per residue class mod d).
    """

    bundle: TateLineBundle
    indices: np.ndarray
    vectors: list[np.ndarray] = field(default_factory=list)

    def evaluate(self, j: int, z: complex) -> complex:
        """Evaluate basis section j at z in C*."""
        powers = np.power(complex(z), self.indices.astype(float))
        return complex(np.dot(self.vectors[j], powers))

    def residual(self, j: int, z: complex) -> float:
        """|s(tau z) - alpha z^d s(z)| / scale at z: functional-equation defect."""
        c, lb = self.bundle.curve, self.bundle
        lhs = self.evaluate(j, c.tau * z)
        rhs = lb.factor * complex(z) ** lb.degree * self.evaluate(j, z)
        scale = max(abs(lhs), abs(rhs), 1.0)
        return abs(lhs - rhs) / scale


def theta_sections(lb: TateLineBundle, n_terms: int = 64) -> ThetaBasis:
    """Explicit H^0 basis for a degree-d bundle, d >= 1, as truncated Laurent data.

    Coefficients follow a_n = alpha * tau**(-n) * a_(n-d) from seed a_j = 1,
    j = 0..d-1.  Raises if the truncation tail bound is not below the curve
    tolerance (never silently truncates).
    """
    d, alpha, tau = lb.degree, lb.factor, lb.curve.tau
    if d < 1:
        raise ValueError(f"theta basis requires degree >= 1; got {d}")
    if n_terms < 2 * d:
        raise ValueError("n_terms too small for one band per seed")
    n_bands = n_terms // d
    # magnitude of the first omitted band: |alpha|^m * |tau|^(-m(m-1)/2), m = n_bands + 1
    m = n_bands + 1
    tail = (max(abs(alpha), 1.0 / abs(alpha)) ** m) * abs(tau) ** (-0.5 * m * (m - 1))
    if tail >= lb.curve.tolerance:
        raise ValueError(
            f"truncation tail bound {tail:.3g} exceeds tolerance "
            f"{lb.curve.tolerance:.3g}; increase n_terms")
    lo, hi = -n_bands * d, n_bands * d + d - 1
    indices = np.arange(lo, hi + 1)
    vectors: list[np.ndarray] = []
    for seed in range(d):
        coeffs = np.zeros(len(indices), dtype=complex)
        for k in range(-n_bands, n_bands + 1):
            n = seed + k * d
            if n < lo or n > hi:
                continue
            expo = k * seed + d * k * (k + 1) // 2
            try:
                value = alpha ** k * tau ** (-expo)
            except OverflowError:
                value = 0.0
            coeffs[n - lo] = value
        vectors.append(coeffs)
    return ThetaBasis(lb, indices, vectors)
