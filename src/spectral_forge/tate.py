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

import math
from dataclasses import dataclass, field
from functools import cached_property

from . import _carray
from ._carray import np
from .errors import UnsupportedError

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
        try:
            k = -math.floor(math.log(abs(z)) / math.log(abs(self.tau)) + 1e-12)
            v = z * self.tau ** k
        except ArithmeticError:
            raise UnsupportedError(f"representative of {z} past the float range") from None
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
        exponent; ties keep k0, then k0 - 1, and a NaN defect (CPython's
        ``tau ** k`` can be NaN) loses to any other.  Raises ValueError at 0,
        and UnsupportedError where |x| or a power of tau searched overflows
        or no defect is finite.
        """
        x = complex(x)
        if x == 0:
            raise ValueError("0 has no lattice distance")
        log_tau, gap = self._log_tau_and_gap
        try:
            k0 = round(math.log(abs(x)) / log_tau)
            best_k, best_d = k0, abs(x / self.tau ** k0 - 1.0)
            if best_d < gap:
                return best_k, best_d
            for k in (k0 - 1, k0 + 1):
                d = abs(x / self.tau ** k - 1.0)
                if d < best_d or math.isnan(best_d):
                    best_k, best_d = k, d
            if math.isfinite(best_d):
                return best_k, best_d
        except ArithmeticError:
            pass
        raise UnsupportedError(f"lattice distance of {x} past the float range")

    def _tau_powers(self, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """tau ** k at each element of an integral float array, each distinct
        power computed once by the scalar ``tau ** k``; the mask marks powers
        that raise, vanish or are not finite."""
        lo, hi = (int(k.min()), int(k.max())) if k.size else (0, -1)
        if hi - lo < 4096:
            distinct, index = range(lo, hi + 1), (k - lo).astype(np.intp)
        else:
            distinct, index = np.unique(k, return_inverse=True)
        powers = []
        for kk in distinct:
            try:
                powers.append(self.tau ** int(kk))
            except ArithmeticError:
                powers.append(0j)
        pw = np.array(powers, dtype=complex)
        return pw[index], (~np.isfinite(pw) | (pw == 0))[index]

    def _exponents(self, x: np.ndarray, edge: float) -> tuple[np.ndarray, np.ndarray]:
        """q = log|x| / log|tau|, math.log's where floor(q + edge) could differ, else
        numpy's, and the mask where that log fails (x or |x| zero or not finite): q = 0."""
        r = _carray.absolute(x)
        odd = ~np.isfinite(x) | (r == 0) | ~np.isfinite(r)
        r, log_tau = np.where(odd, 1.0, r), self._log_tau_and_gap[0]
        q = _carray.log(r) / log_tau
        # numpy's log is within an ulp of math.log (3e6 doubles, numpy 2.4), so
        # the floors can differ only within 1e-9 (1 + |q|) of an integer, some
        # 10^6 ulps of q; past |q| = 5e8 (|tau| near 1 + 1e-6) all are rechecked.
        s = q + edge
        near = np.flatnonzero(~odd & (np.abs(s - np.rint(s)) < 1e-9 * (1.0 + np.abs(q))))
        if near.size:
            q[near] = _carray.each(math.log, r[near]) / log_tau
        return q, odd

    def _canonical_array(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``canonical_rep(z).value`` at each element, bit for bit, and the
        odd mask: elements where ``canonical_rep`` raises, or where a power
        of tau is not a finite nonzero float (their values are not used)."""
        q, odd = self._exponents(z, 1e-12)
        k = -np.floor(q + 1e-12)
        pw, bad = self._tau_powers(k)
        odd |= bad
        v = _carray.mul(z, pw)
        r = _carray.absolute(v)
        for i in np.flatnonzero(~odd & ((r < 1.0) | (r >= abs(self.tau)))).tolist():
            vi = complex(v[i])
            if abs(vi) < 1.0:
                vi *= self.tau
            else:
                vi /= self.tau
            v[i] = vi
        return v, odd

    def _lattice_distance_array(
            self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``lattice_distance(x)`` at each element, bit for bit, as arrays
        of k (floats) and defects, with the odd mask: elements where
        ``lattice_distance`` raises, or a power of tau is not a finite
        nonzero float.  round(q) changes at half-integers: edge 0.5."""
        q, odd = self._exponents(x, 0.5)
        k = np.rint(q)
        pw, bad = self._tau_powers(k)
        odd |= bad
        d = self._defects(x, pw)
        far = np.flatnonzero(~(d < self._log_tau_and_gap[1]) & ~odd)
        if far.size:
            xs, k0 = x[far], k[far]
            best_k, best_d = k0, d[far]
            for step in (-1.0, 1.0):
                pw, bad = self._tau_powers(k0 + step)
                odd[far[bad]] = True
                dk = self._defects(xs, pw)
                better = dk < best_d
                best_k = np.where(better, k0 + step, best_k)
                best_d = np.where(better, dk, best_d)
            k[far], d[far] = best_k, best_d
        return k, d, odd

    @staticmethod
    def _defects(x: np.ndarray, powers: np.ndarray) -> np.ndarray:
        """abs(x / power - 1.0) at each element."""
        q = _carray.quot(x, powers)
        return _carray.absolute(_carray.pack(q.real - 1.0, q.imag))

    def _same_point_array(self, x: np.ndarray,
                          y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``same_point(x, y)`` at each element, and the odd mask (where
        ``same_point`` raises or the lattice arrays cannot follow it)."""
        _, d, odd = self._lattice_distance_array(_carray.quot(x, y))
        return d <= self.tolerance, odd | (x == 0) | (y == 0)

    def _same_pair_array(self, a0: np.ndarray, a1: np.ndarray, b0: np.ndarray,
                         b1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``same_pair((a0, a1), (b0, b1))`` at each element, with the odd
        mask of the comparisons made: the crossed ones only where the pairs
        do not match in order."""
        m00, o00 = self._same_point_array(a0, b0)
        m11, o11 = self._same_point_array(a1, b1)
        match, odd = m00 & m11, o00 | o11
        rest = np.flatnonzero(~match)
        if rest.size:
            m01, o01 = self._same_point_array(a0[rest], b1[rest])
            m10, o10 = self._same_point_array(a1[rest], b0[rest])
            match[rest] = m01 & m10
            odd[rest] |= o01 | o10
        return match, odd

    def lattice_log(self, x: complex) -> int | None:
        """Integer k with x = tau**k (within relative tolerance), or None;
        None also at 0 and where x or its nearest power is past the float range."""
        try:
            k, defect = self.lattice_distance(x)
        except (ValueError, UnsupportedError):
            return None
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

    @cached_property
    def _bands(self) -> tuple[np.ndarray, list[np.ndarray]]:
        """The band numbers k = -n..n and, per seed j, its coefficients at
        the indices j + k d: the only nonzero entries of vector j."""
        d = self.bundle.degree
        lo = int(self.indices[0])
        return (np.arange(lo // d, -lo // d + 1),
                [v[j::d] for j, v in enumerate(self.vectors)])

    def evaluate(self, j: int, z: complex) -> complex:
        """Evaluate basis section j at z in C*: z**j sum_k a_(j + k d) (z**d)**k
        over the seed's own residue class."""
        z = complex(z)
        bands, coeffs = self._bands
        return z ** j * complex(np.dot(coeffs[j], np.power(z ** self.bundle.degree, bands)))

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
    a = max(abs(alpha), 1.0 / abs(alpha))
    try:
        if a == math.inf:  # 1/|alpha| overflows: inf * 0.0 would read NaN
            raise OverflowError
        tail = a ** m * abs(tau) ** (-0.5 * m * (m - 1))
    except OverflowError:  # a or a^m is past the float range: decide in logarithms
        log_a = math.log(a) if a < math.inf else abs(math.log(abs(alpha)))
        log_tail = m * log_a - 0.5 * m * (m - 1) * math.log(abs(tau))
        tail = math.exp(log_tail) if log_tail < 709.0 else math.inf
    if not tail < lb.curve.tolerance:  # a NaN bound is refused too
        raise ValueError(
            f"truncation tail bound {tail:.3g} exceeds tolerance "
            f"{lb.curve.tolerance:.3g}; increase n_terms")
    lo, hi = -n_bands * d, n_bands * d + d - 1
    indices = np.arange(lo, hi + 1)
    # tau**(-d k) for k = 1..n_bands: the recurrence's steps up are
    # alpha tau**(-j) times these, its steps down tau**j / alpha times 1 and
    # all but the last
    steps = np.cumprod(np.full(n_bands, tau ** -d))
    below = np.concatenate(([1.0], steps[:-1]))
    vectors: list[np.ndarray] = []
    with np.errstate(over="ignore", invalid="ignore"):
        for seed in range(d):
            up = np.cumprod(alpha * tau ** -seed * steps)
            down = np.cumprod(tau ** seed / alpha * below)
            coeffs = np.zeros(len(indices), dtype=complex)
            coeffs[seed::d] = np.concatenate((down[::-1], [1.0], up))
            vectors.append(coeffs)
    for coeffs in vectors:      # a coefficient past the float range reads 0
        coeffs[~np.isfinite(coeffs)] = 0.0
    return ThetaBasis(lb, indices, vectors)
