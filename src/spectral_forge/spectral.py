# spectral_forge/spectral.py
"""
Spectral covers of rank-2 families as explicit objects.

A cover is a finite formal sum of vertical fibres (base point, multiplicity)
plus a bisection of the torus bundle over the base.  Bisections come in two
parametric shapes:

- ``TwoSections``: two constant horizontal sections (disconnected cover),
- ``PellMap`` on a hyperelliptic double cover: A(b, w) = s (U + V w) / R
  with exact polynomial data satisfying U^2 - f V^2 = R^2, so that the
  product over the two sheets is the exact constant s^2.  The family is
  closed under inversion and the sheet involution, which is what makes the
  determinant bookkeeping exact.

Zeros and poles of a bisection map are punctures: evaluation there raises
instead of silently contributing vertical components.

The involution-invariance contract ties a cover to a degree-0 line bundle
``delta`` on the surface: the two values over a base point must multiply to
delta's fibre factor, up to the lattice.  ``build_regular_family`` inverts
``cover_from_family`` for invariant covers without verticals, producing a
family that is fibrewise regular, with nonsplit fibres exactly over branch
points; ``regular_chart`` exposes the local extension data (p, q) realising
those fibres.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

from .covers import BasePoint, HyperCover, Poly, QI
from .errors import PunctureError, VerificationError
from .fiber import extension_from_pair
from .surface import LineBundleOnX, SurfaceSpec
from .tate import TateCurve

__all__ = [
    "ChernData",
    "TwoSections",
    "PellMap",
    "PerturbedMap",
    "SpectralCover",
    "RegularChart",
    "RuledGraph",
    "check_invariance",
    "invariance_residual",
    "graph_in_ruled_surface",
    "regular_chart",
    "sample_circle",
]


# ============================================================
# Chern bookkeeping
# ============================================================

@dataclass(frozen=True)
class ChernData:
    """First Chern class as a fibre multiple (squares to zero) plus c2."""

    c1_fibre_multiple: int
    c2: int


# ============================================================
# Bisection shapes
# ============================================================

@dataclass(frozen=True)
class TwoSections:
    """Two constant horizontal sections; sheet involution swaps them."""

    a1: complex
    a2: complex

    def __post_init__(self) -> None:
        if self.a1 == 0 or self.a2 == 0:
            raise ValueError("section values must be nonzero")

    def evaluate(self, b: complex, sheet: int) -> complex:
        return self.a1 if sheet == 0 else self.a2

    def sheet_values(self, b: complex) -> tuple[complex, complex]:
        return (self.a1, self.a2)

    def norm_value(self) -> complex:
        return self.a1 * self.a2

    def inverse(self) -> "TwoSections":
        return TwoSections(1.0 / self.a1, 1.0 / self.a2)


@dataclass(frozen=True)
class PellMap:
    """Sheet-equivariant map A(b, w) = s (U(b) + V(b) w) / R(b) on a cover.

    The exact identity U^2 - f V^2 = R^2 forces A(b, w) A(b, -w) = s^2, so
    the map's norm is the constant s^2.  Closed under inversion (s -> 1/s,
    V -> -V) and under the sheet involution (V -> -V).
    """

    cover: HyperCover
    u_part: Poly
    v_part: Poly
    r_part: Poly
    scale: QI

    def __post_init__(self) -> None:
        if self.scale.is_zero():
            raise ValueError("scale must be nonzero")
        if self.r_part.is_zero():
            raise ValueError("denominator must be nonzero")
        lhs = self.u_part * self.u_part - self.cover.f * (self.v_part * self.v_part)
        rhs = self.r_part * self.r_part
        if not (lhs - rhs).is_zero():
            raise ValueError("Pell identity U^2 - f V^2 = R^2 violated")

    @staticmethod
    def from_pell_pair(cover: HyperCover, p: Poly, q: Poly, s: QI) -> "PellMap":
        """Build from a Pell-style pair: U = P^2 + f Q^2, V = 2 P Q."""
        u = p * p + cover.f * (q * q)
        v = p * q
        v = v + v
        r = p * p - cover.f * (q * q)
        return PellMap(cover, u, v, r, s)

    def norm_constant(self) -> QI:
        return self.scale * self.scale

    def norm_value(self) -> complex:
        return self.norm_constant().to_complex()

    def inverse(self) -> "PellMap":
        return self._inverse

    @cached_property
    def _inverse(self) -> "PellMap":
        return _flipped_pell_map(self, self.scale.inv())

    def sheet_flip(self) -> "PellMap":
        return _flipped_pell_map(self, self.scale)

    def evaluate(self, b: complex, sheet: int) -> complex:
        w = self.cover.sheets(b)[sheet]
        return self.evaluate_at(b, w)

    def evaluate_at(self, b: complex, w: complex) -> complex:
        return self._values_at(b, (w,))[0]

    def sheet_values(self, b: complex) -> tuple[complex, complex]:
        return self._values_at(b, self.cover.sheets(b))

    def punctures_near(self, b: complex, margin: float = 1e-6) -> bool:
        den, u, v = self._ruv_at(b)
        num = min(abs(u + v * w) for w in self.cover.sheets(b))
        return abs(den) < margin or num < margin

    @cached_property
    def _scale_complex(self) -> complex:
        return self.scale.to_complex()

    def _ruv_at(self, b: complex) -> tuple[complex, complex, complex]:
        return (self.r_part.eval_complex(b), self.u_part.eval_complex(b),
                self.v_part.eval_complex(b))

    def _values_at(self, b: complex, ws: tuple[complex, ...]) -> tuple[complex, ...]:
        """A at (b, w) for each w, from one evaluation of R, U and V.  The
        pole is checked before any zero, and zeros in the order of ``ws``.
        Since R^2 = (U + V w)(U - V w), every zero of U + V w is a zero of
        R, which is checked first: the "zero" branch is reached only through
        float rounding, or through the absolute threshold when |U + V w| is
        below it and |R| is not."""
        den, u, v = self._ruv_at(b)
        if abs(den) < 1e-300:
            raise PunctureError(f"pole of bisection map at b={b}")
        out = []
        for w in ws:
            num = u + v * w
            if abs(num) < 1e-300:
                raise PunctureError(f"zero of bisection map at b={b}")
            out.append(self._scale_complex * num / den)
        return tuple(out)


def _flipped_pell_map(m: PellMap, scale: QI) -> PellMap:
    """m with V -> -V and the given nonzero scale.  The Pell identity
    U^2 - f V^2 = R^2 is invariant under V -> -V, so the map is built
    without ``PellMap.__post_init__``."""
    out = object.__new__(PellMap)
    out.__dict__.update(cover=m.cover, u_part=m.u_part, v_part=-m.v_part,
                        r_part=m.r_part, scale=scale)
    return out


@dataclass(frozen=True)
class PerturbedMap:
    """A bisection map multiplied by (1 + eps) on one sheet.

    Breaks the norm constancy on purpose; used to verify that invariance
    checking actually detects non-invariant covers.
    """

    base: "TwoSections | PellMap"
    eps: complex

    def evaluate(self, b: complex, sheet: int) -> complex:
        v = self.base.evaluate(b, sheet)
        return v * (1.0 + self.eps) if sheet == 0 else v

    def sheet_values(self, b: complex) -> tuple[complex, complex]:
        v0, v1 = self.base.sheet_values(b)
        return (v0 * (1.0 + self.eps), v1)

    def norm_value(self) -> complex:
        return self.base.norm_value()


def bisection_torus_degree(bis: "TwoSections | PellMap | PerturbedMap") -> int:
    """Declared degree of the bisection over the torus direction.

    Constant sections have degree 0.  For a Pell map the generic fibre count
    of A over a torus value is read off the numerator degrees of A - a0:
    max(2 max(deg U, deg R), 2 deg V + 2g + 1).
    """
    if isinstance(bis, TwoSections):
        return 0
    if isinstance(bis, PerturbedMap):
        return bisection_torus_degree(bis.base)
    du = max(bis.u_part.degree, bis.r_part.degree)
    dv = bis.v_part.degree
    if dv < 0 and du <= 0:
        return 0
    odd = 2 * dv + bis.cover.f.degree if dv >= 0 else -1
    return max(2 * du, odd)


Bisection = TwoSections | PellMap | PerturbedMap


# ============================================================
# Spectral covers
# ============================================================

@dataclass(frozen=True)
class SpectralCover:
    """Vertical fibres with multiplicities plus a bisection over the base."""

    surface: SurfaceSpec
    verticals: tuple[tuple[BasePoint, int], ...]
    bisection: Bisection

    def __post_init__(self) -> None:
        for _, mult in self.verticals:
            if mult < 1:
                raise ValueError("vertical multiplicities must be >= 1")
        seen: list[BasePoint] = []
        for at, _ in self.verticals:
            if any(at == s for s in seen):
                raise ValueError("duplicate vertical component")
            seen.append(at)

    @property
    def curve(self) -> TateCurve:
        return self.surface.curve

    def vertical_total(self) -> int:
        return sum(m for _, m in self.verticals)

    def torus_degree(self) -> int:
        return bisection_torus_degree(self.bisection)

    def n_total(self) -> int:
        """Sum of vertical multiplicities plus the bisection torus degree."""
        return self.vertical_total() + self.torus_degree()

    def values_at(self, b: complex) -> tuple[complex, complex]:
        return self.bisection.sheet_values(b)


# ============================================================
# Invariance
# ============================================================

def _sample_list(samples: "int | list[complex]", curve: TateCurve) -> list[complex]:
    if isinstance(samples, int):
        return sample_circle(samples, abs(curve.tau))
    return list(samples)


def sample_circle(count: int, radius: float, center: complex = 0j,
                  phase: float = 0.0) -> list[complex]:
    """Evenly spaced points on a circle; a small default phase offset keeps
    them away from real-axis special points."""
    pts = []
    for k in range(count):
        th = phase + 2.0 * math.pi * (k + 0.318) / count
        pts.append(center + radius * cmath.exp(1j * th))
    return pts


def _sample_ladder(count: int, base_r: float, phase: float,
                   reject: Callable[[complex], bool]) -> list[complex]:
    """The first of 8 circles, radius and phase stepped together, on which
    ``reject`` flags no sample point."""
    for attempt in range(8):
        pts = sample_circle(count, base_r * (1.0 + 0.13 * attempt), 0j,
                            phase=phase + 0.05 * attempt)
        if not any(reject(b) for b in pts):
            return pts
    raise PunctureError(
        f"sampling: no clean sample circle among 8 rungs from radius "
        f"{base_r:.6g}, phase {phase:.6g}")


def invariance_residual(cover: SpectralCover, delta: LineBundleOnX,
                        samples: "int | list[complex]" = 32) -> float:
    """Max defect of A(c) * A(iota c) = delta_b over the samples.

    The defect at b is the distance of the product of the two sheet values
    from delta's fibre factor, measured after lattice reduction.
    """
    curve = cover.curve
    worst = 0.0
    for b in _sample_list(samples, curve):
        v0, v1 = cover.bisection.sheet_values(b)
        target = delta.restrict_to_fiber(b).factor
        worst = max(worst, curve.lattice_distance(v0 * v1 / target)[1])
    return worst


def check_invariance(cover: SpectralCover, delta: LineBundleOnX,
                     samples: "int | list[complex]" = 32) -> bool:
    """True iff the sheet product matches delta's factor at every sample,
    within the cover curve's tolerance (a scenario's ``run.tol``)."""
    return invariance_residual(cover, delta, samples) <= cover.curve.tolerance


# ============================================================
# The graph in the ruled quotient
# ============================================================

@dataclass(frozen=True)
class RuledGraph:
    """Image of a cover in the quotient by the fibrewise involution."""

    ruling_fibres: tuple[tuple[BasePoint, int], ...]
    section_points: tuple[tuple[complex, tuple[complex, complex]], ...]
    fixed_meets: tuple[complex, ...]


def graph_in_ruled_surface(cover: SpectralCover, delta: LineBundleOnX,
                           samples: "int | list[complex]" = 32) -> RuledGraph:
    """Descend the cover to the ruled quotient: verticals become ruling
    fibres, the bisection a single-valued section in orbit coordinates.
    Raises VerificationError unless ``check_invariance`` holds, so the
    cover curve's tolerance decides."""
    if not check_invariance(cover, delta, samples):
        raise VerificationError("cover is not invariant for this delta")
    curve = cover.curve
    section = []
    fixed = []
    for b in _sample_list(samples, curve):
        v0, v1 = cover.bisection.sheet_values(b)
        p0, p1 = curve.point(v0), curve.point(v1)
        pair = sorted([p0, p1],
                      key=lambda p: (abs(p.value), p.value.real, p.value.imag))
        section.append((b, (pair[0].value, pair[1].value)))
        if p0 == p1:
            fixed.append(b)
    return RuledGraph(tuple(cover.verticals), tuple(section), tuple(fixed))


# ============================================================
# Regular charts (extension data over a base point)
# ============================================================

@dataclass(frozen=True)
class RegularChart:
    """Local extension data over one base point.

    The fibre of a determinant-delta regular family over b, twisted to
    trivial determinant by 1/scale, is the extension of the degree +1 line
    bundle by the degree -1 line bundle with coordinates (p, q).
    """

    p: complex
    q: complex
    scale: complex
    normalised_zero: complex


def regular_chart(curve: TateCurve, a1: complex, a2: complex) -> RegularChart:
    """Extension data for the regular fibre with spectral values {a1, a2}.

    The scale splits the determinant: g = a1 / scale with scale^2 = a1 a2
    gives the trivial-determinant obstruction zero; (p, q) are recovered
    from the obstruction thetas.  Over a branch point a1 = a2 and g is
    2-torsion: the chart realises the nonsplit self-extension.
    """
    scale = cmath.sqrt(a1 * a2)
    g = a1 / scale
    p, q = extension_from_pair(curve, 1.0 + 0j, g)
    return RegularChart(p, q, scale, g)
