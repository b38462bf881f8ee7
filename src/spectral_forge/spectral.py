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
instead of silently contributing vertical components.  A report's samples
travel in one ``_Frame``, which builds each per-sample array once per owner.

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
from functools import cached_property, partial, wraps
from typing import Callable, Iterable

from . import _carray
from ._carray import np
from .covers import BASE_POINT_RADIUS, BasePoint, HyperCover, Poly, QI
from .errors import PunctureError, UnsupportedError
from .fiber import extension_from_pair
from .surface import LineBundleOnX, SurfaceSpec
from .tate import TateCurve

__all__ = [
    "ChernData",
    "TwoSections",
    "PellMap",
    "SpectralCover",
    "RegularChart",
    "bisection_torus_degree",
    "invariance_residual",
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

    def sheet_values(self, b: complex) -> tuple[complex, complex]:
        return (self.a1, self.a2)

    def _values_array(self, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (np.full(b.shape, complex(self.a1)), np.full(b.shape, complex(self.a2)),
                np.zeros(b.shape, dtype=bool))

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

    def sheet_values(self, b: complex) -> tuple[complex, complex]:
        """A on both sheets over b from one evaluation of R, U and V; the pole
        is checked first, then the zeros sheet by sheet.  Every zero of
        U + V w is one of R, since R^2 = (U + V w)(U - V w): the "zero"
        branch is reached only through float rounding, or through the
        absolute threshold when |U + V w| is below it and |R| is not.  It
        raises at exactly the samples that ``_values_array`` marks odd."""
        ws = self.cover.sheets(b)
        den = self.r_part.eval_complex(b)
        u, v = self.u_part.eval_complex(b), self.v_part.eval_complex(b)
        if abs(den) < 1e-300:
            raise PunctureError(f"pole of bisection map at b={b}")
        out = []
        for w in ws:
            num = u + v * w
            if abs(num) < 1e-300:
                raise PunctureError(f"zero of bisection map at b={b}")
            value = self._scale_complex * num / den
            if not cmath.isfinite(value):
                raise UnsupportedError(f"sheet value of bisection map overflows at b={b}")
            out.append(value)
        return tuple(out)

    def punctures_near(self, b: complex, margin: float = 1e-6) -> bool:
        """True where |R(b)| or the smaller |U(b) +- V(b) w| is below
        ``margin`` (near a pole or a zero of the map), from one evaluation
        each of R, U, V and f.  The sample ladder calls it, in sample order,
        at the samples its array tests (special and branch points) pass."""
        u = self.u_part.eval_complex(b)
        vw = self.v_part.eval_complex(b) * self.cover.sheets(b)[0]
        num = min(abs(u + vw), abs(u - vw))
        return abs(self.r_part.eval_complex(b)) < margin or num < margin

    @cached_property
    def _scale_complex(self) -> complex:
        return self.scale.to_complex()

    def _values_array(self, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``sheet_values`` at each sample, bit for bit, with the mask of odd
        samples: those where ``sheet_values`` raises (a pole, a zero, a
        value that is not finite).  Their values are not used; the scalar
        method decides them."""
        w = self.cover._sheets_array(b)
        den, u, v = (self.r_part._eval_array(b), self.u_part._eval_array(b),
                     self.v_part._eval_array(b))
        odd = ~np.isfinite(w) | ~(_carray.absolute(den) >= 1e-300)
        out = []
        for ws in (w, -w):
            num = u + _carray.mul(v, ws)
            odd |= ~(_carray.absolute(num) >= 1e-300)
            value = _carray.quot(_carray.mul(self._scale_complex, num), den)
            odd |= ~np.isfinite(value)
            out.append(value)
        return out[0], out[1], odd


def _flipped_pell_map(m: PellMap, scale: QI) -> PellMap:
    """m with V -> -V and the given nonzero scale.  The Pell identity
    U^2 - f V^2 = R^2 is invariant under V -> -V, so the map is built
    without ``PellMap.__post_init__``."""
    out = object.__new__(PellMap)
    out.__dict__.update(cover=m.cover, u_part=m.u_part, v_part=-m.v_part,
                        r_part=m.r_part, scale=scale)
    return out


def bisection_torus_degree(bis: "TwoSections | PellMap") -> int:
    """Declared degree of the bisection over the torus direction.

    Constant sections have degree 0.  For a Pell map the generic fibre count
    of A over a torus value is read off the numerator degrees of A - a0:
    max(2 max(deg U, deg R), 2 deg V + 2g + 1), the second only for V != 0.
    """
    if isinstance(bis, TwoSections):
        return 0
    du = max(bis.u_part.degree, bis.r_part.degree)
    dv = bis.v_part.degree
    odd = 2 * dv + bis.cover.f.degree if dv >= 0 else -1
    return max(2 * du, odd)


Bisection = TwoSections | PellMap


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

def sample_circle(count: int, radius: float, center: complex = 0j,
                  phase: float = 0.0) -> list[complex]:
    """Evenly spaced points on a circle; a small default phase offset keeps
    them away from real-axis special points.  The points are
    ``center + radius * cmath.exp(1j * th)``, bit for bit, with
    th = phase + 2 pi (k + 0.318) / count; on finite input that exponential
    is (cos th, sin th)."""
    th = phase + 2.0 * math.pi * (np.arange(count, dtype=float) + 0.318) / count
    unit = _carray.pack(_carray.each(math.cos, th), _carray.each(math.sin, th))
    return (center + _carray.mul(radius, unit)).tolist()


def _sample_ladder(count: int, surface: SurfaceSpec, specials: Iterable[BasePoint],
                   bisection: Bisection, phase: float) -> list[complex]:
    """The first of 8 circles about |tau|, radius and phase stepped together,
    none of whose samples lies within 1e-3 of a finite multiple fibre or
    point of ``specials``, on the branch locus (|f| < 1e-6) of a Pell
    bisection, or near its punctures.  A rung makes the first two tests in
    arrays, then walks its samples in order up to the first one they flag or
    ``PellMap.punctures_near`` rejects, so the scalar map test sees the
    samples a scalar loop making all three tests in turn would."""
    near = [p.to_complex() for p in (*(mf.at for mf in surface.multiple_fibres), *specials)
            if not p.is_infinity]
    pell = bisection if isinstance(bisection, PellMap) else None
    base_r = abs(surface.curve.tau)
    for attempt in range(8):
        pts = sample_circle(count, base_r * (1.0 + 0.13 * attempt), 0j,
                            phase=phase + 0.05 * attempt)
        b = np.array(pts, dtype=complex)
        hit = _carray.nearest(b, near) < 1e-3
        if pell is not None:
            hit |= _carray.absolute(pell.cover.f._eval_array(b)) < 1e-6
        if not (hit.any() if pell is None
                else any(h or pell.punctures_near(x) for h, x in zip(hit.tolist(), pts))):
            return pts
    raise PunctureError(
        f"sampling: no clean sample circle among 8 rungs from radius "
        f"{base_r:.6g}, phase {phase:.6g}")


def _cover_points(cover: SpectralCover, count: int, phase: float = 0.0) -> list[complex]:
    """A declared cover's sample ladder, clear of its vertical fibres; a
    map's inverse has its punctures, so a cover samples like a family."""
    return _sample_ladder(count, cover.surface, (at for at, _ in cover.verticals),
                          cover.bisection, phase)


def _per_owner(build: Callable) -> Callable:
    """A ``_Frame`` method that builds its arrays once per identity of its
    arguments, the owners, which the frame then holds."""
    @wraps(build)
    def read(frame: "_Frame", *owners):
        key = (build.__name__, *map(id, owners))
        if key not in frame._built:
            frame._built[key] = (build(frame, *owners), owners)
        return frame._built[key][0]
    return read


class _Frame:
    """One report's sample points, ``pts`` and the array ``b``, and the
    per-sample arrays its checks read, each built once per owner (a map, a
    curve, a family) with the odd mask of the samples it leaves to the
    scalar single-point methods.  A report passes its frame where a function
    takes ``samples``.  Arrays are keyed by their owners' ids, and the frame
    holds the owners, so no id is reused while it lives."""

    def __init__(self, pts: list[complex]) -> None:
        self.pts = pts
        self.b = np.array(pts, dtype=complex)
        self._built: dict[tuple, tuple] = {}

    @classmethod
    def of(cls, samples: "int | list[complex] | _Frame",
           ladder: Callable[[int], list[complex]]) -> "_Frame":
        """``samples`` if it is a frame, else the frame at its points, or at
        ``ladder(samples)`` for a count."""
        if isinstance(samples, _Frame):
            return samples
        return cls(ladder(samples) if isinstance(samples, int) else list(samples))

    @_per_owner
    def values(self, bis: "Bisection") -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The values of ``bis.sheet_values``."""
        return bis._values_array(self.b)

    @_per_owner
    def reps(self, bis: "Bisection", curve: TateCurve
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``curve.canonical_rep(v).value`` of both values of ``bis``."""
        g0, g1, odd = self.values(bis)
        c0, odd0 = curve._canonical_array(g0)
        c1, odd1 = curve._canonical_array(g1)
        return c0, c1, odd | odd0 | odd1

    @_per_owner
    def fibre(self, family) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``family.fiber_class_at``: the factors of the two graded pieces,
        the mask of ``AtiyahRegular`` classes (whose line has the first
        factor), and an odd mask with the journal points and where
        ``fiber_class_at`` raises."""
        fmap, b, curve = family.data.factor_map, self.b, family.curve
        f0, f1, odd = self.values(fmap)
        if isinstance(fmap, TwoSections):  # a split family
            atiyah, odd2 = np.zeros(b.shape, dtype=bool), family.surface._multiple_mask(b)
        else:
            c0, c1, odd = self.reps(fmap, curve)
            atiyah, odd2 = curve._same_point_array(c0, c1)
        journal = [p.to_complex() for p in family.jump_points() if not p.is_infinity]
        return f0, f1, atiyah, odd | odd2 | (_carray.nearest(b, journal) <= BASE_POINT_RADIUS)

    @_per_owner
    def spectral(self, family) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The values of ``spectral_points(family.fiber_class_at(b))``."""
        f0, f1, atiyah, odd = self.fibre(family)
        s0, odd0 = family.curve._canonical_array(_carray.quot(1.0, f0))
        s1, odd1 = family.curve._canonical_array(_carray.quot(1.0, f1))
        return s0, np.where(atiyah, s0, s1), odd | odd0 | odd1


def invariance_residual(cover: SpectralCover, delta: LineBundleOnX,
                        samples: "int | list[complex] | _Frame") -> float:
    """Max defect of A(c) * A(iota c) = delta_b over the samples: a count
    (the cover's ladder, ``_cover_points``), points, or a report's frame.

    The defect at b is the distance of the product of the two sheet values
    from delta's fibre factor, measured after lattice reduction.
    """
    frame = _Frame.of(samples, partial(_cover_points, cover))
    bis = cover.bisection
    return _max_fibre_defect(cover.curve, delta, frame, frame.values(bis), bis.sheet_values)


def _max_fibre_defect(curve: TateCurve, delta: LineBundleOnX, frame: _Frame,
                      values: tuple[np.ndarray, np.ndarray, np.ndarray],
                      pair_at: Callable[[complex], "tuple[complex, complex] | None"]
                      ) -> float:
    """The largest lattice defect of v0 * v1 against delta's fibre factor
    over the frame's samples, 0.0 without samples, from ``values`` = (v0,
    v1, odd mask).  Odd samples, multiple fibres and those the lattice
    arrays do not follow are measured by the scalar route, in order, from
    ``pair_at(b)``: the two values at b, or None (defect 0)."""
    v0, v1, odd = values
    odd = odd | delta.surface._multiple_mask(frame.b)
    target = complex(delta.constant_factor)
    _, d, lodd = curve._lattice_distance_array(
        _carray.quot(_carray.mul(v0, v1), target))

    def defect_at(i: int) -> float:
        pair = pair_at(frame.pts[i])
        if pair is None:
            return 0.0
        factor = delta.restrict_to_fiber(frame.pts[i]).factor
        return curve.lattice_distance(pair[0] * pair[1] / factor)[1]

    return max([0.0, *_carray.fill_odd(d, odd | lodd, defect_at).tolist()])


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
