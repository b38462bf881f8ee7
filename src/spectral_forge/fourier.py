# spectral_forge/fourier.py
"""
The fibrewise integral transform between families on the surface and torsion
data on the torus bundle, with the descent twist making it well defined.

The surface is a lattice quotient in the fibre direction, so the geometric
transform lives upstairs on an annulus bundle and must be pushed down
through a Z-action.  The action on stalks picks up one frame factor per
translate; the descent twist cancels it with a divisor whose coefficient at
the i-th translate of the cover values is exactly i * theta_degree.
``z_action_residual`` measures the cocycle-closure defect of the composite
action.  The sheet values cancel in the closure (one level up multiplies
the coefficient by tau), so it reduces to the frame factor the twist leaves
over, and that is what is computed: with the twist enabled the defect is
exactly 0, with the twist disabled it is |(x - b0)^theta_degree - 1|,
bounded away from 0 on the sampling circle.  The check holds for any family
and does not test the family's data.

``fm_transform`` sends a family to its support cover plus line data;
``fm_inverse`` rebuilds the pushforward family from vertical-free torsion
data; the two roundtrip checks compare fibre classes, determinant data and
Chern numbers (forward) and support plus line data (reverse).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from . import _carray
from ._carray import np
from .covers import BasePoint, DivisorClass, class_equal
from .errors import UnsupportedError
from .families import (FamilySpec, SplitData, cover_from_family,
                       _family_on_cover, default_sample_points)
from .spectral import ChernData, SpectralCover, _Frame, sample_circle

__all__ = [
    "DescentTwist",
    "descent_divisor",
    "z_action_residual",
    "LineData",
    "TransformedSheaf",
    "fm_transform",
    "fm_inverse",
    "RoundtripReport",
    "roundtrip_check",
    "torsion_roundtrip_check",
]


# ============================================================
# Descent twist
# ============================================================

@dataclass(frozen=True)
class DescentTwist:
    """Symbolic twist divisor over a fixed base point.

    Coefficient i * theta_degree sits at the i-th translate of the two cover
    values over b0; the section pinned to the divisor -theta_degree * b0
    supplies the compensating frame factor.  `enabled` turns the twist off
    wholesale for the necessity half of the descent check.
    """

    b0: BasePoint
    pair: tuple[complex, complex]
    theta_degree: int
    enabled: bool = True

    def coefficient(self, i: int) -> int:
        """Divisor coefficient at the i-th translate of the pair."""
        if not self.enabled:
            return 0
        return i * self.theta_degree

    def disabled(self) -> "DescentTwist":
        return DescentTwist(self.b0, self.pair, self.theta_degree, False)


def descent_divisor(family: FamilySpec, b0: BasePoint) -> DescentTwist:
    """The descent twist of a family at a regular base value b0."""
    if b0.is_infinity:
        raise UnsupportedError("descent base point must be affine")
    if family.surface.is_multiple_point(b0):
        raise UnsupportedError("descent base point must avoid multiple fibres")
    for p in family.jump_points():
        if p == b0:
            raise UnsupportedError(
                "cover has a vertical component over the descent base point")
    pair = family.spectral_values_at(b0.to_complex())
    return DescentTwist(b0, pair, family.surface.theta_degree)


def z_action_residual(family: FamilySpec, twist: DescentTwist,
                      samples: "int | list[complex]") -> float:
    """Cocycle-closure defect of the lattice action on the twisted data.

    The level-j stalk over (x, sheet) carries the coefficient
    c_j = beta * tau^j * alpha, where alpha is the spectral value and beta
    the fibre factor of the same sheet.  Moving one level up multiplies the
    frame by the section's factor (x - b0)^theta_degree, with theta_degree
    the surface invariant of the family, and the twist's coefficient step
    (i+1)d - id cancels it when the twist is enabled and carries the same
    degree.  The sheet values cancel in the closure (c_(j+1) / c_j is tau),
    so the closure is the frame (x - b0)^e with e = d - step, at every
    sheet and level.  Returns the max of |(x - b0)^e - 1| over the samples,
    NaN defects skipped: exactly 0.0 when the twist carries the degree,
    |(x - b0)^d - 1| with the twist off.  The check therefore cannot tell a
    wrong family from a right one, and it reads no family value.

    A frame that overflows, or whose distance from 1 does not fit a float,
    raises ``UnsupportedError`` naming the sample and e (on the default
    circle |x - b0| = |tau|, once e passes about 1024 / log2 |tau|).
    """
    if twist.b0.is_infinity:
        raise UnsupportedError("descent base point must be affine")
    b0 = twist.b0.to_complex()
    pts = (sample_circle(samples, abs(family.curve.tau), b0)
           if isinstance(samples, int) else list(samples))
    # the coefficient step (j+1)d - jd is the same at every level
    e = family.surface.theta_degree - (twist.coefficient(1) - twist.coefficient(0))
    worst = 0.0
    for x in pts:
        try:
            worst = max(worst, abs((x - b0) ** e - 1.0))
        except OverflowError:
            raise UnsupportedError(
                f"descent frame (x - b0)^{e} overflows at x={x}") from None
    return worst


# ============================================================
# Transformed sheaves
# ============================================================

@dataclass(frozen=True)
class LineData:
    """Line data carried on the support bisection.

    For split supports the two base classes; for irreducible supports the
    divisor-class twist on the cover plus torsion residue pairs.
    """

    twist: DivisorClass | None = None
    torsion_pairs: tuple[tuple[int, int], ...] = ()
    split_base_classes: tuple[int, int] | None = None


@dataclass(frozen=True)
class TransformedSheaf:
    """Degree-1 piece of the transform: torsion data on the support cover."""

    support: SpectralCover
    line_data: LineData
    chern: ChernData
    phi0_vanishes: bool


def _has_trivial_sub(family: FamilySpec, frame: _Frame) -> bool:
    """Whether some graded piece of the family is lattice-trivial on every
    sampled fibre: the scalar loop, stopping at the first sample where
    neither piece is still trivial, over the frame's factor values; only
    odd samples read ``fiber_factors_at``."""
    curve = family.curve
    f0, f1, odd = frame.values(family.data.factor_map)
    flag0 = flag1 = True
    for i, (g0, g1, o) in enumerate(zip(f0.tolist(), f1.tolist(), odd.tolist())):
        if o:
            g0, g1 = family.fiber_factors_at(frame.pts[i])
        flag0 = flag0 and curve.in_lattice(g0)
        flag1 = flag1 and curve.in_lattice(g1)
        if not (flag0 or flag1):
            return False
    return True


def fm_transform(family: FamilySpec,
                 samples: "int | list[complex] | _Frame") -> TransformedSheaf:
    """Forward transform: support cover plus line data.

    The degree-0 piece vanishes unless the family has jumps (vertical
    support) or a sub-line-bundle trivial on all fibres; the degree-1 piece
    is torsion on the spectral cover, recorded here by reference data
    sufficient for the inverse."""
    frame = _Frame.of(samples, partial(default_sample_points, family))
    support = cover_from_family(family, frame)
    phi0 = not family.has_jumps() and not _has_trivial_sub(family, frame)
    data = family.data
    if isinstance(data, SplitData):
        line = LineData(split_base_classes=(data.l1.base_class, data.l2.base_class))
    else:
        line = LineData(data.twist, data.torsion_pairs)
    return TransformedSheaf(support, line, family.chern, phi0)


def fm_inverse(sheaf: TransformedSheaf) -> FamilySpec:
    """Inverse transform on vertical-free rank-1 torsion data.

    Rebuilds the family as the pushforward of the line data along the
    support bisection (or the split family for disconnected supports).
    The result's determinant is its own norm constant; it is not checked
    against the source family's, because the exact sequence fixing the
    correction from the branch divisor involves an undetermined reference
    bundle."""
    if sheaf.support.verticals:
        raise UnsupportedError(
            "vertical components are outside the inverse hypotheses")
    line = sheaf.line_data
    return _family_on_cover(sheaf.support, line.split_base_classes or (0, 0),
                            line.twist, line.torsion_pairs)


# ============================================================
# Roundtrips
# ============================================================

@dataclass(frozen=True)
class RoundtripReport:
    """Outcome of a transform-then-invert comparison."""

    status: str
    checks: tuple[tuple[str, bool, str], ...]
    phi0_vanishes: bool | None = None

    def passed(self) -> bool:
        return self.status == "pass"


_JUMPED = RoundtripReport("hypothesis_violated",
                          (("jump-free", False, "family has jumps"),))


def roundtrip_check(family: FamilySpec,
                    samples: "int | list[complex] | _Frame") -> RoundtripReport:
    """Forward-then-inverse comparison on a jump-free family.

    Compares fibrewise isomorphism classes at every sample, the determinant
    section, and the Chern data, within the curve tolerance.  Families with
    jumps fall outside the hypotheses and are reported as such, not
    silently skipped."""
    if family.has_jumps():
        return _JUMPED
    frame = _Frame.of(samples, partial(default_sample_points, family))
    return _roundtrip_report(family, frame, fm_transform(family, frame))


def _roundtrip_report(family: FamilySpec, frame: _Frame,
                      sheaf: TransformedSheaf) -> RoundtripReport:
    """``roundtrip_check`` of the family at the frame's points, from its
    forward transform ``sheaf`` there."""
    pts = frame.pts
    if family.has_jumps():
        return _JUMPED
    rebuilt = fm_inverse(sheaf)
    curve = family.curve
    checks: list[tuple[str, bool, str]] = []

    f0, f1, atiyah, odd = frame.fibre(family)
    g0, g1, atiyah_g, odd_g = frame.fibre(rebuilt)
    pairs, odd_pairs = curve._same_pair_array(f0, f1, g0, g1)
    lines, odd_lines = curve._same_point_array(f0, g0)
    same = np.where(atiyah, atiyah_g & lines, ~atiyah_g & pairs)
    bad = _carray.first_failure(
        same, odd | odd_g | odd_pairs | odd_lines,
        lambda i: family.fiber_class_at(pts[i]).isomorphic(
            rebuilt.fiber_class_at(pts[i])))
    ok_fibres = bad is None
    detail = "" if ok_fibres else f"fibre class mismatch at b={pts[bad]}"
    checks.append(("fiberwise_classes", ok_fibres, detail))

    det_a = family.determinant
    det_b = rebuilt.determinant
    ratio = det_a.constant_factor / det_b.constant_factor
    k = curve.lattice_log(ratio)
    ok_det = k is not None and det_a.base_class == det_b.base_class
    checks.append(("determinant_section", ok_det,
                   "" if ok_det else f"determinant ratio {ratio}"))

    ok_chern = (family.chern == rebuilt.chern)
    checks.append(("chern_data", ok_chern,
                   "" if ok_chern else
                   f"{family.chern} != {rebuilt.chern}"))

    status = "pass" if all(c[1] for c in checks) else "fail"
    return RoundtripReport(status, tuple(checks), sheaf.phi0_vanishes)


def torsion_roundtrip_check(sheaf: TransformedSheaf,
                            samples: "int | list[complex] | _Frame") -> RoundtripReport:
    """Inverse-then-forward comparison for admissible torsion data."""
    try:
        rebuilt_family = fm_inverse(sheaf)
    except UnsupportedError as exc:
        return RoundtripReport("hypothesis_violated",
                               (("admissible", False, str(exc)),))
    frame = _Frame.of(samples, partial(default_sample_points, rebuilt_family))
    sheaf2 = fm_transform(rebuilt_family, frame)
    curve = rebuilt_family.curve
    checks: list[tuple[str, bool, str]] = []

    ok_vert = sheaf2.support.verticals == ()
    checks.append(("support_verticals", ok_vert, ""))

    a0, a1, odd = frame.values(sheaf.support.bisection)
    c0, c1, odd_c = frame.values(sheaf2.support.bisection)
    same, odd_pairs = curve._same_pair_array(a0, a1, c0, c1)
    bad = _carray.first_failure(
        same, odd | odd_c | odd_pairs,
        lambda i: curve.same_pair(sheaf.support.values_at(frame.pts[i]),
                                  sheaf2.support.values_at(frame.pts[i])))
    ok_bis = bad is None
    detail = "" if ok_bis else f"support values differ at b={frame.pts[bad]}"
    checks.append(("support_bisection", ok_bis, detail))

    ld_in, ld_out = sheaf.line_data, sheaf2.line_data
    if ld_in.twist is None or ld_out.twist is None:
        ok_twist = (ld_in.twist is None) == (ld_out.twist is None)
        twist_detail = "" if ok_twist else "twist presence differs"
    else:
        ok_twist = class_equal(ld_in.twist, ld_out.twist)
        twist_detail = "" if ok_twist else "twist classes differ"
    checks.append(("line_twist", ok_twist, twist_detail))

    ok_tors = ld_in.torsion_pairs == ld_out.torsion_pairs
    checks.append(("torsion_pairs", ok_tors, ""))

    status = "pass" if all(c[1] for c in checks) else "fail"
    return RoundtripReport(status, tuple(checks))
