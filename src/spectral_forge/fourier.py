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
action numerically: with the twist enabled the chain closes to machine
precision, with the twist disabled the defect is the leftover frame factor
(x - b0)^theta_degree, bounded away from 1 on the sampling circle.

``fm_transform`` sends a family to its support cover plus line data;
``fm_inverse`` rebuilds the pushforward family from vertical-free torsion
data; the two roundtrip checks compare fibre classes, determinant data and
Chern numbers (forward) and support plus line data (reverse).
"""

from __future__ import annotations

from dataclasses import dataclass

from .covers import BasePoint, DivisorClass, class_equal
from .errors import UnsupportedError
from .families import (FamilySpec, SplitData, cover_from_family,
                       _family_on_cover, _resolve_points)
from .spectral import ChernData, SpectralCover, sample_circle

__all__ = [
    "DescentTwist",
    "descent_divisor",
    "z_action_residual",
    "LineData",
    "TransformedSheaf",
    "fm_transform",
    "fm_inverse",
    "branch_correction",
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

    def gamma_divisor(self) -> tuple[int, BasePoint]:
        """The section's divisor: -theta_degree times the base point."""
        return (-self.theta_degree, self.b0)


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
                      samples: "int | list[complex]" = 20) -> float:
    """Cocycle-closure defect of the lattice action on the twisted data.

    The level-j stalk over (x, sheet) carries the coefficient
    c_j = beta * tau^j * alpha, where alpha is the spectral value and beta
    the fibre factor of the same sheet -- two independent evaluations whose
    product is 1 only up to roundoff, so the chain is never trivially exact.
    Moving one level up multiplies the frame by the section's factor
    (x - b0)^theta_degree, with theta_degree the surface invariant of the
    family; the twist's coefficient step (i+1)d - id cancels it exactly
    when the twist is enabled and carries the same degree.  Returns the max
    closure defect over all samples, sheets and steps j = -2 .. 1.
    """
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


# ============================================================
# Transformed sheaves
# ============================================================

@dataclass(frozen=True)
class LineData:
    """Line data carried on the support bisection.

    For split supports the two base classes; for irreducible supports the
    divisor-class twist on the cover plus torsion residue pairs.  det_factor
    and det_base record the source determinant, which the inverse transform
    must reproduce.
    """

    twist: DivisorClass | None = None
    torsion_pairs: tuple[tuple[int, int], ...] = ()
    split_base_classes: tuple[int, int] | None = None
    det_factor: complex = 1.0 + 0j
    det_base: int = 0


@dataclass(frozen=True)
class TransformedSheaf:
    """Degree-1 piece of the transform: torsion data on the support cover."""

    support: SpectralCover
    line_data: LineData
    chern: ChernData
    phi0_vanishes: bool


def _has_trivial_sub(family: FamilySpec, pts: list[complex]) -> bool:
    """Whether some graded piece is lattice-trivial on every sampled fibre."""
    curve = family.curve
    flags = [True, True]
    for b in pts:
        f0, f1 = family.fiber_factors_at(b)
        flags[0] = flags[0] and curve.in_lattice(f0)
        flags[1] = flags[1] and curve.in_lattice(f1)
        if not (flags[0] or flags[1]):
            return False
    return flags[0] or flags[1]


def fm_transform(family: FamilySpec,
                 samples: "int | list[complex]" = 32) -> TransformedSheaf:
    """Forward transform: support cover plus line data.

    The degree-0 piece vanishes unless the family has jumps (vertical
    support) or a sub-line-bundle trivial on all fibres; the degree-1 piece
    is torsion on the spectral cover, recorded here by reference data
    sufficient for the inverse."""
    pts = _resolve_points(family, samples)
    support = cover_from_family(family, pts)
    phi0 = not family.has_jumps() and not _has_trivial_sub(family, pts)
    det = family.determinant
    if isinstance(family.data, SplitData):
        line = LineData(
            split_base_classes=(family.data.l1.base_class,
                                family.data.l2.base_class),
            det_factor=det.constant_factor,
            det_base=det.base_class,
        )
    else:
        line = LineData(
            twist=family.data.twist,
            torsion_pairs=family.data.torsion_pairs,
            det_factor=det.constant_factor,
            det_base=det.base_class,
        )
    return TransformedSheaf(support, line, family.chern, phi0)


def fm_inverse(sheaf: TransformedSheaf) -> FamilySpec:
    """Inverse transform on vertical-free rank-1 torsion data.

    Rebuilds the family as the pushforward of the line data along the
    support bisection (or the split family for disconnected supports).
    The determinant correction from the branch divisor is reported by
    ``branch_correction`` on the result's data rather than asserted."""
    if sheaf.support.verticals:
        raise UnsupportedError(
            "vertical components are outside the inverse hypotheses")
    line = sheaf.line_data
    return _family_on_cover(sheaf.support, line.split_base_classes or (0, 0),
                            line.twist, line.torsion_pairs)


def branch_correction(sheaf: TransformedSheaf) -> dict:
    """Empirical determinant correction of the inverse construction.

    Compares the determinant factor computed by the inverse (the exact norm
    constant of the factor map) with the naive sheet product of the source
    line data; the ratio is reported, not asserted, because the exact
    sequence fixing it involves an undetermined reference bundle."""
    rebuilt = fm_inverse(sheaf)
    computed = rebuilt.determinant.constant_factor
    naive = sheaf.line_data.det_factor
    ratio = computed / naive if naive != 0 else float("nan")
    return {
        "status": "empirical",
        "computed_det_factor": computed,
        "source_det_factor": naive,
        "ratio": ratio,
    }


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


def roundtrip_check(family: FamilySpec,
                    samples: "int | list[complex]" = 50) -> RoundtripReport:
    """Forward-then-inverse comparison on a jump-free family.

    Compares fibrewise isomorphism classes at every sample, the determinant
    section, and the Chern data, within the curve tolerance.  Families with
    jumps fall outside the hypotheses and are reported as such, not
    silently skipped."""
    if family.has_jumps():
        return RoundtripReport("hypothesis_violated",
                               (("jump-free", False, "family has jumps"),))
    pts = _resolve_points(family, samples)
    sheaf = fm_transform(family, pts)
    rebuilt = fm_inverse(sheaf)
    curve = family.curve
    checks: list[tuple[str, bool, str]] = []

    ok_fibres = True
    detail = ""
    for b in pts:
        if not family.fiber_class_at(b).isomorphic(rebuilt.fiber_class_at(b)):
            ok_fibres = False
            detail = f"fibre class mismatch at b={b}"
            break
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
                            samples: "int | list[complex]" = 50) -> RoundtripReport:
    """Inverse-then-forward comparison for admissible torsion data."""
    try:
        rebuilt_family = fm_inverse(sheaf)
    except UnsupportedError as exc:
        return RoundtripReport("hypothesis_violated",
                               (("admissible", False, str(exc)),))
    pts = _resolve_points(rebuilt_family, samples)
    sheaf2 = fm_transform(rebuilt_family, pts)
    curve = rebuilt_family.curve
    checks: list[tuple[str, bool, str]] = []

    ok_vert = sheaf2.support.verticals == ()
    checks.append(("support_verticals", ok_vert, ""))

    ok_bis = True
    detail = ""
    for b in pts:
        if not curve.same_pair(sheaf.support.values_at(b),
                               sheaf2.support.values_at(b)):
            ok_bis = False
            detail = f"support values differ at b={b}"
            break
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
