# spectral_forge/families.py
"""
Rank-2 families over the base, their fibre classes, and the modification
journal.

A family is a presentation (split pair of line bundles, or the pushforward
of line-bundle data along a hyperelliptic double cover) plus an ordered
journal of elementary modifications.  All invariants are derived, never
stored twice:

- determinant = presentation determinant twisted by O(-fibre) for every
  step, computed from how many steps fall on each multiple fibre and how
  many elsewhere,
- c2 = presentation c2 plus the signed degree of each step,
- the fibre class at a modified point is read off the top of that point's
  push stack, and an allowable (pop) step is the exact inverse of the most
  recent push there.  Only ``_JournalReplay`` writes the per-point stacks:
  the parser replays a journal, and ``attach_generic_jumps`` its whole
  plan, in one pass into a single family, so journal bookkeeping is linear
  in its length; ``elem_mod``/``allowable_mod`` resume a replay from copies
  of the family's steps and stacks and push or pop once.

Jumping-sequence bookkeeping follows the stack discipline: pushing degree
r >= current height prepends r to the sequence, the allowable modification
removes the head, the multiplicity is the sum, and sequences are therefore
always non-increasing.

Pushforward presentations use sheet-equivariant maps with exact constant
norm, so the fibrewise determinant factor is the exact inverse-square of the
map's scale; twisting by a divisor class on the cover changes the stored
line data only -- its effect on the determinant is the norm class of the
twist, computed by pushing the class forward to the base.  A report's
frame (``spectral._Frame``) builds each per-sample array once per family.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, replace
from functools import cache, cached_property, partial
from itertools import zip_longest
from typing import Callable, Sequence

from . import _carray
from .covers import (BasePoint, DivisorClass, HyperCover, _base_point_near,
                     class_add)
from .errors import (InvalidFamilyError, NoSurjectionError, UnsupportedError,
                     VerificationError)
from .fiber import (AtiyahRegular, FiberClass, SplitFiber, UnstableFiber,
                    is_regular, spectral_points)
from .spectral import (ChernData, PellMap, SpectralCover, TwoSections, _Frame,
                       _sample_ladder, bisection_torus_degree,
                       invariance_residual)
from .surface import LineBundleOnX, SurfaceSpec
from .tate import TateCurve, TateLineBundle

__all__ = [
    "SplitData",
    "PushforwardData",
    "PushStep",
    "PopStep",
    "FamilySpec",
    "JumpRecord",
    "can_add_jump",
    "elem_mod",
    "allowable_mod",
    "jumping_sequence",
    "jump_report",
    "attach_generic_jumps",
    "assign_jumping_sequence",
    "cover_from_family",
    "build_regular_family",
    "default_sample_points",
]


# ============================================================
# Presentations
# ============================================================

@dataclass(frozen=True)
class SplitData:
    """Direct sum of two line bundles on the surface."""

    l1: LineBundleOnX
    l2: LineBundleOnX

    def __post_init__(self) -> None:
        if self.l1.surface != self.l2.surface:
            raise ValueError("summands live on different surfaces")

    def determinant(self) -> LineBundleOnX:
        return self.l1.tensor(self.l2)

    @cached_property
    def factor_map(self) -> TwoSections:
        """The fibre factors of the two summands: the pair of constant
        sections, a reducible bisection read like a pushforward's map."""
        return TwoSections(self.l1.constant_factor, self.l2.constant_factor)


@dataclass(frozen=True)
class PushforwardData:
    """Pushforward of line data along a double cover of the base.

    factor_map gives the fibre factor of each direct-image summand; its
    sheet product is the exact constant determining the determinant factor.
    twist is an optional degree-0 divisor class on the cover (line data on
    the spectral curve); torsion_pairs carries residues (a', a'') at the two
    cover points over each non-branch multiple fibre.
    """

    cover: HyperCover
    factor_map: PellMap
    twist: DivisorClass | None = None
    torsion_pairs: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if self.cover != self.factor_map.cover:
            raise ValueError("factor map lives on a different cover")
        if self.twist is not None:
            if self.twist.cover != self.cover:
                raise ValueError("twist class lives on a different cover")
            if self.twist.degree() != 0:
                raise ValueError("twist must be a degree-0 class")


def _torsion_fibres(surface: SurfaceSpec, data: PushforwardData) -> list[int]:
    """The indices of the multiple fibres off the branch locus, which carry
    ``data``'s torsion pairs in order; surplus pairs raise ``ValueError``."""
    out = [i for i, mf in enumerate(surface.multiple_fibres) if not data.cover.is_branch(mf.at)]
    if len(data.torsion_pairs) > len(out):
        raise ValueError(f"{len(data.torsion_pairs)} torsion pairs for {len(out)} "
                         "multiple fibres off the branch locus")
    return out


# ============================================================
# Journal steps
# ============================================================

@dataclass(frozen=True)
class PushStep:
    """Elementary modification onto a degree-r line bundle on one fibre."""

    at: BasePoint
    degree: int
    line_point: complex

    def __post_init__(self) -> None:
        if self.degree < 1:
            raise ValueError("modification degree must be >= 1")
        if self.line_point == 0:
            raise ValueError("line_point must be nonzero")


@dataclass(frozen=True)
class PopStep:
    """Allowable modification: the canonical surjection onto the
    destabilising quotient of the jump at `at`."""

    at: BasePoint


JournalStep = PushStep | PopStep

# the constant factor of each step's fibre twist, O(-fibre)
_UNIT_FACTOR = 1.0 / (1.0 + 0j)


def _presentation_fiber_class(curve: TateCurve,
                              data: SplitData | PushforwardData,
                              b: complex) -> FiberClass:
    """Fibre class over b of the presentation ``data``, journal ignored."""
    if isinstance(data, SplitData):
        return SplitFiber(data.l1.restrict_to_fiber(b),
                          data.l2.restrict_to_fiber(b))
    f0, f1 = data.factor_map.sheet_values(b)
    if curve.point(f0) == curve.point(f1):
        return AtiyahRegular(TateLineBundle(curve, 0, f0))
    return SplitFiber(TateLineBundle(curve, 0, f0),
                      TateLineBundle(curve, 0, f1))


# ============================================================
# Families
# ============================================================

@dataclass(frozen=True)
class FamilySpec:
    """A presented family plus its modification journal.

    base_c2 is the second Chern number of the unmodified presentation
    (declared; for pushforward data it defaults to the bisection's torus
    degree at construction time through the factory helpers).
    """

    surface: SurfaceSpec
    data: SplitData | PushforwardData
    base_c2: int = 0
    steps: tuple[JournalStep, ...] = ()

    # ----- factories ------------------------------------------------------

    @staticmethod
    def split(surface: SurfaceSpec, l1: LineBundleOnX,
              l2: LineBundleOnX) -> "FamilySpec":
        return FamilySpec(surface, SplitData(l1, l2), 0, ())

    @staticmethod
    def pushforward(surface: SurfaceSpec, cover: HyperCover,
                    factor_map: PellMap,
                    twist: DivisorClass | None = None,
                    torsion_pairs: tuple[tuple[int, int], ...] = ()) -> "FamilySpec":
        data = PushforwardData(cover, factor_map, twist, torsion_pairs)
        return FamilySpec(surface, data, bisection_torus_degree(factor_map.inverse()), ())

    # ----- derived invariants --------------------------------------------

    @property
    def curve(self) -> TateCurve:
        return self.surface.curve

    def presentation_determinant(self) -> LineBundleOnX:
        if isinstance(self.data, SplitData):
            return self.data.determinant()
        nrm = self.data.factor_map.norm_constant().to_complex()
        parts = [0] * len(self.surface.multiple_fibres)
        for i, pair in zip(_torsion_fibres(self.surface, self.data), self.data.torsion_pairs):
            parts[i] = sum(pair)
        return LineBundleOnX(self.surface, 0, nrm, tuple(parts))

    @cached_property
    def determinant(self) -> LineBundleOnX:
        """The presentation determinant twisted by O(-fibre) for every
        journal step: a step on a multiple fibre lowers that fibre's residue
        by one, any other step lowers the base class by one.  Both come from
        the count of steps on each multiple fibre, one pass over the journal
        per multiple fibre, which hashes no point."""
        det = self.presentation_determinant()
        if not self.steps:
            return det
        on = [sum(mf.at == step.at for step in self.steps)
              for mf in self.surface.multiple_fibres]
        # Each step's twist has the factor _UNIT_FACTOR = 1+0j, and
        # multiplying by it is not the identity on every float: a -0.0 part
        # becomes +0.0 on the first multiply, and an infinite part turns its
        # partner into nan on the first and itself on the second.  From the
        # second multiply on nothing changes, so folding in at most two keeps
        # the bits of one multiply per step.
        factor = det.constant_factor
        for _ in range(min(len(self.steps), 2)):
            factor = factor * _UNIT_FACTOR
        return LineBundleOnX(self.surface, det.base_class - len(self.steps) + sum(on),
                             factor, tuple(p - n for p, n in zip(det.fibre_parts, on)))

    @cached_property
    def chern(self) -> ChernData:
        """c2 follows the stack discipline: pushes add their degree, each
        pop removes the degree of the push it cancels.  This pass keeps its
        own stacks, apart from the journal index, so the ``chern_stack``
        check of ``props`` compares two independent routes."""
        c2 = self.base_c2
        stacks: dict[BasePoint, list[int]] = {}
        for step in self.steps:
            stack = stacks.setdefault(step.at, [])
            if isinstance(step, PushStep):
                stack.append(step.degree)
                c2 += step.degree
            else:
                if not stack:
                    raise InvalidFamilyError("pop without a jump in journal")
                c2 -= stack.pop()
        return ChernData(self.determinant.base_class, c2)

    # ----- journal bookkeeping -------------------------------------------

    @cached_property
    def _stacks(self) -> dict[BasePoint, tuple[PushStep, ...]]:
        """Push stack of every journal point, in first-appearance order
        (emptied stacks keep their place).  Replayed families come with it;
        a raw ``steps`` tuple is replayed here through the same checked
        ``push`` and ``pop``, so an illegal step raises on the first read."""
        replay = _JournalReplay(self.surface, self.data, self.base_c2)
        for step in self.steps:
            if isinstance(step, PushStep):
                replay.push(step.at, step.degree, step.line_point)
            else:
                replay.pop(step.at)
        return replay.frozen_stacks()

    def jump_stack(self, at: BasePoint) -> list[PushStep]:
        return list(self._stacks.get(at, ()))

    def jump_points(self) -> list[BasePoint]:
        return [p for p, stack in self._stacks.items() if stack]

    def has_jumps(self) -> bool:
        return any(self._stacks.values())

    # ----- fibre data -----------------------------------------------------

    def involution_bundle(self) -> LineBundleOnX:
        """The degree-0 bundle pairing the two spectral values fibrewise:
        the dual of the determinant."""
        return self.determinant.dual()

    def base_fiber_class(self, b: complex) -> FiberClass:
        """Fibre class of the unmodified presentation over b."""
        return _presentation_fiber_class(self.curve, self.data, b)

    def fiber_class_at(self, b: complex) -> FiberClass:
        """Journal-aware fibre class over a smooth fibre."""
        at = _base_point_near(self.jump_points(), b)
        if at is None:
            return self.base_fiber_class(b)
        top = self._stacks[at][-1]
        curve = self.curve
        det_here = self.determinant.restrict_to_fiber(b)
        sub = TateLineBundle(curve, top.degree, top.line_point)
        return UnstableFiber(top.degree, sub, det_here)

    def spectral_values_at(self, b: complex) -> tuple[complex, complex]:
        """The two torus values of the cover over b (semistable locus)."""
        return self.data.factor_map.inverse().sheet_values(b)

    def fiber_factors_at(self, b: complex) -> tuple[complex, complex]:
        """Factors of the two graded line pieces over b, sheet-aligned with
        ``spectral_values_at`` (their componentwise product is 1 exactly in
        exact arithmetic, and up to roundoff here)."""
        return self.data.factor_map.sheet_values(b)

    # ----- twisting -------------------------------------------------------

    def twisted(self, nu: DivisorClass) -> "FamilySpec":
        """Twist the pushforward line data by a degree-0 class on the cover.

        The spectral cover is untouched.  The determinant changes by the
        norm of nu, whose degree on the base line is nu.degree() (the affine
        part pushes forward point by point, infinity to infinity); over a
        rational base a degree-0 norm class is principal, so for the degree-0
        classes accepted here the determinant bookkeeping is unchanged.
        """
        if not isinstance(self.data, PushforwardData):
            raise UnsupportedError("twisting requires a pushforward family")
        if nu.degree() != 0:
            raise ValueError("twist must be a degree-0 class")
        base = self.data.twist
        new = nu if base is None else class_add(base, nu)
        return replace(self, data=replace(self.data, twist=new))

    def twisted_torsion(self, pairs: tuple[tuple[int, int], ...]) -> "FamilySpec":
        """Twist by residue pairs (a', a''), one per non-branch multiple
        fibre (``ValueError`` past them).  Antisymmetric pairs (a, -a) leave
        the determinant parts unchanged; any other pair shifts them."""
        if not isinstance(self.data, PushforwardData):
            raise UnsupportedError("twisting requires a pushforward family")
        merged = tuple((o[0] + p[0], o[1] + p[1]) for o, p in zip_longest(
            self.data.torsion_pairs, pairs, fillvalue=(0, 0)))
        data = replace(self.data, torsion_pairs=merged)
        _torsion_fibres(self.surface, data)
        return replace(self, data=data)


# ============================================================
# Jump records
# ============================================================

@dataclass(frozen=True)
class JumpRecord:
    """One jump at a point; height, multiplicity and length are read off its sequence."""

    at: BasePoint
    sequence: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.sequence:
            raise ValueError("empty jumping sequence")
        if any(a < b for a, b in zip(self.sequence, self.sequence[1:])):
            raise ValueError("jumping sequences are non-increasing")

    @property
    def height(self) -> int:
        return self.sequence[0]

    @property
    def multiplicity(self) -> int:
        return sum(self.sequence)

    @property
    def length(self) -> int:
        return len(self.sequence)


# ============================================================
# Modification calculus
# ============================================================

def _unjumped_regular(surface: SurfaceSpec, data: SplitData | PushforwardData,
                      at: BasePoint) -> bool:
    """Whether the presentation's fibre over the finite point `at` is
    regular; it depends on the presentation and the point only."""
    if surface.is_multiple_point(at):
        # evaluated on the cyclic cover; the lifted fibre is regular for the
        # presentations supported here
        return True
    return is_regular(_presentation_fiber_class(surface.curve, data,
                                                at.to_complex()))


def _push_allowed(stack: Sequence[PushStep] | None,
                  at: BasePoint, r: int, line_point: complex | None,
                  curve: TateCurve,
                  regular: Callable[[BasePoint], bool]) -> bool:
    """``can_add_jump`` on the push stack at `at`; ``regular(at)`` decides
    an unjumped fibre and is asked before the degree is looked at."""
    if r < 1:
        return False
    if at.is_infinity:
        return False
    if stack:
        h = stack[-1].degree
        if r > h:
            return True
        if r < h:
            return False
        if line_point is None:
            return False
        return curve.in_lattice(line_point / stack[-1].line_point)
    # non-regular semistable (split with equal factors) needs r >= 2
    return regular(at) or r >= 2


def can_add_jump(family: FamilySpec, at: BasePoint, r: int,
                 line_point: complex | None = None) -> bool:
    """Whether a surjection onto a degree-r line bundle exists on the fibre.

    Regular fibres admit every r >= 1.  The split fibre with equal factors
    admits r >= 2 but not r = 1.  On a fibre already jumped to height h, a
    further surjection needs r > h, or r = h onto the destabilising sub
    itself."""
    return _push_allowed(family._stacks.get(at), at, r, line_point,
                         family.curve,
                         partial(_unjumped_regular, family.surface, family.data))


def elem_mod(family: FamilySpec, at: BasePoint, r: int,
             line_point: complex) -> FamilySpec:
    """Elementary modification: kernel of a surjection onto the degree-r
    bundle with the given factor on the fibre over `at`.

    Updates: determinant twisted by the dual fibre class, c2 += r, spectral
    cover gains vertical multiplicity r, fibre class becomes the unstable
    pair (sub of degree r) + (its dual times the determinant)."""
    if r < 1:
        raise ValueError("modification degree must be >= 1")
    replay = _JournalReplay.resume(family)
    replay.push(at, r, line_point)
    return replay.family()


def allowable_mod(family: FamilySpec, at: BasePoint) -> FamilySpec:
    """The canonical modification onto the destabilising quotient; removes
    the head of the jumping sequence at `at`."""
    replay = _JournalReplay.resume(family)
    replay.pop(at)
    return replay.family()


class _JournalReplay:
    """A journal replayed in one pass against a presentation: one push stack
    per point, each step checked by ``push`` or ``pop``, and a single
    ``FamilySpec`` at the end.  The one writer of push stacks.

    Every stack is a list while the replay runs and a tuple in the family it
    makes; a resumed replay starts from copies of the family's steps and
    stacks.  The regularity of an unjumped fibre is computed once per point,
    and points passed as one object get identity hits in both tables."""

    def __init__(self, surface: SurfaceSpec, data: SplitData | PushforwardData,
                 base_c2: int, _steps: Sequence[JournalStep] = (),
                 _stacks: dict[BasePoint, tuple[PushStep, ...]] | None = None) -> None:
        self.surface = surface
        self.data = data
        self.base_c2 = base_c2
        self.steps: list[JournalStep] = list(_steps)
        self.stacks: defaultdict[BasePoint, list[PushStep]] = defaultdict(
            list, {p: list(stack) for p, stack in (_stacks or {}).items()})
        self._is_regular = cache(partial(_unjumped_regular, surface, data))

    @classmethod
    def resume(cls, family: FamilySpec) -> "_JournalReplay":
        """A replay at the end of ``family``'s journal, from its index."""
        return cls(family.surface, family.data, family.base_c2, family.steps,
                   family._stacks)

    def push(self, at: BasePoint, r: int, line_point: complex) -> None:
        stack = self.stacks[at]
        if not _push_allowed(stack, at, r, line_point, self.surface.curve,
                             self._is_regular):
            raise NoSurjectionError(f"no surjection of degree {r} exists at {at}")
        step = PushStep(at, r, line_point)
        stack.append(step)
        self.steps.append(step)

    def pop(self, at: BasePoint) -> None:
        stack = self.stacks.get(at)
        if not stack:
            raise NoSurjectionError(f"no jump at {at}; nothing to remove")
        stack.pop()
        self.steps.append(PopStep(at))

    def frozen_stacks(self) -> dict[BasePoint, tuple[PushStep, ...]]:
        """The stacks as ``FamilySpec._stacks`` holds them."""
        return {p: tuple(stack) for p, stack in self.stacks.items()}

    def family(self) -> FamilySpec:
        out = FamilySpec(self.surface, self.data, self.base_c2, tuple(self.steps))
        # written like cached_property's own store: the dataclass is frozen
        out.__dict__["_stacks"] = self.frozen_stacks()
        return out


def jumping_sequence(family: FamilySpec, at: BasePoint) -> JumpRecord:
    """The jump data at `at`: the push stack's degrees from the top down,
    which is what repeated allowable modification peels off."""
    heights = tuple(s.degree for s in reversed(family._stacks.get(at, ())))
    if not heights:
        raise NoSurjectionError(f"no jump at {at}")
    return JumpRecord(at, heights)


def jump_report(family: FamilySpec) -> list[JumpRecord]:
    return [jumping_sequence(family, p) for p in family.jump_points()]


def attach_generic_jumps(family: FamilySpec,
                         plan: list[tuple[BasePoint, int]],
                         line_point: complex = 2.0 + 0j) -> FamilySpec:
    """Realise each planned jump by multiplicity-many degree-1 steps, so all
    resulting sequences are {1, ..., 1}."""
    replay = _JournalReplay.resume(family)
    for at, mult in plan:
        if mult < 1:
            raise ValueError("plan multiplicities must be >= 1")
        for _ in range(mult):
            replay.push(at, 1, line_point)
    return replay.family()


def assign_jumping_sequence(family: FamilySpec, at: BasePoint,
                            seq: list[int],
                            line_point: complex = 2.0 + 0j) -> FamilySpec:
    """Build a jump with the prescribed sequence by pushing in reverse."""
    if not seq:
        raise ValueError("sequence must be nonempty")
    if any(seq[i + 1] > seq[i] for i in range(len(seq) - 1)):
        raise ValueError("jumping sequences must be non-increasing")
    if family._stacks.get(at):
        raise UnsupportedError("fibre already jumped; assign on a clean fibre")
    out = family
    for r in reversed(seq):
        out = elem_mod(out, at, r, line_point)
    return out


# ============================================================
# Family <-> cover
# ============================================================

def default_sample_points(family: FamilySpec, count: int,
                          phase: float = 0.0) -> list[complex]:
    """The family's sample ladder (``_sample_ladder``): the first circle of
    a short ladder of radii and phases whose samples avoid the multiple
    fibres and every journal point, emptied stacks' too (within 1e-3), and,
    on a pushforward, the branch points (|f| < 1e-6) and the factor map's
    punctures.  A declared cover's ladder applies the same rules to its
    vertical points and bisection."""
    return _sample_ladder(count, family.surface, family._stacks, family.data.factor_map,
                          phase)


def cover_from_family(family: FamilySpec,
                      samples: "int | list[complex] | _Frame") -> SpectralCover:
    """The family's spectral cover: journal verticals plus the bisection.

    The bisection is the declared presentation's inverse factor map (for a
    split family, the pair of inverted constant sections); at every sample
    the fibre class's own twist-cohomology support is recomputed and
    compared, so inconsistent declarations fail loudly.
    """
    frame = _Frame.of(samples, partial(default_sample_points, family))
    curve = family.curve
    verticals: list[tuple[BasePoint, int]] = []
    for p, stack in family._stacks.items():
        if stack:
            verticals.append((p, sum(s.degree for s in stack)))
    bis = family.data.factor_map.inverse()

    def agree_at(i: int) -> bool:
        pts_fc = spectral_points(family.fiber_class_at(frame.pts[i]))
        if pts_fc is None:
            return True  # vertical point: whole fibre supported
        want = [p.value for p in pts_fc]
        got = [curve.canonical_rep(v).value for v in bis.sheet_values(frame.pts[i])]
        return curve.same_pair(want, got)

    s0, s1, odd = frame.spectral(family)
    c0, c1, codd = frame.reps(bis, curve)
    agree, odd2 = curve._same_pair_array(s0, s1, c0, c1)
    bad = _carray.first_failure(agree, odd | codd | odd2, agree_at)
    if bad is not None:
        raise VerificationError(
            f"declared and recomputed covers disagree at b={frame.pts[bad]}")
    return SpectralCover(family.surface, tuple(verticals), bis)


def build_regular_family(cover: SpectralCover, delta: LineBundleOnX,
                         samples: "int | list[complex]") -> FamilySpec:
    """A fibrewise-regular family with the given invariant cover.

    Pre: no verticals, bisection invariant for delta.  The determinant of
    the result is the dual of delta; split covers give split families, Pell
    bisections give pushforward families whose nonsplit locus sits exactly
    over the branch points.  This is the inverse transform with trivial
    line data."""
    if cover.verticals:
        raise UnsupportedError("regular construction needs a vertical-free cover")
    if invariance_residual(cover, delta, samples) > cover.curve.tolerance:
        raise VerificationError("cover is not invariant for this delta")
    return _family_on_cover(cover)


def _family_on_cover(
        cover: SpectralCover, base_classes: tuple[int, int] = (0, 0),
        twist: DivisorClass | None = None,
        torsion_pairs: tuple[tuple[int, int], ...] = ()) -> FamilySpec:
    """The family with the vertical-free spectral cover ``cover`` and the
    given line data: for two sections the split family of their inverses
    (base classes as given), for a Pell bisection the pushforward along
    its inverse map (twist and torsion pairs as given)."""
    surface = cover.surface
    bis = cover.bisection
    if isinstance(bis, TwoSections):
        l1 = LineBundleOnX(surface, base_classes[0], 1.0 / bis.a1)
        l2 = LineBundleOnX(surface, base_classes[1], 1.0 / bis.a2)
        return FamilySpec.split(surface, l1, l2)
    return FamilySpec.pushforward(surface, bis.cover, bis.inverse(),
                                  twist=twist, torsion_pairs=torsion_pairs)
