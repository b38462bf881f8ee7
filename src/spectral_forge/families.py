# spectral_forge/families.py
"""
Rank-2 families over the base, their fibre classes, and the modification
journal.

A family is a presentation (split pair of line bundles, or the pushforward
of line-bundle data along a hyperelliptic double cover) plus an ordered
journal of elementary modifications.  All invariants are derived, never
stored twice:

- determinant = presentation determinant twisted by O(-fibre) once per step,
- c2 = presentation c2 plus the signed degree of each step,
- the fibre class at a modified point is read off the top of that point's
  push stack, and an allowable (pop) step is the exact inverse of the most
  recent push there.  The per-point stacks are indexed once per family and
  extended step by step, so journal bookkeeping is linear in its length.

Jumping-sequence bookkeeping follows the stack discipline: pushing degree
r >= current height prepends r to the sequence, the allowable modification
removes the head, the multiplicity is the sum, and sequences are therefore
always non-increasing.

Pushforward presentations use sheet-equivariant maps with exact constant
norm, so the fibrewise determinant factor is the exact inverse-square of the
map's scale; twisting by a divisor class on the cover changes the stored
line data only -- its effect on the determinant is the norm class of the
twist, computed by pushing the class forward to the base.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

from .covers import (BASE_POINT_RADIUS, BasePoint, DivisorClass, HyperCover,
                     class_add, norm_degree)
from .errors import (InvalidFamilyError, NoSurjectionError, UnsupportedError,
                     VerificationError)
from .fiber import (AtiyahRegular, FiberClass, SplitFiber, UnstableFiber,
                    is_regular, spectral_points)
from .spectral import (Bisection, ChernData, PellMap, SpectralCover,
                       TwoSections, _sample_ladder, bisection_torus_degree,
                       check_invariance)
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
        if not self.cover.same_curve(self.factor_map.cover):
            raise ValueError("factor map lives on a different cover")
        if self.twist is not None:
            if not self.twist.cover.same_curve(self.cover):
                raise ValueError("twist class lives on a different cover")
            if self.twist.degree() != 0:
                raise ValueError("twist must be a degree-0 class")


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


def _stack_step(stacks: dict[BasePoint, tuple[PushStep, ...]],
                step: JournalStep) -> None:
    """Apply one journal step to per-point push stacks in place."""
    stack = stacks.get(step.at, ())
    if isinstance(step, PushStep):
        stacks[step.at] = stack + (step,)
    elif not stack:
        raise InvalidFamilyError("pop without a jump in journal")
    else:
        stacks[step.at] = stack[:-1]


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
                    torsion_pairs: tuple[tuple[int, int], ...] = (),
                    base_c2: int | None = None) -> "FamilySpec":
        data = PushforwardData(cover, factor_map, twist, torsion_pairs)
        if base_c2 is None:
            base_c2 = bisection_torus_degree(factor_map.inverse())
        return FamilySpec(surface, data, base_c2, ())

    # ----- derived invariants --------------------------------------------

    @property
    def curve(self) -> TateCurve:
        return self.surface.curve

    def presentation_determinant(self) -> LineBundleOnX:
        if isinstance(self.data, SplitData):
            return self.data.determinant()
        nrm = self.data.factor_map.norm_constant().to_complex()
        parts = [0] * len(self.surface.multiple_fibres)
        pair_iter = iter(self.data.torsion_pairs)
        for i, mf in enumerate(self.surface.multiple_fibres):
            if not self.data.cover.is_branch(mf.at):
                try:
                    a1, a2 = next(pair_iter)
                except StopIteration:
                    a1, a2 = 0, 0
                parts[i] = a1 + a2
        return LineBundleOnX(self.surface, 0, nrm, tuple(parts))

    @cached_property
    def determinant(self) -> LineBundleOnX:
        det = self.presentation_determinant()
        for step in self.steps:
            det = det.tensor(self._fibre_twist(step.at).dual())
        return det

    def _fibre_twist(self, at: BasePoint) -> LineBundleOnX:
        mults = self.surface.multiple_fibres
        parts = [0] * len(mults)
        for i, mf in enumerate(mults):
            if mf.at == at:
                parts[i] = 1
                return LineBundleOnX(self.surface, 0, 1.0 + 0j, tuple(parts))
        return LineBundleOnX(self.surface, 1, 1.0 + 0j, tuple(parts))

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
        (emptied stacks keep their place).  ``with_step`` extends the
        parent's index by one step instead of rescanning the journal."""
        stacks: dict[BasePoint, tuple[PushStep, ...]] = {}
        for step in self.steps:
            _stack_step(stacks, step)
        return stacks

    def jump_stack(self, at: BasePoint) -> list[PushStep]:
        return list(self._stacks.get(at, ()))

    def jump_points(self) -> list[BasePoint]:
        return [p for p, stack in self._stacks.items() if stack]

    def has_jumps(self) -> bool:
        return any(self._stacks.values())

    def with_step(self, step: JournalStep) -> "FamilySpec":
        out = replace(self, steps=self.steps + (step,))
        stacks = dict(self._stacks)
        _stack_step(stacks, step)
        # written like cached_property's own store: the dataclass is frozen
        out.__dict__["_stacks"] = stacks
        return out

    # ----- fibre data -----------------------------------------------------

    def involution_bundle(self) -> LineBundleOnX:
        """The degree-0 bundle pairing the two spectral values fibrewise:
        the dual of the determinant."""
        return self.determinant.dual()

    def _match_journal_point(self, b: complex) -> BasePoint | None:
        for p in self.jump_points():
            if p.is_infinity:
                continue
            if abs(p.to_complex() - b) <= BASE_POINT_RADIUS:
                return p
        return None

    def base_fiber_class(self, b: complex) -> FiberClass:
        """Fibre class of the unmodified presentation over b."""
        curve = self.curve
        if isinstance(self.data, SplitData):
            return SplitFiber(self.data.l1.restrict_to_fiber(b),
                              self.data.l2.restrict_to_fiber(b))
        f0, f1 = self.data.factor_map.sheet_values(b)
        if curve.point(f0) == curve.point(f1):
            return AtiyahRegular(TateLineBundle(curve, 0, f0))
        return SplitFiber(TateLineBundle(curve, 0, f0),
                          TateLineBundle(curve, 0, f1))

    def fiber_class_at(self, b: complex) -> FiberClass:
        """Journal-aware fibre class over a smooth fibre."""
        at = self._match_journal_point(b)
        if at is None:
            return self.base_fiber_class(b)
        top = self._stacks[at][-1]
        curve = self.curve
        det_here = self.determinant.restrict_to_fiber(b)
        sub = TateLineBundle(curve, top.degree, top.line_point)
        return UnstableFiber(top.degree, sub, det_here)

    def spectral_values_at(self, b: complex) -> tuple[complex, complex]:
        """The two torus values of the cover over b (semistable locus)."""
        if isinstance(self.data, SplitData):
            return (1.0 / self.data.l1.constant_factor,
                    1.0 / self.data.l2.constant_factor)
        return self.data.factor_map.inverse().sheet_values(b)

    def fiber_factors_at(self, b: complex) -> tuple[complex, complex]:
        """Factors of the two graded line pieces over b, sheet-aligned with
        ``spectral_values_at`` (their componentwise product is 1 exactly in
        exact arithmetic, and up to roundoff here)."""
        if isinstance(self.data, SplitData):
            return (self.data.l1.constant_factor,
                    self.data.l2.constant_factor)
        return self.data.factor_map.sheet_values(b)

    # ----- twisting -------------------------------------------------------

    def twisted(self, nu: DivisorClass) -> "FamilySpec":
        """Twist the pushforward line data by a degree-0 class on the cover.

        The spectral cover is untouched.  The determinant changes by the
        norm of nu, which is computed from its pushforward degree; over a
        rational base a degree-0 norm class is principal, so the determinant
        bookkeeping is unchanged exactly when norm_degree(nu) == 0.
        """
        if not isinstance(self.data, PushforwardData):
            raise UnsupportedError("twisting requires a pushforward family")
        if nu.degree() != 0:
            raise ValueError("twist must be a degree-0 class")
        if norm_degree(nu) != 0:
            raise InvalidFamilyError(
                "unbalanced class: nonzero pushforward degree would change "
                "the determinant")
        base = self.data.twist
        new = nu if base is None else class_add(base, nu)
        return replace(self, data=replace(self.data, twist=new))

    def twisted_torsion(self, pairs: tuple[tuple[int, int], ...]) -> "FamilySpec":
        """Twist by residue pairs (a', a'') at the non-branch multiple
        fibres.  Antisymmetric pairs (a, -a) leave the determinant parts
        unchanged; any other pair shifts them."""
        if not isinstance(self.data, PushforwardData):
            raise UnsupportedError("twisting requires a pushforward family")
        old = self.data.torsion_pairs
        n = max(len(old), len(pairs))
        merged = []
        for i in range(n):
            o = old[i] if i < len(old) else (0, 0)
            p = pairs[i] if i < len(pairs) else (0, 0)
            merged.append((o[0] + p[0], o[1] + p[1]))
        return replace(self, data=replace(self.data, torsion_pairs=tuple(merged)))


# ============================================================
# Jump records
# ============================================================

@dataclass(frozen=True)
class JumpRecord:
    """Summary of one jump: height, multiplicity, length, full sequence."""

    at: BasePoint
    height: int
    multiplicity: int
    length: int
    sequence: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.sequence:
            raise ValueError("empty jumping sequence")
        if self.height != self.sequence[0]:
            raise ValueError("height must head the sequence")
        if self.multiplicity != sum(self.sequence):
            raise ValueError("multiplicity must be the sequence sum")
        if self.length != len(self.sequence):
            raise ValueError("length must be the sequence length")
        if any(self.sequence[i + 1] > self.sequence[i]
               for i in range(len(self.sequence) - 1)):
            raise ValueError("jumping sequences are non-increasing")


# ============================================================
# Modification calculus
# ============================================================

def can_add_jump(family: FamilySpec, at: BasePoint, r: int,
                 line_point: complex | None = None) -> bool:
    """Whether a surjection onto a degree-r line bundle exists on the fibre.

    Regular fibres admit every r >= 1.  The split fibre with equal factors
    admits r >= 2 but not r = 1.  On a fibre already jumped to height h, a
    further surjection needs r > h, or r = h onto the destabilising sub
    itself."""
    if r < 1:
        return False
    if at.is_infinity:
        return False
    stack = family._stacks.get(at)
    if stack:
        h = stack[-1].degree
        if r > h:
            return True
        if r < h:
            return False
        if line_point is None:
            return False
        return family.curve.in_lattice(line_point / stack[-1].line_point)
    if at.x is not None and family.surface.is_multiple_point(at):
        # evaluated on the cyclic cover; the lifted fibre is regular for the
        # presentations supported here
        return True
    fc = family.base_fiber_class(at.to_complex())
    if is_regular(fc):
        return True
    # non-regular semistable: split with equal factors
    return r >= 2


def elem_mod(family: FamilySpec, at: BasePoint, r: int,
             line_point: complex) -> FamilySpec:
    """Elementary modification: kernel of a surjection onto the degree-r
    bundle with the given factor on the fibre over `at`.

    Updates: determinant twisted by the dual fibre class, c2 += r, spectral
    cover gains vertical multiplicity r, fibre class becomes the unstable
    pair (sub of degree r) + (its dual times the determinant)."""
    if r < 1:
        raise ValueError("modification degree must be >= 1")
    if not can_add_jump(family, at, r, line_point):
        raise NoSurjectionError(
            f"no surjection of degree {r} exists at {at}")
    return family.with_step(PushStep(at, r, line_point))


def allowable_mod(family: FamilySpec, at: BasePoint) -> FamilySpec:
    """The canonical modification onto the destabilising quotient; removes
    the head of the jumping sequence at `at`."""
    if not family._stacks.get(at):
        raise NoSurjectionError(f"no jump at {at}; nothing to remove")
    return family.with_step(PopStep(at))


def jumping_sequence(family: FamilySpec, at: BasePoint) -> JumpRecord:
    """The jump data at `at`: the push stack's degrees from the top down,
    which is what repeated allowable modification peels off."""
    heights = tuple(s.degree for s in reversed(family._stacks.get(at, ())))
    if not heights:
        raise NoSurjectionError(f"no jump at {at}")
    return JumpRecord(at, heights[0], sum(heights), len(heights), heights)


def jump_report(family: FamilySpec) -> list[JumpRecord]:
    return [jumping_sequence(family, p) for p in family.jump_points()]


def attach_generic_jumps(family: FamilySpec,
                         plan: list[tuple[BasePoint, int]],
                         line_point: complex = 2.0 + 0j) -> FamilySpec:
    """Realise each planned jump by multiplicity-many degree-1 steps, so all
    resulting sequences are {1, ..., 1}."""
    out = family
    for at, mult in plan:
        if mult < 1:
            raise ValueError("plan multiplicities must be >= 1")
        for _ in range(mult):
            out = elem_mod(out, at, 1, line_point)
    return out


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

def default_sample_points(family: FamilySpec, count: int = 32,
                          phase: float = 0.0) -> list[complex]:
    """Deterministic sample circle avoiding special points of the family.

    Tries a short ladder of radii and phases until every sample avoids
    multiple fibres, journal points, branch points and map punctures."""
    specials: list[complex] = []
    for mf in family.surface.multiple_fibres:
        if not mf.at.is_infinity:
            specials.append(mf.at.to_complex())
    for at in family._stacks:
        if not at.is_infinity:
            specials.append(at.to_complex())
    data = family.data

    def reject(b: complex) -> bool:
        if any(abs(b - s) < 1e-3 for s in specials):
            return True
        return (isinstance(data, PushforwardData)
                and (data.cover.branch_distance(b) < 1e-6
                     or data.factor_map.punctures_near(b)))

    return _sample_ladder(count, abs(family.curve.tau), phase, reject)


def _resolve_points(family: FamilySpec,
                    samples: "int | list[complex]") -> list[complex]:
    """The family's default sample circle for a count, else the given points."""
    if isinstance(samples, int):
        return default_sample_points(family, samples)
    return list(samples)


def cover_from_family(family: FamilySpec,
                      samples: "int | list[complex]" = 32) -> SpectralCover:
    """The family's spectral cover: journal verticals plus the bisection.

    The bisection is the declared presentation's inverse factor map (or the
    pair of constant sections); at every sample the fibre class's own
    twist-cohomology support is recomputed and compared, so inconsistent
    declarations fail loudly.
    """
    pts = _resolve_points(family, samples)
    curve = family.curve
    verticals: list[tuple[BasePoint, int]] = []
    for p, stack in family._stacks.items():
        if stack:
            verticals.append((p, sum(s.degree for s in stack)))
    bis: Bisection
    if isinstance(family.data, SplitData):
        a1, a2 = family.spectral_values_at(0.0)
        bis = TwoSections(a1, a2)
    else:
        bis = family.data.factor_map.inverse()
    for b in pts:
        fc = family.fiber_class_at(b)
        pts_fc = spectral_points(fc)
        if pts_fc is None:
            continue  # vertical point: whole fibre supported
        want = [p.value for p in pts_fc]
        got = [curve.canonical_rep(v).value for v in bis.sheet_values(b)]
        if not curve.same_pair(want, got):
            raise VerificationError(
                f"declared and recomputed covers disagree at b={b}")
    return SpectralCover(family.surface, tuple(verticals), bis)


def build_regular_family(cover: SpectralCover, delta: LineBundleOnX,
                         samples: "int | list[complex]" = 32) -> FamilySpec:
    """A fibrewise-regular family with the given invariant cover.

    Pre: no verticals, bisection invariant for delta.  The determinant of
    the result is the dual of delta; split covers give split families, Pell
    bisections give pushforward families whose nonsplit locus sits exactly
    over the branch points.  This is the inverse transform with trivial
    line data."""
    if cover.verticals:
        raise UnsupportedError("regular construction needs a vertical-free cover")
    if not check_invariance(cover, delta, samples):
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
    if not isinstance(bis, PellMap):
        raise UnsupportedError("perturbed supports are not invertible")
    return FamilySpec.pushforward(surface, bis.cover, bis.inverse(),
                                  twist=twist, torsion_pairs=torsion_pairs)
