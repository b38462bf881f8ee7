# spectral_forge/surface.py
"""
Minimal model of the elliptic surfaces under study and their line bundles.

The surface is a fibration over a rational base with multiplicative elliptic
fibres (quotient of an annulus bundle by a single expanding factor tau) and a
finite set of multiple fibres of multiplicities m_i >= 2.  Its Picard-type
data splits into

- a divisible part C* (constant twists along the fibres),
- the base pullback Z (theta_degree tracks the polarisation of the base),
- relative classes: one Z summand from the fibre plus Z/m_i per multiple
  fibre, since m_i * T_i is linearly equivalent to the reduced fibre class.

``LineBundleOnX`` records exactly the data that restricts to fibres:
an integer base class, a constant fibre factor, and residues at the
multiple fibres.  Restriction to a smooth fibre forgets the base class into
degree 0 and keeps the factor; restriction at a multiple fibre is refused
(the correct recipe passes through the associated cyclic cover).

``fibre_component_groups`` computes the component and torsion bookkeeping of
the groups that classify rank-2 bundles with a fixed spectral curve: the
ambient group, its identity-component quotient, and the finite twist group
contributed by multiple fibres not sitting over branch points of the cover.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import gcd, lcm, prod

from . import _carray
from ._carray import np
from .covers import BASE_POINT_RADIUS, BasePoint, HyperCover, _base_point_near
from .errors import MultipleFibreRestrictionError
from .tate import TateLineBundle

__all__ = [
    "MultipleFibre",
    "SurfaceSpec",
    "LineBundleOnX",
    "GroupPresentation",
    "FibreComponentGroups",
    "pic_relative",
    "invariant_factors",
    "fibre_component_groups",
]


# ============================================================
# Surfaces
# ============================================================

@dataclass(frozen=True)
class MultipleFibre:
    """Multiple fibre of multiplicity m >= 2 over a base point."""

    at: BasePoint
    multiplicity: int

    def __post_init__(self) -> None:
        if self.multiplicity < 2:
            raise ValueError("multiple fibres have multiplicity >= 2")


@dataclass(frozen=True)
class SurfaceSpec:
    """Elliptic surface data: fibre curve, base polarisation, multiple fibres."""

    curve: TateCurve
    theta_degree: int = 1
    multiple_fibres: tuple[MultipleFibre, ...] = ()

    def __post_init__(self) -> None:
        if self.theta_degree < 1:
            raise ValueError("theta_degree must be >= 1")
        seen: list[BasePoint] = []
        for mf in self.multiple_fibres:
            if any(mf.at == s for s in seen):
                raise ValueError("duplicate multiple fibre location")
            seen.append(mf.at)

    def multiplicities(self) -> tuple[int, ...]:
        return tuple(mf.multiplicity for mf in self.multiple_fibres)

    def is_multiple_point(self, b: BasePoint) -> bool:
        return any(mf.at == b for mf in self.multiple_fibres)

    def is_multiple_point_complex(self, b: complex) -> bool:
        return _base_point_near([mf.at for mf in self.multiple_fibres], b) is not None

    def _multiple_mask(self, b: np.ndarray) -> np.ndarray:
        """``is_multiple_point_complex`` at each sample."""
        return _carray.nearest(b, [mf.at.to_complex() for mf in self.multiple_fibres
                                   if not mf.at.is_infinity]) <= BASE_POINT_RADIUS


# ============================================================
# Line bundles on the surface
# ============================================================

@dataclass(frozen=True)
class LineBundleOnX:
    """Line bundle data that survives restriction to fibres.

    base_class: pullback degree from the base (vanishes on smooth fibres),
    constant_factor: the C* part, restricting to the factor of a degree-0
        bundle on every smooth fibre,
    fibre_parts: residue of the class at each multiple fibre, mod m_i.
    """

    surface: SurfaceSpec
    base_class: int = 0
    constant_factor: complex = 1.0 + 0j
    fibre_parts: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.constant_factor == 0:
            raise ValueError("constant factor must be nonzero")
        mults = self.surface.multiplicities()
        parts = self.fibre_parts or tuple(0 for _ in mults)
        if len(parts) != len(mults):
            raise ValueError("fibre_parts length must match multiple fibres")
        parts = tuple(p % m for p, m in zip(parts, mults))
        object.__setattr__(self, "fibre_parts", parts)

    # ----- group operations ----------------------------------------------

    def tensor(self, other: "LineBundleOnX") -> "LineBundleOnX":
        if self.surface != other.surface:
            raise ValueError("bundles live on different surfaces")
        return LineBundleOnX(
            self.surface,
            self.base_class + other.base_class,
            self.constant_factor * other.constant_factor,
            tuple(a + b for a, b in zip(self.fibre_parts, other.fibre_parts)),
        )

    def dual(self) -> "LineBundleOnX":
        return LineBundleOnX(
            self.surface,
            -self.base_class,
            1.0 / self.constant_factor,
            tuple(-p for p in self.fibre_parts),
        )

    def __mul__(self, other: "LineBundleOnX") -> "LineBundleOnX":
        return self.tensor(other)

    # ----- restriction ----------------------------------------------------

    def restrict_to_fiber(self, b: complex) -> TateLineBundle:
        """Restriction to the smooth fibre over b: degree 0, constant factor."""
        if self.surface.is_multiple_point_complex(b):
            raise MultipleFibreRestrictionError(
                "restriction at a multiple fibre requires the cyclic cover")
        return TateLineBundle(self.surface.curve, 0, self.constant_factor)

    def isomorphic(self, other: "LineBundleOnX") -> bool:
        return (self.surface == other.surface
                and self.base_class == other.base_class
                and self.fibre_parts == other.fibre_parts
                and self.surface.curve.in_lattice(
                    self.constant_factor / other.constant_factor))


# ============================================================
# Group presentations
# ============================================================

@dataclass(frozen=True)
class GroupPresentation:
    """Abelian group shape: Z^free_rank + sum Z/t + divisible summands."""

    free_rank: int = 0
    torsion: tuple[int, ...] = ()
    divisible: tuple[str, ...] = ()
    generators: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if any(t < 2 for t in self.torsion):
            raise ValueError("torsion orders must be >= 2")

    def torsion_order(self) -> int:
        return prod(self.torsion) if self.torsion else 1

    def invariant_factors(self) -> tuple[int, ...]:
        return invariant_factors(self.torsion)


def invariant_factors(orders: tuple[int, ...] | list[int]) -> tuple[int, ...]:
    """Invariant factors d_1 | d_2 | ... of a direct sum of cyclic groups:
    Z/a + Z/b = Z/gcd(a, b) + Z/lcm(a, b), swept over every pair i < j, so
    each entry ends up dividing all later ones."""
    f = [o for o in orders if o > 1]
    for i in range(len(f)):
        for j in range(i + 1, len(f)):
            f[i], f[j] = gcd(f[i], f[j]), lcm(f[i], f[j])
    return tuple(o for o in f if o > 1)


def pic_relative(surface: SurfaceSpec) -> GroupPresentation:
    """Twisting data modulo base pullbacks: C* x Z(fibre) x prod Z/m_i."""
    gens = ("fibre",) + tuple(
        f"T({mf.at!r}, m={mf.multiplicity})" for mf in surface.multiple_fibres)
    return GroupPresentation(
        free_rank=1,
        torsion=surface.multiplicities(),
        divisible=("C*",),
        generators=gens,
    )


# ============================================================
# Component groups for a fixed spectral curve
# ============================================================

@dataclass(frozen=True)
class FibreComponentGroups:
    """Classification groups for bundles with fixed determinant and cover."""

    ambient: GroupPresentation
    identity_quotient: GroupPresentation
    twist_group: GroupPresentation
    prym_genus: int
    jacobian_copies: int
    kernel_components: int
    components: int
    collapsed_multiplicities: tuple[int, ...] = ()


def fibre_component_groups(surface: SurfaceSpec,
                           cover: HyperCover) -> FibreComponentGroups:
    """Component bookkeeping for the moduli of rank-2 bundles whose spectral
    curve is the given double cover.

    The continuous part is a product of ``genus`` line-bundle parameters on
    the cover (a Jacobian slice); its norm-trivial kernel is connected over a
    rational base since the pushforward of a degree-0 class is always
    principal.  That is asserted, not computed: ``kernel_components`` is the
    constant 1, and because the kernel is taken to be connected the
    identity-component quotient is the twist group itself (the same object),
    so the order relation between the two holds by construction.
    Finite twists come from multiple fibres: a multiple fibre over a
    non-branch base point splits into two fibres of the cover and contributes
    Z/m of genuinely distinct twists, while over a branch point the sheet
    involution identifies the twist with its inverse-determinant partner and
    the contribution collapses.
    """
    g = cover.genus
    # degree of the pushforward of a degree-0 class: identically zero over a
    # rational base, so the norm-kernel is the full connected Jacobian slice
    kernel_components = 1
    torsion: list[int] = []
    collapsed: list[int] = []
    for mf in surface.multiple_fibres:
        if cover.is_branch(mf.at):
            collapsed.append(mf.multiplicity)
        else:
            torsion.append(mf.multiplicity)
    twist = GroupPresentation(
        torsion=tuple(torsion),
        generators=tuple(f"m={m}" for m in torsion),
    )
    ambient = replace(twist, divisible=(f"Jac(genus {g})",),
                      generators=("jacobian slice",) + twist.generators)
    components = kernel_components * twist.torsion_order()
    return FibreComponentGroups(
        ambient=ambient,
        identity_quotient=twist,
        twist_group=twist,
        prym_genus=g,
        jacobian_copies=twist.torsion_order(),
        kernel_components=kernel_components,
        components=components,
        collapsed_multiplicities=tuple(collapsed),
    )
