# spectral_forge
"""
Rank-2 holomorphic bundles on elliptic surfaces over a Tate curve.

The library covers four layers:

- fibre arithmetic on the Tate curve (``tate``, ``fiber``): line bundles,
  cohomology, rank-2 fibre classes and the extension chart,
- exact divisor arithmetic on hyperelliptic double covers (``covers``):
  Mumford representation, reduction, norm-kernel membership,
- surfaces and spectral data (``surface``, ``spectral``, ``families``):
  multiple fibres, bisections, invariance, pushforward and split families,
  elementary modifications with their jump bookkeeping,
- the transform (``fourier``): descent twist verification, forward and
  inverse transforms, roundtrip reports.

Scenario files and the command line driver live in ``scenario`` and ``cli``.
"""

from __future__ import annotations

from .covers import (BasePoint, DivisorClass, HyperCover, Poly, QI, class_add,
                     class_equal, class_neg, classes_equal_by_search,
                     in_prym, involution_pullback, norm_degree, point_class)
from .errors import (InvalidFamilyError, MultipleFibreRestrictionError,
                     NoSurjectionError, PunctureError, SchemaError,
                     SpectralForgeError, UnsupportedError, VerificationError)
from .families import (FamilySpec, JumpRecord, PopStep, PushStep,
                       PushforwardData, SplitData, allowable_mod,
                       assign_jumping_sequence, attach_generic_jumps,
                       build_regular_family, can_add_jump, cover_from_family,
                       default_sample_points, elem_mod, jump_report,
                       jumping_sequence)
from .fiber import (AtiyahRegular, FiberClass, SplitFiber, UnstableFiber,
                    extension_from_pair, h1_restrict, is_regular,
                    make_extension, obstruction, obstruction_zeros,
                    spectral_points, theta_even, theta_odd)
from .fourier import (DescentTwist, LineData, RoundtripReport,
                      TransformedSheaf, branch_correction, descent_divisor,
                      fm_inverse, fm_transform, roundtrip_check,
                      torsion_roundtrip_check, z_action_residual)
from .scenario import (Scenario, canonical_json, load_scenario,
                       parse_scenario, scenario_hash)
from .spectral import (ChernData, PellMap, RegularChart, RuledGraph,
                       SpectralCover, TwoSections, bisection_torus_degree,
                       check_invariance, graph_in_ruled_surface,
                       invariance_residual, regular_chart, sample_circle)
from .surface import (FibreComponentGroups, GroupPresentation, LineBundleOnX,
                      MultipleFibre, SurfaceSpec, fibre_component_groups,
                      invariant_factors, involution_on_fibre, pic_relative,
                      ruled_orbit)
from .tate import TateCurve, TateLineBundle, TatePoint, theta_sections

__version__ = "0.1.0"

__all__ = [
    "AtiyahRegular", "BasePoint", "ChernData", "DescentTwist", "DivisorClass",
    "FamilySpec", "FiberClass", "FibreComponentGroups", "GroupPresentation",
    "HyperCover", "InvalidFamilyError",
    "JumpRecord", "LineBundleOnX", "LineData", "MultipleFibre",
    "MultipleFibreRestrictionError", "NoSurjectionError", "PellMap",
    "Poly", "PopStep", "PunctureError", "PushStep",
    "PushforwardData", "QI", "RegularChart", "RoundtripReport", "RuledGraph",
    "Scenario", "SchemaError", "SpectralCover", "SpectralForgeError",
    "SplitData", "SplitFiber", "SurfaceSpec", "TateCurve", "TateLineBundle",
    "TatePoint", "TransformedSheaf", "TwoSections", "UnstableFiber",
    "UnsupportedError", "VerificationError",
    "allowable_mod", "assign_jumping_sequence", "attach_generic_jumps",
    "bisection_torus_degree", "branch_correction", "build_regular_family",
    "can_add_jump", "canonical_json", "check_invariance", "class_add",
    "class_equal", "class_neg", "classes_equal_by_search",
    "cover_from_family", "default_sample_points", "descent_divisor",
    "elem_mod", "extension_from_pair",
    "fibre_component_groups", "fm_inverse", "fm_transform",
    "graph_in_ruled_surface", "h1_restrict", "in_prym", "invariance_residual",
    "invariant_factors", "involution_on_fibre", "involution_pullback",
    "is_regular", "jump_report", "jumping_sequence", "load_scenario",
    "make_extension", "norm_degree", "obstruction",
    "obstruction_zeros", "parse_scenario", "pic_relative", "point_class",
    "regular_chart", "roundtrip_check", "ruled_orbit", "sample_circle",
    "scenario_hash", "spectral_points", "theta_even", "theta_odd",
    "theta_sections", "torsion_roundtrip_check", "z_action_residual",
]
