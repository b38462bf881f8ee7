# spectral_forge/scenario.py
"""
Scenario files: a single JSON document describing a surface, an optional
family, an optional explicit cover, and run parameters.

Encoding conventions (documented here and in the README):

- complex numbers: two-element arrays [re, im] of floats,
- exact Gaussian rationals: four-element arrays [re_num, re_den, im_num,
  im_den] of integers,
- polynomials: arrays of Gaussian rationals, ascending degree,
- base points: a Gaussian rational array, or the string "inf",
- divisor classes: {"u": poly, "v": poly, "inf": int}.

``scenario_hash`` is the sha256 of the canonical JSON serialization
(sorted keys, tight separators), so reports embedding it are byte-stable.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any

from .covers import BasePoint, DivisorClass, HyperCover, Poly, QI
from .errors import NoSurjectionError, SchemaError
from .families import FamilySpec, allowable_mod, elem_mod
from .spectral import PellMap, SpectralCover, TwoSections
from .surface import LineBundleOnX, MultipleFibre, SurfaceSpec
from .tate import TateCurve

__all__ = [
    "Scenario",
    "load_scenario",
    "parse_scenario",
    "scenario_hash",
    "canonical_json",
    "encode_complex",
    "parse_complex",
    "parse_qi",
    "parse_poly",
    "parse_base_point",
    "encode_base_point",
]


# ============================================================
# Primitive codecs
# ============================================================

def parse_complex(value: Any, where: str) -> complex:
    if (not isinstance(value, list) or len(value) != 2
            or not all(isinstance(x, (int, float)) for x in value)):
        raise SchemaError(f"{where}: expected [re, im], got {value!r}")
    return complex(float(value[0]), float(value[1]))


def encode_complex(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def parse_qi(value: Any, where: str) -> QI:
    if (not isinstance(value, list) or len(value) != 4
            or not all(isinstance(x, int) for x in value)):
        raise SchemaError(
            f"{where}: expected [re_num, re_den, im_num, im_den], got {value!r}")
    if value[1] == 0 or value[3] == 0:
        raise SchemaError(f"{where}: zero denominator")
    return QI.from_pair(value[0], value[1], value[2], value[3])


def parse_poly(value: Any, where: str) -> Poly:
    if not isinstance(value, list):
        raise SchemaError(f"{where}: expected a coefficient array")
    return Poly(tuple(parse_qi(c, f"{where}[{i}]") for i, c in enumerate(value)))


def parse_base_point(value: Any, where: str) -> BasePoint:
    if value == "inf":
        return BasePoint.infinity()
    return BasePoint(parse_qi(value, where))


def encode_base_point(p: BasePoint) -> Any:
    if p.is_infinity:
        return "inf"
    x = p.x
    return [x.re.numerator, x.re.denominator, x.im.numerator, x.im.denominator]


def parse_divisor_class(value: Any, cover: HyperCover, where: str) -> DivisorClass:
    if not isinstance(value, dict):
        raise SchemaError(f"{where}: expected a divisor object")
    u = parse_poly(value.get("u", []), f"{where}.u")
    v = parse_poly(value.get("v", []), f"{where}.v")
    inf = value.get("inf", u.degree)
    if not isinstance(inf, int):
        raise SchemaError(f"{where}.inf: expected an integer")
    try:
        return DivisorClass(cover, u, v, inf)
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from exc


# ============================================================
# Scenario object
# ============================================================

@dataclass(frozen=True)
class Scenario:
    """Parsed scenario: typed objects plus the raw document for hashing."""

    raw: dict
    surface: SurfaceSpec
    family: FamilySpec | None
    cover: SpectralCover | None
    determinant: LineBundleOnX | None
    descent_point: BasePoint | None
    samples: int
    seed: int
    points: tuple[complex, ...] | None

    @property
    def tol(self) -> float:
        return self.surface.curve.tolerance

    def hash(self) -> str:
        return scenario_hash(self.raw)


def canonical_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def scenario_hash(raw: dict) -> str:
    return hashlib.sha256(canonical_json(raw).encode("utf-8")).hexdigest()


def load_scenario(path: str, tol: float | None = None,
                  samples: int | None = None,
                  seed: int | None = None) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read scenario file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"scenario is not valid JSON: {exc}") from exc
    return parse_scenario(raw, tol, samples, seed)


def parse_scenario(raw: Any, tol: float | None = None,
                   samples: int | None = None,
                   seed: int | None = None) -> Scenario:
    """The typed scenario.  ``tol``, ``samples`` and ``seed``, when given,
    replace ``run.tol``, ``run.samples`` and ``run.seed`` and pass the same
    checks; the tolerance becomes the surface curve's.  The hash stays the
    hash of ``raw``."""
    if not isinstance(raw, dict):
        raise SchemaError("scenario root must be an object")
    run = raw.get("run", {})
    if not isinstance(run, dict):
        raise SchemaError("run: expected an object")
    if samples is None:
        samples = run.get("samples", 32)
    if tol is None:
        tol = run.get("tol", 1e-9)
    if seed is None:
        seed = run.get("seed", 0)
    if not isinstance(samples, int) or samples < 1:
        raise SchemaError("run.samples: expected a positive integer")
    if not isinstance(tol, (int, float)) or not 0 < tol < 1:
        raise SchemaError(f"run.tol: expected a number in (0, 1), got {tol!r}")
    if not isinstance(seed, int):
        raise SchemaError("run.seed: expected an integer")
    points = None
    if run.get("points") is not None:
        raw_pts = run["points"]
        if not isinstance(raw_pts, list) or not raw_pts:
            raise SchemaError("run.points: expected a nonempty array")
        points = tuple(parse_complex(p, f"run.points[{i}]")
                       for i, p in enumerate(raw_pts))
    surface = _parse_surface(raw.get("surface"), float(tol))
    family = None
    if "family" in raw and raw["family"] is not None:
        family = _parse_family(raw["family"], surface)
    cover = None
    if "cover" in raw and raw["cover"] is not None:
        cover = _parse_cover(raw["cover"], surface)
    determinant = None
    if "determinant" in raw and raw["determinant"] is not None:
        determinant = _parse_determinant(raw["determinant"], surface)
    descent_point = None
    descent = raw.get("descent")
    if descent is not None:
        if not isinstance(descent, dict) or "b0" not in descent:
            raise SchemaError("descent: expected an object with b0")
        descent_point = parse_base_point(descent["b0"], "descent.b0")
    return Scenario(raw, surface, family, cover, determinant, descent_point,
                    samples, seed, points)


# ============================================================
# Section parsers
# ============================================================

def _parse_surface(value: Any, tol: float) -> SurfaceSpec:
    if not isinstance(value, dict):
        raise SchemaError("surface: required object missing")
    if "tolerance" in value:
        raise SchemaError("surface.tolerance: removed; set run.tol instead")
    tau = parse_complex(value.get("tau"), "surface.tau")
    theta = value.get("theta_degree", 1)
    if not isinstance(theta, int) or theta < 1:
        raise SchemaError("surface.theta_degree: expected a positive integer")
    fibres = []
    for i, mf in enumerate(value.get("multiple_fibres", [])):
        if not isinstance(mf, dict):
            raise SchemaError(f"surface.multiple_fibres[{i}]: expected object")
        at = parse_base_point(mf.get("at"), f"surface.multiple_fibres[{i}].at")
        m = mf.get("m")
        if not isinstance(m, int) or m < 2:
            raise SchemaError(
                f"surface.multiple_fibres[{i}].m: expected integer >= 2")
        fibres.append(MultipleFibre(at, m))
    try:
        curve = TateCurve(tau, tol)
        return SurfaceSpec(curve, theta, tuple(fibres))
    except ValueError as exc:
        raise SchemaError(f"surface: {exc}") from exc


def _parse_determinant(value: Any, surface: SurfaceSpec) -> LineBundleOnX:
    if not isinstance(value, dict):
        raise SchemaError("determinant: expected an object")
    base = value.get("base_class", 0)
    if not isinstance(base, int):
        raise SchemaError("determinant.base_class: expected an integer")
    factor = parse_complex(value.get("factor", [1.0, 0.0]), "determinant.factor")
    parts = value.get("fibre_parts", [0] * len(surface.multiple_fibres))
    if (not isinstance(parts, list)
            or not all(isinstance(p, int) for p in parts)):
        raise SchemaError("determinant.fibre_parts: expected integers")
    try:
        return LineBundleOnX(surface, base, factor, tuple(parts))
    except ValueError as exc:
        raise SchemaError(f"determinant: {exc}") from exc


def _parse_pell_map(value: Any, cover: HyperCover, where: str) -> PellMap:
    if not isinstance(value, dict):
        raise SchemaError(f"{where}: expected a map object")
    s = parse_qi(value.get("s", [1, 1, 0, 1]), f"{where}.s")
    if "p" in value or "q" in value:
        p = parse_poly(value.get("p", []), f"{where}.p")
        q = parse_poly(value.get("q", []), f"{where}.q")
        try:
            return PellMap.from_pell_pair(cover, p, q, s)
        except ValueError as exc:
            raise SchemaError(f"{where}: {exc}") from exc
    u = parse_poly(value.get("u", []), f"{where}.u")
    v = parse_poly(value.get("v", []), f"{where}.v")
    r = parse_poly(value.get("r", []), f"{where}.r")
    try:
        return PellMap(cover, u, v, r, s)
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def _parse_cover_curve(value: Any, where: str) -> HyperCover:
    if not isinstance(value, dict) or "f" not in value:
        raise SchemaError(f"{where}: expected an object with f")
    f = parse_poly(value["f"], f"{where}.f")
    try:
        return HyperCover(f)
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def _parse_family(value: Any, surface: SurfaceSpec) -> FamilySpec:
    if not isinstance(value, dict):
        raise SchemaError("family: expected an object")
    pres = value.get("presentation")
    if not isinstance(pres, dict) or "type" not in pres:
        raise SchemaError("family.presentation: expected an object with type")
    kind = pres["type"]
    if kind == "split":
        factors = pres.get("factors")
        if not isinstance(factors, list) or len(factors) != 2:
            raise SchemaError("family.presentation.factors: expected 2 entries")
        f1 = parse_complex(factors[0], "family.presentation.factors[0]")
        f2 = parse_complex(factors[1], "family.presentation.factors[1]")
        bases = pres.get("base_classes", [0, 0])
        if (not isinstance(bases, list) or len(bases) != 2
                or not all(isinstance(b, int) for b in bases)):
            raise SchemaError(
                "family.presentation.base_classes: expected 2 integers")
        try:
            fam = FamilySpec.split(
                surface,
                LineBundleOnX(surface, bases[0], f1),
                LineBundleOnX(surface, bases[1], f2))
        except ValueError as exc:
            raise SchemaError(f"family.presentation: {exc}") from exc
    elif kind == "pushforward":
        cover = _parse_cover_curve(pres.get("cover"), "family.presentation.cover")
        fmap = _parse_pell_map(pres.get("map"), cover, "family.presentation.map")
        twist = None
        if pres.get("twist") is not None:
            twist = parse_divisor_class(pres["twist"], cover,
                                        "family.presentation.twist")
        torsion = _parse_torsion_pairs(pres.get("torsion_pairs", []),
                                       "family.presentation.torsion_pairs")
        base_c2 = pres.get("c2")
        if base_c2 is not None and not isinstance(base_c2, int):
            raise SchemaError("family.presentation.c2: expected an integer")
        try:
            fam = FamilySpec.pushforward(surface, cover, fmap, twist, torsion,
                                         base_c2)
        except ValueError as exc:
            raise SchemaError(f"family.presentation: {exc}") from exc
    else:
        raise SchemaError(f"family.presentation.type: unknown kind {kind!r}")
    for i, step in enumerate(value.get("modifications", [])):
        fam = _apply_step(fam, step, f"family.modifications[{i}]")
    return fam


def _parse_torsion_pairs(value: Any, where: str) -> tuple[tuple[int, int], ...]:
    if not isinstance(value, list):
        raise SchemaError(f"{where}: expected an array")
    out = []
    for i, pair in enumerate(value):
        if (not isinstance(pair, list) or len(pair) != 2
                or not all(isinstance(x, int) for x in pair)):
            raise SchemaError(f"{where}[{i}]: expected [int, int]")
        out.append((pair[0], pair[1]))
    return tuple(out)


def _apply_step(fam: FamilySpec, step: Any, where: str) -> FamilySpec:
    """Replay one journal entry; a step the family cannot take makes the
    scenario malformed, so it is reported as a schema error at `where`."""
    if not isinstance(step, dict) or "op" not in step:
        raise SchemaError(f"{where}: expected an object with op")
    at = parse_base_point(step.get("at"), f"{where}.at")
    op = step["op"]
    if op == "push":
        degree = step.get("degree", 1)
        if not isinstance(degree, int) or degree < 1:
            raise SchemaError(f"{where}.degree: expected integer >= 1")
        point = parse_complex(step.get("line_point", [2.0, 0.0]),
                              f"{where}.line_point")
        if point == 0:
            raise SchemaError(f"{where}.line_point: must be nonzero")
    elif op != "pop":
        raise SchemaError(f"{where}.op: unknown op {op!r}")
    try:
        if op == "push":
            return elem_mod(fam, at, degree, point)
        return allowable_mod(fam, at)
    except NoSurjectionError as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def _parse_cover(value: Any, surface: SurfaceSpec) -> SpectralCover:
    if not isinstance(value, dict):
        raise SchemaError("cover: expected an object")
    verticals = []
    for i, vert in enumerate(value.get("verticals", [])):
        if not isinstance(vert, dict):
            raise SchemaError(f"cover.verticals[{i}]: expected object")
        at = parse_base_point(vert.get("at"), f"cover.verticals[{i}].at")
        mult = vert.get("multiplicity", 1)
        if not isinstance(mult, int) or mult < 1:
            raise SchemaError(
                f"cover.verticals[{i}].multiplicity: expected integer >= 1")
        verticals.append((at, mult))
    bis_raw = value.get("bisection")
    if not isinstance(bis_raw, dict) or "type" not in bis_raw:
        raise SchemaError("cover.bisection: expected an object with type")
    if bis_raw["type"] == "two_sections":
        a1 = parse_complex(bis_raw.get("a1"), "cover.bisection.a1")
        a2 = parse_complex(bis_raw.get("a2"), "cover.bisection.a2")
        try:
            bis = TwoSections(a1, a2)
        except ValueError as exc:
            raise SchemaError(f"cover.bisection: {exc}") from exc
    elif bis_raw["type"] == "pell":
        cover_curve = _parse_cover_curve(bis_raw.get("cover"),
                                         "cover.bisection.cover")
        bis = _parse_pell_map(bis_raw.get("map"), cover_curve,
                              "cover.bisection.map")
    else:
        raise SchemaError(
            f"cover.bisection.type: unknown kind {bis_raw['type']!r}")
    try:
        return SpectralCover(surface, tuple(verticals), bis)
    except ValueError as exc:
        raise SchemaError(f"cover: {exc}") from exc
