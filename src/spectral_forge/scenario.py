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

Every value is read by a reader: a function of ``(value, where)`` (and of
the cover beside it, for data that lives on a cover) that returns the typed
value or raises ``SchemaError`` naming ``where``, the value's path in the
document.  The keys of each object are declared once, in a module-level
table of key -> (reader, default), read in table order; the README's key
table is checked against these tables.  Hand-written code is left only for
rules across keys and for the journal, which is replayed step by step as it
is read.

``scenario_hash`` is the sha256 of the canonical JSON serialization
(sorted keys, tight separators), so reports embedding it are byte-stable.
"""

from __future__ import annotations

import cmath
import contextlib
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Iterator

from .covers import BasePoint, DivisorClass, HyperCover, Poly, QI
from .errors import NoSurjectionError, SchemaError
from .families import (FamilySpec, PushforwardData, SplitData, _JournalReplay,
                       _torsion_fibres)
from .spectral import (PellMap, SpectralCover, TwoSections,
                       bisection_torus_degree)
from .surface import LineBundleOnX, MultipleFibre, SurfaceSpec
from .tate import TateCurve

__all__ = [
    "Scenario",
    "load_scenario",
    "parse_scenario",
    "scenario_hash",
    "canonical_json",
]

_Reader = Callable[[Any, str], Any]


# ============================================================
# Primitive codecs
# ============================================================

def parse_complex(value: Any, where: str) -> complex:
    if (not isinstance(value, list) or len(value) != 2
            or not all(type(x) in (int, float) for x in value)):  # no bool
        raise SchemaError(f"{where}: expected [re, im], got {value!r}")
    try:
        z = complex(float(value[0]), float(value[1]))
        if cmath.isfinite(z):
            return z
    except OverflowError:  # an integer beyond the float range
        pass
    raise SchemaError(f"{where}: expected finite [re, im], got {value!r}")


@contextlib.contextmanager
def _schema(where: str) -> Iterator[None]:
    """A ``ValueError`` raised in the block, as a schema error at `where`."""
    try:
        yield
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def encode_complex(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def parse_qi(value: Any, where: str) -> QI:
    if (not isinstance(value, list) or len(value) != 4
            or not all(type(x) is int for x in value)):
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
    re, im = p.x.re, p.x.im
    return [re.numerator, re.denominator, im.numerator, im.denominator]


# ============================================================
# Readers
# ============================================================

# The default of a key that, when absent, the build derives from the others
_DERIVED = object()


def _int(low: int | None = None) -> _Reader:
    """An integer, at least `low` when one is given."""
    text = "an integer" if low is None else f"integer >= {low}"

    def read(value: Any, where: str) -> int:
        if type(value) is not int or low is not None and value < low:
            raise SchemaError(f"{where}: expected {text}")
        return value
    return read


_INTEGER, _POSITIVE = _int(), _int(1)


def _array(item: _Reader | None, length: int | None = None,
           nonempty: bool = False) -> _Reader:
    """An array of `length` entries when one is given, nonempty when asked,
    with entry i read by `item` at ``where[i]``.  Without `item` the entries
    are kept as they are, for a caller that reads them one by one."""
    text = (f"{length} entries" if length is not None
            else "a nonempty array" if nonempty else "an array")

    def read(value: Any, where: str) -> Any:
        if (not isinstance(value, list) or not value and nonempty
                or length is not None and len(value) != length):
            raise SchemaError(f"{where}: expected {text}")
        if item is None:
            return value
        return tuple([item(x, f"{where}[{i}]") for i, x in enumerate(value)])
    return read


def _fields(table: dict[str, tuple], value: Any, where: str) -> list:
    """The values of `table`'s keys in the object `value`, in table order,
    each read from the key's value or else from its default (None for an
    absent ``_DERIVED`` key).  An entry (reader, default, *keys) hands its
    reader the values of those earlier keys too.  Other keys are ignored."""
    if not isinstance(value, dict):
        raise SchemaError(f"{where}: expected an object")
    got: dict[str, Any] = {}
    for key, (read, default, *after) in table.items():
        got[key] = (None if default is _DERIVED and key not in value
                    else read(value.get(key, default), f"{where}.{key}",
                              *map(got.__getitem__, after)))
    return list(got.values())


def _object(table: dict[str, tuple], build: Callable) -> _Reader:
    """An object with the keys of `table`, made by ``build(*fields)``; a
    ``ValueError`` of the build is a schema error at the object."""
    def read(value: Any, where: str) -> Any:
        fields = _fields(table, value, where)
        with _schema(where):
            return build(*fields)
    return read


def _tagged(kinds: dict[str, _Reader]) -> _Reader:
    """An object whose ``type`` names the reader of the whole object."""
    def read(value: Any, where: str) -> Any:
        if not isinstance(value, dict) or "type" not in value:
            raise SchemaError(f"{where}: expected an object with type")
        kind = value["type"]
        if not isinstance(kind, str) or kind not in kinds:
            raise SchemaError(f"{where}.type: unknown kind {kind!r}")
        return kinds[kind](value, where)
    return read


def _optional(read: _Reader) -> _Reader:
    """`read`, with null read as None."""
    return lambda value, where, *more: None if value is None else read(value, where, *more)


def _check_range(where: str, name: str, z: complex) -> None:
    """The per-sample path divides by ``z``: |z| and 1/|z| must be normal floats."""
    if not sys.float_info.min <= math.hypot(z.real, z.imag) <= 1.0 / sys.float_info.min:
        raise SchemaError(f"{where}: {name} or its reciprocal is zero, "
                          "subnormal or not finite")


def _check_pair(where: str, a: complex, b: complex, names: tuple[str, str, str]) -> None:
    """``_check_range`` on a, b, their product and their ratio."""
    _check_range(where, names[0], a)
    _check_range(where, names[1], b)
    _check_range(where, f"the product of {names[2]}", a * b)
    _check_range(where, f"the ratio of {names[2]}", a / b)


def _ranged(name: str) -> _Reader:
    """A complex number the per-sample path divides by."""
    def read(value: Any, where: str) -> complex:
        z = parse_complex(value, where)
        _check_range(where, name, z)
        return z
    return read


def _scale(value: Any, where: str) -> QI:
    """A map's scale s; a nonzero one and its square must be in range."""
    s = parse_qi(value, where)
    if not s.is_zero():
        scale = s.to_complex()
        _check_range(where, "s", scale)
        _check_range(where, "s squared", scale * scale)
    return s


def _factors(value: Any, where: str) -> tuple[complex, complex]:
    f1, f2 = _array(parse_complex, 2)(value, where)
    _check_pair(where, f1, f2, ("factor 0", "factor 1", "the factors"))
    return f1, f2


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
    except (ValueError, RecursionError) as exc:
        # ValueError covers malformed JSON, bytes that are not UTF-8 and
        # integer literals past the interpreter's digit limit
        raise SchemaError(f"scenario is not readable JSON: {exc}") from exc
    return parse_scenario(raw, tol, samples, seed)


def parse_scenario(raw: Any, tol: float | None = None,
                   samples: int | None = None,
                   seed: int | None = None) -> Scenario:
    """The typed scenario.  ``tol``, ``samples`` and ``seed``, when given,
    replace ``run.tol``, ``run.samples`` and ``run.seed`` and pass the same
    checks, which the file's values must pass as well; the tolerance becomes
    the surface curve's.  The hash stays the hash of ``raw``."""
    if not isinstance(raw, dict):
        raise SchemaError("scenario root must be an object")
    run = raw.get("run", {})
    samples, tol, seed = (
        f if v is None else _RUN[key][0](v, f"run.{key}")
        for key, v, f in zip(_RUN, (samples, tol, seed), _fields(_RUN, run, "run")))
    points, = _fields(_RUN_POINTS, run, "run")
    value = raw.get("surface")
    if isinstance(value, dict) and "tolerance" in value:
        raise SchemaError("surface.tolerance: removed; set run.tol instead")
    surface = _object(_SURFACE, lambda tau, theta, fibres: SurfaceSpec(
        TateCurve(tau, float(tol)), theta, fibres))(value, "surface")
    family, cover, determinant, descent_point = (
        None if raw.get(key) is None else read(raw[key], key) for key, read in (
            ("family", lambda value, where: _read_family(value, surface)),
            ("cover", _object(_COVER, partial(SpectralCover, surface))),
            ("determinant", _object(_DETERMINANT, partial(LineBundleOnX, surface))),
            ("descent", _object(_DESCENT, lambda b0: b0))))
    return Scenario(raw, surface, family, cover, determinant, descent_point,
                    samples, seed, points)


# ============================================================
# Sections
# ============================================================

# The largest sample count a run may ask for: a larger one is refused before
# any per-sample array is allocated.
MAX_SAMPLES = 2 ** 20
# The largest seed magnitude: the sample phase 0.05 * seed then has an ulp
# (below 2e-8) far under the spacing 2 pi / MAX_SAMPLES (6e-6) of the densest
# circle, so a large seed cannot merge sample points.
MAX_SEED = 2 ** 31


def _samples(value: Any, where: str) -> int:
    value = _POSITIVE(value, where)
    if value > MAX_SAMPLES:
        raise SchemaError(f"{where}: at most {MAX_SAMPLES}, got {value}")
    return value


def _tol(value: Any, where: str) -> float:
    if not isinstance(value, (int, float)) or not 0 < value < 1:
        raise SchemaError(f"{where}: expected a number in (0, 1), got {value!r}")
    return value


def _seed(value: Any, where: str) -> int:
    value = _INTEGER(value, where)
    if abs(value) > MAX_SEED:
        raise SchemaError(f"{where}: at most {MAX_SEED} in magnitude, got {value}")
    return value


def _read_map(value: Any, where: str, cover: HyperCover) -> PellMap:
    """The map on `cover`: the scale ``s``, then the Pell pair ``p``, ``q``
    when either is given (``u``, ``v`` and ``r`` are then not read), else
    ``u``, ``v``, ``r``."""
    s, = _fields(_MAP, value, where)
    if "p" in value or "q" in value:
        p, q = _fields(_PELL_PAIR, value, where)
        with _schema(where):
            return PellMap.from_pell_pair(cover, p, q, s)
    u, v, r = _fields(_PELL_UVR, value, where)
    with _schema(where):
        return PellMap(cover, u, v, r, s)


def _read_divisor(value: Any, where: str, cover: HyperCover) -> DivisorClass:
    """A divisor class on `cover`; ``inf`` is deg u unless given."""
    u, v, inf = _fields(_DIVISOR, value, where)
    with _schema(where):
        return DivisorClass(cover, u, v, u.degree if inf is None else inf)


def _split(factors: tuple[complex, complex], bases: tuple[int, int]) -> Callable:
    """Split data and base c2 (0) as a function of the surface."""
    return lambda surface: (SplitData(LineBundleOnX(surface, bases[0], factors[0]),
                                      LineBundleOnX(surface, bases[1], factors[1])), 0)


def _pushforward(cover: HyperCover, fmap: PellMap, twist: DivisorClass | None,
                 torsion: tuple[tuple[int, int], ...], c2: int | None) -> Callable:
    """Pushforward data and base c2 as a function of the surface; c2 is by
    default the inverse map's torus degree, as in ``FamilySpec.pushforward``."""
    data = PushforwardData(cover, fmap, twist, torsion)
    base_c2 = bisection_torus_degree(fmap.inverse()) if c2 is None else c2
    return lambda surface: (data, base_c2)


def _read_family(value: Any, surface: SurfaceSpec) -> FamilySpec:
    """The presentation (a multiple fibre off the branch locus per torsion
    pair), then the journal in one pass: each step is parsed and replayed
    before the next is read, so the first bad step of any kind is reported."""
    data_on, steps = _fields(_FAMILY, value, "family")
    with _schema("family.presentation"):
        data, base_c2 = data_on(surface)
    if isinstance(data, PushforwardData):
        with _schema("family.presentation.torsion_pairs"):
            _torsion_fibres(surface, data)
    journal = _JournalReplay(surface, data, base_c2)
    points: dict[tuple[int, ...], BasePoint] = {}
    for i, step in enumerate(steps):
        _replay_step(journal, step, f"family.modifications[{i}]", points)
    return journal.family()


# the element types of a base point spelled as four plain integers
_FOUR_INTS = [int] * 4


def _journal_point(value: Any, where: str,
                   points: dict[tuple[int, ...], BasePoint]) -> BasePoint:
    """``parse_base_point`` of step `where`'s point.  A point spelled as four
    plain integers is parsed once per spelling, in the per-parse table
    ``points``, so its steps share one object and stack lookups meet
    identical keys."""
    if type(value) is not list or list(map(type, value)) != _FOUR_INTS:
        return parse_base_point(value, f"{where}.at")
    key = tuple(value)
    point = points.get(key)
    if point is None:
        point = points[key] = parse_base_point(value, f"{where}.at")
    return point


def _replay_step(journal: _JournalReplay, step: Any, where: str,
                 points: dict[tuple[int, ...], BasePoint]) -> None:
    """Parse one journal entry and replay it; a step the family cannot take
    makes the scenario malformed, so it is reported as a schema error at
    `where`."""
    if not isinstance(step, dict) or "op" not in step:
        raise SchemaError(f"{where}: expected an object with op")
    at = _journal_point(step.get("at"), where, points)
    op = step["op"]
    try:
        if op == "push":
            degree = step.get("degree", 1)
            if type(degree) is not int or degree < 1:  # the hot path skips the call
                degree = _POSITIVE(degree, f"{where}.degree")
            point = parse_complex(step.get("line_point", [2.0, 0.0]),
                                  f"{where}.line_point")
            if point == 0:
                raise SchemaError(f"{where}.line_point: must be nonzero")
            journal.push(at, degree, point)
        elif op == "pop":
            journal.pop(at)
        else:
            raise SchemaError(f"{where}.op: unknown op {op!r}")
    except NoSurjectionError as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def _two_sections(a1: complex, a2: complex) -> TwoSections:
    _check_pair("cover.bisection", a1, a2, ("a1", "a2", "a1 and a2"))
    return TwoSections(a1, a2)


# Each object's keys, in the order they are read: key -> (reader, default,
# *earlier keys the reader takes).  A default is read like a given value;
# None with a reader that refuses it makes the key required.  The README's
# key table is checked against these.
_RUN = {"samples": (_samples, 32), "tol": (_tol, 1e-9), "seed": (_seed, 0)}
# read after the run flags are checked
_RUN_POINTS = {"points": (_optional(_array(parse_complex, nonempty=True)), None)}
_MULTIPLE_FIBRE = {"at": (parse_base_point, None), "m": (_int(2), None)}
_SURFACE = {"tau": (_ranged("tau"), None), "theta_degree": (_POSITIVE, 1),
            "multiple_fibres": (_array(_object(_MULTIPLE_FIBRE, MultipleFibre)), [])}
_CURVE = {"f": (parse_poly, None)}
_MAP = {"s": (_scale, [1, 1, 0, 1])}
_PELL_PAIR = {"p": (parse_poly, []), "q": (parse_poly, [])}
_PELL_UVR = {"u": (parse_poly, []), "v": (parse_poly, []), "r": (parse_poly, [])}
_DIVISOR = {"u": (parse_poly, []), "v": (parse_poly, []), "inf": (_INTEGER, _DERIVED)}
_SPLIT = {"factors": (_factors, None),
          "base_classes": (_array(_INTEGER, 2), [0, 0])}
_PUSHFORWARD = {"cover": (_object(_CURVE, HyperCover), None),
                "map": (_read_map, None, "cover"),
                "twist": (_optional(_read_divisor), None, "cover"),
                "torsion_pairs": (_array(_array(_INTEGER, 2)), []),
                "c2": (_optional(_INTEGER), None)}
# the journal's entries are read by _replay_step
_FAMILY = {"presentation": (_tagged({"split": _object(_SPLIT, _split),
                                     "pushforward": _object(_PUSHFORWARD, _pushforward)}),
                            None),
           "modifications": (_array(None), [])}
_DETERMINANT = {"base_class": (_INTEGER, 0),
                "factor": (_ranged("the factor"), [1.0, 0.0]),
                "fibre_parts": (_array(_INTEGER), [])}
_VERTICAL = {"at": (parse_base_point, None), "multiplicity": (_POSITIVE, 1)}
_TWO_SECTIONS = {"a1": (parse_complex, None), "a2": (parse_complex, None)}
_PELL = {"cover": (_object(_CURVE, HyperCover), None), "map": (_read_map, None, "cover")}
_COVER = {"verticals": (_array(_object(_VERTICAL, lambda at, m: (at, m))), []),
          "bisection": (_tagged({"two_sections": _object(_TWO_SECTIONS, _two_sections),
                                 "pell": _object(_PELL, lambda curve, fmap: fmap)}),
                        None)}
_DESCENT = {"b0": (parse_base_point, None)}
