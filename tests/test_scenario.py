# tests/test_scenario.py
"""
Scenario document codec: primitive parsers, canonical JSON hashing, and
whole-document parsing with schema diagnostics.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from spectral_forge import (
    BasePoint,
    PellMap,
    QI,
    SchemaError,
    TwoSections,
    canonical_json,
    cover_from_family,
    load_scenario,
    parse_scenario,
    scenario_hash,
)
from spectral_forge import scenario
from spectral_forge.scenario import (
    encode_base_point,
    encode_complex,
    parse_base_point,
    parse_complex,
    parse_poly,
    parse_qi,
)


def split_doc() -> dict:
    return {
        "surface": {"tau": [2.0, 0.0], "theta_degree": 1},
        "family": {"presentation": {
            "type": "split",
            "factors": [[0.7, 0.1], [1.3, -0.2]],
        }},
        "run": {"samples": 16, "tol": 1e-9, "seed": 0},
    }


def pushforward_doc() -> dict:
    f = [[1, 1, 0, 1], [0, 1, 0, 1], [0, 1, 0, 1], [1, 1, 0, 1]]
    return {
        "surface": {"tau": [2.0, 0.0], "theta_degree": 1},
        "family": {"presentation": {
            "type": "pushforward",
            "cover": {"f": f},
            "map": {"p": [[3, 1, 0, 1]], "q": [[1, 1, 0, 1]],
                    "s": [1, 1, 0, 1]},
        }},
        "run": {"samples": 16},
    }


# ============================================================
# Primitive codecs
# ============================================================

def test_primitive_roundtrips():
    assert parse_complex([1.5, -2.0], "t") == 1.5 - 2.0j
    assert encode_complex(1.5 - 2.0j) == [1.5, -2.0]
    assert parse_qi([3, 2, -1, 4], "t") == QI.from_pair(3, 2, -1, 4)
    p = parse_poly([[1, 1, 0, 1], [2, 1, 0, 1]], "t")
    assert p.degree == 1
    assert parse_base_point("inf", "t").is_infinity
    pt = parse_base_point([3, 1, 0, 1], "t")
    assert pt == BasePoint.of(3)
    assert encode_base_point(pt) == [3, 1, 0, 1]
    assert encode_base_point(BasePoint.infinity()) == "inf"


@pytest.mark.parametrize("bad", [
    [1.0], [1.0, 2.0, 3.0], "x", {"re": 1}, [1.0, "y"],
])
def test_complex_schema_errors(bad):
    with pytest.raises(SchemaError):
        parse_complex(bad, "t")


@pytest.mark.parametrize("bad", [
    [1, 0, 0, 1], [1, 1, 0], [1.5, 1, 0, 1], "x",
])
def test_qi_schema_errors(bad):
    with pytest.raises(SchemaError):
        parse_qi(bad, "t")


# ============================================================
# Canonical hashing
# ============================================================

def test_canonical_json_is_sorted_and_compact():
    assert canonical_json({"b": 1, "a": [1.5, 2]}) == '{"a":[1.5,2],"b":1}'


def test_hash_ignores_key_order_but_not_content():
    doc = split_doc()
    shuffled = json.loads(canonical_json(doc))
    reordered = {k: shuffled[k] for k in reversed(list(shuffled))}
    assert scenario_hash(doc) == scenario_hash(reordered)
    assert len(scenario_hash(doc)) == 64
    changed = split_doc()
    changed["run"]["samples"] = 17
    assert scenario_hash(changed) != scenario_hash(doc)


def test_loaded_scenario_hash_matches_raw(tmp_path):
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(split_doc()))
    scn = load_scenario(str(path))
    assert scn.hash() == scenario_hash(split_doc())


# ============================================================
# Document parsing
# ============================================================

def test_split_document_parses():
    scn = parse_scenario(split_doc())
    assert scn.surface.curve.tau == 2.0 + 0j
    assert scn.surface.theta_degree == 1
    assert scn.family is not None
    assert scn.family.spectral_values_at(0.0) == (
        1.0 / (0.7 + 0.1j), 1.0 / (1.3 - 0.2j))
    assert (scn.samples, scn.tol, scn.seed) == (16, 1e-9, 0)
    assert scn.points is None and scn.cover is None
    # every bit of the split route, signed zeros included: a complex
    # factor, a negative float (1 / (-2+0j) is -0.5-0j) and an imaginary
    # part of -0.0
    def bits(*zs):
        return [(z.real.hex(), z.imag.hex()) for z in zs]

    for pair in ([(0.7, 0.1), (-2.0, 0.0)], [(0.5, -0.0), (1.3, -0.2)]):
        doc = split_doc()
        doc["family"]["presentation"]["factors"] = [list(f) for f in pair]
        family = parse_scenario(doc).family
        cf = [complex(*f) for f in pair]
        cover = cover_from_family(family, 16)
        for b in (0.0, 1.5 - 0.5j):
            assert bits(*family.spectral_values_at(b)) == bits(1.0 / cf[0],
                                                              1.0 / cf[1])
            assert bits(*family.fiber_factors_at(b)) == bits(*cf)
        assert bits(cover.bisection.a1, cover.bisection.a2) == bits(
            1.0 / cf[0], 1.0 / cf[1])


def test_run_defaults_and_points():
    doc = split_doc()
    del doc["run"]
    scn = parse_scenario(doc)
    assert (scn.samples, scn.tol, scn.seed) == (32, 1e-9, 0)
    doc = split_doc()
    doc["run"]["points"] = [[2.0, 0.0], [0.0, 2.0]]
    scn = parse_scenario(doc)
    assert scn.points == (2.0 + 0j, 2.0j)
    # run.tol is the curve's tolerance; the tol argument (--tol) replaces it
    doc["run"]["tol"] = 1e-5
    assert parse_scenario(doc).surface.curve.tolerance == 1e-5
    assert parse_scenario(doc, tol=1e-7).surface.curve.tolerance == 1e-7


def test_pushforward_document_parses():
    scn = parse_scenario(pushforward_doc())
    fam = scn.family
    assert fam is not None
    assert isinstance(fam.data.factor_map, PellMap)
    assert fam.data.cover.genus == 1
    # (10 + b^3 + 6w) / (8 - b^3) at the branch point b = -1
    v = fam.data.factor_map.sheet_values(-1.0)
    assert abs(v[0] - 1.0) < 1e-12 and abs(v[1] - 1.0) < 1e-12


def test_pushforward_twist_and_torsion_parse():
    doc = pushforward_doc()
    doc["surface"]["multiple_fibres"] = [
        {"at": [5, 1, 0, 1], "m": 2}, {"at": [-7, 1, 0, 1], "m": 3}]
    doc["family"]["presentation"]["torsion_pairs"] = [[1, 0], [0, 2]]
    doc["family"]["presentation"]["twist"] = {
        "u": [[0, 1, 0, 1], [1, 1, 0, 1]], "v": [[1, 1, 0, 1]], "inf": 1}
    scn = parse_scenario(doc)
    assert scn.family.data.torsion_pairs == ((1, 0), (0, 2))
    assert scn.family.data.twist is not None
    assert scn.family.data.twist.degree() == 0


def test_corrupted_twist_is_rejected():
    """v = 2 at the point b = 0 of w^2 = b^3 + 1: u = b does not divide
    v^2 - f, and the parse says where."""
    doc = pushforward_doc()
    doc["family"]["presentation"]["twist"] = {
        "u": [[0, 1, 0, 1], [1, 1, 0, 1]], "v": [[2, 1, 0, 1]], "inf": 1}
    with pytest.raises(SchemaError, match="family.presentation.twist"):
        parse_scenario(doc)


def test_modification_steps_apply_in_order():
    doc = split_doc()
    doc["family"]["modifications"] = [
        {"op": "push", "at": [3, 1, 0, 1], "degree": 2,
         "line_point": [1.7, 0.0]},
        {"op": "push", "at": [3, 1, 0, 1], "degree": 2,
         "line_point": [1.7, 0.0]},
        {"op": "pop", "at": [3, 1, 0, 1]},
    ]
    fam = parse_scenario(doc).family
    assert fam.chern.c2 == 2
    assert fam.determinant.base_class == -3
    assert [s.degree for s in fam.jump_stack(BasePoint.of(3))] == [2]


def test_journal_regularity_is_decided_per_point():
    """Equal split factors make every plain fibre non-regular (degree 1 is
    refused) while the multiple fibre at 5 counts as regular; the replay
    must decide each point for itself, whichever it meets first."""
    doc = split_doc()
    doc["surface"]["multiple_fibres"] = [{"at": [5, 1, 0, 1], "m": 2}]
    doc["family"]["presentation"]["factors"] = [[0.7, 0.1], [0.7, 0.1]]
    at5, at3 = [5, 1, 0, 1], [3, 1, 0, 1]
    doc["family"]["modifications"] = [
        {"op": "push", "at": at3, "degree": 2},
        {"op": "push", "at": at5, "degree": 1}]
    fam = parse_scenario(doc).family
    assert fam.jump_points() == [BasePoint.of(3), BasePoint.of(5)]
    doc["family"]["modifications"] = [
        {"op": "push", "at": at5, "degree": 1},
        {"op": "push", "at": at3, "degree": 1}]
    with pytest.raises(SchemaError, match=re.escape(
            "family.modifications[1]: no surjection of degree 1 exists at "
            "BasePoint(3)")):
        parse_scenario(doc)


def test_cover_and_determinant_sections_parse():
    doc = {
        "surface": {"tau": [2.0, 0.0]},
        "cover": {
            "verticals": [{"at": [3, 1, 0, 1], "multiplicity": 2}],
            "bisection": {"type": "two_sections",
                          "a1": [2.0, 0.0], "a2": [4.0, 0.0]},
        },
        "determinant": {"base_class": 0, "factor": [0.125, 0.0]},
        "descent": {"b0": [0, 1, 0, 1]},
    }
    scn = parse_scenario(doc)
    assert isinstance(scn.cover.bisection, TwoSections)
    assert scn.cover.verticals == ((BasePoint.of(3), 2),)
    assert scn.determinant.constant_factor == 0.125
    assert scn.descent_point == BasePoint.of(0)


def test_pell_cover_section_parses():
    doc = {
        "surface": {"tau": [2.0, 0.0]},
        "cover": {"bisection": {
            "type": "pell",
            "cover": {"f": [[1, 1, 0, 1], [0, 1, 0, 1], [0, 1, 0, 1],
                            [1, 1, 0, 1]]},
            "map": {"p": [[3, 1, 0, 1]], "q": [[1, 1, 0, 1]]},
        }},
    }
    scn = parse_scenario(doc)
    assert isinstance(scn.cover.bisection, PellMap)


@pytest.mark.parametrize("mangle, where", [
    (lambda d: d.pop("surface"), "surface"),
    (lambda d: d["surface"].update(tau=[2.0]), "tau"),
    (lambda d: d["surface"].update(theta_degree=0), "theta"),
    (lambda d: d["run"].update(samples=0), "samples"),
    (lambda d: d["run"].update(tol=-1.0), "tol"),
    pytest.param(lambda d: d["run"].update(tol=0), "run.tol", id="tol-0"),
    pytest.param(lambda d: d["run"].update(tol=1), "run.tol", id="tol-1"),
    pytest.param(lambda d: d["run"].update(tol=2.0), "run.tol", id="tol-2"),
    pytest.param(lambda d: d["surface"].update(tolerance=1e-6), "run.tol",
                 id="surface-tolerance"),
    (lambda d: d["run"].update(seed="x"), "seed"),
    (lambda d: d["run"].update(points=[]), "points"),
    (lambda d: d["family"]["presentation"].update(type="weird"), "type"),
    (lambda d: d["family"]["presentation"].update(factors=[[1.0, 0.0]]),
     "factors"),
    (lambda d: d["family"].update(modifications=[{"op": "spin",
                                                  "at": [3, 1, 0, 1]}]),
     "op"),
])
def test_schema_error_catalogue(mangle, where):
    doc = split_doc()
    mangle(doc)
    with pytest.raises(SchemaError, match=re.escape(where)):
        parse_scenario(doc)


@pytest.mark.parametrize("mangle, message", [
    pytest.param(lambda d: d.update(determinant=[1]),
                 "determinant: expected an object", id="object"),
    pytest.param(lambda d: d["family"]["presentation"].update(base_classes=[0]),
                 "family.presentation.base_classes: expected 2 entries",
                 id="array-length"),
    pytest.param(lambda d: d["run"].update(points=[]),
                 "run.points: expected a nonempty array", id="array-empty"),
    pytest.param(lambda d: d["family"].update(modifications=3),
                 "family.modifications: expected an array", id="array-type"),
    pytest.param(lambda d: d["surface"].update(
        multiple_fibres=[{"at": [5, 1, 0, 1], "m": 1}]),
                 "surface.multiple_fibres[0].m: expected integer >= 2",
                 id="integer-bound"),
    pytest.param(lambda d: d.update(cover={"bisection": {"type": "pel"}}),
                 "cover.bisection.type: unknown kind 'pel'", id="unknown-type"),
    pytest.param(lambda d: d["family"].update(presentation={"factors": []}),
                 "family.presentation: expected an object with type",
                 id="no-type"),
    pytest.param(lambda d: d.update(cover={"bisection": {
        "type": "pell", "cover": {"f": 3}}}),
                 "cover.bisection.cover.f: expected a coefficient array",
                 id="polynomial"),
    pytest.param(lambda d: d["family"].update(modifications=[["push"]]),
                 "family.modifications[0]: expected an object with op",
                 id="journal-step"),
])
def test_each_reader_refuses_naming_the_path(mangle, message):
    doc = split_doc()
    mangle(doc)
    with pytest.raises(SchemaError) as err:
        parse_scenario(doc)
    assert str(err.value) == message


def test_schema_error_on_bad_surface_lattice():
    doc = split_doc()
    doc["surface"]["tau"] = [0.5, 0.0]  # inside the unit circle
    with pytest.raises(SchemaError):
        parse_scenario(doc)


def test_load_errors(tmp_path):
    with pytest.raises(SchemaError):
        load_scenario(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SchemaError):
        load_scenario(str(bad))
    notdict = tmp_path / "arr.json"
    notdict.write_text("[1, 2]")
    with pytest.raises(SchemaError):
        load_scenario(str(notdict))


# ============================================================
# README key table
# ============================================================

# README object name -> the tables of its keys
README_OBJECTS = {
    "`run`": ["_RUN", "_RUN_POINTS"], "`surface`": ["_SURFACE"],
    "multiple fibre": ["_MULTIPLE_FIBRE"], "`family`": ["_FAMILY"],
    "split presentation": ["_SPLIT"],
    "pushforward presentation": ["_PUSHFORWARD"], "curve": ["_CURVE"],
    "map": ["_MAP", "_PELL_PAIR", "_PELL_UVR"], "divisor class": ["_DIVISOR"],
    "`determinant`": ["_DETERMINANT"], "`cover`": ["_COVER"],
    "vertical": ["_VERTICAL"], "two-sections bisection": ["_TWO_SECTIONS"],
    "pell bisection": ["_PELL"], "`descent`": ["_DESCENT"],
}
# keys read by hand, with their JSON defaults: the document's sections by
# parse_scenario, a journal step's by _replay_step
README_BY_HAND = {
    "document": {"surface": None, "family": None, "cover": None,
                 "determinant": None, "descent": None, "run": {}},
    "journal step": {"op": None, "at": None, "degree": 1,
                     "line_point": [2.0, 0.0]},
}


def readme_key_table() -> dict[str, dict[str, object]]:
    """{object: {key: JSON default or None}} of README's key table; a
    default cell that does not start with a JSON literal reads as None."""
    lines = (Path(__file__).resolve().parent.parent / "README.md").read_text().splitlines()
    start = lines.index("| object | key | type | default |") + 2
    table: dict[str, dict[str, object]] = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        obj, key, _, default = (c.strip() for c in line.strip("|").split("|"))
        literal = json.loads(default[1:default.index("`", 1)]) if default.startswith("`") else None
        table.setdefault(obj, {})[key.strip("`")] = literal
    return table


def test_readme_key_table_matches_the_readers():
    """Every key of every reader table, and no other, is in README's table
    with its default; a default None or derived has no literal there."""
    tables = {name: table for name, table in vars(scenario).items()
              if isinstance(table, dict) and name.isupper() and table
              and all(isinstance(v, tuple) and len(v) >= 2 for v in table.values())}
    assert sorted(tables) == sorted(t for names in README_OBJECTS.values() for t in names)
    want = dict(README_BY_HAND)
    for obj, names in README_OBJECTS.items():
        want[obj] = {key: None if entry[1] is scenario._DERIVED else entry[1]
                     for name in names for key, entry in tables[name].items()}
    assert readme_key_table() == want
