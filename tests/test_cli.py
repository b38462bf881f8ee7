# tests/test_cli.py
"""
Command-line driver: exit codes (0 ok, 1 verification failure, 2 schema
error, 64 unsupported/puncture), canonical JSON reports, deterministic
output, CSV sampling.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import random
import runpy
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

from spectral_forge import (QI, BasePoint, FamilySpec, LineBundleOnX, PellMap,
                            SchemaError, UnstableFiber, class_add,
                            parse_scenario, point_class, sample_circle,
                            scenario_hash)
from spectral_forge import cli, families, spectral
from spectral_forge.cli import main, run_command
from spectral_forge.scenario import MAX_SAMPLES, MAX_SEED
from conftest import count_calls, cover_g2, perturbed

F_CUBIC = [[1, 1, 0, 1], [0, 1, 0, 1], [0, 1, 0, 1], [1, 1, 0, 1]]


def split_doc() -> dict:
    return {
        "surface": {"tau": [2.0, 0.0], "theta_degree": 1},
        "family": {"presentation": {
            "type": "split",
            "factors": [[0.7, 0.1], [1.3, -0.2]],
        }},
        "run": {"samples": 16, "tol": 1e-9, "seed": 0},
        "descent": {"b0": [0, 1, 0, 1]},
    }


def pushforward_doc() -> dict:
    return {
        "surface": {"tau": [2.0, 0.0], "theta_degree": 1},
        "family": {"presentation": {
            "type": "pushforward",
            "cover": {"f": F_CUBIC},
            "map": {"p": [[3, 1, 0, 1]], "q": [[1, 1, 0, 1]],
                    "s": [1, 1, 0, 1]},
        }},
        "run": {"samples": 16},
    }


def readme_doc() -> dict:
    """The README's scenario: a pushforward family with one jump, on a
    surface with a multiple fibre; fm and roundtrip exit 64 on the jump."""
    return {
        "surface": {"tau": [2.0, 0.0], "theta_degree": 1,
                    "multiple_fibres": [{"at": [5, 1, 0, 1], "m": 2}]},
        "family": {
            "presentation": {
                "type": "pushforward",
                "cover": {"f": F_CUBIC},
                "map": {"p": [[3, 1, 0, 1]], "q": [[1, 1, 0, 1]],
                        "s": [1, 1, 0, 1]},
            },
            "modifications": [
                {"op": "push", "at": [3, 1, 0, 1], "degree": 2,
                 "line_point": [1.7, 0.0]},
            ],
        },
        "descent": {"b0": [0, 1, 0, 1]},
        "run": {"samples": 32, "tol": 1e-9, "seed": 0},
    }


def pell_cover_doc() -> dict:
    """A cover without a family: its samples come from the cover's own
    puncture-avoiding circle."""
    return {
        "surface": {"tau": [2.0, 0.0]},
        "cover": {"bisection": {
            "type": "pell",
            "cover": {"f": F_CUBIC},
            "map": {"p": [[3, 1, 0, 1]], "q": [[1, 1, 0, 1]]},
        }},
        "run": {"samples": 16, "seed": 3},
    }


def split_declared_doc() -> dict:
    """A split family with base classes, a push on the multiple fibre and a
    declared determinant that matches it only through its fibre part, read
    at explicit sample points."""
    return {
        "surface": {"tau": [2.0, 0.0], "theta_degree": 1,
                    "multiple_fibres": [{"at": [5, 1, 0, 1], "m": 2}]},
        "family": {
            "presentation": {"type": "split",
                             "factors": [[0.7, 0.1], [1.3, -0.2]],
                             "base_classes": [1, -2]},
            "modifications": [{"op": "push", "at": [5, 1, 0, 1], "degree": 1}],
        },
        "determinant": {"base_class": -1, "factor": [0.93, -0.01],
                        "fibre_parts": [1]},
        "run": {"samples": 16, "seed": 1,
                "points": [[2.0, 0.0], [0.0, 2.5], [-1.5, 0.5], [1.2, -1.1]]},
    }


def pushforward_twisted_doc() -> dict:
    """A pushforward whose map is given as u, v, r (the pair p = 3, q = 1
    spelled out), with a twist class, torsion pairs at two multiple fibres
    and a declared c2 of 5 against the map's torus degree 6, so the round
    trip's Chern check fails (exit 1)."""
    return {
        "surface": {"tau": [2.0, 0.0], "theta_degree": 1,
                    "multiple_fibres": [{"at": [5, 1, 0, 1], "m": 2},
                                        {"at": [-7, 1, 0, 1], "m": 3}]},
        "family": {"presentation": {
            "type": "pushforward",
            "cover": {"f": F_CUBIC},
            "map": {"u": [[10, 1, 0, 1], [0, 1, 0, 1], [0, 1, 0, 1],
                          [1, 1, 0, 1]],
                    "v": [[6, 1, 0, 1]],
                    "r": [[8, 1, 0, 1], [0, 1, 0, 1], [0, 1, 0, 1],
                          [-1, 1, 0, 1]]},
            "twist": {"u": [[0, 1, 0, 1], [1, 1, 0, 1]], "v": [[1, 1, 0, 1]],
                      "inf": 1},
            "torsion_pairs": [[1, 0], [0, 2]],
            "c2": 5,
        }},
        "determinant": {"base_class": 0, "factor": [1.0, 0.0],
                        "fibre_parts": [1, 2]},
        "run": {"samples": 16},
    }


def sections_cover_doc() -> dict:
    """A cover of two constant sections and two vertical fibres, one of
    multiplicity 2, checked against a declared determinant at explicit
    sample points."""
    return {
        "surface": {"tau": [2.0, 0.0]},
        "cover": {"verticals": [{"at": [3, 1, 0, 1], "multiplicity": 2},
                                {"at": [-2, 1, 0, 1]}],
                  "bisection": {"type": "two_sections",
                                "a1": [2.0, 2.0], "a2": [2.0, -2.0]}},
        "determinant": {"base_class": 0, "factor": [0.125, 0.0]},
        "run": {"samples": 16, "points": [[1.5, 0.5], [-0.5, 2.0]]},
    }


def multiple_fibre_cover_doc() -> dict:
    """Two constant sections without a family, on a surface with a double
    fibre at the Gaussian rational (denominators up to 10^12) nearest
    sample 0 of the first 4-sample rung, checked against the determinant
    whose dual is their product."""
    a1, a2 = 0.7 + 0.1j, 1.3 - 0.2j
    det = 1 / (a1 * a2)
    b = sample_circle(4, 2.0)[0]
    re, im = (Fraction(x).limit_denominator(10**12) for x in (b.real, b.imag))
    return {
        "surface": {"tau": [2.0, 0.0], "multiple_fibres": [
            {"at": [re.numerator, re.denominator, im.numerator, im.denominator], "m": 2}]},
        "cover": {"bisection": {"type": "two_sections",
                                "a1": [a1.real, a1.imag], "a2": [a2.real, a2.imag]}},
        "determinant": {"factor": [det.real, det.imag]},
        "run": {"samples": 4, "seed": 0},
    }


def write(tmp_path, doc, name="scn.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_json(capsys, argv) -> tuple[int, dict]:
    code = run_command(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


# ============================================================
# Success paths
# ============================================================

def test_cover_command_reports_invariance(tmp_path, capsys):
    path = write(tmp_path, split_doc())
    code, report = run_json(capsys, ["cover", "--scenario", path])
    assert code == 0
    assert report["command"] == "cover"
    assert report["scenario_hash"] == scenario_hash(split_doc())
    assert report["samples"] == 16
    assert report["invariance"]["checked"]
    assert report["invariance"]["passed"]
    assert report["invariance"]["max_residual"] < 1e-9
    assert report["cover"]["bisection"]["type"] == "two_sections"


def test_cover_output_is_deterministic(tmp_path, capsys):
    path = write(tmp_path, split_doc())
    run_command(["cover", "--scenario", path])
    first = capsys.readouterr().out
    run_command(["cover", "--scenario", path])
    second = capsys.readouterr().out
    assert first == second
    assert first.endswith("\n")
    # canonical form: re-serialising the parsed report reproduces the bytes
    assert json.dumps(json.loads(first), sort_keys=True,
                      separators=(",", ":")) + "\n" == first


def test_fm_command_on_pushforward(tmp_path, capsys):
    path = write(tmp_path, pushforward_doc())
    code, report = run_json(capsys, ["fm", "--scenario", path])
    assert code == 0
    assert report["phi0_vanishes"] is True
    assert report["roundtrip_status"] == "pass"
    assert report["rank_profile"] == "1"
    assert report["residual"] < 1e-9
    assert report["support"]["bisection"]["type"] == "pell"


def test_roundtrip_command(tmp_path, capsys):
    path = write(tmp_path, pushforward_doc())
    code, report = run_json(capsys, ["roundtrip", "--scenario", path])
    assert code == 0
    assert report["status"] == "pass"
    assert all(c["passed"] for c in report["checks"])
    names = [c["name"] for c in report["checks"]]
    assert names == ["fiberwise_classes", "determinant_section", "chern_data"]


def test_classify_command_plain_and_multiple(tmp_path, capsys):
    path = write(tmp_path, pushforward_doc())
    code, report = run_json(capsys, ["classify", "--scenario", path])
    assert code == 0
    assert report["prym_rank"] == 1
    assert report["component_count"] == 1
    assert report["invariant_factors"] == []

    doc = pushforward_doc()
    doc["surface"]["multiple_fibres"] = [
        {"at": [5, 1, 0, 1], "m": 2}, {"at": [-7, 1, 0, 1], "m": 3}]
    path = write(tmp_path, doc, "m23.json")
    code, report = run_json(capsys, ["classify", "--scenario", path])
    assert code == 0
    assert report["component_count"] == 6
    assert report["invariant_factors"] == [6]
    assert report["jacobian_copies"] == 6


def test_modify_command_reports_journal(tmp_path, capsys):
    doc = split_doc()
    doc["family"]["modifications"] = [
        {"op": "push", "at": [3, 1, 0, 1], "degree": 2,
         "line_point": [1.7, 0.0]},
        {"op": "push", "at": [3, 1, 0, 1], "degree": 3,
         "line_point": [1.7, 0.0]},
    ]
    path = write(tmp_path, doc)
    code, report = run_json(capsys, ["modify", "--scenario", path])
    assert code == 0
    assert report["jumps"] == [{"at": [3, 1, 0, 1], "h": 3, "mu": 5, "l": 2,
                                "sequence": [3, 2]}]
    assert report["chern"]["c2"] == 5
    assert report["determinant"]["base_class"] == -2
    assert report["steps"] == 2


def test_props_command_full_pass(tmp_path, capsys):
    path = write(tmp_path, split_doc())
    code, report = run_json(capsys, ["props", "--scenario", path])
    assert code == 0
    assert report["status"] == "pass"
    names = [c["name"] for c in report["checks"]]
    assert "descent_twist_enabled" in names
    assert "descent_twist_disabled_detects" in names


def test_sample_command_writes_csv(tmp_path, capsys):
    path = write(tmp_path, split_doc())
    csv_path = tmp_path / "rows.csv"
    code = run_command(["sample", "--scenario", path,
                        "--csv", str(csv_path)])
    assert code == 0
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == "b_re,b_im,sheet,alpha_re,alpha_im"
    assert len(lines) == 1 + 2 * 16
    for row in lines[1:]:
        b_re, b_im, sheet, a_re, a_im = row.split(",")
        float(b_re), float(b_im), float(a_re), float(a_im)
        assert sheet in ("0", "1")
        mod = abs(complex(float(a_re), float(a_im)))
        assert 1.0 - 1e-12 <= mod < 2.0


def test_json_flag_writes_report_file(tmp_path, capsys):
    path = write(tmp_path, split_doc())
    out_path = tmp_path / "report.json"
    code = run_command(["modify", "--scenario", path,
                        "--json", str(out_path)])
    assert code == 0
    assert capsys.readouterr().out == ""
    report = json.loads(out_path.read_text())
    assert report["command"] == "modify"


def test_samples_flag_overrides_scenario(tmp_path, capsys):
    path = write(tmp_path, split_doc())
    code, report = run_json(capsys, ["cover", "--scenario", path,
                                     "--samples", "8"])
    assert code == 0
    assert report["samples"] == 8


# ============================================================
# Failure paths
# ============================================================

def test_declared_determinant_mismatch_exits_one(tmp_path, capsys):
    doc = {
        "surface": {"tau": [2.0, 0.0]},
        "cover": {"bisection": {"type": "two_sections",
                                "a1": [2.0, 0.0], "a2": [4.0, 0.0]}},
        "determinant": {"factor": [1.1, 0.0]},
        "run": {"samples": 8},
    }
    path = write(tmp_path, doc)
    code, report = run_json(capsys, ["cover", "--scenario", path])
    assert code == 1
    assert report["invariance"]["checked"]
    assert not report["invariance"]["passed"]
    doc["determinant"]["factor"] = [1.0, 0.0]
    path = write(tmp_path, doc, "good.json")
    code, report = run_json(capsys, ["cover", "--scenario", path])
    assert code == 0
    assert report["invariance"]["passed"]


@pytest.mark.parametrize("points", [None, [[2.0, 0.5], [-1.5, 1.0], [0.3, -2.2]]],
                         ids=["ladder", "points"])
@pytest.mark.parametrize("cmd", ["cover", "fm", "roundtrip", "classify", "modify",
                                 "props", "sample"])
def test_family_determinant_is_checked_whatever_the_samples(tmp_path, capsys,
                                                            cmd, points):
    """A family with a declared pell cover of its own map and a declared
    determinant that disagrees with the family: every command exits 1 on
    the family's ladder and at explicit run.points alike, before any
    output, classify too, though it reads only the double cover."""
    doc = pushforward_doc()
    doc["cover"] = pell_cover_doc()["cover"]
    doc["determinant"] = {"factor": [1.7, 0.3]}
    if points is not None:
        doc["run"]["points"] = points
    csv = ["--csv", str(tmp_path / "rows.csv")] if cmd == "sample" else []
    assert run_command([cmd, "--scenario", write(tmp_path, doc), *csv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "declared determinant disagrees" in captured.err
    assert not (tmp_path / "rows.csv").exists()


@pytest.mark.parametrize("cmd", ["cover", "props", "sample"])
@pytest.mark.parametrize("samples", ["0", "-3"])
def test_nonpositive_samples_flag_exits_two(tmp_path, capsys, cmd, samples):
    """The flag is checked like run.samples, not run on an empty circle."""
    path = write(tmp_path, split_doc())
    assert run_command([cmd, "--scenario", path, "--samples", samples]) == 2
    assert "run.samples" in capsys.readouterr().err


@pytest.mark.parametrize("cmd", ["cover", "props", "sample"])
@pytest.mark.parametrize("where", ["flag", "file"])
@pytest.mark.parametrize("samples", [2 ** 40, 10 ** 20])
def test_oversized_samples_exit_two_before_sampling(tmp_path, capsys,
                                                    monkeypatch, cmd, where,
                                                    samples):
    """A count above the cap is refused while the scenario is read: no
    report handler, and so no per-sample array, is ever reached."""
    def unreachable(*args):
        raise AssertionError("a report ran on an oversized sample count")

    monkeypatch.setitem(cli._HANDLERS, cmd, unreachable)
    doc = split_doc()
    flag = ["--samples", str(samples)] if where == "flag" else []
    if where == "file":
        doc["run"]["samples"] = samples
    path = write(tmp_path, doc)
    assert run_command([cmd, "--scenario", path, *flag]) == 2
    assert capsys.readouterr().err == (
        f"error: run.samples: at most {2 ** 20}, got {samples}\n")


def test_sample_cap_is_inclusive():
    doc = split_doc()
    doc["run"]["samples"] = 2 ** 20
    assert parse_scenario(doc).samples == 2 ** 20
    doc["run"]["samples"] += 1
    with pytest.raises(SchemaError, match="run.samples"):
        parse_scenario(doc)


@pytest.mark.parametrize("cmd", ["cover", "props", "sample"])
@pytest.mark.parametrize("where", ["flag", "file"])
@pytest.mark.parametrize("seed", [10 ** 400, 10 ** 17, MAX_SEED + 1,
                                  -MAX_SEED - 1])
def test_oversized_seed_exits_two_before_sampling(tmp_path, capsys,
                                                  monkeypatch, cmd, where, seed):
    """A seed beyond the cap would overflow the sample phase 0.05 * seed or
    round it so coarsely that sample points merge; it is refused while the
    scenario is read, like an oversized sample count."""
    def unreachable(*args):
        raise AssertionError("a report ran on an oversized seed")

    monkeypatch.setitem(cli._HANDLERS, cmd, unreachable)
    doc = split_doc()
    flag = ["--seed", str(seed)] if where == "flag" else []
    if where == "file":
        doc["run"]["seed"] = seed
    path = write(tmp_path, doc)
    assert run_command([cmd, "--scenario", path, *flag]) == 2
    assert capsys.readouterr().err == (
        f"error: run.seed: at most {MAX_SEED} in magnitude, got {seed}\n")


def test_seed_cap_is_inclusive():
    doc = split_doc()
    for seed in (MAX_SEED, -MAX_SEED):
        doc["run"]["seed"] = seed
        assert parse_scenario(doc).seed == seed
    doc["run"]["seed"] = MAX_SEED + 1
    with pytest.raises(SchemaError, match="run.seed"):
        parse_scenario(doc)
    # the phase keeps a resolution far finer than the densest circle's spacing
    assert math.ulp(0.05 * MAX_SEED) < 2 * math.pi / MAX_SAMPLES / 100


@pytest.mark.parametrize("argv", [
    ["cover", "--json", "{missing}/x.json"],
    ["sample", "--csv", "{missing}/x.csv"],
    ["sample", "--csv", "{tmp}/rows.csv", "--json", "{missing}/x.json"],
], ids=["cover-json", "sample-csv", "sample-json"])
def test_unwritable_output_path_exits_two(tmp_path, capsys, argv):
    """An output file that cannot be written is a usage error, like a
    scenario that cannot be read, and no report reaches stdout."""
    path = write(tmp_path, split_doc())
    missing = tmp_path / "no" / "such" / "dir"
    cmd, *flags = (a.format(missing=missing, tmp=tmp_path) for a in argv)
    assert run_command([cmd, "--scenario", path, *flags]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: cannot write {missing}/x.")
    assert not missing.exists()


def test_csv_flag_is_rejected_outside_sample(tmp_path, capsys):
    path = write(tmp_path, split_doc())
    with pytest.raises(SystemExit) as exc:
        run_command(["cover", "--scenario", path, "--csv", "x"])
    assert exc.value.code == 2
    assert "--csv" in capsys.readouterr().err


def test_module_run_as_a_script_exits_with_the_command_code(tmp_path, capsys, monkeypatch):
    """``python -m spectral_forge.cli`` hands ``main``'s code to sys.exit:
    0 for a report, 2 for a missing scenario."""
    for name, code in ((write(tmp_path, split_doc()), 0), (str(tmp_path / "missing.json"), 2)):
        monkeypatch.setattr(sys, "argv", ["spectral_forge.cli", "cover", "--scenario", name])
        with warnings.catch_warnings(), pytest.raises(SystemExit) as exc:
            # runpy warns that this module, imported above, is in sys.modules
            warnings.simplefilter("ignore", RuntimeWarning)
            runpy.run_module("spectral_forge.cli", run_name="__main__")
        assert exc.value.code == code
    capsys.readouterr()


@pytest.mark.parametrize("tol", ["0", "1.5", "nan"])
def test_tol_flag_outside_the_unit_interval_exits_two(tmp_path, capsys, tol):
    path = write(tmp_path, split_doc())
    assert run_command(["cover", "--scenario", path, "--tol", tol]) == 2
    assert "run.tol" in capsys.readouterr().err


@pytest.mark.parametrize("run, flag", [
    ({"tol": "abc"}, ["--tol", "1e-9"]),
    ({"samples": -3}, ["--samples", "8"]),
    ({"seed": "x"}, ["--seed", "1"]),
], ids=["tol", "samples", "seed"])
def test_file_run_values_are_checked_under_a_flag(tmp_path, capsys, run, flag):
    """A flag replaces a run value but does not excuse a bad one in the file."""
    doc = pell_cover_doc()
    doc["run"].update(run)
    path = write(tmp_path, doc)
    assert run_command(["cover", "--scenario", path, *flag]) == 2
    assert capsys.readouterr().err.startswith(f"error: run.{next(iter(run))}")


def test_schema_error_exits_two(tmp_path, capsys):
    doc = split_doc()
    del doc["surface"]
    path = write(tmp_path, doc)
    assert run_command(["cover", "--scenario", path]) == 2
    assert "error:" in capsys.readouterr().err
    assert run_command(["cover", "--scenario",
                        str(tmp_path / "nope.json")]) == 2
    capsys.readouterr()
    # an integer past the interpreter's 4,300-digit limit, bytes that are
    # not UTF-8, and arrays nested deeper than the decoder's recursion
    for name, data, cause in [
            ("digits.json", b'{"run": {"seed": ' + b"7" * 5000 + b"}}",
             "digits"),
            ("latin1.json", b'{"surface": "caf\xe9"}', "utf-8"),
            ("deep.json", b"[" * 100_000 + b"]" * 100_000, "recursion")]:
        path = tmp_path / name
        path.write_bytes(data)
        assert run_command(["classify", "--scenario", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: scenario is not readable JSON:")
        assert cause in err and "Traceback" not in err


@pytest.mark.parametrize("cmd", ["cover", "fm", "props", "roundtrip", "modify"])
@pytest.mark.parametrize("factors, where", [
    ([[1e200, 0], [3e200, 0]], "family.presentation.factors:"),
    ([[float("inf"), 0], [1, 0]], "family.presentation.factors[0]:"),
    ([[1, 0], [0, float("nan")]], "family.presentation.factors[1]:"),
    ([[10 ** 400, 0], [1, 0]], "family.presentation.factors[0]:"),
    ([[1e-160, 0], [1e-160, 0]],
     "family.presentation.factors: the product of the factors or its reciprocal"),
    ([[1e-200, 0], [1e-200, 0]],
     "family.presentation.factors: the product of the factors or its reciprocal"),
    ([[1e-320, 0], [1e300, 0]], "family.presentation.factors: factor 0 or its reciprocal"),
    ([[1e300, 0], [1e-300, 0]],
     "family.presentation.factors: the ratio of the factors or its reciprocal"),
], ids=["overflowing-product", "infinite", "nan", "huge-integer", "subnormal-product",
        "zero-product", "subnormal-factor", "overflowing-ratio"])
def test_non_finite_split_factors_exit_two(tmp_path, capsys, cmd, factors, where):
    """Caught by the parser, with or without a journal; the reports used to
    raise a traceback, or print NaN factors and exit 0.  Finite factors
    whose product, ratio or reciprocals leave the normal float range are
    refused as well: the fibre classes divide by all of them."""
    doc = split_doc()
    doc["family"]["presentation"]["factors"] = factors
    for journal in ([], [{"op": "push", "at": [3, 1, 0, 1], "degree": 2}]):
        doc["family"]["modifications"] = journal
        path = write(tmp_path, doc)
        assert run_command([cmd, "--scenario", path]) == 2
        assert capsys.readouterr().err.startswith(f"error: {where}")


def test_puncture_at_declared_point_exits_64(tmp_path, capsys):
    doc = {
        "surface": {"tau": [2.0, 0.0]},
        "cover": {"bisection": {
            "type": "pell",
            "cover": {"f": F_CUBIC},
            "map": {"p": [[3, 1, 0, 1]], "q": [[1, 1, 0, 1]]},
        }},
        "run": {"points": [[2.0, 0.0]]},  # pole of (10 + b^3 + 6w)/(8 - b^3)
    }
    path = write(tmp_path, doc)
    assert run_command(["cover", "--scenario", path]) == 64
    assert "unsupported:" in capsys.readouterr().err


@pytest.mark.parametrize("theta_degree,code", [(150, 0), (10 ** 6, 64)])
def test_descent_frame_overflow_exits_64(tmp_path, capsys, theta_degree, code):
    """With the twist off the descent frame is (x - b0)^theta_degree on the
    |tau| = 2 circle: 2^150 is a float, 2^(10^6) is not, and that sample is
    reported as unsupported, not as an overflow traceback."""
    doc = split_doc()
    doc["surface"]["theta_degree"] = theta_degree
    path = write(tmp_path, doc)
    assert run_command(["props", "--scenario", path]) == code
    err = capsys.readouterr().err
    if code == 64:
        assert err.startswith(
            f"unsupported: descent frame (x - b0)^{theta_degree} overflows at x=(")
    assert "Traceback" not in err


def test_descent_at_a_huge_tau_exits_0(tmp_path, capsys):
    """At tau = 1e160 the descent check reads the frame only: the twist
    closes exactly and the untwisted frame is far from 1, with no lattice
    reduction of a level value whose square overflows."""
    doc = split_doc()
    doc["surface"]["tau"] = [1e160, 0.0]
    code, report = run_json(capsys, ["props", "--scenario", write(tmp_path, doc),
                                     "--samples", "64"])
    assert code == 0
    details = {c["name"]: c["detail"] for c in report["checks"]}
    assert details["descent_twist_enabled"] == "residual 0.000e+00"
    assert details["descent_twist_disabled_detects"] == "residual 1.000e+160"


@pytest.mark.parametrize("cmd", ["cover", "props", "fm", "roundtrip", "sample"])
def test_overflowing_sheet_value_exits_64(tmp_path, capsys, cmd):
    """At tau = 1e160 the genus-2 pushforward (w^2 = b^5 - b + 1, P = b,
    Q = 1) samples where f(b) overflows: the first such sample is reported
    as unsupported, not as a traceback from a non-finite fibre value."""
    doc = pushforward_doc()
    doc["surface"]["tau"] = [1e160, 0.0]
    doc["family"]["presentation"]["cover"]["f"] = [
        [1, 1, 0, 1], [-1, 1, 0, 1], [0, 1, 0, 1], [0, 1, 0, 1], [0, 1, 0, 1],
        [1, 1, 0, 1]]
    doc["family"]["presentation"]["map"].update(p=[[0, 1, 0, 1], [1, 1, 0, 1]],
                                                q=[[1, 1, 0, 1]])
    argv = [cmd, "--scenario", write(tmp_path, doc), "--samples", "64", "--seed", "1"]
    if cmd == "sample":
        argv += ["--csv", str(tmp_path / "rows.csv")]
    assert run_command(argv) == 64
    err = capsys.readouterr().err
    assert err.startswith("unsupported: sheet value of bisection map overflows at b=(")
    assert "Traceback" not in err


@pytest.mark.parametrize("tau, at_point", [
    pytest.param(tau, at_point, id=f"{tau}{'-points' if at_point else ''}")
    for at_point in (False, True) for tau in (5.8e102, 6.0e102, 6.2e102)])
@pytest.mark.parametrize("cmd", ["cover", "props", "fm", "roundtrip", "sample"])
def test_overflowing_sheet_of_the_cover_exits_64(tmp_path, capsys, cmd, tau, at_point):
    """On the genus-1 pushforward (w^2 = b^3 + 1, P = 3, Q = 1) at tau near
    6e102 the sample ladder's map test reaches a sample where the cover's
    sheet f(b) ** 0.5 overflows: it is reported as unsupported, naming b,
    not as an OverflowError traceback.  Given as ``run.points`` (b = tau
    e^(0.3i)), such a sample overflows in the array square root instead."""
    doc = pushforward_doc()
    doc["surface"]["tau"] = [tau, 0.0]
    if at_point:
        doc["run"]["points"] = [[tau * math.cos(0.3), tau * math.sin(0.3)]]
    argv = [cmd, "--scenario", write(tmp_path, doc), "--samples", "64"]
    if cmd == "sample":
        argv += ["--csv", str(tmp_path / "rows.csv")]
    assert run_command(argv) == 64
    err = capsys.readouterr().err
    assert err.startswith("unsupported: sheet of the cover overflows at b=(")
    assert "Traceback" not in err


def two_sections_doc() -> dict:
    return {"surface": {"tau": [2.0, 0.0]}, "determinant": {"factor": [1.0, 0.0]},
            "cover": {"bisection": {"type": "two_sections", "a1": [0.7, 0.1],
                                    "a2": [1.3, -0.2]}}}


HUGE_QI = [10 ** 400, 1, 0, 1]
PRES = ("family", "presentation")
# name: (base scenario, {key path: value}), each with one value past the
# float range
PAST_FLOAT_RANGE = {
    "split-factor": (split_doc, {(*PRES, "factors"): [[1.7e308, 1.7e308], [1, 0]]}),
    "determinant": (split_doc, {("determinant",): {"factor": [1e-320, 0]}}),
    "tau": (split_doc, {("surface", "tau"): [1.7e308, 1.7e308]}),
    "a1": (two_sections_doc, {("cover", "bisection", "a1"): [1e-320, 0]}),
    "a1*a2=1e400": (two_sections_doc, {("cover", "bisection", "a1"): [1e200, 0],
                                       ("cover", "bisection", "a2"): [1e200, 0]}),
    "a1*a2=1e-400": (two_sections_doc, {("cover", "bisection", "a1"): [1e-200, 0],
                                        ("cover", "bisection", "a2"): [1e-200, 0]}),
    "s=1e-300": (pushforward_doc, {(*PRES, "map", "s"): [1, 10 ** 300, 0, 1]}),
    "s=1e-160": (pushforward_doc, {(*PRES, "map", "s"): [1, 10 ** 160, 0, 1]}),
    "s=1e160": (pushforward_doc, {(*PRES, "map", "s"): [10 ** 160, 1, 0, 1]}),
    "s=1e200i": (pushforward_doc, {(*PRES, "map", "s"): [0, 1, 10 ** 200, 1]}),
    "journal": (pushforward_doc, {("family", "modifications"): [{"op": "push",
                                                                 "at": HUGE_QI}]}),
    "fibre": (pushforward_doc, {("surface", "multiple_fibres"): [{"at": HUGE_QI, "m": 2}]}),
    "descent": (split_doc, {("descent", "b0"): HUGE_QI}),
    "f": (pushforward_doc, {(*PRES, "cover", "f"): [HUGE_QI, *F_CUBIC[1:]]}),
    "p=1e300": (pushforward_doc, {(*PRES, "map", "p"): [[10 ** 300, 1, 0, 1]]}),
    "p=1e4000": (pushforward_doc, {(*PRES, "map", "p"): [[10 ** 4000, 1, 0, 1]]}),
}


@pytest.mark.parametrize("case, cmd, code", [
    *(("split-factor", c, 2) for c in ("cover", "classify", "sample")),
    *(("determinant", c, 2) for c in ("cover", "fm", "props")),
    *(("tau", c, 2) for c in ("cover", "modify", "classify")),
    ("a1", "sample", 2), ("a1*a2=1e400", "cover", 2), ("a1*a2=1e-400", "cover", 2),
    *(("s=1e-300", c, 2) for c in ("cover", "fm", "modify")),
    *(("s=1e-160", c, 2) for c in ("cover", "props")),
    *(("s=1e160", c, 2) for c in ("cover", "roundtrip")),
    *(("s=1e200i", c, 2) for c in ("cover", "props")),
    *(("journal", c, 64) for c in ("modify", "classify", "sample")),
    *(("fibre", c, 64) for c in ("cover", "props")),
    ("descent", "props", 64), ("f", "cover", 64),
    ("p=1e300", "cover", 64), ("p=1e4000", "props", 64),
])
def test_values_past_the_float_range_exit_without_a_traceback(tmp_path, capsys,
                                                              case, cmd, code):
    """A float that the per-sample path divides by (a split factor, the
    declared determinant, two section values, tau, the map scale and its
    square) must be a normal float and so must its reciprocal, else exit 2;
    exact data whose float image overflows exits 64, naming the value (a
    polynomial coefficient by its size: at p = 10^4000 the map's U has
    coefficients of 8,000 digits, past what ``str`` converts)."""
    base, edits = PAST_FLOAT_RANGE[case]
    doc = base()
    for (*keys, last), value in edits.items():
        node = doc
        for key in keys:
            node = node[key]
        node[last] = value
    argv = [cmd, "--scenario", write(tmp_path, doc),
            "--samples", "16", "--json", str(tmp_path / "r.json")]
    if cmd == "sample":
        argv += ["--csv", str(tmp_path / "rows.csv")]
    assert run_command(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("error: " if code == 2 else "unsupported: ")
    assert ("zero, subnormal or not finite" if code == 2
            else "past the float range") in err


def test_a_journal_ratio_past_the_float_range_exits_two(tmp_path, capsys):
    """Two degree-1 pushes at one point: the ratio of their line points has
    its nearest power of tau past the float range, so the second push has
    no surjection (exit 2) and no OverflowError escapes."""
    doc = pushforward_doc()
    doc["family"]["modifications"] = [
        {"op": "push", "at": [3, 1, 0, 1], "degree": 1, "line_point": point}
        for point in ([1.7, 0.0], [1e308, 1e308])]
    assert run_command(["modify", "--scenario", write(tmp_path, doc)]) == 2
    assert capsys.readouterr().err == ("error: family.modifications[1]: no "
                                       "surjection of degree 1 exists at BasePoint(3)\n")


def test_a_canonical_value_past_the_float_range_exits_64(tmp_path, capsys):
    """sample at tau = 1e160 on the two sections 1e-300 and 1: the canonical
    representative of 1e-300 needs tau^2, past the float range, so the
    report is unsupported (exit 64) and names the value; no OverflowError
    escapes."""
    doc = {"surface": {"tau": [1e160, 0]},
           "cover": {"bisection": {"type": "two_sections", "a1": [1e-300, 0],
                                   "a2": [1, 0]}},
           "run": {"samples": 4}}
    assert run_command(["sample", "--scenario", write(tmp_path, doc)]) == 64
    assert capsys.readouterr().err == (
        "unsupported: representative of (1e-300+0j) past the float range\n")


def test_explicit_pell_map_matches_its_pair(tmp_path, capsys):
    """The map of (p, q) = (3, 1) on w^2 = b^3 + 1, written out as
    U = b^3 + 10, V = 6, R = 8 - b^3, reads the same props report and exit
    code but for the scenario hash (at seed 0 both fail the cover check next
    to a pole, the defect of condition-blind sampling); R = 8 + b^3 breaks
    U^2 - f V^2 = R^2 and exits 2."""
    explicit = pushforward_doc()
    explicit["family"]["presentation"]["map"] = {
        "u": [[10, 1, 0, 1], [0, 1, 0, 1], [0, 1, 0, 1], [1, 1, 0, 1]],
        "v": [[6, 1, 0, 1]],
        "r": [[8, 1, 0, 1], [0, 1, 0, 1], [0, 1, 0, 1], [-1, 1, 0, 1]],
        "s": [1, 1, 0, 1]}
    runs = [run_json(capsys, ["props", "--scenario", write(tmp_path, doc, name),
                              "--samples", "256"])
            for doc, name in ((pushforward_doc(), "pair.json"),
                              (explicit, "explicit.json"))]
    hashes = {report.pop("scenario_hash") for _, report in runs}
    assert len(hashes) == 2 and runs[0] == runs[1]
    explicit["family"]["presentation"]["map"]["r"][3] = [1, 1, 0, 1]
    assert run_command(["props", "--scenario", write(tmp_path, explicit)]) == 2
    assert "Pell identity U^2 - f V^2 = R^2 violated" in capsys.readouterr().err


def test_classify_without_double_cover_exits_64(tmp_path, capsys):
    path = write(tmp_path, split_doc())
    assert run_command(["classify", "--scenario", path]) == 64
    capsys.readouterr()


@pytest.mark.parametrize("cmd,key", [("fm", "roundtrip_status"),
                                     ("roundtrip", "status")])
def test_family_with_jumps_exits_64_with_report(tmp_path, capsys, cmd, key):
    """The README example has a jump, outside the round trip's hypotheses."""
    doc = pushforward_doc()
    doc["family"]["modifications"] = [
        {"op": "push", "at": [3, 1, 0, 1], "degree": 2, "line_point": [1.7, 0.0]}]
    doc["descent"] = {"b0": [0, 1, 0, 1]}
    path = write(tmp_path, doc)
    code, report = run_json(capsys, [cmd, "--scenario", path])
    assert code == 64
    assert report[key] == "hypothesis_violated"


def test_missing_family_section_exits_two(tmp_path, capsys):
    doc = {"surface": {"tau": [2.0, 0.0]},
           "cover": {"bisection": {"type": "two_sections",
                                   "a1": [2.0, 0.0], "a2": [4.0, 0.0]}}}
    path = write(tmp_path, doc)
    assert run_command(["fm", "--scenario", path]) == 2
    assert "family" in capsys.readouterr().err


P3 = [3, 1, 0, 1]


@pytest.mark.parametrize("steps,err", [
    ([{"op": "pop", "at": P3}],
     "family.modifications[0]: no jump at BasePoint(3); nothing to remove"),
    ([{"op": "push", "at": P3, "degree": 2},
      {"op": "push", "at": P3, "degree": 1}],
     "family.modifications[1]: no surjection of degree 1 exists at BasePoint(3)"),
    ([{"op": "push", "at": P3, "line_point": [0.0, 0.0]}],
     "family.modifications[0].line_point: must be nonzero"),
    # parse and replay interleave: the first bad step is reported
    ([{"op": "push", "at": P3, "degree": 2},
      {"op": "push", "at": P3, "degree": 1},
      {"op": "flip", "at": P3}],
     "family.modifications[1]: no surjection of degree 1 exists at BasePoint(3)"),
    ([{"op": "push", "at": P3, "degree": 0},
      {"op": "pop", "at": [0, 1, 3, 1]}],
     "family.modifications[0].degree: expected integer >= 1"),
    ([{"op": "push", "at": "inf"}],
     "family.modifications[0]: no surjection of degree 1 exists at BasePoint(inf)"),
    # equal height needs the same line point up to the lattice; [6, 2, 0, 1]
    # is another spelling of 3
    ([{"op": "push", "at": P3, "degree": 2, "line_point": [1.7, 0.0]},
      {"op": "push", "at": [6, 2, 0, 1], "degree": 2, "line_point": [1.9, 0.0]}],
     "family.modifications[1]: no surjection of degree 2 exists at BasePoint(3)"),
], ids=["pop-unjumped", "push-below-height", "zero-line-point",
        "impossible-then-malformed", "malformed-then-impossible",
        "push-at-infinity", "equal-height-off-lattice"])
def test_malformed_journal_exits_two_and_names_the_step(tmp_path, capsys,
                                                         steps, err):
    doc = split_doc()
    doc["family"]["modifications"] = steps
    path = write(tmp_path, doc)
    assert run_command(["modify", "--scenario", path]) == 2
    assert capsys.readouterr().err == f"error: {err}\n"


def test_chern_stack_gate_detects_a_lost_push(tmp_path, capsys, monkeypatch):
    doc = split_doc()
    doc["family"]["modifications"] = [
        {"op": "push", "at": [3, 1, 0, 1], "degree": 2},
        {"op": "push", "at": [0, 1, 3, 1], "degree": 1}]
    path = write(tmp_path, doc)
    code, report = run_json(capsys, ["props", "--scenario", path])
    assert code == 0 and report["status"] == "pass"
    # corrupt the journal index: the first jumped fibre loses its top push
    build = FamilySpec.__dict__["_stacks"].func

    def lossy(self):
        stacks = build(self)
        for at, stack in stacks.items():
            if stack:
                stacks[at] = stack[:-1]
                break
        return stacks

    monkeypatch.setattr(FamilySpec, "_stacks", property(lossy))
    code, report = run_json(capsys, ["props", "--scenario", path])
    assert code == 1 and report["status"] == "fail"
    assert [c["name"] for c in report["checks"] if not c["passed"]] == [
        "chern_stack"]


# Away from the sample circle |b| = 2 of tau = 2.
SCALING_POINTS = ([3, 1, 0, 1], [-3, 1, 0, 1], [0, 1, 3, 1], [0, 1, -3, 1],
                  [5, 2, 1, 1], [-5, 2, -1, 1], [7, 3, 0, 1], [1, 2, 5, 2])


def split_journal(length: int) -> list[dict]:
    """A valid journal over 8 points, 3 pushes to 2 pops at each."""
    rng = random.Random(length)
    per_point = length // len(SCALING_POINTS)
    order = [i for i in range(len(SCALING_POINTS)) for _ in range(per_point)]
    rng.shuffle(order)
    pops_left = [per_point * 2 // 5] * len(SCALING_POINTS)
    pushes_left = [per_point - q for q in pops_left]
    stacks: list[list[int]] = [[] for _ in SCALING_POINTS]
    steps = []
    for i in order:
        stack, at = stacks[i], SCALING_POINTS[i]
        p, q = pushes_left[i], pops_left[i]
        if stack and q and (not p or rng.random() < q / (p + q)):
            pops_left[i] -= 1
            stack.pop()
            steps.append({"op": "pop", "at": at})
            continue
        pushes_left[i] -= 1
        degree = (stack[-1] if stack else 1) + rng.randrange(2)
        stack.append(degree)
        steps.append({"op": "push", "at": at, "degree": degree,
                      "line_point": [1.7, 0.0]})
    return steps


def test_journal_bookkeeping_scales_linearly(tmp_path, monkeypatch):
    """Point comparisons, not time: a 4x longer journal may cost at most 5x
    as many BasePoint equality tests in modify and props."""
    calls = count_calls(monkeypatch, BasePoint, "__eq__")
    counts = {}
    for length in (400, 1600):
        doc = split_doc()
        del doc["descent"]
        doc["family"]["modifications"] = split_journal(length)
        path = write(tmp_path, doc, f"journal{length}.json")
        calls[0] = 0
        for cmd in ("modify", "props"):
            assert run_command([cmd, "--scenario", path, "--json",
                                str(tmp_path / "out.json")]) == 0
        counts[length] = calls[0]
    assert counts[1600] <= 5 * counts[400], counts


def test_journal_points_hash_once(tmp_path, monkeypatch):
    """A Q(i) number hashes its integer image: however often modify, props
    and cover look up the 800 journal points, no Fraction is hashed."""
    calls = count_calls(monkeypatch, Fraction, "__hash__")
    doc = pushforward_doc()
    doc["family"]["modifications"] = split_journal(800)
    path = write(tmp_path, doc)
    for cmd in ("modify", "props", "cover"):
        calls[0] = 0
        assert run_command([cmd, "--scenario", path, "--json",
                            str(tmp_path / "out.json")]) == 0
        assert calls[0] == 0, (cmd, calls[0])


@pytest.mark.parametrize("make_doc", [split_doc, pushforward_doc],
                         ids=["split", "pushforward"])
def test_journal_parse_builds_one_family(monkeypatch, make_doc):
    """Counts, not time: an 800-step journal is replayed against one stack
    index into a single family, with no family per step and no Fraction
    comparison (Q(i) numbers compare their integer images)."""
    counts = {"init": count_calls(monkeypatch, FamilySpec, "__init__"),
              "replace": count_calls(monkeypatch, dataclasses, "replace"),
              "eq": count_calls(monkeypatch, Fraction, "__eq__")}
    monkeypatch.setattr(families, "replace", dataclasses.replace)
    seen = {}
    for length in (0, 800):
        doc = make_doc()
        doc["family"]["modifications"] = split_journal(length)
        for calls in counts.values():
            calls[0] = 0
        fam = parse_scenario(doc).family
        assert len(fam.steps) == length
        seen[length] = {key: calls[0] for key, calls in counts.items()}
    assert seen[800]["init"] == 1 and seen[800]["replace"] == 0, seen
    assert seen[800]["eq"] == seen[0]["eq"] == 0, seen


def test_determinant_cost_does_not_grow_with_the_journal(monkeypatch):
    """The determinant is built from step counts: the same number of line
    bundles at 200 and at 1,600 steps."""
    calls = count_calls(monkeypatch, LineBundleOnX, "__post_init__")
    counts = {}
    for length in (200, 1600):
        doc = split_doc()
        doc["family"]["modifications"] = split_journal(length)
        fam = parse_scenario(doc).family
        calls[0] = 0
        fam.determinant
        counts[length] = calls[0]
    assert counts[200] == counts[1600], counts


def test_parser_is_built_once_and_reports_match_fresh_processes(
        tmp_path, capsys, monkeypatch):
    """One process runs sample --csv, modify, a call argparse rejects, and
    props; each exit code, output and CSV equals that of a fresh process,
    and the argument parser is built at most once over the four calls."""
    monkeypatch.setenv("COLUMNS", "80")
    built = count_calls(monkeypatch, argparse.ArgumentParser, "add_subparsers")
    path = write(tmp_path, readme_doc())
    calls = [["sample", "--scenario", path, "--csv", "rows.csv"],
             ["modify", "--scenario", path],
             ["modify", "--scenario", path, "--csv", "rows.csv"],
             ["props", "--scenario", path, "--samples", "8"]]

    def csv_bytes(cwd: Path) -> "bytes | None":
        csv = cwd / "rows.csv"
        if not csv.exists():
            return None
        data = csv.read_bytes()
        csv.unlink()
        return data

    here, fresh_dir = tmp_path / "in", tmp_path / "fresh"
    here.mkdir()
    fresh_dir.mkdir()
    monkeypatch.chdir(here)
    in_process = []
    for argv in calls:
        try:
            code = run_command(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        in_process.append((code, out, err, csv_bytes(here)))
    assert built[0] <= 1
    assert [r[0] for r in in_process] == [0, 0, 2, 0]
    env = dict(os.environ, COLUMNS="80",
               PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    for argv, got in zip(calls, in_process):
        proc = subprocess.run([sys.executable, "-m", "spectral_forge.cli", *argv],
                              capture_output=True, text=True, env=env,
                              cwd=fresh_dir, timeout=120)
        assert got == (proc.returncode, proc.stdout, proc.stderr,
                       csv_bytes(fresh_dir)), argv


def test_float_conversions_do_not_scale_with_samples(tmp_path, monkeypatch):
    """Exact coefficients are converted to floats once per polynomial, not
    once per sample, and exact-only arithmetic converts none."""
    calls = count_calls(monkeypatch, QI, "to_complex")
    path = write(tmp_path, pushforward_doc())
    for cmd in ("props", "cover"):
        counts = {}
        for samples in (256, 2048):
            calls[0] = 0
            assert run_command([cmd, "--scenario", path, "--samples",
                                str(samples), "--seed", "1", "--json",
                                str(tmp_path / "out.json")]) == 0
            counts[samples] = calls[0]
        assert counts[256] == counts[2048], (cmd, counts)

    calls[0] = 0
    cov = cover_g2()
    p = point_class(cov, QI.of(1), QI.of(1))
    acc = p
    for _ in range(30):
        acc = class_add(acc, p)
    assert calls[0] == 0


def test_fm_transforms_once(tmp_path, monkeypatch):
    """The fm report and its round trip share one forward transform."""
    from spectral_forge import fourier
    calls = count_calls(monkeypatch, fourier, "fm_transform")
    monkeypatch.setattr(cli, "fm_transform", fourier.fm_transform)
    path = write(tmp_path, pushforward_doc())
    assert run_command(["fm", "--scenario", path, "--json",
                        str(tmp_path / "out.json")]) == 0
    assert calls[0] == 1


def test_declared_determinant_is_checked_once_per_report(tmp_path, monkeypatch):
    """Each report on a family with a declared determinant compares it with
    the family's once."""
    calls = count_calls(monkeypatch, LineBundleOnX, "isomorphic")
    path = write(tmp_path, split_declared_doc())
    for cmd in COMMANDS:
        calls[0] = 0
        run_command([cmd, "--scenario", path, "--json", str(tmp_path / "out.json"),
                     *(["--csv", str(tmp_path / "rows.csv")] if cmd == "sample" else [])])
        assert (cmd, calls[0]) == (cmd, 1)


def test_main_entry_point_matches(tmp_path, capsys):
    path = write(tmp_path, split_doc())
    assert main(["modify", "--scenario", path]) == 0
    capsys.readouterr()


# ============================================================
# Gate negative controls
# ============================================================

@pytest.mark.parametrize("factors", [
    [[1e-6, 0.0], [1e-6, 0.0]],
    [[1e6, 0.0], [1e6, 0.0]],
    [[0.7, 0.1], [1.3, -0.2]],
], ids=["small", "large", "plain"])
def test_fibre_product_gate_detects_a_moved_point(tmp_path, capsys,
                                                  monkeypatch, factors):
    """Moving one spectral point by 1.3 leaves the sheet product 0.3 away
    from every power of tau, whatever the size of the factors."""
    doc = split_doc()
    doc["family"]["presentation"]["factors"] = factors
    path = write(tmp_path, doc)
    code, report = run_json(capsys, ["props", "--scenario", path])
    assert code == 0 and report["status"] == "pass"

    plain = cli._max_product_defect

    def moved(fam, frame):
        # a copy of the frame, so that only this gate reads the moved point
        first, second, odd = frame.spectral(fam)
        copy = spectral._Frame(frame.pts)
        copy.spectral = lambda family: (first * 1.3, second, odd)
        return plain(fam, copy)

    monkeypatch.setattr(cli, "_max_product_defect", moved)
    code, report = run_json(capsys, ["props", "--scenario", path])
    assert code == 1 and report["status"] == "fail"
    failed = [(c["name"], c["detail"]) for c in report["checks"]
              if not c["passed"]]
    assert failed == [("fibre_product_involution", "max defect 3.000e-01")]


def test_props_reports_a_failing_cover_check(tmp_path, capsys, monkeypatch):
    """An inverse map whose scale is moved by 1e-6 disagrees with the cover
    at every sample: props names the first sample, checks no invariance of
    the cover it could not build, and fails."""
    doc = pushforward_doc()
    scn = parse_scenario(doc)
    first = cli._frame(scn).pts[0]
    moved = perturbed(scn.family.data.factor_map.inverse(), 1e-6)
    monkeypatch.setattr(PellMap, "inverse", lambda self: moved)
    code, report = run_json(capsys, ["props", "--scenario", write(tmp_path, doc)])
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["cover_consistency"] == {
        "name": "cover_consistency", "passed": False,
        "detail": f"declared and recomputed covers disagree at b={first}"}
    assert "cover_invariance" not in checks
    assert (code, report["status"]) == (1, "fail")


def test_tol_decides_the_lattice_gate(tmp_path, capsys):
    """A declared determinant 1e-6 off the family's passes the lattice
    comparison at tolerance 1e-5, from --tol or from run.tol, and fails at
    the default 1e-9 and at 1e-7."""
    doc = split_doc()
    det = (0.7 + 0.1j) * (1.3 - 0.2j) * (1 + 1e-6)
    doc["determinant"] = {"factor": [det.real, det.imag]}
    path = write(tmp_path, doc)
    for flags in ([], ["--tol", "1e-7"]):
        assert run_command(["cover", "--scenario", path, *flags]) == 1
        assert "declared determinant disagrees" in capsys.readouterr().err
    assert run_command(["cover", "--scenario", path, "--tol", "1e-5"]) == 0
    assert '"tolerance":1e-05' in capsys.readouterr().out
    doc["run"]["tol"] = 1e-5
    assert run_command(["cover", "--scenario",
                        write(tmp_path, doc, "loose.json")]) == 0
    assert '"tolerance":1e-05' in capsys.readouterr().out


@pytest.mark.parametrize("at, code", [(5.02, 0), (5, 64)], ids=["near", "on"])
def test_base_points_match_at_a_fixed_radius(tmp_path, capsys, at, code):
    """A loose run tolerance does not widen base-point matching: b = 5.02
    lies 0.02 from the README's multiple fibre at b = 5 and stays an
    ordinary fibre at --tol 0.05, while b = 5 itself exits 64."""
    doc = readme_doc()
    doc["run"]["points"] = [[at, 0], [2, 1]]
    path = write(tmp_path, doc)
    assert run_command(["cover", "--scenario", path, "--tol", "0.05"]) == code
    assert ("multiple fibre" in capsys.readouterr().err) == (code == 64)


def test_journal_points_match_at_a_fixed_radius():
    """The README journal's jump at b = 3 is matched at 3 + 1e-12 but not at
    3.02, also when the run tolerance is 0.05."""
    family = parse_scenario(readme_doc(), tol=0.05).family
    assert isinstance(family.fiber_class_at(3 + 1e-12), UnstableFiber)
    assert not isinstance(family.fiber_class_at(3.02), UnstableFiber)


@pytest.mark.parametrize("doc", [pushforward_doc, pell_cover_doc],
                         ids=["family", "cover-only"])
def test_exhausted_sample_ladder_exits_64_naming_the_stage(
        tmp_path, capsys, monkeypatch, doc):
    monkeypatch.setattr(PellMap, "punctures_near",
                        lambda self, b, margin=1e-6: True)
    path = write(tmp_path, doc())
    for cmd in ("cover", "sample"):
        assert run_command([cmd, "--scenario", path]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("unsupported: sampling: ")


def test_a_declared_cover_steps_past_a_multiple_fibre(tmp_path, capsys):
    """A declared cover's ladder avoids the multiple fibres as a family's
    does: with a double fibre at a sample of the first rung, ``cover``
    samples the second rung, where the family of the inverse sections does
    too, and passes its invariance check."""
    doc = multiple_fibre_cover_doc()
    inverses = [1 / complex(*doc["cover"]["bisection"][k]) for k in ("a1", "a2")]
    twin = {key: value for key, value in doc.items() if key != "cover"}
    twin["family"] = {"presentation": {"type": "split",
                                       "factors": [[a.real, a.imag] for a in inverses]}}
    points = [cli._frame(parse_scenario(d)).pts for d in (doc, twin)]
    assert points[0] == points[1] == sample_circle(4, 2.26, 0j, phase=0.05)
    code, report = run_json(capsys, ["cover", "--scenario", write(tmp_path, doc)])
    assert code == 0 and report["invariance"]["passed"]


# ============================================================
# Golden reports
# ============================================================

COMMANDS = ("cover", "fm", "roundtrip", "classify", "modify", "props",
            "sample")
GOLDEN_DOCS = {"split": split_doc, "pushforward": pushforward_doc,
               "readme": readme_doc, "pell-cover": pell_cover_doc,
               "split-declared": split_declared_doc,
               "pushforward-twisted": pushforward_twisted_doc,
               "sections-cover": sections_cover_doc}


def digest(data: bytes) -> "str | None":
    """First 16 hex digits of the SHA-256 of non-empty output, else None."""
    return hashlib.sha256(data).hexdigest()[:16] if data else None


def report_digests(tmp_path, capsys, name: str) -> dict[str, tuple]:
    """Exit code and digests of the JSON report and of stdout (the CSV of
    sample) for every subcommand on one scenario."""
    path = write(tmp_path, GOLDEN_DOCS[name](), f"{name}.json")
    out = tmp_path / f"{name}.report.json"
    digests = {}
    for cmd in COMMANDS:
        if out.exists():
            out.unlink()
        code = run_command([cmd, "--scenario", path, "--json", str(out)])
        report = out.read_bytes() if out.exists() else b""
        stdout = capsys.readouterr().out.encode()
        digests[cmd] = (code, digest(report), digest(stdout))
    return digests


GOLDEN: dict[str, dict[str, tuple]] = {
    "pell-cover": {
        "cover": (0, "595367bc1be02420", None),
        "fm": (2, None, None),
        "roundtrip": (2, None, None),
        "classify": (0, "00416a35fdef53d3", None),
        "modify": (2, None, None),
        "props": (2, None, None),
        "sample": (0, "9542056e32a6b023", "92b9264b2af80624"),
    },
    "pushforward": {
        "cover": (0, "c4ba9ed2015caf12", None),
        "fm": (0, "90a68677834778c3", None),
        "roundtrip": (0, "a68e5c96721fba01", None),
        "classify": (0, "a20cb6dcb95b98ab", None),
        "modify": (0, "0710ec88298897cb", None),
        "props": (0, "c08dd7098be2e9e3", None),
        "sample": (0, "eef720ca9bb898b0", "5c359416171d6622"),
    },
    "readme": {
        "cover": (0, "d01c37f0cf85bd22", None),
        "fm": (64, "e59f42364d66cddd", None),
        "roundtrip": (64, "58383b90441e2bee", None),
        "classify": (0, "246d6ab61f0b53dd", None),
        "modify": (0, "bbf3e6970baa3723", None),
        "props": (0, "9f016e72c89650e2", None),
        "sample": (0, "f439cd9931b311bd", "b435a608aa436fe3"),
    },
    "split": {
        "cover": (0, "216d2d61072cfb4d", None),
        "fm": (0, "b75c6be0cfd1cb49", None),
        "roundtrip": (0, "108ad2a5c074c8b3", None),
        "classify": (64, None, None),
        "modify": (0, "c4197ba37319d084", None),
        "props": (0, "ec95002730dabc98", None),
        "sample": (0, "ad14c26ec70faf93", "7fd1c501348d92c2"),
    },
    "split-declared": {
        "cover": (0, "cd095c8c68a4ae5f", None),
        "fm": (64, "2f62236ce0cb873d", None),
        "roundtrip": (64, "ce034faa4f4131b7", None),
        "classify": (64, None, None),
        "modify": (0, "01b4523312dc9d5b", None),
        "props": (0, "c620dacafd1e0167", None),
        "sample": (0, "2d51f0e3c7e8d3a0", "e95e44de7c40cc71"),
    },
    "pushforward-twisted": {
        "cover": (0, "97e35a399626898f", None),
        "fm": (1, "ac8a2433368c4acc", None),
        "roundtrip": (1, "c60644d62d310dba", None),
        "classify": (0, "c85f0885d3dbfb58", None),
        "modify": (0, "0c10c32ee17b5468", None),
        "props": (0, "2b03ba9fd65a9ca0", None),
        "sample": (0, "5e59a7f7393401e2", "5c359416171d6622"),
    },
    "sections-cover": {
        "cover": (0, "d53b68a02520a38f", None),
        "fm": (2, None, None),
        "roundtrip": (2, None, None),
        "classify": (64, None, None),
        "modify": (2, None, None),
        "props": (2, None, None),
        "sample": (0, "69215f7be4789146", "c3ef2be8518fed4a"),
    },
}


@pytest.mark.parametrize("name", sorted(GOLDEN_DOCS))
def test_reports_match_golden(tmp_path, capsys, name):
    assert report_digests(tmp_path, capsys, name) == GOLDEN[name]


def test_golden_detects_a_one_byte_change(tmp_path, capsys, monkeypatch):
    plain = cli.canonical_json

    def flipped(report) -> str:
        text = plain(report)
        return text[:-1] + chr(ord(text[-1]) ^ 1)

    monkeypatch.setattr(cli, "canonical_json", flipped)
    digests = report_digests(tmp_path, capsys, "pushforward")
    for cmd, (code, report, stdout) in GOLDEN["pushforward"].items():
        assert digests[cmd][0] == code
        assert digests[cmd][1] != report
        assert digests[cmd][2] == stdout
