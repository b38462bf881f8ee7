# tests/test_cli.py
"""
Command-line driver: exit codes (0 ok, 1 verification failure, 2 schema
error, 64 unsupported/puncture), canonical JSON reports, deterministic
output, CSV sampling.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

import pytest

from spectral_forge import (QI, BasePoint, FamilySpec, PellMap, TatePoint,
                            UnstableFiber, class_add, parse_scenario,
                            point_class, scenario_hash)
from spectral_forge import cli
from spectral_forge.cli import main, run_command
from conftest import cover_g2

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


@pytest.mark.parametrize("cmd", ["cover", "props", "sample"])
@pytest.mark.parametrize("samples", ["0", "-3"])
def test_nonpositive_samples_flag_exits_two(tmp_path, capsys, cmd, samples):
    """The flag is checked like run.samples, not run on an empty circle."""
    path = write(tmp_path, split_doc())
    assert run_command([cmd, "--scenario", path, "--samples", samples]) == 2
    assert "run.samples" in capsys.readouterr().err


def test_csv_flag_is_rejected_outside_sample(tmp_path, capsys):
    path = write(tmp_path, split_doc())
    with pytest.raises(SystemExit) as exc:
        run_command(["cover", "--scenario", path, "--csv", "x"])
    assert exc.value.code == 2
    assert "--csv" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["0", "1.5", "nan"])
def test_tol_flag_outside_the_unit_interval_exits_two(tmp_path, capsys, tol):
    path = write(tmp_path, split_doc())
    assert run_command(["cover", "--scenario", path, "--tol", tol]) == 2
    assert "run.tol" in capsys.readouterr().err


def test_schema_error_exits_two(tmp_path, capsys):
    doc = split_doc()
    del doc["surface"]
    path = write(tmp_path, doc)
    assert run_command(["cover", "--scenario", path]) == 2
    assert "error:" in capsys.readouterr().err
    assert run_command(["cover", "--scenario",
                        str(tmp_path / "nope.json")]) == 2
    capsys.readouterr()


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


@pytest.mark.parametrize("steps,bad", [
    ([{"op": "pop", "at": [3, 1, 0, 1]}], 0),
    ([{"op": "push", "at": [3, 1, 0, 1], "degree": 2},
      {"op": "push", "at": [3, 1, 0, 1], "degree": 1}], 1),
    ([{"op": "push", "at": [3, 1, 0, 1], "line_point": [0.0, 0.0]}], 0),
], ids=["pop-unjumped", "push-below-height", "zero-line-point"])
def test_malformed_journal_exits_two_and_names_the_step(tmp_path, capsys,
                                                         steps, bad):
    doc = split_doc()
    doc["family"]["modifications"] = steps
    path = write(tmp_path, doc)
    assert run_command(["modify", "--scenario", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: family.modifications[{bad}]")


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
    calls = [0]
    plain_eq = BasePoint.__eq__

    def counted_eq(self, other):
        calls[0] += 1
        return plain_eq(self, other)

    monkeypatch.setattr(BasePoint, "__eq__", counted_eq)
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
    """Each parsed journal point hashes its two Fraction parts once; base
    point lookups after that reuse the cached Q(i) hash."""
    calls = [0]
    plain_hash = Fraction.__hash__

    def counted_hash(self):
        calls[0] += 1
        return plain_hash(self)

    monkeypatch.setattr(Fraction, "__hash__", counted_hash)
    doc = pushforward_doc()
    doc["family"]["modifications"] = split_journal(800)
    path = write(tmp_path, doc)
    for cmd in ("modify", "props", "cover"):
        calls[0] = 0
        assert run_command([cmd, "--scenario", path, "--json",
                            str(tmp_path / "out.json")]) == 0
        assert calls[0] <= 2 * 800, (cmd, calls[0])


def test_float_conversions_do_not_scale_with_samples(tmp_path, monkeypatch):
    """Exact coefficients are converted to floats once per polynomial, not
    once per sample, and exact-only arithmetic converts none."""
    calls = [0]
    plain_to_complex = QI.to_complex

    def counted_to_complex(self):
        calls[0] += 1
        return plain_to_complex(self)

    monkeypatch.setattr(QI, "to_complex", counted_to_complex)
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

    plain = cli.spectral_points

    def moved(fc):
        first, second = plain(fc)
        return (TatePoint(first.curve, first.value * 1.3), second)

    monkeypatch.setattr(cli, "spectral_points", moved)
    code, report = run_json(capsys, ["props", "--scenario", path])
    assert code == 1 and report["status"] == "fail"
    failed = [(c["name"], c["detail"]) for c in report["checks"]
              if not c["passed"]]
    assert failed == [("fibre_product_involution", "max defect 3.000e-01")]


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


# ============================================================
# Golden reports
# ============================================================

COMMANDS = ("cover", "fm", "roundtrip", "classify", "modify", "props",
            "sample")
GOLDEN_DOCS = {"split": split_doc, "pushforward": pushforward_doc,
               "readme": readme_doc, "pell-cover": pell_cover_doc}


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
