# spectral_forge/cli.py
"""
Command line driver.

Subcommands: cover, fm, roundtrip, classify, modify, props, sample.
Every JSON report embeds the scenario hash and the tolerance used, and is
serialized canonically (sorted keys, tight separators) so repeated runs
give byte-identical output.  The tolerance, ``--tol`` or else ``run.tol``,
is the surface curve's: it decides every lattice, invariance, round-trip and
descent gate.  ``--samples`` and ``--seed`` replace ``run.samples`` and
``run.seed`` and are checked like them (samples must be a positive
integer, at most ``MAX_SAMPLES``; the seed at most ``MAX_SEED`` in
magnitude).  Only ``sample`` takes ``--csv``.

Exit codes: 0 success, 1 verification failure, 2 schema or input error,
64 unsupported construction (including map punctures at sample points, and
fm/roundtrip on a family with jumps, whose report is still written).
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Any, Callable, Sequence

from . import _carray
from ._carray import np
from .covers import HyperCover
from .errors import (SchemaError, SpectralForgeError, UnsupportedError,
                     VerificationError)
from .families import (FamilySpec, PushforwardData, cover_from_family,
                       default_sample_points, jump_report)
from .fiber import spectral_points
from .fourier import (_roundtrip_report, descent_divisor, fm_transform,
                      roundtrip_check, z_action_residual)
from .scenario import (MAX_SAMPLES, MAX_SEED, Scenario, canonical_json,
                       encode_base_point, encode_complex, load_scenario)
from .spectral import (PellMap, SpectralCover, TwoSections, _cover_points, _Frame,
                       _max_fibre_defect, invariance_residual)
from .surface import GroupPresentation, fibre_component_groups, pic_relative

__all__ = ["main", "run_command"]


# ============================================================
# Shared helpers
# ============================================================

def _require_family(scn: Scenario) -> FamilySpec:
    if scn.family is None:
        raise SchemaError("this command needs a family section")
    return scn.family


def _frame(scn: Scenario) -> _Frame:
    """The report's frame: at ``run.points`` (poles there raise), else on
    the family's ladder, else on the declared cover's."""
    if scn.points is not None:
        return _Frame(list(scn.points))
    if scn.family is not None:
        return _Frame(default_sample_points(scn.family, scn.samples, phase=0.05 * scn.seed))
    return _Frame(_cover_points(scn.cover, scn.samples, 0.05 * scn.seed))


def _cover_and_frame(scn: Scenario) -> tuple[SpectralCover, _Frame]:
    """The declared cover, else the family's, with the report's frame."""
    if scn.cover is None:
        _require_family(scn)
    frame = _frame(scn)
    cover = scn.cover if scn.cover is not None else cover_from_family(scn.family, frame)
    return cover, frame


def _invariance_delta(scn: Scenario):
    """Bundle whose fibre factor the sheet product must hit; the inverse
    determinant for a family, the declared one otherwise."""
    if scn.family is not None:
        return scn.family.involution_bundle()
    if scn.determinant is not None:
        return scn.determinant.dual()
    return None


def _hyper_cover(scn: Scenario) -> HyperCover:
    if scn.family is not None and isinstance(scn.family.data, PushforwardData):
        return scn.family.data.cover
    if scn.cover is not None and isinstance(scn.cover.bisection, PellMap):
        return scn.cover.bisection.cover
    raise UnsupportedError(
        "classification needs a double cover (pushforward family or "
        "pell bisection)")


def _encode_bisection(bis: Any) -> dict:
    if isinstance(bis, TwoSections):
        return {"type": "two_sections",
                "a1": encode_complex(bis.a1), "a2": encode_complex(bis.a2)}
    return {"type": "pell",
            "genus": bis.cover.genus,
            "degrees": {"u": bis.u_part.degree, "v": bis.v_part.degree,
                        "r": bis.r_part.degree},
            "norm_constant": encode_complex(bis.norm_value())}


def _encode_cover(cover: SpectralCover) -> dict:
    return {
        "verticals": [{"at": encode_base_point(at), "multiplicity": m}
                      for at, m in cover.verticals],
        "bisection": _encode_bisection(cover.bisection),
        "vertical_total": cover.vertical_total(),
        "torus_degree": cover.torus_degree(),
        "n_total": cover.n_total(),
    }


def _max_product_defect(fam: FamilySpec, frame: _Frame) -> float:
    """The largest lattice defect of the product of a fibre's two spectral
    points against the involution bundle's factor (0 on jumped fibres)."""
    def spectral_pair(b: complex) -> "tuple[complex, complex] | None":
        spts = spectral_points(fam.fiber_class_at(b))
        return None if spts is None else (spts[0].value, spts[1].value)

    return _max_fibre_defect(fam.curve, fam.involution_bundle(), frame,
                             frame.spectral(fam), spectral_pair)


def _encode_group(g: GroupPresentation) -> dict:
    return {"free_rank": g.free_rank, "torsion": list(g.torsion),
            "divisible": list(g.divisible), "generators": list(g.generators)}


def _roundtrip_exit(status: str) -> int:
    """A family outside the round trip's hypotheses (it has jumps) is an
    unsupported request, not a failed check."""
    return {"pass": 0, "fail": 1, "hypothesis_violated": 64}[status]


def _envelope(command: str, scn: Scenario) -> dict:
    return {"command": command, "scenario_hash": scn.hash(),
            "tolerance": scn.tol, "samples": scn.samples, "seed": scn.seed}


# ============================================================
# Subcommand handlers (report dict, exit code)
# ============================================================

def _cmd_cover(scn: Scenario, args: argparse.Namespace) -> tuple[dict, int]:
    cover, frame = _cover_and_frame(scn)
    if scn.cover is not None:
        # odd samples raise, so declared sample points hit punctures first
        for i in np.flatnonzero(frame.values(cover.bisection)[2]).tolist():
            cover.values_at(frame.pts[i])
    report = _envelope("cover", scn)
    report["cover"] = _encode_cover(cover)
    delta = _invariance_delta(scn)
    if delta is None:
        report["invariance"] = {"checked": False}
        return report, 0
    residual = invariance_residual(cover, delta, frame)
    passed = residual <= scn.tol
    report["invariance"] = {"checked": True, "max_residual": residual, "passed": passed}
    return report, 0 if passed else 1


def _cmd_fm(scn: Scenario, args: argparse.Namespace) -> tuple[dict, int]:
    fam = _require_family(scn)
    frame = _frame(scn)
    sheaf = fm_transform(fam, frame)
    residual = invariance_residual(sheaf.support, fam.involution_bundle(), frame)
    rt = _roundtrip_report(fam, frame, sheaf)
    report = _envelope("fm", scn)
    report["phi0_vanishes"] = sheaf.phi0_vanishes
    report["support"] = _encode_cover(sheaf.support)
    report["residual"] = residual
    report["roundtrip_status"] = rt.status
    report["rank_profile"] = "1"
    report["chern"] = {"c1_fibre_multiple": sheaf.chern.c1_fibre_multiple,
                       "c2": sheaf.chern.c2}
    return report, _roundtrip_exit(rt.status)


def _cmd_roundtrip(scn: Scenario, args: argparse.Namespace) -> tuple[dict, int]:
    fam = _require_family(scn)
    rt = roundtrip_check(fam, _frame(scn))
    report = _envelope("roundtrip", scn)
    report["status"] = rt.status
    report["phi0_vanishes"] = rt.phi0_vanishes
    report["checks"] = [{"name": n, "passed": ok, "detail": d}
                        for n, ok, d in rt.checks]
    return report, _roundtrip_exit(rt.status)


def _cmd_classify(scn: Scenario, args: argparse.Namespace) -> tuple[dict, int]:
    cover = _hyper_cover(scn)
    groups = fibre_component_groups(scn.surface, cover)
    pic = pic_relative(scn.surface)
    report = _envelope("classify", scn)
    report["prym_rank"] = groups.prym_genus
    report["jacobian_copies"] = groups.jacobian_copies
    report["kernel_components"] = groups.kernel_components
    report["component_count"] = groups.components
    report["collapsed_multiplicities"] = list(groups.collapsed_multiplicities)
    report["ambient"] = _encode_group(groups.ambient)
    report["identity_quotient"] = _encode_group(groups.identity_quotient)
    report["twist_group"] = _encode_group(groups.twist_group)
    report["relative_picard"] = _encode_group(pic)
    report["invariant_factors"] = list(groups.twist_group.invariant_factors())
    return report, 0


def _cmd_modify(scn: Scenario, args: argparse.Namespace) -> tuple[dict, int]:
    fam = _require_family(scn)
    report = _envelope("modify", scn)
    report["jumps"] = [
        {"at": encode_base_point(rec.at), "h": rec.height,
         "mu": rec.multiplicity, "l": rec.length,
         "sequence": list(rec.sequence)}
        for rec in jump_report(fam)
    ]
    det = fam.determinant
    report["determinant"] = {
        "base_class": det.base_class,
        "factor": encode_complex(det.constant_factor),
        "fibre_parts": list(det.fibre_parts),
    }
    report["chern"] = {"c1_fibre_multiple": fam.chern.c1_fibre_multiple,
                       "c2": fam.chern.c2}
    report["steps"] = len(fam.steps)
    return report, 0


def _cmd_props(scn: Scenario, args: argparse.Namespace) -> tuple[dict, int]:
    fam = _require_family(scn)
    frame = _frame(scn)
    checks: list[dict] = []

    def add(name: str, passed: bool, detail: str = "") -> None:
        checks.append({"name": name, "passed": bool(passed), "detail": detail})

    try:
        cover = cover_from_family(fam, frame)
    except VerificationError as exc:
        add("cover_consistency", False, str(exc))
    else:
        add("cover_consistency", True)
        residual = invariance_residual(cover, fam.involution_bundle(), frame)
        add("cover_invariance", residual <= scn.tol, f"max residual {residual:.3e}")

    for rec in jump_report(fam):
        ok = (rec.height == rec.sequence[0]
              and rec.multiplicity == sum(rec.sequence)
              and rec.length == len(rec.sequence))
        add("jump_shape", ok, f"at {encode_base_point(rec.at)}")

    stacked = sum(s.degree for p in fam.jump_points()
                  for s in fam.jump_stack(p))
    add("chern_stack", fam.chern.c2 == fam.base_c2 + stacked,
        f"c2 {fam.chern.c2} vs base {fam.base_c2} + stacked {stacked}")

    worst = _max_product_defect(fam, frame)
    add("fibre_product_involution", worst <= scn.tol, f"max defect {worst:.3e}")

    if scn.descent_point is not None:
        twist = descent_divisor(fam, scn.descent_point)
        # the residual samples its own circle around b0 so the disabled
        # check never degenerates near |x - b0| = 1
        r_on = z_action_residual(fam, twist, scn.samples)
        r_off = z_action_residual(fam, twist.disabled(), scn.samples)
        add("descent_twist_enabled", r_on <= scn.tol, f"residual {r_on:.3e}")
        add("descent_twist_disabled_detects", r_off >= 0.1,
            f"residual {r_off:.3e}")

    report = _envelope("props", scn)
    report["checks"] = checks
    ok = all(c["passed"] for c in checks)
    report["status"] = "pass" if ok else "fail"
    return report, 0 if ok else 1


def _cmd_sample(scn: Scenario, args: argparse.Namespace) -> tuple[dict, int]:
    cover, frame = _cover_and_frame(scn)
    curve = cover.curve
    a0, a1, odd = frame.reps(cover.bisection, curve)
    alphas = _carray.fill_odd(
        np.stack([a0, a1], axis=1), odd,
        lambda i: [curve.canonical_rep(v).value for v in cover.values_at(frame.pts[i])])
    lines = ["b_re,b_im,sheet,alpha_re,alpha_im"]
    for b, (re0, re1), (im0, im1) in zip(frame.pts, alphas.real.tolist(),
                                         alphas.imag.tolist()):
        at = f"{b.real!r},{b.imag!r}"
        lines += (f"{at},0,{re0!r},{im0!r}", f"{at},1,{re1!r},{im1!r}")
    csv_text = "\n".join(lines) + "\n"
    if args.csv:
        _write(args.csv, csv_text)
    else:
        sys.stdout.write(csv_text)
    report = _envelope("sample", scn)
    report["rows"] = 2 * len(frame.pts)
    report["csv"] = args.csv or "-"
    return report, 0


def _write(path: str, text: str) -> None:
    """Write an output file; a path that cannot be written exits 2, like a
    scenario that cannot be read."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise SchemaError(f"cannot write {path}: {exc.strerror or exc}") from exc


_HANDLERS: dict[str, Callable] = {
    "cover": _cmd_cover,
    "fm": _cmd_fm,
    "roundtrip": _cmd_roundtrip,
    "classify": _cmd_classify,
    "modify": _cmd_modify,
    "props": _cmd_props,
    "sample": _cmd_sample,
}


# ============================================================
# Entry point
# ============================================================

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: ``parse_args`` keeps no
    state between calls (each call fills a fresh namespace, and a usage
    error formats its message at the time it is raised)."""
    parser = argparse.ArgumentParser(
        prog="spectral-forge",
        description="Rank-2 bundles on elliptic surfaces over a Tate curve: "
                    "spectral covers, transforms, modifications.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("cover", "compute and verify the spectral cover"),
        ("fm", "forward transform report"),
        ("roundtrip", "transform-then-invert comparison"),
        ("classify", "component groups for fixed determinant and cover"),
        ("modify", "jump report after journal modifications"),
        ("props", "full invariant suite"),
        ("sample", "dump sampled cover points as CSV"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--scenario", required=True, help="scenario JSON path")
        p.add_argument("--samples", type=int, default=None,
                       help=f"sample count, from 1 to {MAX_SAMPLES} "
                            "(default 32 or scenario run.samples)")
        p.add_argument("--tol", type=float, default=None,
                       help="the one tolerance, in (0, 1), for every gate "
                            "(default 1e-9 or scenario run.tol)")
        p.add_argument("--seed", type=int, default=None,
                       help=f"sampling seed, of magnitude at most {MAX_SEED} "
                            "(default 0 or scenario value)")
        p.add_argument("--json", default=None, help="JSON report path")
        if name == "sample":
            p.add_argument("--csv", default=None, help="CSV output path")
    return parser


def run_command(argv: "Sequence[str] | None" = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        scn = load_scenario(args.scenario, args.tol, args.samples, args.seed)
        if (scn.family is not None and scn.determinant is not None
                and not scn.family.determinant.isomorphic(scn.determinant)):
            raise VerificationError(
                "declared determinant disagrees with the family presentation")
        report, code = _HANDLERS[args.command](scn, args)
        text = canonical_json(report) + "\n"
        if args.json:
            _write(args.json, text)
        elif args.command != "sample":
            sys.stdout.write(text)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UnsupportedError as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return 64
    except SpectralForgeError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    return code


def main(argv: "Sequence[str] | None" = None) -> int:
    return run_command(argv)


if __name__ == "__main__":
    sys.exit(main())
