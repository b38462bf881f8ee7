"""Correctness gate: compare one task outcome with its recorded reference.

References live in ``references/<workload>.json``, keyed by task key.  Each
holds the output the program gave when the references were recorded, which
``record.py`` accepted with an oracle that does not read it.

This module uses no code from ``spectral_forge``: the comparisons are plain
arithmetic on recorded numbers.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REF_DIR = Path(__file__).resolve().parent / "references"
PAIR_RTOL = 1e-9        # same Tate point: |x / (y tau^k) - 1| <= PAIR_RTOL
THETA_RESIDUAL_MAX = 1e-9


def load_references(workload: str) -> dict:
    with open(REF_DIR / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)["tasks"]


def same_tate_point(x: complex, y: complex, tau: complex) -> bool:
    if x == 0 or y == 0:
        return False
    ratio = x / y
    k = round(math.log(abs(ratio)) / math.log(abs(tau)))
    return any(abs(ratio / tau ** j - 1.0) <= PAIR_RTOL for j in (k - 1, k, k + 1))


def _complex(pair: list[float]) -> complex:
    return complex(pair[0], pair[1])


def same_pair(got: list, want: list, tau: complex) -> bool:
    """Unordered equality of two obstruction-zero pairs as points of C*/tau^Z."""
    a, b = (_complex(z) for z in got)
    c, d = (_complex(z) for z in want)
    return ((same_tate_point(a, c, tau) and same_tate_point(b, d, tau))
            or (same_tate_point(a, d, tau) and same_tate_point(b, c, tau)))


def check(task_kind: str, outcome_exit: int, data: dict, ref: dict | None,
          tau: complex | None = None) -> tuple[bool, str]:
    """(passed, reason).  ``tau`` is the lattice of a fibre task."""
    if ref is None:
        return False, "no reference recorded for this task"
    if outcome_exit != ref["exit"]:
        return False, f"exit {outcome_exit}, reference {ref['exit']}"
    want = ref["data"]
    if task_kind == "cli":
        for name, digest in want.items():
            if digest is not None and data.get(name) != digest:
                return False, f"{name} differs from reference"
            if digest is None and data.get(name) is None:
                return False, f"{name} missing"
        return True, ""
    if task_kind == "chain":
        for name in ("NP", "aP+bP"):
            if data.get(name) != want["NP"]:
                return False, f"{name} differs from the reference class"
        if data.get("twist") != want["twist"]:
            return False, "twisted class differs from reference"
        if data.get("class_equal") is not True or data.get("in_prym") is not True:
            return False, "class_equal or in_prym is not true"
        return True, ""
    if task_kind == "equal":
        if data.get("kP") != want["kP"]:
            return False, "kP differs from the reference class"
        if data.get("checks") != want["checks"]:
            return False, f"equality checks {data.get('checks')} != {want['checks']}"
        return True, ""
    if task_kind == "solve":
        if data.get("kind") != "SplitFiber":
            return False, f"fibre kind {data.get('kind')}"
        if not same_pair(data["pair"], want["pair"], tau):
            return False, "recovered obstruction pair differs from reference"
        return True, ""
    if task_kind == "chart":
        if data.get("kind") != "AtiyahRegular":
            return False, f"fibre kind {data.get('kind')}"
        if not same_tate_point(_complex(data["line"]), _complex(want["line"]), tau):
            return False, "chart line bundle differs from reference"
        return True, ""
    if task_kind == "theta":
        r = data.get("max_residual")
        if r is None or not r <= THETA_RESIDUAL_MAX:
            return False, f"theta residual {r} above {THETA_RESIDUAL_MAX}"
        return True, ""
    raise ValueError(f"unknown task kind {task_kind!r}")
