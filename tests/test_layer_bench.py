# tests/test_layer_bench.py
"""
The shared driver of the per-layer bench scripts: which median ratios it
prints as unresolved.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

from _layer_bench import print_ratios  # noqa: E402


def test_a_ratio_inside_either_spread_is_unresolved(capsys):
    """1.10 lies outside the parent's spread (0.05) at both lengths but
    inside the change's (0.2) at 800 steps only; a timing not merged from
    rounds (spread None) is judged by the other tree's spread."""
    ratio = {"parse": {"800": 1.1, "1600": 1.1, "3200": 1.1}}
    spread = {"parent": {"parse": {"800": 0.05, "1600": 0.05, "3200": None}},
              "change": {"parse": {"800": 0.2, "1600": 0.05, "3200": 0.15}}}
    print_ratios(ratio, spread)
    assert capsys.readouterr().out.splitlines() == [
        "median ratio parse 800 1.10 unresolved",
        "median ratio parse 1600 1.10",
        "median ratio parse 3200 1.10 unresolved"]
