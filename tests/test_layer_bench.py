# tests/test_layer_bench.py
"""
The shared driver of the per-layer bench scripts: how it merges rounds and
which median ratios it prints as unresolved.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

from _layer_bench import merge_rounds, print_ratios  # noqa: E402


def timing(*medians: float) -> dict:
    """The layers tree of one timing over rounds with these median times."""
    return merge_rounds([{"best_s": m * 0.9, "median_s": m} for m in medians])


def test_rounds_are_kept_with_their_median_and_spread():
    t = timing(1.0, 1.2, 0.8, 1.1)
    assert t == {"best_s": 0.8 * 0.9, "median_s": 1.05, "rounds": [1.0, 1.2, 0.8, 1.1],
                 "spread": round(0.4 / 1.05, 3)}


def test_a_ratio_is_resolved_only_where_one_trees_rounds_all_beat_the_others(capsys):
    """Separated rounds resolve a ratio whichever tree is faster, even a
    ratio of 2.00 inside the parent's spread of 1.0 (one slow parent round).
    Overlapping rounds leave it unresolved, also where the median ratio 1.67
    lies outside both spreads (0.5 and 0): one parent round beats the
    change's rounds while the median of the other three sets the ratio.  A
    timing without rounds (a run not merged from rounds) is unresolved."""
    parent = {"faster": timing(1.0, 1.0, 1.0, 2.0), "slower": timing(1.0, 1.0, 1.1, 1.05),
              "overlap": timing(0.5, 1.0, 1.0, 1.0), "single": {"best_s": 1.0, "median_s": 1.0}}
    change = {"faster": timing(0.5, 0.5, 0.5, 0.5), "slower": timing(1.2, 1.3, 1.25, 1.2),
              "overlap": timing(0.6, 0.6, 0.6, 0.6), "single": timing(0.5, 0.5, 0.5, 0.5)}
    assert parent["overlap"]["spread"] == 0.5 and change["overlap"]["spread"] == 0.0
    ratio = {key: round(parent[key]["median_s"] / change[key]["median_s"], 2)
             for key in parent}
    assert abs(ratio["overlap"] - 1) > 0.5
    print_ratios({"layer": ratio},
                 {label: {"layer": {key: t.get("rounds") for key, t in tree.items()}}
                  for label, tree in (("parent", parent), ("change", change))})
    assert capsys.readouterr().out.splitlines() == [
        "median ratio layer faster 2.00",
        "median ratio layer slower 0.84",
        "median ratio layer overlap 1.67 unresolved",
        "median ratio layer single 2.00 unresolved"]
