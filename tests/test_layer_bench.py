# tests/test_layer_bench.py
"""
The shared driver of the per-layer bench scripts: how it merges rounds,
which median ratios it prints as unresolved, and the calls it counts in a
timed layer.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import _layer_bench  # noqa: E402
import census  # noqa: E402
from _layer_bench import merge_rounds, print_ratios, timed  # noqa: E402
from spectral_forge import Poly, TateCurve, covers  # noqa: E402


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


@pytest.mark.parametrize("k", [0, 1, 5])
def test_a_timed_layer_counts_each_call_of_a_counted_function(monkeypatch, k):
    """k calls of ``TateCurve.canonical_rep`` in a layer record k, in the
    one untimed run under the tracer; a counted function the layer does not
    call records 0."""
    monkeypatch.setattr(_layer_bench, "COUNTED",
                        ("tate.TateCurve.canonical_rep", "tate.TateCurve._canonical_array"))
    curve = TateCurve(2 + 0j)
    t = timed(lambda: [curve.canonical_rep(12.0 + j) for j in range(k)])
    assert t["calls"] == {"tate.TateCurve.canonical_rep": k,
                          "tate.TateCurve._canonical_array": 0}
    assert set(t) == {"best_s", "median_s", "calls"}


def test_no_comprehension_is_counted():
    """``_image_of`` enters its generator expression (and, where Python
    builds them as code objects, its list comprehensions): the tracer
    enters them, and counts the function by ``module.qualname`` but none of
    them."""
    run, _ = census.traced(Poly.of, 1, 2, 3)
    code = covers._image_of.__code__
    inner = [c for c in code.co_consts if hasattr(c, "co_firstlineno")]
    assert inner and all((c.co_filename, c.co_firstlineno) in run["entered"] for c in inner)
    assert run["calls"]["covers._image_of"] == 1
    assert not [key for key in run["calls"] if "<" in key]


def test_rounds_keep_their_counts_and_must_repeat_them():
    """Counts that every round repeats are kept as they are; rounds whose
    counts differ raise, naming the layer."""
    rows = [{"layer": {"best_s": m, "median_s": m, "calls": {"f": 3}}} for m in (1.0, 1.1)]
    assert merge_rounds(rows)["layer"]["calls"] == {"f": 3}
    rows[1]["layer"]["calls"] = {"f": 4}
    with pytest.raises(ValueError, match="layer"):
        merge_rounds(rows)


def test_counting_puts_back_the_tracer_in_place_before(monkeypatch):
    """The tracer in place before a counted layer is in place after it."""
    def outer(frame, event, arg):
        return None

    monkeypatch.setattr(_layer_bench, "COUNTED", ("tate.TateCurve.canonical_rep",))
    curve = TateCurve(2 + 0j)
    before = sys.gettrace()
    sys.settrace(outer)
    try:
        t = timed(lambda: curve.canonical_rep(12.0))
        assert sys.gettrace() is outer
    finally:
        sys.settrace(before)
    assert t["calls"] == {"tate.TateCurve.canonical_rep": 1}
