"""Negative controls for the benchmark's correctness gate, and checks that
tracing from outside the program counts repeatably and leaves no trace.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import copy
import hashlib
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import gate  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.fixture(autouse=True)
def _at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def _outcome(wl, task):
    return wl.digest(task, wl.execute(task))


def _task(wl, key):
    return next(t for t in wl.pool() if t.key == key)


# ============================================================
# CLI reports
# ============================================================

@pytest.fixture(scope="module")
def cli_case():
    wl = workloads.SampleSweep(0)
    task = _task(wl, "split-t2/cover/n256/s1")
    refs = gate.load_references(wl.name)
    return wl, task, refs[task.key]


def test_cli_report_matches_reference(cli_case):
    wl, task, ref = cli_case
    out = _outcome(wl, task)
    assert gate.check("cli", out.exit, out.data, ref) == (True, "")


def test_flipped_report_byte_fails(cli_case):
    wl, task, ref = cli_case
    wl.execute(task)
    raw = bytearray(Path(workloads.OUT_JSON).read_bytes())
    raw[len(raw) // 2] ^= 0x01
    data = {"report_sha256": hashlib.sha256(bytes(raw)).hexdigest()}
    passed, reason = gate.check("cli", 0, data, ref)
    assert not passed and "report_sha256" in reason


def test_exit_code_changed_to_one_fails(cli_case):
    wl, task, ref = cli_case
    out = _outcome(wl, task)
    assert out.exit == 0
    passed, reason = gate.check("cli", 1, out.data, ref)
    assert not passed and "exit 1" in reason


def test_recorder_refuses_a_failed_report(cli_case):
    import record
    wl, task, _ = cli_case
    failed = workloads.Outcome(1, {"report_sha256": None}, "boom")
    assert record.reference_for(wl, task, failed, workloads, gate) == (
        None, "exit 1: boom")


# ============================================================
# Cantor classes
# ============================================================

def test_wrong_mumford_v_fails():
    wl = workloads.CantorChain(0)
    task = _task(wl, "chain/g1/p0/+")
    ref = gate.load_references(wl.name)[task.key]
    out = _outcome(wl, task)
    assert gate.check("chain", out.exit, out.data, ref) == (True, "")
    bad = copy.deepcopy(out.data)
    bad["NP"]["v"] = bad["NP"]["v"] or [[0, 1, 0, 1]]
    bad["NP"]["v"][0][0] += 1
    passed, reason = gate.check("chain", out.exit, bad, ref)
    assert not passed and "NP" in reason


def test_wrong_equality_verdict_fails():
    wl = workloads.CantorChain(0)
    task = _task(wl, "equal/g2/p0/+/k3/q1")
    ref = gate.load_references(wl.name)[task.key]
    out = _outcome(wl, task)
    assert gate.check("equal", out.exit, out.data, ref) == (True, "")
    bad = copy.deepcopy(out.data)
    bad["checks"][0] = not bad["checks"][0]
    assert not gate.check("equal", out.exit, bad, ref)[0]


# ============================================================
# Obstruction solves
# ============================================================

def test_perturbed_obstruction_zero_fails():
    wl = workloads.FibreSolve(0)
    task = _task(wl, "solve/t0/r0/a3")
    ref = gate.load_references(wl.name)[task.key]
    tau = workloads.FIBRE_TAUS[0]
    out = _outcome(wl, task)
    assert gate.check("solve", out.exit, out.data, ref, tau) == (True, "")
    bad = copy.deepcopy(out.data)
    bad["pair"][0][0] *= 1.0 + 1e-6
    passed, reason = gate.check("solve", out.exit, bad, ref, tau)
    assert not passed and "pair" in reason


def test_recorder_refuses_a_wrong_obstruction_pair():
    import record
    wl = workloads.FibreSolve(0)
    task = _task(wl, "solve/t0/r0/a3")
    out = _outcome(wl, task)
    assert record.reference_for(wl, task, out, workloads, gate)[0] is not None
    out.data["pair"][0][0] *= 1.0 + 1e-6
    ref, why = record.reference_for(wl, task, out, workloads, gate)
    assert ref is None and "g0" in why


def test_swapped_obstruction_pair_still_passes():
    wl = workloads.FibreSolve(0)
    task = _task(wl, "solve/t1/r1/a7")
    ref = gate.load_references(wl.name)[task.key]
    out = _outcome(wl, task)
    out.data["pair"].reverse()
    assert gate.check("solve", out.exit, out.data, ref, workloads.FIBRE_TAUS[1])[0]


# ============================================================
# Tracing
# ============================================================

def test_trace_counts_repeat_and_uninstall_restores():
    import spectral_forge
    from spectral_forge import cli, covers, families

    originals = (families.default_sample_points, cli.default_sample_points,
                 covers.Poly.__dict__["eval_complex"], spectral_forge.class_add)
    wl = workloads.SampleSweep(0)
    task = _task(wl, "push-g2-t1.5+0.5i/props/n256/s5")
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.default_sample_points is not originals[1]
        assert cli.default_sample_points is families.default_sample_points
        wl.execute(task)
        first = tracer.summary()
        tracer.reset()
        wl.execute(task)
        second = tracer.summary()
    finally:
        tracer.uninstall()
    assert first.call_counts() == second.call_counts()
    assert first.count("cli.run_command") == 1
    assert first.count("families.default_sample_points") >= 1
    assert first.count("covers.Poly.eval_complex") > 256
    assert first.count_under("spectral.sample_circle",
                             "families.default_sample_points") >= 1
    assert (families.default_sample_points, cli.default_sample_points,
            covers.Poly.__dict__["eval_complex"], spectral_forge.class_add) == originals


def test_self_time_excludes_child_spans():
    from tracer import SpanSummary
    import numpy as np
    # outer [0, 10] in module a, child [2, 5] in module b, grandchild [3, 4] in a
    spans = {"name": np.array([0, 1, 0]), "parent": np.array([-1, 0, 1]),
             "task": np.zeros(3, dtype=int), "start": np.array([0.0, 2.0, 3.0]),
             "end": np.array([10.0, 5.0, 4.0]), "flags": np.array([1, 1, 0])}
    s = SpanSummary(["a.f", "b.g"], spans)
    assert s.module_self("a") == pytest.approx(7.0 + 1.0)
    assert s.module_self("b") == pytest.approx(2.0)
    assert s.seconds("a.f") == pytest.approx(10.0)     # nested call not added twice
    assert s.count("a.f") == 2


def test_benchmark_json_lists_the_reported_metrics():
    import json
    from metrics import END_TO_END_UNITS, HIGHER_IS_BETTER, PER_LAYER
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, "higher" if name in HIGHER_IS_BETTER else "lower")
        for name, unit, _ in PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_drawn_task_has_a_reference(name):
    refs = gate.load_references(name)
    wl_cls = workloads.WORKLOADS[name]
    for seed in range(4):
        wl = wl_cls(seed)
        for rnd in range(4):
            tasks = wl.round_tasks(rnd)
            assert {t.key for t in tasks} <= refs.keys()
            assert len({t.cls for t in tasks}) == len(
                {t.cls for t in wl.round_tasks(0)})
