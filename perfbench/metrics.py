"""End-to-end and per-layer metric definitions.

``PER_LAYER`` maps each per-layer metric name to its unit and to the span
name (or derivation) it reads.  The span names follow ``tracer``:
``<module>.<function>`` or ``<module>.<Class>.<method>``; where the metric
name is shorter, the table says which span it reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from tracer import LAYERS, SpanSummary


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (inclusive method)."""
    data = sorted(values)
    if not data:
        raise ValueError("no values")
    pos = q * (len(data) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def tail_quantile(tasks_at_min_rounds: int) -> float:
    """p90 when a run of the fewest rounds has ten tasks beyond it, else the
    highest quantile that has: the same for every run of a workload."""
    return min(0.9, 1.0 - 10.0 / tasks_at_min_rounds)


@dataclass
class TraceContext:
    summary: SpanSummary
    journal_steps: int
    max_coeff_bits: int
    setup: dict[str, float]
    overhead_ratio: float
    calls_repeat: bool
    fail_ratio: float


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _calls(label: str) -> Callable[[TraceContext], float]:
    return lambda c: c.summary.count(label)


def _secs(label: str) -> Callable[[TraceContext], float]:
    return lambda c: c.summary.seconds(label)


def _self(module: str) -> Callable[[TraceContext], float]:
    return lambda c: c.summary.module_self(module)


def _ladder_rungs(c: TraceContext) -> int:
    return c.summary.count_under("spectral.sample_circle",
                                 "families.default_sample_points")


def _ladder_accept(c: TraceContext) -> float:
    label = "families.default_sample_points"
    accepted = c.summary.count(label) - c.summary.failures(label)
    return _ratio(accepted, _ladder_rungs(c))


def _theta_evals(c: TraceContext) -> int:
    return c.summary.count("fiber.theta_even") + c.summary.count("fiber.theta_odd")


PER_LAYER: list[tuple[str, str, Callable[[TraceContext], float]]] = [
    # per-sample fibre evaluation (sample-sweep)
    ("spectral.PellMap.sheet_values.calls", "count", _calls("spectral.PellMap.sheet_values")),
    ("spectral.invariance_residual.s", "s", _secs("spectral.invariance_residual")),
    ("covers.Poly.eval_complex.calls", "count", _calls("covers.Poly.eval_complex")),
    ("tate.lattice_log.calls", "count", _calls("tate.TateCurve.lattice_log")),
    ("tate.canonical_rep.calls", "count", _calls("tate.TateCurve.canonical_rep")),
    ("surface.restrict_to_fiber.calls", "count",
     _calls("surface.LineBundleOnX.restrict_to_fiber")),
    ("families.fiber_class_at.calls", "count", _calls("families.FamilySpec.fiber_class_at")),
    ("fourier.z_action_residual.s", "s", _secs("fourier.z_action_residual")),
    ("fourier.roundtrip_check.s", "s", _secs("fourier.roundtrip_check")),
    ("fourier.fm_transform.s", "s", _secs("fourier.fm_transform")),
    # sample ladder
    ("families.ladder_rungs", "count", _ladder_rungs),
    ("families.ladder_accept_ratio", "ratio", _ladder_accept),
    ("spectral.PellMap.punctures_near.calls", "count", _calls("spectral.PellMap.punctures_near")),
    ("families.default_sample_points.calls", "count", _calls("families.default_sample_points")),
    ("families.cover_from_family.s", "s", _secs("families.cover_from_family")),
    # journal bookkeeping (journal-replay)
    ("families.jump_stack.calls", "count", _calls("families.FamilySpec.jump_stack")),
    ("families.jump_stack_calls_per_step", "1/step",
     lambda c: _ratio(c.summary.count("families.FamilySpec.jump_stack"), c.journal_steps)),
    ("families.chern.s", "s", _secs("families.FamilySpec.chern")),
    ("families.jump_report.s", "s", _secs("families.jump_report")),
    ("families.elem_mod.calls", "count", _calls("families.elem_mod")),
    ("scenario.load_scenario.s", "s", _secs("scenario.load_scenario")),
    # exact Cantor arithmetic (cantor-chain)
    ("covers.class_add.calls", "count", _calls("covers.class_add")),
    ("covers.mumford_compose.s", "s", _secs("covers.mumford_compose")),
    ("covers.cantor_reduce.s", "s", _secs("covers.cantor_reduce")),
    ("covers.validate.s", "s", _secs("covers.DivisorClass.__post_init__")),
    ("covers.validate_share", "ratio",
     lambda c: _ratio(c.summary.seconds("covers.DivisorClass.__post_init__"),
                      c.summary.seconds("covers.class_add"))),
    ("covers.max_coeff_bits", "bits", lambda c: c.max_coeff_bits),
    ("covers.classes_equal_by_search.s", "s", _secs("covers.classes_equal_by_search")),
    # theta obstruction solves (fibre-solve)
    ("fiber.obstruction_zeros.calls", "count", _calls("fiber.obstruction_zeros")),
    ("fiber.obstruction_zeros.s", "s", _secs("fiber.obstruction_zeros")),
    ("fiber.theta_evals", "count", _theta_evals),
    ("fiber.theta_evals_per_solve", "1/solve",
     lambda c: _ratio(_theta_evals(c), c.summary.count("fiber.obstruction_zeros"))),
    ("fiber.extension_from_pair.s", "s", _secs("fiber.extension_from_pair")),
    ("tate.theta_sections.s", "s", _secs("tate.theta_sections")),
    # reports and scenarios
    ("scenario.canonical_json.s", "s", _secs("scenario.canonical_json")),
    ("cli.run_command.calls", "count", _calls("cli.run_command")),
    ("surface.fibre_component_groups.s", "s", _secs("surface.fibre_component_groups")),
    # set-up split, measured in fresh interpreters
    ("setup.interpreter_s", "s", lambda c: c.setup["interpreter_s"]),
    ("setup.import_s", "s", lambda c: c.setup["import_s"]),
    ("setup.inputs_s", "s", lambda c: c.setup["inputs_s"]),
    # harness health and failures
    ("trace_overhead_ratio", "ratio", lambda c: c.overhead_ratio),
    ("trace_calls_repeat", "flag", lambda c: 1 if c.calls_repeat else 0),
    ("fail_ratio", "ratio", lambda c: c.fail_ratio),
]
# self time of every layer module: its spans minus their child spans
PER_LAYER += [(f"{m}.self_s", "s", _self(m)) for m in LAYERS]

# per-layer metrics where a larger value is the better one
HIGHER_IS_BETTER = {"families.ladder_accept_ratio", "trace_calls_repeat"}

END_TO_END_UNITS = {"setup_s": "s", "task_p50_s": "s", "task_p90_s": "s",
                    "work_per_s": "units/s", "peak_rss_mb": "MB"}
