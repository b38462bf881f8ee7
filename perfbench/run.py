"""Benchmark driver for spectral-forge.

    python3 perfbench/run.py --workload sample-sweep --seed 0 --seconds 20 --trace 0

Runs from the repository root with the package taken from ``src/`` (it is
not installed).  One process, no threads: CLI reports go through
``spectral_forge.cli.run_command`` in-process and library jobs call the
public API.  Every task is checked against ``references/<workload>.json``.

``--trace 0`` runs whole rounds for about ``--seconds`` and prints the
end-to-end metrics.  ``--trace 1`` runs round 0 once untraced and twice
traced, and prints the per-layer metrics.  The last line of standard output
is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import NoReturn

import gate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120
# Best-state time of ``_probe_loop`` on the 2-vCPU machine the benchmark was
# written on (Python 3.11.7); reported times are rescaled to this speed.
SPEED_PROBE_NOMINAL_S = 1.05e-3
# Period of the speed probe inside a running task (``InTaskProbe``).
IN_TASK_PROBE_S = 0.05


def die(message: str) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def bench_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("SPECTRAL_FORGE_THREADS", None)
    env["PYTHONPATH"] = "src"
    return env


def import_program() -> None:
    """Import spectral_forge from this checkout's src/, never from elsewhere."""
    if not (SRC / "spectral_forge" / "__init__.py").is_file():
        die(f"no package source at {SRC / 'spectral_forge'}")
    sys.path.insert(0, str(SRC))
    import spectral_forge
    if Path(spectral_forge.__file__).resolve().parent != SRC / "spectral_forge":
        die(f"spectral_forge imported from {spectral_forge.__file__}, not src/")


def _probe_loop() -> float:
    acc, seen = 0.0, {}
    for i in range(3000):
        z = complex(i % 7, i % 5) * 1.0001
        acc += abs(z * z - 1)
        seen[i & 63] = acc
    return acc


def speed_probe() -> float:
    """Speed of the machine right now, as a factor that turns measured wall
    seconds into seconds at the nominal speed.  The machine is shared and
    its speed moves by tens of percent within seconds; a fixed pure-Python
    loop timed next to each task moves with it (best of two)."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        _probe_loop()
        best = min(best, time.perf_counter() - t0)
    return SPEED_PROBE_NOMINAL_S / best


class InTaskProbe:
    """Times ``_probe_loop`` every IN_TASK_PROBE_S while a task runs, from a
    SIGALRM handler in the benchmark's one thread, so a long task is
    rescaled by the machine's speed during it and not only at its ends
    (this halved the spread of repeated 0.3-1 s journal reports).  Each
    loop stands for the stretch of the task around it, so ``timed_execute``
    averages the loops' factors."""

    def __init__(self) -> None:
        self.loops: list[tuple[float, float]] = []   # (start, seconds)

    def _handler(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _probe_loop()
        self.loops.append((t0, time.perf_counter() - t0))

    def __enter__(self) -> "InTaskProbe":
        self.loops = []
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, IN_TASK_PROBE_S, IN_TASK_PROBE_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def between(self, t0: float, t1: float) -> list[float]:
        return [dt for start, dt in self.loops if t0 <= start < t1]


def timed_execute(wl, task, probe: bool):
    """(raw outcome, task seconds, speed factor).  With ``probe``, the
    seconds leave out the in-task probe loops, and the factor is the mean of
    ``speed_probe`` just before the task, the in-task loops' factors and
    ``speed_probe`` just after it."""
    if not probe:
        t0 = time.perf_counter()
        raw = wl.execute(task)
        return raw, time.perf_counter() - t0, 1.0
    before = speed_probe()
    with InTaskProbe() as sampler:
        t0 = time.perf_counter()
        raw = wl.execute(task)
        t1 = time.perf_counter()
    loops = sampler.between(t0, t1)
    factors = [before, *(SPEED_PROBE_NOMINAL_S / dt for dt in loops), speed_probe()]
    return raw, t1 - t0 - sum(loops), statistics.mean(factors)


@dataclass
class TaskRecord:
    key: str
    cls: str
    seconds: float
    scale: float        # speed factor during the task (timed_execute)
    units: int
    passed: bool
    reason: str


def run_tasks(wl, tasks, refs, tracer=None, probe: bool = True) -> list[TaskRecord]:
    """Run and check tasks; with ``probe``, each gets a speed factor."""
    from workloads import task_lattice
    records = []
    for i, task in enumerate(tasks):
        if tracer is not None:
            tracer.task_id = i
        raw, dt, scale = timed_execute(wl, task, probe)
        out = wl.digest(task, raw)
        ref = refs.get(task.key)
        passed, reason = gate.check(task.kind, out.exit, out.data, ref,
                                    task_lattice(task))
        records.append(TaskRecord(task.key, task.cls, dt, scale, task.units,
                                  passed, reason or out.error))
    return records


def setup_probes(workload: str, seed: int) -> dict[str, float]:
    """Median set-up split over several fresh interpreters, each rescaled by
    the mean of ``speed_probe`` just before and just after it."""
    walls, imports, inputs, raw = [], [], [], []
    cmd = [sys.executable, "perfbench/setup_probe.py", "--workload", workload,
           "--seed", str(seed)]
    before = speed_probe()
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=bench_env(), capture_output=True,
                              text=True, timeout=PROBE_TIMEOUT_S)
        wall = time.perf_counter() - t0
        after = speed_probe()
        if proc.returncode != 0:
            die(f"setup probe failed:\n{proc.stderr}")
        parts = json.loads(proc.stdout.strip().splitlines()[-1])
        scale = (before + after) / 2
        raw.append(wall)
        walls.append(wall * scale)
        imports.append(parts["import_s"] * scale)
        inputs.append(parts["inputs_s"] * scale)
        before = after
    wall, imp, inp = (statistics.median(v) for v in (walls, imports, inputs))
    return {"setup_s": wall, "import_s": imp, "inputs_s": inp,
            "interpreter_s": wall - imp - inp, "raw_setup_s": statistics.median(raw)}


def provenance(workload: str, seed: int, trace: int) -> dict:
    import numpy
    commit = None
    if (ROOT / ".git").exists():    # a benchmark checkout is no repository
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"workload": workload, "seed": seed, "trace": trace,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "git_commit": commit,
            "threads_at_end": threading.active_count()}


def measure(wl, refs, seconds: float) -> tuple[list[TaskRecord], int]:
    """Whole rounds until the next one would end more than half a round past
    the deadline, and never fewer than the workload's minimum."""
    records: list[TaskRecord] = []
    t_start = time.perf_counter()
    rounds = 0
    while True:
        records += run_tasks(wl, wl.round_tasks(rounds), refs)
        rounds += 1
        elapsed = time.perf_counter() - t_start
        if rounds >= wl.min_rounds and elapsed + 0.5 * elapsed / rounds >= seconds:
            return records, rounds


def end_to_end(wl, records, rounds, setup) -> tuple[dict, dict]:
    """Statistics of one canonical round, in seconds at the nominal speed.

    Every round has the same task classes; each class enters the percentiles
    with the median rescaled time of its passed tasks, once per task it has
    in a round, so a seed-drawn input that fails fast, or one more round
    fitting in the time, does not shift them.  ``work_per_s`` is the
    completed units of that round over its time; a class with no passed task
    adds its time and no units.  The same numbers from raw wall time go to
    the notes."""
    from metrics import percentile, tail_quantile
    by_cls: dict[str, list[TaskRecord]] = defaultdict(list)
    for r in records:
        by_cls[r.cls].append(r)
    q = tail_quantile(wl.min_rounds * len(records) // rounds)

    def canonical(seconds_of) -> dict:
        class_times: list[float] = []
        seconds = units = 0.0
        for recs in by_cls.values():
            weight = len(recs) // rounds
            passed = [r for r in recs if r.passed]
            t = statistics.median(seconds_of(r) for r in (passed or recs))
            if passed:
                class_times += [t] * weight
                units += weight * passed[0].units
            seconds += weight * t
        return {"task_p50_s": percentile(class_times, 0.5),
                "task_p90_s": percentile(class_times, q),
                "work_per_s": units / seconds}

    values = {"setup_s": setup["setup_s"],
              **canonical(lambda r: r.seconds * r.scale),
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    raw = {"setup_s": setup["raw_setup_s"], **canonical(lambda r: r.seconds)}
    notes = {"tail_quantile": q, "tasks": len(records), "rounds": rounds,
             "work_unit": wl.unit, "fail_ratio": _fail_ratio(records),
             "median_speed_scale": statistics.median(r.scale for r in records),
             "raw_wall": raw}
    return values, notes


def _fail_ratio(records) -> float:
    return sum(not r.passed for r in records) / len(records)


def traced(wl, refs, setup) -> tuple[list[TaskRecord], dict, dict]:
    from metrics import TraceContext
    from tracer import Tracer
    from workloads import coeff_bits

    tasks = wl.round_tasks(0)
    t0 = time.perf_counter()
    records = run_tasks(wl, tasks, refs, probe=False)
    untraced_s = time.perf_counter() - t0

    max_bits = [0]

    def note_bits(d) -> None:
        max_bits[0] = max(max_bits[0], coeff_bits(d))

    tracer = Tracer(hooks={"covers.class_add": note_bits})
    tracer.install()
    try:
        t0 = time.perf_counter()
        records += run_tasks(wl, tasks, refs, tracer, probe=False)
        traced_s = time.perf_counter() - t0
        tracer.write(ROOT / "perfbench" / "_work" / "trace"
                     / f"{wl.name}-seed{wl.seed}.npz")
        summary = tracer.summary()
        first_counts, spans = summary.call_counts(), len(tracer.end)
        tracer.reset()
        records += run_tasks(wl, tasks, refs, tracer, probe=False)
        repeat = tracer.summary().call_counts() == first_counts
        tracer.reset()
    finally:
        tracer.uninstall()
    ctx = TraceContext(summary, sum(t.journal_steps for t in tasks), max_bits[0],
                       setup, traced_s / untraced_s, repeat, _fail_ratio(records))
    notes = {"untraced_round_s": untraced_s, "traced_round_s": traced_s,
             "spans": spans, "calls_repeat": repeat}
    return records, ctx, notes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    os.environ.pop("SPECTRAL_FORGE_THREADS", None)
    os.chdir(ROOT)
    import_program()
    from metrics import END_TO_END_UNITS, PER_LAYER
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        die(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    try:
        refs = gate.load_references(args.workload)
    except FileNotFoundError:
        die(f"no references for {args.workload}; run perfbench/record.py")

    setup = setup_probes(args.workload, args.seed)
    wl = WORKLOADS[args.workload](args.seed)
    if args.trace:
        records, ctx, notes = traced(wl, refs, setup)
        metrics = {name: {"value": float(fn(ctx)), "unit": unit}
                   for name, unit, fn in PER_LAYER}
    else:
        records, rounds = measure(wl, refs, args.seconds)
        values, notes = end_to_end(wl, records, rounds, setup)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}

    failed = [r for r in records if not r.passed]
    info = provenance(args.workload, args.seed, args.trace)
    info.update(notes)
    if threading.active_count() != 1:
        die("the benchmark process started a thread")

    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:>16.6g} {m['unit']}")
    if not args.trace:
        print(f"{'fail_ratio':40s} {_fail_ratio(records):>16.6g} ratio")
    for key in sorted({r.key for r in failed}):
        reason = next(r.reason for r in failed if r.key == key)
        print(f"FAILED {key}: {reason}")
    print("provenance " + json.dumps(info, sort_keys=True))
    result = {"correct": not failed, "attempted": len(records), "failed": len(failed),
              "metrics": metrics}
    out = ROOT / "perfbench" / "_work" / "results"
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"result": result, "provenance": info,
                    "tasks": [[r.key, r.seconds, r.passed] for r in records]},
                   indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
