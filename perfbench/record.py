"""Record the reference outputs of every task any seed can draw.

    python3 perfbench/record.py [--workload NAME ...]

Run from the repository root.  An output is recorded only when an oracle
independent of the stored value accepts it: CLI exit code 0, the defining
identities of each Cantor job, the round-trip pair {g0, 1/g0} of a solve,
the branch value of a regular chart, and the theta residual bound.  If any
task of a workload fails its oracle, nothing is written for that workload:
the failing tasks are listed and the script exits 1, because a workload
must not contain a task the program gets wrong.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import ROOT, import_program  # noqa: E402


def _props_failure(path: str) -> str:
    try:
        report = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        return ""
    bad = [f"{c['name']}: {c['detail']}" for c in report.get("checks", [])
           if not c["passed"]]
    return "; ".join(bad)


def reference_for(wl, task, out, workloads, gate) -> tuple[dict | None, str]:
    """(reference, "") when the oracle accepts the task's first recorded
    outcome, else (None, why it was rejected)."""
    kind, data = task.kind, out.data
    recorded = {"exit": 0, "data": data}
    if out.exit != 0:
        why = out.error or _props_failure(workloads.OUT_JSON)
        return None, f"exit {out.exit}: {why}"
    if kind == "cli":
        return recorded, ""
    if kind == "chain":
        if (data["NP"] == data["aP+bP"] and data["class_equal"] is True
                and data["in_prym"] is True):
            return {"exit": 0, "data": {"NP": data["NP"], "twist": data["twist"]}}, ""
        return None, "chain identities fail"
    if kind == "equal":
        truth = [True, False, False] + ([True] if len(data["checks"]) == 4 else [])
        if data["checks"] == truth:
            return recorded, ""
        return None, f"equality checks {data['checks']}, truth {truth}"
    if kind == "solve":
        g0 = workloads.fibre_g0(*task.spec)
        tau = workloads.FIBRE_TAUS[task.spec[0]]
        truth = [[g0.real, g0.imag], [(1 / g0).real, (1 / g0).imag]]
        if data.get("kind") == "SplitFiber" and gate.same_pair(data["pair"], truth, tau):
            return recorded, ""
        got = data.get("pair", data.get("kind"))
        return None, f"recovered {got}, not {{g0, 1/g0}} = {truth}"
    if kind == "chart":
        tau = workloads.FIBRE_TAUS[task.spec[0]]
        value = wl.branch_values[task.spec[1]]
        if (data.get("kind") == "AtiyahRegular"
                and gate.same_tate_point(complex(*data["line"]), value, tau)):
            return recorded, ""
        return None, f"chart gave {data}, branch value {[value.real, value.imag]}"
    if kind == "theta":
        ok, reason = gate.check("theta", 0, data, {"exit": 0, "data": {}})
        return ({"exit": 0, "data": {}}, "") if ok else (None, reason)
    raise ValueError(f"unknown task kind {kind!r}")


def format_references(name: str, tasks: dict) -> str:
    """JSON with one task per line, so a re-recording diffs task by task."""
    rows = [f"  {json.dumps(k)}: {json.dumps(tasks[k], sort_keys=True)}"
            for k in sorted(tasks)]
    return ("{\"workload\": " + json.dumps(name) + ",\n"
            " \"tasks\": {\n" + ",\n".join(rows) + "\n }}\n")


def record(name: str) -> bool:
    """Write the references of one workload; False if a task failed."""
    import gate
    import workloads
    wl = workloads.WORKLOADS[name](0)
    tasks, failed = {}, {}
    for task in wl.pool():
        out = wl.digest(task, wl.execute(task))
        ref, why = reference_for(wl, task, out, workloads, gate)
        if ref is None:
            failed[task.key] = why
        else:
            tasks[task.key] = ref
    if failed:
        for key, why in sorted(failed.items()):
            print(f"{name}: {key} fails its oracle: {why}", file=sys.stderr)
        print(f"{name}: {len(failed)} failing tasks, nothing written", file=sys.stderr)
        return False
    path = gate.REF_DIR / f"{name}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(format_references(name, tasks), encoding="utf-8")
    print(f"{name}: {len(tasks)} references")
    return True


def main() -> int:
    import os
    os.environ.pop("SPECTRAL_FORGE_THREADS", None)
    os.chdir(ROOT)
    import_program()
    import workloads
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args()
    results = [record(name) for name in args.workload or list(workloads.WORKLOADS)]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
