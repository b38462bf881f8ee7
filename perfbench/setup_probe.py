"""Set-up cost in a fresh interpreter: import spectral_forge and its CLI
module, then build the inputs of one workload's first round.  Prints one
JSON line with the two parts; the caller times the whole process, so the
rest is interpreter start, this script and process exit.

    PYTHONPATH=src python3 perfbench/setup_probe.py --workload NAME --seed N
"""

from __future__ import annotations

import argparse
import json
import time

t0 = time.perf_counter()
import spectral_forge.cli  # noqa: E402,F401  (timed: package and CLI)
t1 = time.perf_counter()

from workloads import WORKLOADS  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    t2 = time.perf_counter()
    WORKLOADS[args.workload](args.seed).round_tasks(0)
    t3 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "inputs_s": t3 - t2}))


if __name__ == "__main__":
    main()
