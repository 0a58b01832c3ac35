"""Re-record the reference outputs and counts at the default seed.

Usage, from the repository root: ``python3 perfbench/record_reference.py
[WORKLOAD ...]``.  Runs one traced pass of each named workload (all four by
default) at seed 0 and replaces ``perfbench/reference/<workload>/`` with its
output files and ``counts.json``, the pass's deterministic counts.  Do this
only at a commit whose outputs are known to be right: the benchmark compares
every later run against these files.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

import run
from workloads import WORKLOADS


def main(names) -> int:
    root = os.getcwd()
    src = os.path.join(root, "src")
    env = dict(os.environ, **run.PINNED_THREADS, PYTHONPATH=src)
    for workload in names or sorted(WORKLOADS):
        out_dir = os.path.join(run.REFERENCE_DIR, workload)
        shutil.rmtree(out_dir, ignore_errors=True)
        result = run.run_pass(root, env, workload, run.DEFAULT_SEED, True, out_dir,
                              time.perf_counter() + 600.0)
        if any(code != 0 for code in result["codes"].values()):
            print(f"{workload}: a job failed: {result['codes']}", file=sys.stderr)
            return 1
        with open(os.path.join(out_dir, "counts.json"), "w") as fh:
            json.dump(run.deterministic_counts(result["layers"]), fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"{workload}: recorded {len(result['codes'])} outputs in {result['wall_s']:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
