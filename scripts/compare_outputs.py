#!/usr/bin/env python3
"""Compare the benchmark jobs' output files of this checkout with another one's.

Runs every job of ``perfbench/workloads.py`` (all four workloads, 19 jobs) and
the ``EXTRA_JOBS`` below, which cover routes no benchmark job takes, at seeds
0 and 1 through ``job_argv`` -- so with ``--workers 1`` -- once with this
checkout's ``src`` and once with the other checkout's, each job in a fresh
interpreter with ``OPENBLAS_NUM_THREADS=1``.  The job list is read from this
checkout only.  Each output file gets one line:

* ``same``: byte-identical;
* ``version-line-only``: only the first line (``# pottsglass <version>``) differs;
* ``DIFF``: anything else, including a job that failed or wrote no file.

Exits 1 when any file is ``DIFF``, else 0.

Usage: python scripts/compare_outputs.py PARENT_CHECKOUT
"""

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS, Job, job_argv  # noqa: E402

SEEDS = (0, 1)
CHAINS = ("--replicas", "2", "--sweeps", "200", "--burn-in", "50")
# tail-bound at beta = inf (kappa = 2 and 3) and in JSON, and mc-free-energy's Metropolis ('all') sector
EXTRA_JOBS = (
    Job("tail-k2-n6-beta-1-inf", ("tail-bound", "--kappa", "2", "--n", "6", "--beta", "1,inf", *CHAINS)),
    Job("tail-k3-n6-beta-inf", ("tail-bound", "--kappa", "3", "--n", "6", "--beta", "inf", "--replicas", "4")),
    Job("tail-k3-n6-json", ("tail-bound", "--kappa", "3", "--n", "6", "--beta", "0.5,inf", "--epsilon", "0.2",
                            *CHAINS, "--format", "json")),
    Job("mcfe-k2-n6-all", ("mc-free-energy", "--kappa", "2", "--n", "6", "--sector", "all", "--n-grid", "8",
                           "--sweeps", "200", "--burn-in", "50")),
)


def run_jobs(checkout: Path, out_dir: Path) -> dict:
    """Run every job at every seed with ``checkout``'s package; return each output file's exit code."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), OPENBLAS_NUM_THREADS="1")
    codes = {}
    for job in (*(job for jobs in WORKLOADS.values() for job in jobs), *EXTRA_JOBS):
        for seed in SEEDS:
            name = f"{job.name}.s{seed}.{'json' if '--format' in job.argv else 'csv'}"
            argv = job_argv(job, seed, str(out_dir / name))
            proc = subprocess.run([sys.executable, "-m", "pottsglass.cli", *argv], env=env,
                                  capture_output=True, text=True)
            if proc.returncode:
                print(f"{checkout}: {name} exited {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            codes[name] = proc.returncode
    return codes


def verdict(old: Path, new: Path) -> str:
    if not (old.exists() and new.exists()):
        return "DIFF"
    a, b = old.read_bytes(), new.read_bytes()
    if a == b:
        return "same"
    a_first, _, a_rest = a.partition(b"\n")
    b_first, _, b_rest = b.partition(b"\n")
    same_rest = a_rest == b_rest and a_first.startswith(b"# pottsglass ") and b_first.startswith(b"# pottsglass ")
    return "version-line-only" if same_rest else "DIFF"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="the other checkout (its src/ is run)")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        old_dir, new_dir = Path(tmp, "parent"), Path(tmp, "this")
        old_dir.mkdir()
        new_dir.mkdir()
        old_codes, new_codes = run_jobs(args.parent.resolve(), old_dir), run_jobs(ROOT, new_dir)
        diffs = 0
        for name in old_codes:
            status = verdict(old_dir / name, new_dir / name)
            if old_codes[name] or new_codes[name]:
                status = "DIFF"
            diffs += status == "DIFF"
            print(f"{status:<18} {name}  (exit {old_codes[name]} -> {new_codes[name]})")
    print(f"{len(old_codes) - diffs} of {len(old_codes)} outputs match; {diffs} differ")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
