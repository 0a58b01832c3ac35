#!/usr/bin/env python3
"""Compare the benchmark jobs' output files of this checkout with another one's.

Runs every job of ``perfbench/workloads.py`` (all four workloads, 19 jobs) and
the thirty-two ``EXTRA_JOBS`` below, which cover routes no benchmark job takes, at seeds
0 and 1 through ``job_argv`` -- so with ``--workers 1`` -- once with this
checkout's ``src`` and once with the other checkout's, each job in a fresh
interpreter with ``OPENBLAS_NUM_THREADS=1``.  The job list is read from this
checkout only.  Each output file gets one line:

* ``same``: byte-identical;
* ``version-line-only``: only the version line differs (a CSV's first line
  ``# pottsglass <version>``, a JSON file's ``"version": "<version>"`` in ``meta``);
* ``DIFF``: anything else, including a job that failed or wrote no file.

Exits 1 when any file is ``DIFF``, else 0.

Usage: python scripts/compare_outputs.py PARENT_CHECKOUT
"""

import argparse
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS, Job, job_argv  # noqa: E402

SEEDS = (0, 1)
CHAINS = ("--replicas", "2", "--sweeps", "200", "--burn-in", "50")
# tail-bound at beta = inf (kappa = 2 and 3) and in JSON, mc-free-energy's Metropolis ('all') sector and its
# beta_max = 0 entropy row, and kappa = 3 stacks in lockstep (montecarlo._run_stack, from montecarlo._lockstep's
# crossover on): tail-bound's 24 Metropolis chains without a ladder and with 3-rung ladders, and mc-free-energy's
# 13-rung balanced grid ladder (the pair-swap kernel); the last three run 300 sweeps, which cross three audits
# and many draw blocks; and exact-free-energy over color orbits with multiplicities up to 4! = 24 (kappa = 4) and
# with half A one site shorter than half B (odd n); and uncentered-ratio's recursion over color orbits at kappa = 2,
# 5 and 6, and at beta = 50, where the ratio overflows to inf; and replica or trial counts that leave a partial
# last disorder stack (core.map_replicas draws each stack at once): gauge-check at n = 8 (64 trials a stack, and
# every stack's flips from one sign product), exact-free-energy at kappa = 2, n = 8 (128 a stack) and
# moment-check at n = 12 (8 a stack); and mc-free-energy's balanced grid of 8 rungs, below the crossover, so its
# chains sweep row by row (montecarlo._swap_row), which every larger balanced stack skips; and
# uncentered-ratio's balanced sector (the overlap-table sum and its floor), and its recursion at kappa = 31, the
# largest kappa whose base-(n + 1) keys fit in int64 at n = 3; and ldp-check at kappa = 3 (the benchmark runs
# kappa = 2 only), and moment-check at odd orders only, whose records are placeholders and which enumerates nothing;
# and second-moment's row recursion at kappa = 5 and 6 (the benchmark runs kappa = 3 and 4); and a stack of ladders
# on three couplings below the crossover, whose 6 rows sweep row by row, each on its own coupling's slice of the
# runner's coupling stack; and shell-count at kappa = 4 and 5, where some tables lie on a shell boundary (the
# benchmark runs kappa = 3 to n = 24, where none does); and gauge-check's stacked value reduction (exact._gauge_pair)
# on the tie-count weights of beta = inf and the all-ones weights of beta = 0, with a partial last stack; and
# shell-count on each route of exact._table_norms: one free row (kappa = 2), the pass that adds the forced last row
# (kappa = 3, past the benchmark's n) and the middle planes with their matrix product (kappa = 6)
EXTRA_JOBS = (
    Job("tail-k2-n6-beta-1-inf", ("tail-bound", "--kappa", "2", "--n", "6", "--beta", "1,inf", *CHAINS)),
    Job("tail-k3-n6-beta-inf", ("tail-bound", "--kappa", "3", "--n", "6", "--beta", "inf", "--replicas", "4")),
    Job("tail-k3-n6-json", ("tail-bound", "--kappa", "3", "--n", "6", "--beta", "0.5,inf", "--epsilon", "0.2",
                            *CHAINS, "--format", "json")),
    Job("mcfe-k2-n6-all", ("mc-free-energy", "--kappa", "2", "--n", "6", "--sector", "all", "--n-grid", "8",
                           "--sweeps", "200", "--burn-in", "50")),
    Job("tail-k3-n9-lockstep", ("tail-bound", "--kappa", "3", "--n", "9", "--beta", "0.5,1.5", "--replicas", "24",
                                "--sweeps", "300", "--burn-in", "100")),
    Job("tail-k3-n9-ladder-lockstep", ("tail-bound", "--kappa", "3", "--n", "9", "--beta", "1.5", "--ladder",
                                       "0.5,1,1.5", "--replicas", "8", "--sweeps", "250", "--burn-in", "50")),
    Job("mcfe-k3-n6-beta-max-0", ("mc-free-energy", "--kappa", "3", "--n", "6", "--beta-max", "0", "--n-grid", "8",
                                  "--sweeps", "200", "--burn-in", "50")),
    Job("mcfe-k3-n9-balanced-lockstep", ("mc-free-energy", "--kappa", "3", "--n", "9", "--sector", "balanced",
                                         "--sweeps", "250", "--burn-in", "50")),
    Job("efe-k4-n8-all", ("exact-free-energy", "--kappa", "4", "--n", "8", "--sector", "all")),
    Job("efe-k2-n11-all", ("exact-free-energy", "--kappa", "2", "--n", "11", "--sector", "all")),
    Job("unc-k2-n10-20-40", ("uncentered-ratio", "--kappa", "2", "--n", "10,20,40", "--beta", "1.0")),
    Job("unc-k5-n5-10", ("uncentered-ratio", "--kappa", "5", "--n", "5,10", "--beta", "1.0")),
    Job("unc-k6-n6", ("uncentered-ratio", "--kappa", "6", "--n", "6", "--beta", "1.0")),
    Job("unc-k2-n6-beta-50", ("uncentered-ratio", "--kappa", "2", "--n", "6", "--beta", "50")),
    Job("gauge-n8-trials-130", ("gauge-check", "--n", "8", "--trials", "130")),
    Job("efe-k2-n8-all-130", ("exact-free-energy", "--kappa", "2", "--n", "8", "--sector", "all", "--replicas", "130")),
    Job("moment-n12-21", ("moment-check", "--n", "12", "--m", "1,2,4", "--replicas", "21")),
    Job("mcfe-k3-n12-balanced-grid8", ("mc-free-energy", "--kappa", "3", "--n", "12", "--sector", "balanced",
                                       "--n-grid", "8", "--sweeps", "200", "--burn-in", "50")),
    Job("unc-k3-n3-6-9-balanced", ("uncentered-ratio", "--kappa", "3", "--n", "3,6,9", "--sector", "balanced")),
    Job("unc-k31-n3", ("uncentered-ratio", "--kappa", "31", "--n", "3")),
    Job("ldp-k3-n9-18-27", ("ldp-check", "--kappa", "3", "--n", "9,18,27")),
    Job("moment-n4-8-odd", ("moment-check", "--n", "4,8", "--m", "1,3")),
    Job("sm-k5-n5-20", ("second-moment", "--kappa", "5", "--n", "5,10,15,20", "--beta", "1.0")),
    Job("sm-k6-n6-12", ("second-moment", "--kappa", "6", "--n", "6,12", "--beta", "1.0")),
    Job("tail-k2-n20-ladder-rows", ("tail-bound", "--kappa", "2", "--n", "20", "--beta", "1", "--ladder", "0.5,1",
                                    "--replicas", "3", "--sweeps", "200", "--burn-in", "50")),
    Job("shell-k4-n20-24", ("shell-count", "--kappa", "4", "--n", "20,24")),
    Job("shell-k5-n5-10", ("shell-count", "--kappa", "5", "--n", "5,10")),
    Job("gauge-n8-trials-130-beta-inf", ("gauge-check", "--n", "8", "--beta", "inf", "--trials", "130")),
    Job("gauge-n8-trials-130-beta-0", ("gauge-check", "--n", "8", "--beta", "0", "--trials", "130")),
    Job("shell-k2-n2-10-40", ("shell-count", "--kappa", "2", "--n", "2,10,40")),
    Job("shell-k3-n90-99", ("shell-count", "--kappa", "3", "--n", "90,99")),
    Job("shell-k6-n6-12", ("shell-count", "--kappa", "6", "--n", "6,12")),
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


VERSION_LINE = re.compile(rb'# pottsglass |    "version": "')  # where a CSV and a JSON file name their version


def verdict(old: Path, new: Path) -> str:
    if not (old.exists() and new.exists()):
        return "DIFF"
    a, b = old.read_bytes(), new.read_bytes()
    if a == b:
        return "same"
    a, b = a.split(b"\n"), b.split(b"\n")
    same_rest = len(a) == len(b) and all(x == y or VERSION_LINE.match(x) and VERSION_LINE.match(y) for x, y in zip(a, b))
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
