#!/usr/bin/env python3
"""List the functions of ``src/pottsglass`` that no command, script or benchmark job reaches.

A call profiler (``sys.setprofile``) is installed before ``pottsglass`` is
imported, so import-time calls (decorator factories, class bodies) count.
Then, in this process and at small settings, it runs:

* every job of ``scripts/compare_outputs.py`` (the perfbench workloads and
  its ``EXTRA_JOBS``) at seed 0 through ``job_argv``, so with ``--workers 1``;
* the five experiment scripts, at the settings of ``tests/test_scripts.py``;
* ``scripts/rate_sweep.py``'s two case builders and its first ``kappa3`` case.

Every ``def`` and ``lambda`` of the package's source that none of these calls
is printed with its line count.  ``KEEP`` names the ones that stay anyway,
each with its reason (the checkpoint contract, the acceptance criteria, a
route these settings do not take).  Exits 1 when an unreached function is
not in ``KEEP``, or when a ``KEEP`` entry is reached or names no function.

Usage: python scripts/reachability.py
"""

import ast
import contextlib
import io
import os
import runpy
import sys
import tempfile
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # as compare_outputs.py runs its jobs

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pottsglass"
SCRIPTS = ROOT / "scripts"

_CHECKPOINT = "checkpoint codec: the bit-exact chain and ladder resume of the checkpoint contract"
_CRITERION = "imported by an acceptance criterion (tests/test_acceptance.py): one of the paper's objects"

# "module.qualname" -> why it stays though nothing above calls it; the k-th lambda of a scope is "<lambda>#k"
KEEP = {
    "core.OverlapMatrix.__post_init__": "validates the table that overlap(), a criterion import, returns",
    "core.OverlapMatrix.asarray": "covariance_centered reads the overlap table's fractions through it",
    "core.covariance_centered": _CRITERION,
    "core.covariance_raw": _CRITERION,
    "core.overlap": _CRITERION,
    "exact.gauge_pair_check": _CRITERION,
    "exact.magnetization_mgf_exact": _CRITERION,
    "exact.magnetization_mgf_exact.<locals>.<lambda>#1": "the statistic of magnetization_mgf_exact, a criterion import",
    "exact.uncentered_ratio": _CRITERION,
    "montecarlo.<lambda>#1": _CHECKPOINT,
    "montecarlo._from_payload": _CHECKPOINT,
    "montecarlo._from_payload.<locals>.<lambda>#1": _CHECKPOINT,
    "montecarlo._payload": _CHECKPOINT,
    "montecarlo._restore_rng": _CHECKPOINT,
    "montecarlo._to_json": _CHECKPOINT,
    "montecarlo.load_chain": _CHECKPOINT,
    "montecarlo.load_ladder": _CHECKPOINT,
    "montecarlo.run_sweeps": _CRITERION,
    "montecarlo.run_sweeps.<locals>.<lambda>#1": "the default record (the energies) of run_sweeps, a criterion import",
    "montecarlo.save_checkpoint": _CHECKPOINT,
    "rate.PolytopePoint.__post_init__": "validates the point that random_polytope_point, a criterion import, returns",
    "rate._as_matrix": "kl_to_uniform, a criterion import, reads its point through it",
    "rate.kl_to_uniform": _CRITERION,
    "rate.potts_row_objective": _CRITERION,
    "rate.random_polytope_point": _CRITERION,
}

SCRIPT_RUNS = (
    ("tail_bound_study.py", ["--sizes", "4,14", "--betas", "1,3,inf", "--epsilons", "0.5", "--replicas", "1"]),
    ("color_symmetry_scan.py", ["--replicas", "2", "--sizes3", "3,4", "--sizes2", "4,5"]),
    ("free_energy_trend.py", ["--sizes", "3,6", "--replicas", "2"]),
    ("threshold_table.py", ["--kappa-max", "4", "--out", "{tmp}/thresholds.csv"]),
    ("second_moment_threshold.py", ["--kappas", "3,4", "--fractions", "1.1", "--seconds", "0"]),
)


def functions() -> dict:
    """``(path, first line, code name) -> (name, lines)`` of every def and lambda under ``PACKAGE``.

    The first line is the code object's: a decorated def starts at its first decorator."""
    found, lambdas = {}, {}  # lambdas: how many each scope has had so far

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                first = min([child.lineno] + [d.lineno for d in getattr(child, "decorator_list", [])])
                code_name = child.name if not isinstance(child, ast.Lambda) else "<lambda>"
                name = f"{prefix}{code_name}"
                if code_name == "<lambda>":
                    lambdas[prefix] = lambdas.get(prefix, 0) + 1
                    name += f"#{lambdas[prefix]}"
                found[(path, first, code_name)] = (name, child.end_lineno - first + 1)
                visit(child, path, f"{name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), str(path), f"{path.stem}.")
    return found


def run_everything(tmp: str) -> None:
    """Every command, script and case this audit counts as a route (see the module docstring)."""
    from pottsglass import cli  # imported under the profiler

    sys.path.insert(0, str(SCRIPTS))
    from compare_outputs import EXTRA_JOBS, WORKLOADS, job_argv

    for job in (*(job for jobs in WORKLOADS.values() for job in jobs), *EXTRA_JOBS):
        if cli.main(job_argv(job, 0, os.path.join(tmp, job.name))):
            raise SystemExit(f"job {job.name} failed")
    argv = sys.argv
    try:
        for name, args in SCRIPT_RUNS:
            sys.argv = [name, *(a.format(tmp=tmp) for a in args)]
            runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    finally:
        sys.argv = argv
    sweep = runpy.run_path(str(SCRIPTS / "rate_sweep.py"))
    sweep["sweep_cases"]()
    sweep["rate"].exponent_gap(*sweep["kappa3_cases"]()[0], seed=0)


def main() -> int:
    table = functions()
    files = {path for path, _, _ in table}
    real = {}  # co_filename -> its resolved path, when that is one of the package's files
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            path = real.get(code.co_filename)
            if path is None:
                path = real[code.co_filename] = os.path.realpath(code.co_filename)
            if path in files:
                reached.add((path, code.co_firstlineno, code.co_name))

    sys.path.insert(0, str(ROOT / "src"))
    sys.setprofile(profile)
    try:
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            run_everything(tmp)
    finally:
        sys.setprofile(None)

    unreached = sorted((name, lines) for key, (name, lines) in table.items() if key not in reached)
    missing = [name for name, _ in unreached if name not in KEEP]
    stale = [name for name in KEEP if name not in dict(unreached)]
    for name, lines in unreached:
        print(f"{lines:5d}  {name}" + (f"  [kept: {KEEP[name]}]" if name in KEEP else "  [NOT IN KEEP]"))
    print(f"{len(unreached)} of {len(table)} functions unreached ({sum(lines for _, lines in unreached)} lines); "
          f"{len(missing)} not in KEEP")
    for name in stale:
        print(f"stale KEEP entry (reached, or no such function): {name}")
    return 1 if missing or stale else 0


if __name__ == "__main__":
    sys.exit(main())
