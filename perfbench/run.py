"""Benchmark of the ``pottsglass`` CLI: four workloads, end to end and per layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload enum-large --seed 0 --seconds 25 --trace 0

Each pass runs the workload's job list (``workloads.py``) in a fresh
interpreter (``worker.py``) with the BLAS thread count pinned to 1 and
``--workers 1`` on every job.  With ``--trace 0`` the run first times
``import pottsglass.cli`` in ``SETUP_STARTS`` fresh interpreters, then repeats passes
while the next one still fits in ``--seconds``, and reports the median of
each end-to-end metric, with wall and CPU seconds scaled by the pass's speed
probe (``worker.SpeedProbe``).  With ``--trace 1`` it makes one untraced and two
traced passes (``spans.py``) and reports the per-layer metrics.  Every
output file is checked (``checks.py``) after its pass ends.

The last line of standard output is the result object; the line before it
is a record of the environment, the outputs' sha256 digests and the
deterministic counts.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 0
SETUP_STARTS = 7
RUN_LIMIT_S = 170.0  # a run must end within 180 s
REFERENCE_DIR = os.path.join(HERE, "reference")
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Mean duration of the worker's speed probe on the reference machine; wall and
# CPU seconds are scaled by PROBE_REF_S / (the pass's mean probe duration).
PROBE_REF_S = 250e-6


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


# Per-layer metrics read straight from a traced pass's values: name -> unit.
LAYER_VALUES = {
    "core.disorder_draw.calls": "count", "core.disorder_draw.s": "s",
    "core.enumerate.calls": "count", "core.enumerate.states": "count", "core.enumerate.s": "s",
    "core.energy_kernel.states": "count", "core.energy_kernel.s": "s",
    "core.energy_kernel.flops_computed": "flop", "core.energy_kernel.bytes_computed": "B",
    "exact.logsumexp.calls": "count", "exact.logsumexp.elems": "count", "exact.logsumexp.s": "s",
    "exact.admissible.tables": "count", "exact.admissible.s": "s",
    "exact.engines.s": "s",
    "rate.exponent_gap.iterations": "count", "rate.exponent_gap.s": "s",
    "rate.margin_fit.calls": "count", "rate.margin_fit.s": "s",
    "rate.dense_grid.s": "s",
    "rate.local_expansion_check.calls": "count", "rate.local_expansion_check.s": "s",
    "montecarlo.metropolis.proposals": "count", "montecarlo.metropolis.s": "s",
    "montecarlo.swap.proposals": "count", "montecarlo.swap.s": "s",
    "montecarlo.tempering.steps": "count", "montecarlo.tempering.s": "s",
    "montecarlo.estimators.s": "s",
    "cli.handler.s": "s", "cli.render.s": "s", "cli.render.bytes": "B", "cli.main.s": "s",
}


def _us_per_proposal(kind: str, n: int):
    return "us", lambda v: _ratio(v[f"montecarlo.{kind}.n{n}.s"],
                                  v[f"montecarlo.{kind}.n{n}.proposals"], 1e6)


# Per-layer metrics derived from a traced pass's values ``v``: name -> (unit, function).
LAYER_DERIVED = {
    "core.enumerate.repeat_frac": (
        "frac", lambda v: 1.0 - _ratio(v["core.enumerate.distinct_sectors"], v["core.enumerate.calls"])
        if v["core.enumerate.calls"] else 0.0),
    "core.energy_kernel.ns_per_state": (
        "ns", lambda v: _ratio(v["core.energy_kernel.s"], v["core.energy_kernel.states"], 1e9)),
    "montecarlo.metropolis.n8.us_per_proposal": _us_per_proposal("metropolis", 8),
    "montecarlo.metropolis.n256.us_per_proposal": _us_per_proposal("metropolis", 256),
    "montecarlo.swap.n12.us_per_proposal": _us_per_proposal("swap", 12),
    "montecarlo.tempering.swap_accept_frac": (
        "frac", lambda v: _ratio(v["montecarlo.tempering.swap_accepts"],
                                 v["montecarlo.tempering.swap_attempts"])),
    "trace.wall_s": ("s", lambda v: v["wall_s"]),
    "trace.accounted_frac": ("frac", lambda v: _ratio(v["trace.self_s"], v["wall_s"])),
}
PER_LAYER = {
    **{name: (unit, lambda v, name=name: v[name]) for name, unit in LAYER_VALUES.items()},
    **LAYER_DERIVED,
}


class _Zero(dict):
    """Layer values of one pass; a layer the workload never called reads 0."""

    def __missing__(self, key):
        return 0


def _sha256(path: str) -> str | None:
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError:
        return None


def _run_limited(cmd: list[str], env: dict, cwd: str, deadline: float) -> subprocess.CompletedProcess:
    timeout = max(1.0, deadline - time.perf_counter())
    return subprocess.run(cmd, env=env, cwd=cwd, stdout=subprocess.PIPE, timeout=timeout, check=True,
                          text=True)


def measure_setup(root: str, env: dict, deadline: float) -> tuple[float, list[dict]]:
    """Median seconds of ``import pottsglass.cli`` in a fresh interpreter, scaled
    by each start's speed probe, and the raw record of every start."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "import"]
    _run_limited(cmd, env, root, deadline)  # untimed: fills bytecode and page caches
    starts = [json.loads(_run_limited(cmd, env, root, deadline).stdout) for _ in range(SETUP_STARTS)]
    return statistics.median(s["import_s"] * PROBE_REF_S / s["probe_s"] for s in starts), starts


def run_pass(root, env, workload, seed, trace, out_dir, deadline) -> dict:
    os.makedirs(out_dir)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed),
           "1" if trace else "0", out_dir]
    start = time.perf_counter()
    proc = _run_limited(cmd, env, root, deadline)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["process_s"] = time.perf_counter() - start
    result["speed"] = PROBE_REF_S / result["probe_s"]
    result["out_dir"] = out_dir
    return result


def job_problems(workload: str, job, out_dir: str, code, seed: int) -> list[str]:
    if code != 0:
        return [f"exit code {code}"]
    path = os.path.join(out_dir, f"{job.name}.csv")
    try:
        table = checks.read_table(path)
    except (OSError, ValueError) as err:
        return [f"unreadable output: {err}"]
    problems = checks.identity_problems(table)
    if seed == DEFAULT_SEED or job.seedless:
        ref_path = os.path.join(REFERENCE_DIR, workload, f"{job.name}.csv")
        try:
            ref = checks.read_table(ref_path)
        except (OSError, ValueError) as err:
            return problems + [f"unreadable reference: {err}"]
        if not job.trajectory or table.version == ref.version:
            problems += checks.row_problems(table, ref)
    return problems


def environment() -> dict:
    import numpy
    import scipy

    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        with open("/sys/devices/system/cpu/cpu0/cache/index3/size") as fh:
            l3 = fh.read().strip()
    except OSError:
        l3 = "unknown"
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "l3": l3,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "pinned_threads": PINNED_THREADS,
    }


def deterministic_counts(layers: dict) -> dict:
    """The integer work counts of a traced pass; they must repeat exactly."""
    return {k: v for k, v in sorted(layers.items()) if isinstance(v, int)}


def run_passes(root, env, args, work, deadline) -> tuple[list[dict], tuple | None]:
    """The run's passes and, untraced, the set-up measured before them."""
    passes = []

    def one_pass(trace: bool) -> dict:
        out_dir = os.path.join(work, f"pass{len(passes)}")
        result = run_pass(root, env, args.workload, args.seed, trace, out_dir, deadline)
        result["traced"] = trace
        passes.append(result)
        return result

    if args.trace:
        for trace in (False, True, True):
            one_pass(trace)
        return passes, None
    setup = measure_setup(root, env, deadline)
    measure_end = time.perf_counter() + args.seconds
    while True:
        last = one_pass(False)
        if time.perf_counter() + last["process_s"] > min(measure_end, deadline):
            return passes, setup


def check_passes(workload: str, seed: int, passes: list[dict]) -> tuple[int, dict]:
    """Number of failed job runs, and the byte-identity record of every job."""
    failed = 0
    digests = {}
    for p in passes:
        for job in WORKLOADS[workload]:
            problems = job_problems(workload, job, p["out_dir"], p["codes"].get(job.name), seed)
            if problems:
                failed += 1
                print(f"FAIL {workload}/{job.name}: {'; '.join(problems)}", file=sys.stderr)
            digests.setdefault(job.name, []).append(
                _sha256(os.path.join(p["out_dir"], f"{job.name}.csv")))
    identity = {}
    for name, found in digests.items():
        ref = _sha256(os.path.join(REFERENCE_DIR, workload, f"{name}.csv"))
        identity[name] = {
            "sha256": found[0],
            "identical_across_passes": len(set(found)) == 1,
            "equals_reference": found[0] == ref if seed == DEFAULT_SEED else None,
        }
    return failed, identity


def trace_metrics(workload: str, seed: int, passes: list[dict], record: dict) -> tuple[bool, dict]:
    """Per-layer metrics of a traced run; false when a count failed to repeat."""
    traced = [_Zero(p["layers"], wall_s=p["wall_s"]) for p in passes if p["traced"]]
    counts = [deterministic_counts(t) for t in traced]
    record["counts"] = counts[0]
    record["counts_repeat"] = all(c == counts[0] for c in counts)
    if not record["counts_repeat"]:
        print(f"ERROR {workload}: deterministic counts differ between passes: {counts}",
              file=sys.stderr)
    record["counts_match_reference"] = None
    if seed == DEFAULT_SEED:
        try:
            with open(os.path.join(REFERENCE_DIR, workload, "counts.json")) as fh:
                record["counts_match_reference"] = json.load(fh) == counts[0]
        except (OSError, ValueError):
            pass
    record["missing_targets"] = passes[-1]["missing_targets"]
    metrics = {
        name: {"value": statistics.median(fn(t) for t in traced), "unit": unit}
        for name, (unit, fn) in PER_LAYER.items()
    }
    traced_wall = statistics.median(p["wall_s"] * p["speed"] for p in passes if p["traced"])
    untraced_wall = statistics.median(p["wall_s"] * p["speed"] for p in passes if not p["traced"])
    metrics["trace.overhead_frac"] = {"value": traced_wall / untraced_wall - 1.0, "unit": "frac"}
    return record["counts_repeat"], metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "pottsglass", "cli.py")):
        print(f"error: no pottsglass source under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    env = dict(os.environ, **PINNED_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    sys.path.insert(0, src)

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as work:
        passes, setup = run_passes(root, env, args, work, started + RUN_LIMIT_S)
        failed, identity = check_passes(args.workload, args.seed, passes)
    attempted = len(passes) * len(WORKLOADS[args.workload])

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(),
        "fail_frac": failed / attempted,
        "passes": [{k: p[k] for k in ("traced", "wall_s", "cpu_s", "peak_rss_mb", "process_s",
                                      "probe_s", "probes", "speed")}
                   for p in passes],
        "outputs": identity,
    }
    correct = failed == 0
    if args.trace:
        counts_repeat, metrics = trace_metrics(args.workload, args.seed, passes, record)
        correct = correct and counts_repeat
    else:
        setup_s, record["setup_starts"] = setup
        metrics = {
            "wall_s": {"value": statistics.median(p["wall_s"] * p["speed"] for p in passes),
                       "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(p["peak_rss_mb"] for p in passes),
                            "unit": "MiB"},
            "cpu_s": {"value": statistics.median(p["cpu_s"] * p["speed"] for p in passes),
                      "unit": "s"},
        }
    record["run_s"] = time.perf_counter() - started

    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
