"""One pass of a workload in a fresh interpreter.

Usage: ``python3 perfbench/worker.py WORKLOAD SEED TRACE OUT_DIR`` from the
repository root, with ``src`` on ``PYTHONPATH``.  (``worker.py import`` instead
times ``import pottsglass.cli`` and prints its seconds and speed probe.)  Runs the workload's jobs
one after another through ``pottsglass.cli.main`` (a closed loop with one
client), writing each output to ``OUT_DIR/<job>.csv``, and prints one JSON
object: the pass's wall and CPU seconds and its peak resident memory (the
larger of this process's and of any child process it waited for), each
job's exit code and, with ``TRACE`` 1, the per-layer values of
:mod:`spans`.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback

from workloads import WORKLOADS, job_argv


def _cpu_s() -> float:
    """User plus system CPU seconds of this process and the children it waited for."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


PROBE_INTERVAL_S = 0.05  # of process CPU time between two probes


class SpeedProbe:
    """Times a fixed pure-Python kernel every ``PROBE_INTERVAL_S`` of CPU time.

    The host's other tenants slow this machine's CPUs by up to half for tens
    of seconds at a time.  The probe runs on the same CPU, in the same
    process, while the jobs run, so its mean duration tracks the speed the
    jobs saw; it costs about 0.5% of the pass.  The kernel, 4000 lookups in
    a 20,000-entry dict, was chosen over a register-bound integer loop
    because the jobs' slowdown follows its slowdown more closely.
    """

    def __init__(self):
        self.samples = []
        keys = list(range(0, 200_000, 10))
        self._table = {key: key for key in keys}
        self._keys = keys[:4000]

    def _probe(self, signum, frame):
        table = self._table
        start = time.perf_counter()
        acc = 0
        for key in self._keys:
            acc += table[key]
        self.samples.append(time.perf_counter() - start)

    def __enter__(self):
        signal.signal(signal.SIGPROF, self._probe)
        signal.setitimer(signal.ITIMER_PROF, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        if not self.samples:  # shorter than one interval: probe once now
            self._probe(None, None)

    def record(self) -> dict:
        return {"probe_s": statistics.mean(self.samples), "probes": len(self.samples)}


def time_import() -> dict:
    """Seconds this fresh interpreter takes to ``import pottsglass.cli``."""
    with SpeedProbe() as probe:
        start = time.perf_counter()
        import pottsglass.cli  # noqa: F401
        elapsed = time.perf_counter() - start
    return {"import_s": elapsed, **probe.record()}


def run_pass(workload: str, seed: int, trace: bool, out_dir: str) -> dict:
    from pottsglass import cli, core, exact, experiment, montecarlo, rate

    tracer = None
    if trace:
        from spans import Tracer

        modules = {"core": core, "exact": exact, "rate": rate, "montecarlo": montecarlo,
                   "cli": cli, "experiment": experiment}
        tracer = Tracer().install(modules)

    codes = {}
    usage0 = _cpu_s()
    start = time.perf_counter()
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), SpeedProbe() as probe:
        for job in WORKLOADS[workload]:
            out = os.path.join(out_dir, f"{job.name}.csv")
            try:
                codes[job.name] = cli.main(job_argv(job, seed, out))
            except Exception:  # a crashing job is a failed job, not a crashed pass
                traceback.print_exc()
                codes[job.name] = -1
    wall = time.perf_counter() - start
    peak_kib = max(resource.getrusage(who).ru_maxrss
                   for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    result = {
        "wall_s": wall,
        "cpu_s": _cpu_s() - usage0,
        "peak_rss_mb": peak_kib / 1024.0,
        **probe.record(),
        "codes": codes,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_values()
        result["missing_targets"] = tracer.missing
    return result


if __name__ == "__main__":
    if sys.argv[1:] == ["import"]:
        print(json.dumps(time_import()))
    else:
        workload_arg, seed_arg, trace_arg, out_dir_arg = sys.argv[1:5]
        print(json.dumps(run_pass(workload_arg, int(seed_arg), trace_arg == "1", out_dir_arg)))
