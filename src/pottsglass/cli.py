"""Reproducible experiment runner: one subcommand per artifact.

Output files are written atomically (temp file + rename) with the resolved
experiment spec, tool version, and root seed embedded in ``#``-prefixed
header lines (CSV) or a ``meta`` object (JSON).  Floats print with 17
significant digits so every file re-parses losslessly, and identical
(spec, seed, version) triples produce byte-identical files regardless of
the worker count.

Exit codes: 0 success, 1 computation error, 2 validation error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import cache, partial

import numpy as np

from . import __version__, core, exact, montecarlo, rate
from .experiment import ExperimentSpec, ValidationError

__all__ = ["main", "rows_for_spec", "render_output"]


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):  # first: most cells are floats, and bool and ints are not
        return f"{float(value):.17g}"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


# ---------------------------------------------------------------------------
# Handlers: spec -> (columns, rows)

_HANDLERS = {}  # subcommand -> handler; each handler carries its ``summary`` and option ``defaults``


def _command(name: str, summary: str, **defaults):
    """Register a handler as subcommand ``name``.

    The subcommand takes the options named in ``defaults`` (spec fields, with
    their default values) and the common ones in ``_COMMON``.
    """
    def register(fn):
        fn.summary, fn.defaults = summary, defaults
        _HANDLERS[name] = fn
        return fn
    return register


@_command("thresholds", "closed-form threshold table per color count", kappa_max=100)
def _run_thresholds(spec: ExperimentSpec):
    cols = ["kappa", "beta_kappa", "branch", "ew90_critical", "balanced_gse_upper", "breaks_at_zero_temp"]
    rows = []
    for kappa in range(3, spec.kappa_max + 1):
        th = rate.high_temperature_threshold(kappa)
        zt = rate.zero_temperature_bounds(kappa)
        rows.append(
            [kappa, th.beta, th.branch, rate.ferro_potts_critical_coupling(kappa), zt.balanced_upper, zt.breaks]
        )
    return cols, rows


@_command("exact-free-energy", "per-replica exact quenched free energies", kappa=3, n=(6,),
          beta=(1.0,), sector="balanced", kind="centered", replicas=8, cap=exact.DEFAULT_CAP)
def _run_exact_free_energy(spec: ExperimentSpec):
    cols = ["n", "beta", "replica", "seed", "stream", "log_z", "free_energy"]
    rows = []
    for n in spec.n:
        for beta in spec.beta:
            result = exact.quenched_free_energy(
                n, beta, spec.kappa, spec.sector, spec.kind, replicas=spec.replicas,
                seed=spec.seed, cap=spec.cap, workers=spec.workers,
            )
            for idx, s in enumerate(result.samples):
                rows.append([n, beta, idx, s.seed, s.stream, s.log_z, s.free_energy])
    return cols, rows


@_command("second-moment", "exact centered balanced second-moment ratio", kappa=3, n=(3, 6, 9),
          beta=(1.0,))
def _run_second_moment(spec: ExperimentSpec):
    cols = ["n", "beta", "ratio", "log_ratio"]
    rows = []
    for n in spec.n:
        for beta in spec.beta:
            log_ratio = exact._log_second_moment_ratio(n, beta, spec.kappa)
            rows.append([n, beta, exact.exp_or_inf(log_ratio), log_ratio])
    return cols, rows


@_command("uncentered-ratio", "raw-Hamiltonian moment ratio and its divergence floor", kappa=3,
          n=(3, 6, 9), beta=(1.0,), sector="all", cap=exact.DEFAULT_CAP)
def _run_uncentered_ratio(spec: ExperimentSpec):
    cols = ["n", "beta", "sector", "ratio", "lower_bound", "exceeds_bound"]
    rows = []
    for n in spec.n:
        for beta in spec.beta:
            log_ratio = exact._log_uncentered_ratio(n, beta, spec.kappa, spec.sector, spec.cap)
            log_bound = exact._log_uncentered_lower_bound(n, beta, spec.kappa, spec.sector)
            rows.append([n, beta, spec.sector, exact.exp_or_inf(log_ratio), exact.exp_or_inf(log_bound),
                         log_ratio >= log_bound])
    return cols, rows


@_command("rate-gap", "constrained minimum of the shell rate objective", kappa=3, beta=(1.0,),
          delta=0.01)
def _run_rate_gap(spec: ExperimentSpec):
    kappa = spec.kappa
    cols = ["kappa", "beta", "delta", "minimum", "converged", "restarts", "iterations"]
    cols += [f"argmin_{a}{b}" for a in range(kappa) for b in range(kappa)]
    rows = []
    for beta in spec.beta:
        result = rate.exponent_gap(kappa, beta, spec.delta, seed=spec.seed)
        row = [kappa, beta, spec.delta, result.value, result.converged, result.restarts,
               result.iterations]
        rows.append(row + [float(v) for v in result.argmin.ravel()])
    return cols, rows


_KL_CHUNK = 4096  # kl-check trials drawn per evaluation pass


@_command("kl-check", "randomized sweep of the local KL expansion bound", trials=10000)
def _run_kl_check(spec: ExperimentSpec):
    rng = core.philox_generator(spec.seed, 0)
    holds = 0
    violations = 0
    worst = math.inf
    for first in range(0, spec.trials, _KL_CHUNK):
        # A chunk draws its dimensions, then per dimension in ascending order
        # its q, directions and the uniforms that set the scales.
        dims = rng.integers(2, 10, size=min(_KL_CHUNK, spec.trials - first))
        for dim in range(2, 10):
            count = int(np.count_nonzero(dims == dim))
            q = rng.dirichlet(np.ones(dim), size=count)
            direction = rng.standard_normal((count, dim))
            direction -= direction.mean(axis=1, keepdims=True)
            reach = np.maximum(np.abs(direction).max(axis=1), 1e-300)
            qmin = q.min(axis=1)
            p = q + (rng.random(count) * 0.5 * qmin / reach)[:, None] * direction
            inside = (qmin > 0) & ~(p.min(axis=1) < 0)
            res = rate.local_expansion_check(p[inside], q[inside])
            ok = res.precondition_ok
            if ok.any():
                worst = min(worst, float((res.rhs_bound[ok] - res.lhs_gap[ok]).min()))
            held = int(np.count_nonzero(res.holds[ok].astype(bool)))
            holds += held
            violations += int(ok.sum()) - held
    cols = ["trials", "checked", "holds", "violations", "worst_margin"]
    return cols, [[spec.trials, holds + violations, holds, violations, worst]]


@_command("ldp-check", "exact vs Stirling-asymptotic table log-probability", kappa=3,
          n=(9, 18, 27, 36))
def _run_ldp_check(spec: ExperimentSpec):
    cols = ["n", "exact_log_p", "asymptotic_log_p", "gap"]
    rows = []
    kappa = spec.kappa
    for n in spec.n:
        table = np.full((kappa, kappa), n // kappa ** 2, dtype=np.int64)
        ex, asym = exact.ldp_log_probability(n, kappa, table)
        rows.append([n, ex, asym, ex - asym])
    return cols, rows


@_command("shell-count", "admissible-table counts per Frobenius shell", kappa=3, n=(6, 9, 12))
def _run_shell_count(spec: ExperimentSpec):
    cols = ["n", "l", "count", "bound_ratio"]
    rows = []
    expo = (spec.kappa - 1) ** 2 / 2.0
    for n in spec.n:
        hist = exact.shell_histogram(n, spec.kappa)
        for l in range(1, n + 1):
            cnt = int(hist[l - 1])
            if cnt:
                rows.append([n, l, cnt, cnt / (l * n) ** expo])
    return cols, rows


@_command("gauge-check", "two-color gauge antisymmetry over random cases", n=(6,), beta=(1.0,),
          trials=1000, cap=exact.DEFAULT_CAP)
def _run_gauge_check(spec: ExperimentSpec):
    n = spec.n[0]
    rng = core.philox_generator(spec.seed, 0)
    trial_sites = []
    for _ in range(spec.trials):
        m = int(rng.integers(1, 6))
        sites = [int(s) for s in rng.integers(0, n, size=m)]
        if all(sites.count(s) % 2 == 0 for s in sites):
            sites.append(int(rng.integers(0, n)))  # force an odd-degree site
        trial_sites.append(sites)
    split = exact._split(n, 2, "all", spec.cap)  # shared by every trial
    results = core.map_replicas(  # trial r uses stream r
        partial(exact._gauge_pair, split, spec.beta[0], trial_sites), n, spec.seed, spec.trials, spec.workers,
        split.stack,
    )
    worst = max([0.0] + [abs(res.pair_sum) for res in results])
    print(f"max |pair sum| = {worst:.3e}", file=sys.stderr)
    cols = ["trial", "stream", "flip_site", "value", "value_flipped", "pair_sum"]
    rows = [[trial, trial, res.flip_site, res.value, res.value_flipped, res.pair_sum]
            for trial, res in enumerate(results)]
    return cols, rows


@_command("moment-check", "two-color magnetization moments vs closed-form bounds", n=(4, 8),
          beta=(1.0,), moments=(1, 2, 4), replicas=200, cap=exact.DEFAULT_CAP)
def _run_moment_check(spec: ExperimentSpec):
    cols = ["m", "n", "beta", "estimate", "stderr", "bound", "satisfied"]
    rows = []
    for n in spec.n:
        for beta in spec.beta:
            estimates = exact.magnetization_moment_exact(
                n, beta, spec.moment_orders, replicas=spec.replicas, seed=spec.seed, cap=spec.cap,
                workers=spec.workers,
            )
            rows += [[m, n, beta, est.value, est.stderr, est.bound, est.satisfied]
                     for m, est in zip(spec.moment_orders, estimates)]
    return cols, rows


@_command("tail-bound", "magnetization tail estimates vs 2 exp(-eps^2 n)", kappa=2, n=(8,),
          beta=(1.0,), epsilon=(0.25, 0.5), replicas=64, sweeps=2000, burn_in=500, thinning=4, ladder=(),
          cap=exact.DEFAULT_CAP)
def _run_tail_bound(spec: ExperimentSpec):
    cols = ["n", "beta", "epsilon", "estimate", "stderr", "bound", "within_bound", "flagged"]
    rows, epsilons = [], spec.epsilon or (0.25,)
    for n in spec.n:
        for beta in spec.beta:
            estimates = montecarlo.estimate_tail(
                n, beta, epsilons, kappa=spec.kappa, replicas=spec.replicas,
                sweeps=spec.sweeps, burn_in=spec.burn_in, thinning=spec.thinning, ladder=spec.ladder,
                seed=spec.seed, cap=spec.cap, workers=spec.workers,
            )
            if estimates[0].swap_rates:
                rates = " ".join(f"{rate:.4f}" for rate in estimates[0].swap_rates)
                print(f"ladder swap acceptance (n={n}, beta={beta:g}) = {rates}", file=sys.stderr)
            rows += [[n, beta, eps, est.value, est.stderr, est.bound, est.satisfied, est.flagged]
                     for eps, est in zip(epsilons, estimates)]
    return cols, rows


@_command("mc-free-energy", "thermodynamic-integration free energy vs exact", kappa=3, n=(6,),
          beta_max=1.0, n_grid=13, sector="balanced", kind="centered", sweeps=2000, burn_in=500,
          cap=exact.DEFAULT_CAP)
def _run_mc_free_energy(spec: ExperimentSpec):
    cols = ["n", "beta_max", "sector", "kind", "ti_value", "stderr", "quad_error", "exact_value", "flagged"]
    rows = []
    for n in spec.n:
        g = core.CouplingMatrix.from_seed(n, spec.seed, 0)
        res = montecarlo.free_energy_ti(
            g, spec.kappa, spec.beta_max, spec.n_grid, spec.sector, spec.kind,
            seed=spec.seed, sweeps=spec.sweeps, burn_in=spec.burn_in,
        )
        rates = " ".join(f"{rate:.4f}" for rate in res.swap_rates)
        print(f"ladder swap acceptance (n={n}, beta_max={spec.beta_max:g}) = {rates}", file=sys.stderr)
        exact_val = math.nan
        if not spec.exceeds_cap(n, spec.kappa, spec.sector):
            exact_val = exact.log_partition(
                g, spec.beta_max, spec.kappa, spec.sector, spec.kind, cap=spec.cap
            ).free_energy
        rows.append([n, spec.beta_max, spec.sector, spec.kind, res.value, res.stderr,
                     res.quad_error, exact_val, res.flagged])
    return cols, rows


def rows_for_spec(spec: ExperimentSpec):
    """Dispatch a validated spec to its handler (pure; no output I/O)."""
    spec.validate()
    return _HANDLERS[spec.command](spec)


# ---------------------------------------------------------------------------
# Output


def render_output(spec: ExperimentSpec, columns, rows) -> str:
    if spec.fmt == "json":
        payload = {
            "meta": {"tool": "pottsglass", "version": __version__, "seed": spec.seed,
                     "spec": json.loads(spec.to_json())},
            "rows": [
                {c: (None if isinstance(v, float) and math.isnan(v) else v)
                 for c, v in zip(columns, row)}
                for row in rows
            ],
        }
        return json.dumps(payload, sort_keys=True, indent=2, default=_fmt) + "\n"
    lines = [
        f"# pottsglass {__version__}",
        f"# seed: {spec.seed}",
        f"# spec: {spec.to_json()}",
        ",".join(columns),
    ]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _output_path(spec: ExperimentSpec) -> str | None:
    if spec.out:
        return spec.out
    outdir = os.environ.get("POTTSGLASS_OUTDIR")
    if outdir:
        return os.path.join(outdir, f"{spec.command}.{spec.fmt}")
    return None


# ---------------------------------------------------------------------------
# Argument parsing


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(","))


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


# One declaration per option: spec field -> (flag, argparse keywords).  Defaults live
# with the subcommands (``_command``), since they differ between them.
_OPTIONS = {
    "kappa": ("--kappa", dict(type=int, help="number of colors")),
    "kappa_max": ("--kappa-max", dict(type=int, help="largest color count tabulated")),
    "n": ("--n", dict(type=_int_list, help="comma-separated system sizes")),
    "beta": ("--beta", dict(type=_float_list, help="comma-separated inverse temperatures")),
    "sector": ("--sector", dict(choices=("all", "balanced"), help="configuration sector")),
    "kind": ("--kind", dict(choices=("raw", "centered"), help="raw or centered Hamiltonian")),
    "replicas": ("--replicas", dict(type=int, help="disorder replicas")),
    "delta": ("--delta", dict(type=float, help="least squared Frobenius distance from uniform")),
    "trials": ("--trials", dict(type=int, help="random cases")),
    "moments": ("--m", dict(type=_int_list, help="comma-separated moment orders")),
    "epsilon": ("--epsilon", dict(type=_float_list, help="comma-separated tail thresholds")),
    "sweeps": ("--sweeps", dict(type=int, help="measured sweeps per chain")),
    "burn_in": ("--burn-in", dict(type=int, help="discarded sweeps per chain")),
    "thinning": ("--thinning", dict(type=int, help="record every k-th measured sweep")),
    "ladder": ("--ladder", dict(type=_float_list, help="comma-separated tempering betas ending at --beta")),
    "beta_max": ("--beta-max", dict(type=float, help="upper end of the integration grid")),
    "n_grid": ("--n-grid", dict(type=int, help="points of the integration grid")),
    "cap": ("--cap", dict(type=int, help="exact-enumeration state cap")),
    "seed": ("--seed", dict(type=int, help="root seed (Philox key)")),
    "out": ("--out", dict(help="output file (default: $POTTSGLASS_OUTDIR or stdout)")),
    "fmt": ("--format", dict(choices=("csv", "json"), help="output format")),
    "workers": ("--workers", dict(
        type=int, help="processes for the replicas of exact-free-energy, moment-check and tail-bound and the "
                       "trials of gauge-check (others run serially); default 1; Monte Carlo replicas gain most; "
                       "the exact engines use no BLAS, the chains do, so pin BLAS to one thread "
                       "(OPENBLAS_NUM_THREADS=1) before raising it; output is worker-count invariant")),
}
_COMMON = dict(seed=0, out=None, fmt="csv", workers=1)  # taken by every subcommand


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pottsglass", description=__doc__)
    parser.add_argument("--version", action="version", version=f"pottsglass {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler in _HANDLERS.items():
        p = sub.add_parser(name, help=handler.summary, allow_abbrev=False)  # --kappa is not --kappa-max
        for field, default in {**handler.defaults, **_COMMON}.items():
            flag, kwargs = _OPTIONS[field]
            p.add_argument(flag, dest=field, default=default, **kwargs)
    return parser


_parser = cache(build_parser)  # built on a process's first main() call, then reused: every option default is immutable


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        spec = ExperimentSpec(**vars(args))
        columns, rows = rows_for_spec(spec)
    except (ValidationError, core.DivisibilityError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (core.EnumerationCapError, core.SectorError, ValueError, RuntimeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    text = render_output(spec, columns, rows)
    path = _output_path(spec)
    if path is None:
        sys.stdout.write(text)
    else:
        core.write_atomic(path, text)
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
