#!/usr/bin/env python3
"""Where the exact balanced second-moment ratio starts to grow with n, against the paper's threshold.

For each kappa, beta runs over fixed fractions of both branches of
``rate.high_temperature_threshold``: the second-moment coupling bound and the
ferromagnetic-Potts reduction.  They cross at kappa = 4; above it the ferro
branch is the smaller one, the paper's beta_kappa.  n runs through multiples
of kappa, growing by about a quarter each time, until the next cell would take more
than ``--seconds`` at the growth of the last step (at least ``MIN_SIZES``
sizes).

Each series prints log E(Z^bal)^2 / (E Z^bal)^2 per n, its slope over the
last step, and the least-squares fit log ratio = a + b n + c log n.  A
bounded ratio has b near 0; a ratio growing exponentially in n has b > 0.
At these sizes the 1/n corrections leave |b| of order 1e-3 on bounded
series, so the last lines give, per branch, the smallest fraction whose fit
has b > 0 and the smallest with b > ``B_GROWS``.

The ratio is the balanced uncentered table sum less beta^2 n / kappa^2,
summed one overlap-table row at a time over orbits of column sums
(``exact._log_uncentered_ratio``), with no pair cap, so n reaches the
hundreds at kappa = 3 and 4.

Usage: python scripts/second_moment_threshold.py [--kappas 3,4,5,6]
       [--fractions 0.9,1.0,1.1] [--seconds 10]
"""

import argparse
import math
import time

import numpy as np

from pottsglass import exact, rate

MIN_SIZES = 4  # a slope needs 2 sizes, the 3-parameter fit 4 for a residual
GROWTH = 1.25  # the next size is the multiple of kappa at or above GROWTH times the last
B_GROWS = 0.01  # a fitted rate b above this is growth, not finite-size bias


def log_ratio(n: int, beta: float, kappa: int) -> float:
    return exact._log_uncentered_ratio(n, beta, kappa, "balanced", math.inf) - beta ** 2 * n / kappa ** 2


def fit(ns, values) -> tuple[float, float, float]:
    """Least-squares (a, b, c) of values = a + b n + c log n."""
    ns = np.asarray(ns, dtype=np.float64)
    design = np.column_stack((np.ones_like(ns), ns, np.log(ns)))
    return tuple(float(x) for x in np.linalg.lstsq(design, np.asarray(values), rcond=None)[0])


def scan(kappa: int, fractions, seconds: float) -> list[tuple[str, float, float]]:
    """Print one kappa's series; return (branch, fraction, b) per series."""
    th = rate.high_temperature_threshold(kappa)
    branches = {"second-moment": th.second_moment_branch, "ferro": th.ferro_branch}
    if abs(th.second_moment_branch - th.ferro_branch) <= 1e-12:  # kappa = 4: one series per fraction
        branches = {"both": th.beta}
    series = [(name, f, f * value) for name, value in branches.items() for f in fractions]
    print(f"kappa={kappa}: second-moment branch {th.second_moment_branch:.6f}, ferro branch "
          f"{th.ferro_branch:.6f}, beta_kappa {th.beta:.6f} ({th.branch})")
    print(f"{'n':>5} {'s/cell':>7} " + " ".join(f"{name[:6]}x{f:<5g}" for name, f, _ in series))
    ns, values, n, last = [], [], 2 * kappa, 0.0
    while True:
        start = time.perf_counter()
        row = [log_ratio(n, beta, kappa) for _, _, beta in series]
        cell = (time.perf_counter() - start) / len(series)
        ns.append(n)
        values.append(row)
        print(f"{n:>5} {cell:>7.3f} " + " ".join(f"{v:>13.6g}" for v in row))
        if cell ** 2 > seconds * last and len(ns) >= MIN_SIZES:  # the next cell, about cell^2 / last
            break
        n, last = kappa * math.ceil(GROWTH * n / kappa), cell
    values = np.array(values)
    slope = (values[-1] - values[-2]) / (ns[-1] - ns[-2])
    print(f"{'slope':>13} " + " ".join(f"{v:>13.3g}" for v in slope))
    out = []
    for (name, f, beta), column in zip(series, values.T):
        a, b, c = fit(ns, column)
        print(f"  {name} x {f:g} (beta = {beta:.6f}): a = {a:.4g}, b = {b:.3g}, c = {c:.3g}")
        out.append((name, f, b))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--kappas", default="3,4,5,6")
    ap.add_argument("--fractions", default="0.9,1.0,1.1")
    ap.add_argument("--seconds", type=float, default=10.0)
    args = ap.parse_args()
    fractions = [float(f) for f in args.fractions.split(",")]
    verdicts = []
    for kappa in (int(k) for k in args.kappas.split(",")):
        fits = scan(kappa, fractions, args.seconds)
        for name in dict.fromkeys(name for name, _, _ in fits):
            for bound in (0.0, B_GROWS):
                grows = [f for branch, f, b in fits if branch == name and b > bound]
                where = f"first at {min(grows):g} x the branch" if grows else "at no fraction scanned"
                verdicts.append(f"kappa={kappa} {name}: b > {bound:g} {where}")
        print()
    print("\n".join(verdicts))


if __name__ == "__main__":
    main()
