#!/usr/bin/env python3
"""Disorder-averaged exact magnetization tails against n, with their decay rates.

For each (kappa, beta) the script prints the exact Gibbs mass of
``max_a |d_a - 1/kappa| >= eps``, averaged over disorder replicas, at every
size, then the decay rate fitted to ``log tail = c - rate * n`` by least
squares over the sizes where the tail is positive.  kappa = 3 runs at
multiples of the high-temperature threshold ``rate.high_temperature_threshold(3)``
in the 'all' sector (n = 15 has 14.3M states, under the default cap of 20M;
n = 16 has 43.0M and needs ``--cap``, though the engine enumerates only
one half-A row per color orbit, 7.2M pairs);
kappa = 2 runs at beta = 1, 4 and inf and sets the fitted rate beside the
rate eps^2 of the ceiling ``2 exp(-eps^2 n)``.  Every value is exact: the
inner sums use the split-half engine of :mod:`pottsglass.exact`.

Usage: python scripts/color_symmetry_scan.py [--replicas 16] [--seed 0]
       [--sizes3 3..15] [--sizes2 4..24] [--eps3 0.2] [--eps2 0.25] [--cap 20000000]
"""

import argparse
import math

import numpy as np

from pottsglass import exact, rate


def parse_sizes(text):
    lo, _, hi = text.partition("..")
    return list(range(int(lo), int(hi) + 1)) if hi else [int(s) for s in text.split(",")]


def scan(kappa, betas, sizes, eps, replicas, seed, cap):
    """Print one row per (beta, n) and one fitted rate per beta; return the rates."""
    rates = {}
    for beta in betas:
        ns, logs = [], []
        for n in sizes:
            est = exact.tail_probability_exact(n, beta, eps, replicas=replicas, seed=seed, kappa=kappa, cap=cap)
            bound = math.inf if est.bound is None else est.bound  # no closed-form ceiling at kappa >= 3
            print(f"{kappa:>5} {beta:>8.4f} {n:>4} {eps:>5} {est.value:>12.6e} {est.stderr:>10.3e}"
                  f" {bound:>10.4f}")
            if est.value > 0:
                ns.append(n)
                logs.append(math.log(est.value))
        rates[beta] = -np.polyfit(ns, logs, 1)[0] if len(ns) > 1 else math.nan
    return rates


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--replicas", type=int, default=16)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--sizes3", default="3..15")
    ap.add_argument("--sizes2", default="4..24")
    ap.add_argument("--eps3", type=float, default=0.2)
    ap.add_argument("--eps2", type=float, default=0.25)
    ap.add_argument("--cap", type=int, default=exact.DEFAULT_CAP, help="largest sector, in states")
    args = ap.parse_args()

    beta3 = rate.high_temperature_threshold(3).beta
    print(f"{'kappa':>5} {'beta':>8} {'n':>4} {'eps':>5} {'tail':>12} {'stderr':>10} {'bound':>10}")
    rates3 = scan(3, [f * beta3 for f in (0.5, 1.0, 1.5)], parse_sizes(args.sizes3), args.eps3,
                  args.replicas, args.seed, args.cap)
    rates2 = scan(2, [1.0, 4.0, math.inf], parse_sizes(args.sizes2), args.eps2, args.replicas, args.seed, args.cap)
    print()
    print(f"fitted decay rates (log tail ~ c - rate n); kappa = 3 threshold beta_3 = {beta3:.4f}")
    for beta, r in rates3.items():
        print(f"  kappa=3 beta={beta:.4f} ({beta / beta3:.1f} beta_3) eps={args.eps3}: rate {r:.4f}")
    for beta, r in rates2.items():
        print(f"  kappa=2 beta={beta} eps={args.eps2}: rate {r:.4f} vs ceiling rate eps^2 = {args.eps2 ** 2:.4f}")


if __name__ == "__main__":
    main()
