#!/usr/bin/env python3
"""Finite-size trend of the exact quenched balanced free energy (centered
Hamiltonian) against its annealed ceiling and the high-temperature limit.

The quenched mean climbs with n toward the limit; the gap to the finite-n
annealed value (the Jensen gap) is the part the second-moment bound
controls, and the remaining distance to the limit is the balanced-sector
entropy deficit, which closes only as n grows.

Usage: python scripts/free_energy_trend.py [--kappa 3] [--beta 1.0]
       [--sizes 3,6,9,12] [--replicas 200] [--seed 2024]
"""

import argparse
import math

from pottsglass import exact, rate


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--kappa", type=int, default=3)
    ap.add_argument("--beta", type=float, default=1.0)
    ap.add_argument("--sizes", default="3,6,9,12")
    ap.add_argument("--replicas", type=int, default=200)
    ap.add_argument("--seed", type=int, default=2024)
    ap.add_argument("--workers", type=int, default=1)
    args = ap.parse_args()

    sizes = [int(s) for s in args.sizes.split(",")]
    limit = rate.annealed_free_energy_limit(args.kappa, args.beta)
    print(f"kappa={args.kappa} beta={args.beta} replicas={args.replicas}")
    print(f"high-temperature limit: {limit:.6f}")
    print(f"{'n':>4} {'quenched':>10} {'se':>8} {'annealed(n)':>12} {'jensen gap':>11} {'to limit':>9}")
    for n in sizes:
        res = exact.quenched_free_energy(
            n, args.beta, args.kappa, sector="balanced", kind="centered",
            replicas=args.replicas, seed=args.seed, workers=args.workers,
        )
        annealed = exact.annealed_log_partition_balanced(n, args.beta, args.kappa) / n
        print(
            f"{n:>4} {res.mean:>10.6f} {res.stderr:>8.6f} {annealed:>12.6f}"
            f" {annealed - res.mean:>11.6f} {limit - res.mean:>9.6f}"
        )


if __name__ == "__main__":
    main()
