#!/usr/bin/env python3
"""Two-color magnetization tails against the 2 exp(-eps^2 n) ceiling.

Small sizes use exact inner Gibbs averages over disorder; larger sizes use
Metropolis chains (with a tempering ladder once beta is large).  beta=inf
always routes to the exact ground-state measure.

Usage: python scripts/tail_bound_study.py [--sizes 4,8,12,16]
       [--betas 0,1,4,inf] [--epsilons 0.25,0.5] [--replicas 64]
"""

import argparse
import math

from pottsglass import exact, montecarlo as mc

EXACT_LIMIT = 12  # sites; 2^12 states is still instant to enumerate


def parse_beta(text):
    return math.inf if text.strip().lower() in ("inf", "infinity") else float(text)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--sizes", default="4,8,12,16")
    ap.add_argument("--betas", default="0,1,4,inf")
    ap.add_argument("--epsilons", default="0.25,0.5")
    ap.add_argument("--replicas", type=int, default=64)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    sizes = [int(s) for s in args.sizes.split(",")]
    betas = [parse_beta(b) for b in args.betas.split(",")]
    epsilons = [float(e) for e in args.epsilons.split(",")]

    print(f"{'n':>4} {'beta':>6} {'eps':>5} {'estimate':>10} {'se':>9} {'bound':>9} {'method':>8}")
    for n in sizes:
        for beta in betas:
            if n <= EXACT_LIMIT or math.isinf(beta):
                estimates = exact.tail_probability_exact(
                    n, beta, epsilons, replicas=args.replicas, seed=args.seed
                )
                for eps, est in zip(epsilons, estimates):
                    print(f"{n:>4} {beta:>6} {eps:>5} {est.value:>10.6f} {est.stderr:>9.6f}"
                          f" {est.bound:>9.6f} {'exact':>8}")
                continue
            if beta > 2:
                rungs = [0.5 * k for k in range(int(2 * beta) + 1) if 0.5 * k < beta]
                ladder = tuple(rungs + [beta])
            else:
                ladder = ()
            estimates = mc.estimate_tail(
                n, beta, epsilons, kappa=2, replicas=args.replicas,
                sweeps=1500, burn_in=500, thinning=3, seed=args.seed, ladder=ladder,
            )
            for est in estimates:
                flag = " (slow-mixing flag)" if est.flagged else ""
                print(f"{n:>4} {beta:>6} {est.epsilon:>5} {est.estimate:>10.6f} {est.stderr:>9.6f}"
                      f" {est.bound:>9.6f} {'mc':>8}{flag}")


if __name__ == "__main__":
    main()
