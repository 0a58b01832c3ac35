#!/usr/bin/env python3
"""Run ``rate.exponent_gap`` over a fixed declaration of cases, and compare two runs.

Two case sets are declared here, so that a change to the rate layer is judged
on the same inputs as the one before it:

* ``sweep`` (72 cases): kappa in 3..6; beta in {0.7, 1.0, 1.3} times each of
  ``sqrt(second_moment_coupling_bound(kappa))`` and
  ``high_temperature_threshold(kappa).beta``, duplicates (relative 1e-12)
  removed; delta in {0.005, 0.01, max/4, max/2} with max = (kappa-1)/kappa^2.
* ``kappa3`` (30 cases): kappa = 3, beta in {1, 1.5, 1.835, 2, 2.2, 2.6},
  delta in {0.005, 0.01, 0.05, 0.1, 0.2}.

Every case runs at seed 0 with the default 64 restarts, one at a time in this
process.  ``run`` writes one JSON record with the package version and, per
case, the minimum, ``converged``, ``iterations`` and the wall seconds of the
call.  ``compare`` matches two such records case by case and applies the
rule that no new minimum may exceed the old one by more than 1e-9; it exits 1
when a case breaks it.

Usage: python scripts/rate_sweep.py run --out new.json
       python scripts/rate_sweep.py compare old.json new.json

Run the same script against two checkouts by pointing PYTHONPATH at each
one's ``src``; pin BLAS to one thread (``OPENBLAS_NUM_THREADS=1``) for timings.
"""

import argparse
import json
import math
import sys
import time

import pottsglass
from pottsglass import rate


def sweep_cases():
    cases = []
    for kappa in (3, 4, 5, 6):
        betas = []
        for base in (math.sqrt(rate.second_moment_coupling_bound(kappa)),
                     rate.high_temperature_threshold(kappa).beta):
            for factor in (0.7, 1.0, 1.3):
                beta = factor * base
                if all(abs(beta - b) > 1e-12 * b for b in betas):
                    betas.append(beta)
        top = (kappa - 1) / kappa ** 2
        cases += [(kappa, beta, delta) for beta in betas for delta in (0.005, 0.01, top / 4, top / 2)]
    return cases


def kappa3_cases():
    return [(3, beta, delta) for beta in (1.0, 1.5, 1.835, 2.0, 2.2, 2.6)
            for delta in (0.005, 0.01, 0.05, 0.1, 0.2)]


CASE_SETS = {"sweep": sweep_cases, "kappa3": kappa3_cases}
RULE = 1e-9


def run():
    rows = []
    for name, cases in CASE_SETS.items():
        for kappa, beta, delta in cases():
            start = time.perf_counter()
            res = rate.exponent_gap(kappa, beta, delta, seed=0)
            seconds = time.perf_counter() - start
            rows.append({"set": name, "kappa": kappa, "beta": beta, "delta": delta,
                         "minimum": res.value, "converged": res.converged,
                         "iterations": res.iterations, "seconds": round(seconds, 4)})
            print(f"{name:>6} {kappa} {beta:.6f} {delta:.6g} {res.value:+.17g} "
                  f"{res.converged!s:>5} {seconds:8.3f} s", file=sys.stderr, flush=True)
    return {"version": pottsglass.__version__, "cases": rows}


def compare(old, new):
    """Per case-set summary of ``new`` against ``old`` under the excess rule."""
    key = lambda c: (c["set"], c["kappa"], c["beta"], c["delta"])
    before = {key(c): c for c in old["cases"]}
    summary = {}
    for case in new["cases"]:
        prior = before[key(case)]
        part = summary.setdefault(case["set"], {
            "cases": 0, "largest_excess": -math.inf, "largest_abs_change": 0.0,
            "cases_over_rule": [], "converged": [0, 0], "seconds": [0.0, 0.0],
            "slowest": [None, None]})
        excess = case["minimum"] - prior["minimum"]
        part["cases"] += 1
        part["largest_excess"] = max(part["largest_excess"], excess)
        part["largest_abs_change"] = max(part["largest_abs_change"], abs(excess))
        if excess > RULE:
            part["cases_over_rule"].append(key(case)[1:])
        for side, c in enumerate((prior, case)):
            part["converged"][side] += c["converged"]
            part["seconds"][side] += c["seconds"]
            if part["slowest"][side] is None or c["seconds"] > part["slowest"][side][1]:
                part["slowest"][side] = [key(c)[1:], c["seconds"]]
    for part in summary.values():
        part["seconds"] = [round(s, 2) for s in part["seconds"]]
        part["verdict"] = "passes" if not part["cases_over_rule"] else "fails"
    return {"old_version": old["version"], "new_version": new["version"], "rule": RULE,
            "sets": summary}


def main():
    ap = argparse.ArgumentParser()
    sub = ap.add_subparsers(dest="cmd", required=True)
    p_run = sub.add_parser("run")
    p_run.add_argument("--out", required=True)
    p_cmp = sub.add_parser("compare")
    p_cmp.add_argument("old")
    p_cmp.add_argument("new")
    args = ap.parse_args()

    if args.cmd == "run":
        record = run()
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
        return
    with open(args.old) as fh:
        old = json.load(fh)
    with open(args.new) as fh:
        new = json.load(fh)
    result = compare(old, new)
    print(json.dumps(result, indent=1))
    if any(part["cases_over_rule"] for part in result["sets"].values()):
        raise SystemExit(1)


if __name__ == "__main__":
    main()
