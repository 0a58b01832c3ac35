"""Correctness checks on a job's output file, made after the timed region.

Two kinds of check:

* Reference rows, recorded at the default seed and stored under
  ``perfbench/reference/<workload>/<job>.csv``.  Integer cells must match
  exactly; other numbers within a relative tolerance of 1e-9 (with an
  absolute floor of 1e-12 for values that are zero in exact arithmetic),
  which allows summation-order changes.  Jobs that follow a seeded
  trajectory (Monte Carlo chains, random-restart descent) are compared only
  while the output's tool version equals the reference's: a deliberate
  trajectory change must bump the version, and is then held to the
  seed-free identities alone.
* Seed-free identities, for every seed (see :func:`identity_problems`).

The Monte Carlo tolerances were set from the seed code over seeds 0-40 (see
``perfbench/README.md``): the largest |ti_value - exact_value| seen was
1.66 (stderr + quad_error), the largest |tail - exact tail| 0.0141.
"""

from __future__ import annotations

import functools
import json
import math
from typing import NamedTuple

REL_TOL = 1e-9
ABS_TOL = 1e-12
GAUGE_TOL = 1e-12
TI_TOL_ERRORS = 4.0  # multiples of stderr + quad_error
LADDER_TAIL_TOL = 0.03  # absolute, on a probability


class Table(NamedTuple):
    version: str
    spec: dict
    header: list[str]
    rows: list[list[str]]


def read_table(path: str) -> Table:
    version, spec, lines = "", {}, []
    with open(path) as fh:
        for line in fh.read().splitlines():
            if line.startswith("# pottsglass "):
                version = line[len("# pottsglass "):]
            elif line.startswith("# spec: "):
                spec = json.loads(line[len("# spec: "):])
            elif line and not line.startswith("#"):
                lines.append(line.split(","))
    if not lines:
        raise ValueError("no header row")
    return Table(version, spec, lines[0], lines[1:])


def _number(cell: str):
    try:
        return int(cell)
    except ValueError:
        pass
    try:
        return float(cell)
    except ValueError:
        return None


def _cells_match(out: str, ref: str) -> bool:
    a, b = _number(out), _number(ref)
    if a is None or b is None:
        return out == ref
    if isinstance(a, int) and isinstance(b, int):
        return a == b
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def row_problems(out: Table, ref: Table) -> list[str]:
    if out.header != ref.header:
        return [f"header {out.header} != reference {ref.header}"]
    if len(out.rows) != len(ref.rows):
        return [f"{len(out.rows)} rows, reference has {len(ref.rows)}"]
    problems = []
    for idx, (row, ref_row) in enumerate(zip(out.rows, ref.rows)):
        for col, a, b in zip(out.header, row, ref_row):
            if not _cells_match(a, b):
                problems.append(f"row {idx} {col}: {a} != reference {b}")
    return problems[:5]


@functools.lru_cache(maxsize=None)
def _exact_tail(n: int, beta: float, epsilon: float, replicas: int, seed: int) -> float:
    from pottsglass import exact

    return exact.tail_probability_exact(n, beta, epsilon, replicas=replicas, seed=seed).value


def identity_problems(table: Table) -> list[str]:
    """Checks that hold for any seed, read from the table and its spec header."""
    problems = []
    records = [dict(zip(table.header, row)) for row in table.rows]
    if not records:
        problems.append("no result rows")
    for rec in records:
        if any(cell.lower() == "nan" for cell in rec.values()):
            problems.append(f"NaN in row {rec}")
    command = table.spec.get("command")
    if command == "gauge-check":
        worst = max((abs(float(r["pair_sum"])) for r in records), default=0.0)
        if worst > GAUGE_TOL:
            problems.append(f"gauge |pair_sum| {worst:.3e} > {GAUGE_TOL}")
        if len(records) != table.spec["trials"]:
            problems.append(f"{len(records)} gauge rows for {table.spec['trials']} trials")
    elif command == "moment-check":
        for r in records:
            if int(r["m"]) % 2 == 1 and (float(r["estimate"]) != 0.0 or float(r["stderr"]) != 0.0):
                problems.append(f"odd moment not exactly 0: {r}")
    elif command == "kl-check":
        if int(records[0]["violations"]) != 0 or int(records[0]["checked"]) == 0:
            problems.append(f"kl-check: {records[0]}")
    elif command == "exact-free-energy":
        expected = table.spec["replicas"] * len(table.spec["n"]) * len(table.spec["beta"])
        if len(records) != expected:
            problems.append(f"{len(records)} free-energy rows, expected {expected}")
    elif command == "mc-free-energy":
        for r in records:
            gap = abs(float(r["ti_value"]) - float(r["exact_value"]))
            allowed = TI_TOL_ERRORS * (float(r["stderr"]) + float(r["quad_error"]))
            if not gap <= allowed:
                problems.append(f"TI value off the exact value by {gap:.3e} > {allowed:.3e}")
    elif command == "tail-bound" and table.spec["kappa"] == 2:
        spec = table.spec
        for r in records:
            exact_value = _exact_tail(int(r["n"]), float(r["beta"]), float(r["epsilon"]),
                                      spec["replicas"], spec["seed"])
            gap = abs(float(r["estimate"]) - exact_value)
            if not gap <= LADDER_TAIL_TOL:
                problems.append(
                    f"tail at eps={r['epsilon']}: {r['estimate']} vs exact {exact_value:.4f}")
    return problems
