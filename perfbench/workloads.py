"""Job lists of the four benchmark workloads.

Each job is one ``pottsglass`` CLI invocation, named so that its output file
and its reference file share a stem.  ``argv`` omits ``--seed``,
``--workers`` and ``--out``; :func:`job_argv` appends them, so every job gets
the workload seed and a single worker.  ``seedless`` marks jobs whose result
rows do not depend on ``--seed``: their rows are compared against the
reference for every seed, not just the default one.  ``trajectory`` marks
jobs whose rows follow a seeded trajectory (Monte Carlo chains,
random-restart descent), which a deliberate, versioned change may alter.

Why each workload exists is documented in ``perfbench/README.md``.
"""

from __future__ import annotations

from typing import NamedTuple


class Job(NamedTuple):
    name: str
    argv: tuple[str, ...]
    seedless: bool = False
    trajectory: bool = False


def _ns(*values: int) -> str:
    return ",".join(str(v) for v in values)


WORKLOADS: dict[str, tuple[Job, ...]] = {
    "enum-large": (
        Job("efe-k3-n15-balanced",
            ("exact-free-energy", "--kappa", "3", "--n", "15", "--sector", "balanced",
             "--replicas", "2")),
        Job("efe-k3-n13-all-raw",
            ("exact-free-energy", "--kappa", "3", "--n", "13", "--sector", "all",
             "--kind", "raw", "--replicas", "2")),
        Job("gauge-n16",
            ("gauge-check", "--n", "16", "--beta", "1", "--trials", "3")),
    ),
    "enum-many": (
        Job("efe-k3-n3-6-9-balanced",
            ("exact-free-energy", "--kappa", "3", "--n", "3,6,9", "--beta", "1.0",
             "--sector", "balanced", "--replicas", "400")),
        Job("gauge-n8",
            ("gauge-check", "--n", "8", "--beta", "1", "--trials", "3000")),
        Job("moment-n4-8-12",
            ("moment-check", "--n", "4,8,12", "--beta", "1", "--m", "1,2,4",
             "--replicas", "400")),
    ),
    "mc-chains": (
        Job("tail-k2-n8-ladder",
            ("tail-bound", "--kappa", "2", "--n", "8", "--beta", "4", "--epsilon", "0.25,0.5",
             "--ladder", "0,1,2,3,4", "--replicas", "8"), trajectory=True),
        Job("mcfe-k3-n12-balanced",
            ("mc-free-energy", "--kappa", "3", "--n", "12", "--sector", "balanced",
             "--sweeps", "1000", "--burn-in", "250"), trajectory=True),
        Job("tail-k3-n256",
            ("tail-bound", "--kappa", "3", "--n", "256", "--beta", "0.5",
             "--epsilon", "0.02,0.04", "--replicas", "2", "--sweeps", "400",
             "--burn-in", "100"), trajectory=True),
    ),
    "tables-rate": (
        Job("thresholds", ("thresholds", "--kappa-max", "100"), seedless=True),
        Job("second-moment-k3",
            ("second-moment", "--kappa", "3", "--n", _ns(*range(3, 31, 3)), "--beta", "1.0"),
            seedless=True),
        Job("second-moment-k4",
            ("second-moment", "--kappa", "4", "--n", _ns(*range(4, 21, 4)), "--beta", "1.0"),
            seedless=True),
        Job("uncentered-k3",
            ("uncentered-ratio", "--kappa", "3", "--n", _ns(*range(3, 25, 3)), "--beta", "1.0"),
            seedless=True),
        Job("uncentered-k4",
            ("uncentered-ratio", "--kappa", "4", "--n", "4,8", "--beta", "1.0"),
            seedless=True),
        Job("rate-gap-k3",
            ("rate-gap", "--kappa", "3", "--beta", "1.835", "--delta", "0.01"), trajectory=True),
        Job("rate-gap-k4",
            ("rate-gap", "--kappa", "4", "--beta", "2.2", "--delta", "0.01"), trajectory=True),
        Job("kl-check", ("kl-check", "--trials", "40000")),
        Job("ldp-k2", ("ldp-check", "--kappa", "2", "--n", "4,8,16,32,64"), seedless=True),
        Job("shell-count-k3",
            ("shell-count", "--kappa", "3", "--n", _ns(*range(6, 25, 3))), seedless=True),
    ),
}


def job_argv(job: Job, seed: int, out: str) -> list[str]:
    return [*job.argv, "--seed", str(seed), "--workers", "1", "--out", out]
