"""Declarative experiment descriptions shared by the CLI and the engines.

An :class:`ExperimentSpec` captures everything a run needs -- sizes,
temperatures, sector, Hamiltonian kind, seeds, replica counts, chain
parameters, and output routing -- and is serialized verbatim into every
output file header so results can be re-derived from the file alone.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import asdict, dataclass, fields

import numpy as np

from .core import EnumerationCapError, count_configs
from .exact import DEFAULT_CAP, _check_shells, _row_pairs
from .montecarlo import MAX_RUNGS

__all__ = ["ExperimentSpec", "ValidationError"]


class ValidationError(ValueError):
    """The spec fails a structural constraint before any computation runs."""


# Commands whose engines define beta = inf (the uniform measure on maximizers).
_INFINITE_BETA_COMMANDS = ("gauge-check", "moment-check", "tail-bound")


@dataclass(frozen=True)
class ExperimentSpec:
    command: str
    kappa: int = 3
    n: tuple[int, ...] = (6,)
    beta: tuple[float, ...] = (1.0,)
    sector: str = "all"
    kind: str = "centered"
    seed: int = 0
    replicas: int = 8
    sweeps: int = 2000
    burn_in: int = 1000
    thinning: int = 10
    ladder: tuple[float, ...] = ()
    epsilon: tuple[float, ...] = ()
    moments: tuple[int, ...] = ()
    delta: float = 0.01
    trials: int = 1000
    n_grid: int = 13
    beta_max: float = 1.0
    kappa_max: int = 100
    cap: int = DEFAULT_CAP
    workers: int = 1
    out: str | None = None
    fmt: str = "csv"

    def __post_init__(self):
        for f in fields(self):  # a list field may arrive as a list (JSON), a tuple or one number
            to_tuple = _TUPLES.get(str(f.type))
            if to_tuple is not None:
                object.__setattr__(self, f.name, to_tuple(getattr(self, f.name)))

    @property
    def moment_orders(self) -> tuple[int, ...]:
        """The moment orders ``moment-check`` runs: ``moments``, or (1, 2) when empty."""
        return self.moments or (1, 2)

    def validate(self) -> None:
        """Raise :class:`ValidationError` on the first failed constraint."""
        if self.kappa < 2:
            raise ValidationError(f"kappa must be >= 2, got {self.kappa}")
        for name in ("beta", "ladder", "epsilon", "delta", "beta_max"):
            value = getattr(self, name)
            values = value if isinstance(value, tuple) else (value,)
            if any(math.isnan(v) or v == -math.inf for v in values):
                raise ValidationError(f"{name} must be finite or inf, got {value}")
            if name != "delta" and any(v < 0 for v in values):  # rate-gap checks delta's own range below
                raise ValidationError(f"{name} must be nonnegative, got {value}")
            if (name in ("beta", "beta_max") and self.command not in _INFINITE_BETA_COMMANDS
                    and math.inf in values):
                raise ValidationError(f"{name} must be finite for {self.command}, got {value}")
        if any(n < 1 for n in self.n):
            raise ValidationError(f"sizes must be positive, got {self.n}")
        if self.sector not in ("all", "balanced"):
            raise ValidationError(f"sector must be 'all' or 'balanced', got {self.sector!r}")
        if self.command == "tail-bound" and self.sector != "all":
            raise ValidationError(f"tail-bound runs the 'all' sector, got {self.sector!r}")
        if self.kind not in ("raw", "centered"):
            raise ValidationError(f"kind must be 'raw' or 'centered', got {self.kind!r}")
        if self.fmt not in ("csv", "json"):
            raise ValidationError(f"format must be 'csv' or 'json', got {self.fmt!r}")
        # kappa | n for a balanced sector, which second-moment and shell-count always use;
        # kappa^2 | n for the uniform table of ldp-check
        divisor = {"second-moment": self.kappa, "shell-count": self.kappa, "ldp-check": self.kappa ** 2}.get(
            self.command, self.kappa if self.sector == "balanced" else 1)
        for n in self.n:
            if n % divisor:
                raise ValidationError(f"{self.command} needs {divisor} | n (kappa={self.kappa}), got n={n}")
        if self.ladder and list(self.ladder) != sorted(self.ladder):
            raise ValidationError("ladder betas must be nondecreasing")
        if len(self.ladder) == 1:
            raise ValidationError("a tempering ladder needs at least 2 rungs")
        rungs = self.n_grid if self.command == "mc-free-energy" else len(self.ladder)  # the TI grid is a ladder
        if rungs > MAX_RUNGS:
            raise ValidationError(f"a tempering ladder has at most {MAX_RUNGS} rungs, got {rungs}")
        if self.ladder and math.inf in self.beta:
            raise ValidationError(f"a ladder needs every beta finite (beta = inf is exact), got {self.beta}")
        if self.ladder and any(b != self.ladder[-1] for b in self.beta):
            raise ValidationError(f"the ladder must end at beta: top {self.ladder[-1]}, beta {self.beta}")
        if self.command == "gauge-check" and (len(self.n) != 1 or len(self.beta) != 1):
            raise ValidationError(f"gauge-check takes one size and one beta, got n={self.n}, beta={self.beta}")
        if not 0 <= self.seed < 1 << 64:
            raise ValidationError(f"seed must lie in [0, 2^64), got {self.seed}")
        if self.workers < 1:
            raise ValidationError("workers must be >= 1")
        if self.trials < 1:
            raise ValidationError(f"trials must be >= 1, got {self.trials}")
        if self.kappa_max < 3:
            raise ValidationError(f"kappa_max must be >= 3, got {self.kappa_max}")
        if self.replicas < 1:
            raise ValidationError("replicas must be >= 1")
        if self.command == "exact-free-energy" and self.replicas < 2:
            raise ValidationError("quenched averaging needs replicas >= 2")
        if any(m < 1 for m in self.moments):
            raise ValidationError(f"moment orders must be >= 1, got {self.moments}")
        even = any(m % 2 == 0 for m in self.moment_orders)
        if self.command == "moment-check" and self.replicas < 2 and even:
            raise ValidationError("even moments need replicas >= 2")
        min_sweeps = 2 if self.command == "mc-free-energy" else 1  # a TI stderr needs 2 batches
        if self.sweeps < min_sweeps:
            raise ValidationError(f"sweeps must be >= {min_sweeps}, got {self.sweeps}")
        if self.thinning < 1 or self.burn_in < 0:
            raise ValidationError(f"need thinning >= 1 and burn_in >= 0, got {self.thinning}, {self.burn_in}")
        if self.command == "mc-free-energy" and self.n_grid < 8:
            raise ValidationError(f"thermodynamic integration needs n_grid >= 8, got {self.n_grid}")
        if self.command == "rate-gap" and not 0.0 < self.delta <= (self.kappa - 1) / self.kappa ** 2 + 1e-15:
            raise ValidationError(f"delta must lie in (0, (kappa-1)/kappa^2] for kappa={self.kappa}, got {self.delta}")
        sector = {  # (kappa, sector) that each size enumerates, for the commands that enumerate
            "exact-free-energy": (self.kappa, self.sector),
            "gauge-check": (2, "all"),
            "moment-check": (2, "all") if even else None,
            "tail-bound": (self.kappa, "all") if math.inf in self.beta else None,
        }.get(self.command)
        for n in self.n:  # each engine's own closed-form refusals: sector states, row-recursion pairs and keys, shells
            if sector is not None and self.exceeds_cap(n, *sector):
                raise ValidationError(f"the sector at n={n} has more states than the enumeration cap {self.cap}")
            try:
                if self.command == "second-moment":
                    _row_pairs(n, self.kappa, "balanced", DEFAULT_CAP)
                elif self.command == "uncentered-ratio":
                    _row_pairs(n, self.kappa, self.sector, self.cap)
                elif self.command == "shell-count":
                    _check_shells(n, self.kappa)
            except EnumerationCapError as err:
                raise ValidationError(f"{self.command} at n={n}: {err}") from None

    def exceeds_cap(self, n: int, kappa: int, sector: str) -> bool:
        """Whether the sector has more than ``cap`` configurations; an 'all' or balanced
        sector has at least ``2^(n // 2)``, so a size far beyond the cap is never computed."""
        return n // 2 >= self.cap.bit_length() or count_configs(n, kappa, sector) > self.cap

    def to_json(self) -> str:
        """Canonical JSON of the experiment content.

        ``out`` and ``workers`` are routing/execution knobs, not experiment
        parameters; they are excluded so identical experiments produce
        byte-identical files regardless of sink path or parallelism.
        """
        payload = asdict(self)
        del payload["out"], payload["workers"]
        return json.dumps(payload, sort_keys=True)


def _int_tuple(value) -> tuple[int, ...]:
    if value is None:
        return ()
    if np.ndim(value) == 0:  # one number, which must be an integer (Python or numpy)
        return (operator.index(value),)
    return tuple(int(v) for v in value)


def _float_tuple(value) -> tuple[float, ...]:
    if value is None:
        return ()
    if np.ndim(value) == 0 and not isinstance(value, (bool, np.bool_)):
        return (float(value),)
    return tuple(float(v) for v in value)


_TUPLES = {"tuple[int, ...]": _int_tuple, "tuple[float, ...]": _float_tuple}  # annotation -> converter
