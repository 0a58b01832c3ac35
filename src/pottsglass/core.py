"""Configurations, quenched disorder, Hamiltonians, and overlap machinery.

Conventions used throughout the package:

* Colors are 1-based integers ``1..kappa``; site indices are 0-based.
* The Hamiltonian double sum runs over *all* ordered pairs ``(i, j)``,
  including the diagonal ``i == j``.  Many spin-glass codes drop the
  diagonal; here it is kept.
* Sector and overlap counts are exact integers over ``n``; floating
  point enters only at the energy/covariance layer.
* :func:`hamiltonian_raw` sums one configuration's energy by a mask gather and
  one numpy sum, never BLAS, so a configuration and its color images get
  bit-identical energies.  The Monte Carlo chains take their energies from it.
* All types are immutable after construction and safe to share across
  threads.

Randomness: coupling matrices come from the counter-based Philox bit
generator keyed with ``(seed, stream)``.  Each matrix entry is a 53-bit
uniform pushed through the inverse normal CDF, so a matrix is reproducible
bit-for-bit across platforms from ``(n, seed, stream)``.  Streams are
namespaced by purpose: disorder replica ``r`` uses stream ``r``, Monte Carlo
chain ``c`` uses ``CHAIN_NAMESPACE | c``, optimizer restart ``i`` uses
``RESTART_NAMESPACE | i``.
"""

from __future__ import annotations

import math
import os
import tempfile
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable

import numpy as np
from scipy.special import ndtri

__all__ = [
    "CHAIN_NAMESPACE",
    "RESTART_NAMESPACE",
    "TEMPER_NAMESPACE",
    "DimensionMismatchError",
    "DivisibilityError",
    "EnumerationCapError",
    "SectorError",
    "SpinConfig",
    "CouplingMatrix",
    "OverlapMatrix",
    "philox_generator",
    "map_replicas",
    "mean_stderr",
    "write_atomic",
    "hamiltonian_raw",
    "centering_shift",
    "overlap",
    "covariance_raw",
    "covariance_centered",
    "sector_counts",
    "count_configs",
    "max_deviation",
]

_MASK64 = (1 << 64) - 1

# Stream namespaces for the seed-splitting rule (see module docstring).
CHAIN_NAMESPACE = 1 << 32
RESTART_NAMESPACE = 2 << 32
TEMPER_NAMESPACE = 3 << 32


class DimensionMismatchError(ValueError):
    """Configuration and coupling matrix sizes disagree."""


class DivisibilityError(ValueError):
    """A sector constraint requires a divisibility condition that fails."""


class EnumerationCapError(RuntimeError):
    """An exact enumeration would exceed the configured state cap."""


class SectorError(ValueError):
    """An operation was asked to run on a sector it does not support."""


def philox_generator(seed: int, stream: int = 0) -> np.random.Generator:
    """Deterministic generator for the given (seed, stream) pair."""
    key = np.array([seed & _MASK64, stream & _MASK64], dtype=np.uint64)  # a list would cast keys >= 2^63 via float64
    return np.random.Generator(np.random.Philox(key=key))


_DRAWS = threading.local()  # the thread's generator, re-keyed per stream: cheaper than a new one, same numbers


def _standard_normal(n: int, seed: int, streams) -> np.ndarray:
    """The one draw route: read-only ``(len(streams), n, n)`` couplings, row ``r`` the platform-stable normals
    ``ndtri((integers(0, 2**53) + 0.5) * 2**-53)`` of a fresh ``philox_generator(seed, streams[r])``, drawn
    into one buffer and converted at once.  ``random()`` is ``(random_raw() >> 11) * 2**-53``, and the shift
    is what ``integers(0, 2**53)`` returns (Lemire's method rejects nothing at a power-of-two range)."""
    if not hasattr(_DRAWS, "rng"):
        _DRAWS.rng = philox_generator(0)
    rng, zeros, g = _DRAWS.rng, np.zeros(4, dtype=np.uint64), np.empty((len(streams), n, n))
    for r, stream in enumerate(streams):  # counter 0, the stream's key, an empty buffer
        key = np.array([seed & _MASK64, stream & _MASK64], dtype=np.uint64)
        rng.bit_generator.state = {"bit_generator": "Philox", "state": {"counter": zeros, "key": key},
                                   "buffer": zeros, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        rng.random(out=g[r])
    g += 2.0 ** -54  # k 2^-53 + 2^-54 rounds as (k + 0.5) 2^-53: scaling by a power of two is exact
    ndtri(g, out=g)  # elementwise, in place: one buffer per stack
    g.setflags(write=False)
    return g


def _gauge_flip(g: np.ndarray, sites) -> np.ndarray:
    """The one flip route: each ``g[r]`` of a stack times ``f[:, None] * f[None, :]``, ``f`` -1 at ``sites[r]`` and 1
    elsewhere (exact), so every coupling incident to the site flips sign and its diagonal entry is kept."""
    f = np.where(np.arange(g.shape[-1]) == np.asarray(sites)[:, None], -1.0, 1.0)
    return g * f[:, :, None] * f[:, None, :]


@dataclass(frozen=True, eq=False)
class SpinConfig:
    """An assignment of one of ``kappa`` colors to each of ``n`` sites."""

    colors: np.ndarray
    kappa: int

    def __post_init__(self):
        arr = np.ascontiguousarray(self.colors, dtype=np.int64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("colors must be a non-empty 1-d sequence")
        if self.kappa < 2:
            raise ValueError(f"kappa must be >= 2, got {self.kappa}")
        if arr.min() < 1 or arr.max() > self.kappa:
            raise ValueError(f"colors must lie in [1, {self.kappa}]")
        arr.setflags(write=False)
        object.__setattr__(self, "colors", arr)

    @property
    def n(self) -> int:
        return int(self.colors.size)


@dataclass(frozen=True, eq=False)
class CouplingMatrix:
    """The n-by-n quenched Gaussian disorder with its seed provenance.

    ``seed``/``stream`` are ``None`` for derived matrices (e.g. gauge flips)
    that were not drawn directly from the generator.
    """

    g: np.ndarray
    seed: int | None = None
    stream: int | None = None

    def __post_init__(self):
        arr = np.ascontiguousarray(self.g, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("coupling matrix must be square")
        arr.setflags(write=False)
        object.__setattr__(self, "g", arr)

    @classmethod
    def from_seed(cls, n: int, seed: int, stream: int = 0) -> "CouplingMatrix":
        return cls(_standard_normal(n, seed, (stream,))[0], seed=seed, stream=stream)  # a stack of one: same bytes

    @property
    def n(self) -> int:
        return int(self.g.shape[0])

    @cached_property
    def sym(self) -> np.ndarray:
        """The symmetrized couplings ``g + g^T`` (read-only), computed once per matrix."""
        s = self.g + self.g.T
        s.setflags(write=False)
        return s


def map_replicas(fn: Callable, n: int, seed: int, replicas: int, workers: int = 1, stack: int = 1) -> list:
    """``fn`` over the couplings ``g_r = CouplingMatrix.from_seed(n, seed, r)``, ``r < replicas``.

    Every disorder loop runs through here: replica ``r`` uses stream ``r``
    (``g_r.stream``) and results come back in index order for any
    ``workers``.  ``fn`` maps the list of couplings of the replicas
    ``[s, s + stack)``, s a multiple of ``stack``, drawn just before the call
    as one :func:`_standard_normal` stack (each ``g_r`` a read-only view of
    its row, bitwise ``from_seed``), to the list of their results.  A process
    pool gets one run of stacks per worker, so ``fn`` (which must then pickle) is sent once per worker.
    """
    task, starts = partial(_draw_stack, fn, n, seed, stack, replicas), range(0, replicas, stack)
    if workers > 1 and len(starts) > 1:
        with ProcessPoolExecutor(min(workers, len(starts))) as ex:
            return [x for part in ex.map(task, starts, chunksize=-(-len(starts) // workers)) for x in part]
    return [x for start in starts for x in task(start)]


def _draw_stack(fn: Callable, n: int, seed: int, stack: int, replicas: int, start: int) -> list:
    streams = range(start, min(start + stack, replicas))
    return fn([CouplingMatrix(g, seed=seed, stream=r) for g, r in zip(_standard_normal(n, seed, streams), streams)])


def mean_stderr(values) -> tuple[float, float]:
    """Sample mean and standard error ``std(ddof=1) / sqrt(R)``; stderr 0 for one value."""
    vals = np.asarray(values, dtype=np.float64)
    se = float(vals.std(ddof=1) / math.sqrt(vals.size)) if vals.size > 1 else 0.0
    return float(vals.mean()), se


def write_atomic(path: str, text: str) -> None:
    """Write ``text`` to ``path`` through a temp file in the same directory and a rename,
    so readers never see a partial file; missing directories are created."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@dataclass(frozen=True, eq=False)
class OverlapMatrix:
    """Joint color counts of two configurations, exact integers over ``n``."""

    counts: np.ndarray
    n: int

    def __post_init__(self):
        arr = np.ascontiguousarray(self.counts, dtype=np.int64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("overlap counts must be square")
        if arr.min() < 0 or int(arr.sum()) != self.n:
            raise ValueError("overlap counts must be nonnegative and sum to n")
        arr.setflags(write=False)
        object.__setattr__(self, "counts", arr)

    def asarray(self) -> np.ndarray:
        return self.counts / self.n


def _check_pair(sigma: SpinConfig, g: CouplingMatrix) -> None:
    if sigma.n != g.n:
        raise DimensionMismatchError(f"config has {sigma.n} sites, coupling is {g.n}x{g.n}")


def hamiltonian_raw(sigma: SpinConfig, g: CouplingMatrix) -> float:
    """Energy ``n^{-1/2} sum_{i,j} g_ij 1{sigma_i = sigma_j}`` (diagonal included)."""
    _check_pair(sigma, g)
    c = sigma.colors
    mask = c[:, None] == c[None, :]
    return float(g.g[mask].sum() / math.sqrt(sigma.n))


def centering_shift(g: CouplingMatrix, kappa: int) -> float:
    """The configuration-independent shift ``n^{-1/2} kappa^{-1} sum_{i,j} g_ij``."""
    return float(g.g.sum() / (kappa * math.sqrt(g.n)))


def overlap(sigma: SpinConfig, tau: SpinConfig) -> OverlapMatrix:
    """Joint color-count matrix; row sums are sigma's counts, columns tau's."""
    if sigma.n != tau.n or sigma.kappa != tau.kappa:
        raise DimensionMismatchError("configs must share n and kappa")
    k = sigma.kappa
    codes = (sigma.colors - 1) * k + (tau.colors - 1)
    counts = np.bincount(codes, minlength=k * k).reshape(k, k)
    return OverlapMatrix(counts, sigma.n)


def covariance_raw(sigma: SpinConfig, tau: SpinConfig) -> float:
    """Hamiltonian covariance ``n * ||R(sigma, tau)||_F^2`` (deterministic)."""
    r = overlap(sigma, tau)
    return float((r.counts.astype(np.float64) ** 2).sum() / sigma.n)


def covariance_centered(sigma: SpinConfig, tau: SpinConfig) -> float:
    """Centered-Hamiltonian covariance ``n * ||P R P||_F^2``."""
    r = overlap(sigma, tau).asarray()
    k = sigma.kappa
    p = np.eye(k) - np.full((k, k), 1.0 / k)  # projection onto the complement of the all-ones direction
    m = p @ r @ p
    return float(sigma.n * (m ** 2).sum())


def sector_counts(n: int, kappa: int, sector: str) -> np.ndarray | None:
    """Per-color counts of a sector: None for ``"all"``, ``n / kappa`` each for ``"balanced"``."""
    if not isinstance(sector, str) or sector not in ("all", "balanced"):  # an array would compare elementwise
        raise SectorError(f"sector must be 'all' or 'balanced', got {sector!r}")
    if sector == "all":
        return None
    if n % kappa != 0:
        raise DivisibilityError(f"balanced sector needs kappa | n, got n={n}, kappa={kappa}")
    return np.full(kappa, n // kappa, dtype=np.int64)


def count_configs(n: int, kappa: int, sector: str = "all") -> int:
    """Exact cardinality of a sector, without enumerating it."""
    if sector_counts(n, kappa, sector) is None:
        return kappa ** n
    return math.factorial(n) // math.factorial(n // kappa) ** kappa


def _lex_extend(choices: np.ndarray, budget, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Every sequence of ``steps`` rows of ``choices`` whose sum fits under ``budget``.

    Each prefix is extended by every choice that still fits its remaining
    budget; row-major ``nonzero`` visits prefixes in order and choices
    ascending, so the sequences come out in lexicographic order of choice
    index (Knuth, TAOCP 7.2.1.2).  Returns ``(picks, left)``: the choice
    indices of each sequence, ``(count, steps)``, and its remaining budget.
    """
    picks = np.empty((1, 0), dtype=np.min_scalar_type(len(choices)))
    left = np.asarray(budget, dtype=np.int64)[None]
    for _ in range(steps):
        rows, pick = np.nonzero((choices <= left[:, None]).all(axis=2))
        picks = np.hstack((picks[rows], pick.astype(picks.dtype)[:, None]))
        left = left[rows] - choices[pick]
    return picks, left


def max_deviation(fractions: np.ndarray):
    """``max_a |d_a - 1/kappa|`` of color fractions ``d`` of shape ``(..., kappa)``."""
    return np.abs(fractions - 1.0 / fractions.shape[-1]).max(axis=-1)
