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
uniform pushed through the inverse normal CDF (a numpy port of Cephes
``ndtri``, equal to ``scipy.special.ndtri`` bit for bit), so a matrix is
reproducible bit-for-bit across platforms from ``(n, seed, stream)``.  Streams are
namespaced by purpose: disorder replica ``r`` uses stream ``r``, Monte Carlo
chain ``c`` uses ``CHAIN_NAMESPACE | c``, optimizer restart ``i`` uses
``RESTART_NAMESPACE | i``.
"""

from __future__ import annotations

import math
import os
import tempfile
import threading
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np
# numpy loads these two lazily, on the first np.unique and the first draw; most commands reach both, so they load
# with the package instead of inside a command
import numpy.ma  # noqa: F401
import numpy.random  # noqa: F401

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


def _libm_log(x) -> np.ndarray:
    """``np.log`` of a 1-d array through the C library's scalar ``log``, as Cephes calls it.  numpy's SIMD log
    (AVX-512) rounds some inputs differently; it takes strides of one sign only (a pair of negative ones is flipped
    to positive), so a forward contiguous input (``ascontiguousarray`` undoes a reversed view) goes into a reversed
    output."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    out = np.empty(x.shape)[::-1]
    np.log(x, out=out)
    return out


def _polevl(x, coef):
    """Cephes ``polevl``: Horner's rule from ``coef[0] * x + coef[1]``, highest power first."""
    ans = coef[0] * x + coef[1]
    for c in coef[2:]:
        ans *= x
        ans += c
    return ans


def _p1evl(x, coef):
    """Cephes ``p1evl``: ``polevl`` with an implied leading coefficient 1, so it starts at ``x + coef[0]``."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans *= x
        ans += c
    return ans


# Cephes ndtri (Moshier 1989, Methods and Programs for Mathematical Functions), the routine behind
# scipy.special.ndtri: a rational approximation in y - 1/2 for exp(-2) < y <= 1 - exp(-2), and in 1/x with
# x = sqrt(-2 log y) on the tails, (P1, Q1) for x < 8 and (P2, Q2) beyond
_EXP_M2 = 0.13533528323661269189
_S2PI = 2.50662827463100050242
_NDTRI_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1, -5.66762857469070293439E1,
             1.39312609387279679503E1, -1.23916583867381258016E0)
_NDTRI_Q0 = (1.95448858338141759834E0, 4.67627912898881538453E0, 8.63602421390890590575E1,
             -2.25462687854119370527E2, 2.00260212380060660359E2, -8.20372256168333339912E1,
             1.59056225126211695515E1, -1.18331621121330003142E0)
_NDTRI_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1, 5.71628192246421288162E1,
             4.40805073893200834700E1, 1.46849561928858024014E1, 2.18663306850790267539E0,
             -1.40256079171354495875E-1, -3.50424626827848203418E-2, -8.57456785154685413611E-4)
_NDTRI_Q1 = (1.57799883256466749731E1, 4.53907635128879210584E1, 4.13172038254672030440E1,
             1.50425385692907503408E1, 2.50464946208309415979E0, -1.42182922854787788574E-1,
             -3.80806407691578277194E-2, -9.33259480895457427372E-4)
_NDTRI_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0, 3.93881025292474443415E0,
             1.33303460815807542389E0, 2.01485389549179081538E-1, 1.23716634817820021358E-2,
             3.01581553508235416007E-4, 2.65806974686737550832E-6, 6.23974539184983293730E-9)
_NDTRI_Q2 = (6.02427039364742014255E0, 3.67983563856160859403E0, 1.37702099489081330271E0,
             2.16236993594496635890E-1, 1.34204006088543189037E-2, 3.28014464682127739104E-4,
             2.89247864745380683936E-6, 6.79019408009981274425E-9)


def _ndtri(y: np.ndarray) -> np.ndarray:
    """The inverse normal CDF of a flat array in (0, 1]: Cephes ``ndtri`` operation for operation (IEEE ``+ - * /``
    and ``sqrt`` round the same in numpy, ``log`` is libm's), so every value equals ``scipy.special.ndtri``'s bit
    for bit.  The central branch runs on every entry, the tails' ``u`` zeroed to keep its rational function in range;
    the tails then overwrite theirs."""
    hi = y > 1.0 - _EXP_M2
    t = np.where(hi, 1.0 - y, y)
    low = t <= _EXP_M2
    u = np.where(low, 0.0, t - 0.5)
    u2 = u * u
    x = u + u * (u2 * _polevl(u2, _NDTRI_P0) / _p1evl(u2, _NDTRI_Q0))
    x *= _S2PI
    tail = np.flatnonzero(low & (t > 0.0))  # t = 0 only at y = 1
    s = np.sqrt(-2.0 * _libm_log(t[tail]))
    z = 1.0 / s
    x1 = z * _polevl(z, _NDTRI_P1) / _p1evl(z, _NDTRI_Q1)
    far = s >= 8.0  # y < exp(-32)
    if far.any():
        zf = z[far]
        x1[far] = zf * _polevl(zf, _NDTRI_P2) / _p1evl(zf, _NDTRI_Q2)
    r = s - _libm_log(s) / s - x1
    x[tail] = np.where(hi[tail], r, -r)
    x[t == 0.0] = np.inf
    return x


_NDTRI_CHUNK = 1 << 14  # entries per _ndtri call: its dozen temporaries stay in cache and bounded

_DRAWS = threading.local()  # the thread's generator, re-keyed per stream: cheaper than a new one, same numbers


def _standard_normal(n: int, seed: int, streams) -> np.ndarray:
    """The one draw route: read-only ``(len(streams), n, n)`` couplings, row ``r`` the platform-stable normals
    ``ndtri((integers(0, 2**53) + 0.5) * 2**-53)`` of a fresh ``philox_generator(seed, streams[r])``, drawn
    into one buffer and converted by :func:`_ndtri`, equal to ``scipy.special.ndtri`` bit for bit.
    ``random()`` is ``(random_raw() >> 11) * 2**-53``, and the shift is what ``integers(0, 2**53)`` returns
    (Lemire's method rejects nothing at a power-of-two range)."""
    if not hasattr(_DRAWS, "rng"):  # counter 0 and an empty buffer; the key is set in place per stream
        zeros = [0, 0, 0, 0]
        _DRAWS.rng, _DRAWS.state = philox_generator(0), {
            "bit_generator": "Philox", "state": {"counter": zeros, "key": [0, 0]},
            "buffer": zeros, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    rng, state = _DRAWS.rng, _DRAWS.state
    key, g = state["state"]["key"], np.empty((len(streams), n, n))
    key[0] = seed & _MASK64
    for r, stream in enumerate(streams):
        key[1] = stream & _MASK64
        rng.bit_generator.state = state
        rng.random(out=g[r])
    flat = g.reshape(-1)
    flat += 2.0 ** -54  # k 2^-53 + 2^-54 rounds as (k + 0.5) 2^-53: scaling by a power of two is exact
    for start in range(0, flat.size, _NDTRI_CHUNK):
        flat[start:start + _NDTRI_CHUNK] = _ndtri(flat[start:start + _NDTRI_CHUNK])
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
        from concurrent.futures import ProcessPoolExecutor  # only a pool pays its import

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
