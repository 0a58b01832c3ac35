"""Brute-force-exact engines at small n.

Partition functions, free energies, Gibbs and annealed expectations, ground
states, the exact second-moment ratio over balanced overlap tables, the
Stirling expansion of the table law, and the two-color gauge identities.

Every log-scale accumulation uses running-max log-sum-exp; partition
functions are never exponentiated raw.  Factorials go through log-gamma in
double precision, while admissibility is checked in exact integers first.
Disorder replication derives child generators from one root seed and the
replica index (see :mod:`pottsglass.core`), so any single replica is
reproducible in isolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator, Sequence

import numpy as np
from scipy.special import gammaln

from .core import (
    CouplingMatrix,
    DivisibilityError,
    EnumerationCapError,
    SectorError,
    SpinConfig,
    batch_energies_raw,
    centering_shift,
    config_array,
    count_configs,
    map_replicas,
    max_deviation,
    mean_stderr,
    sector_counts,
)

__all__ = [
    "DEFAULT_CAP",
    "AdmissibleMatrix",
    "FreeEnergySample",
    "QuenchedFreeEnergy",
    "GroundStateResult",
    "GaugePairResult",
    "MomentEstimate",
    "logsumexp",
    "exp_or_inf",
    "gibbs_weights",
    "log_partition",
    "quenched_free_energy",
    "gibbs_expectation",
    "ground_state",
    "enumerate_admissible",
    "admissible_array",
    "overlap_law_exact",
    "log_overlap_law",
    "second_moment_ratio",
    "ldp_log_probability",
    "shell_count",
    "shell_histogram",
    "uncentered_ratio",
    "uncentered_lower_bound",
    "annealed_log_partition_balanced",
    "gauge_pair_check",
    "magnetization_moment_exact",
    "magnetization_mgf_exact",
    "tail_probability_exact",
]

# Hard default for exact enumerations: number of states, not sites.
DEFAULT_CAP = 20_000_000


def logsumexp(a) -> float:
    a = np.asarray(a, dtype=np.float64)
    if a.size == 0:
        return -math.inf
    m = float(np.max(a))
    if not math.isfinite(m):
        return m
    return m + math.log(float(np.sum(np.exp(a - m))))


def exp_or_inf(x: float) -> float:
    """``math.exp(x)``, or ``inf`` where the result overflows a double."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def gibbs_weights(energies: np.ndarray, beta: float) -> np.ndarray:
    """Unnormalized weights ``exp(beta (H - max H))``; beta = inf marks the maximizers."""
    top = energies.max()
    if math.isinf(beta):
        return (energies == top).astype(np.float64)
    return np.exp(beta * (energies - top))


@dataclass(frozen=True, eq=False)
class AdmissibleMatrix:
    """kappa-by-kappa nonnegative integer table with all margins n/kappa."""

    counts: np.ndarray
    n: int

    def __post_init__(self):
        arr = np.ascontiguousarray(self.counts, dtype=np.int64)
        k = arr.shape[0]
        if arr.ndim != 2 or arr.shape[1] != k:
            raise ValueError("admissible table must be square")
        if self.n % k != 0:
            raise DivisibilityError(f"admissible table needs kappa | n, got n={self.n}, kappa={k}")
        margin = self.n // k
        if arr.min() < 0 or (arr.sum(axis=0) != margin).any() or (arr.sum(axis=1) != margin).any():
            raise ValueError(f"all row and column sums must equal n/kappa = {margin}")
        arr.setflags(write=False)
        object.__setattr__(self, "counts", arr)

    @property
    def kappa(self) -> int:
        return int(self.counts.shape[0])

    def asarray(self) -> np.ndarray:
        return self.counts / self.n


@dataclass(frozen=True)
class FreeEnergySample:
    """One disorder realization's exact log partition value (nats)."""

    log_z: float
    n: int
    kappa: int
    beta: float
    seed: int | None
    stream: int | None
    sector: str
    kind: str

    @property
    def free_energy(self) -> float:
        return self.log_z / self.n


@dataclass(frozen=True)
class QuenchedFreeEnergy:
    mean: float
    stderr: float
    samples: tuple[FreeEnergySample, ...]

    @property
    def replicas(self) -> int:
        return len(self.samples)


@dataclass(frozen=True)
class GroundStateResult:
    """Exact maximum energy and the full set of maximizing configurations."""

    energy: float
    maximizers: np.ndarray  # (count, n) color rows
    n: int
    kappa: int
    sector: str
    kind: str

    @property
    def degeneracy(self) -> int:
        return int(self.maximizers.shape[0])


def _sector_label(constraint) -> str:
    if constraint is None or constraint == "all":
        return "all"
    if constraint == "balanced":
        return "balanced"
    return "fixed"


def _energies(colors: np.ndarray, g: CouplingMatrix, kappa: int, kind: str) -> np.ndarray:
    """Energies of the rows of ``colors`` under the requested Hamiltonian."""
    if kind not in ("raw", "centered"):
        raise ValueError(f"hamiltonian kind must be 'raw' or 'centered', got {kind!r}")
    energies = batch_energies_raw(colors, g)
    if kind == "centered":
        energies = energies - centering_shift(g, kappa)
    return energies


def log_partition(
    g: CouplingMatrix,
    beta: float,
    kappa: int,
    sector="all",
    kind: str = "centered",
    cap: int = DEFAULT_CAP,
) -> FreeEnergySample:
    """Exact ``log sum_sigma exp(beta * H(sigma))`` over the sector."""
    return _log_partition(config_array(g.n, kappa, sector, cap=cap), beta, kappa, sector, kind, g)


def _log_partition(colors: np.ndarray, beta: float, kappa: int, sector, kind: str,
                   g: CouplingMatrix) -> FreeEnergySample:
    """:func:`log_partition` over the sector rows ``colors``."""
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    return FreeEnergySample(
        log_z=logsumexp(beta * _energies(colors, g, kappa, kind)),
        n=g.n,
        kappa=kappa,
        beta=beta,
        seed=g.seed,
        stream=g.stream,
        sector=_sector_label(sector),
        kind=kind,
    )


def quenched_free_energy(
    n: int, beta: float, kappa: int, sector="all", kind: str = "centered",
    replicas: int = 8, seed: int = 0, cap: int = DEFAULT_CAP, workers: int = 1,
) -> QuenchedFreeEnergy:
    """Mean and standard error of ``n^{-1} log Z`` over disorder replicas.

    The sector is enumerated once; replica ``r`` draws its coupling from
    stream ``r`` of the root seed (:func:`pottsglass.core.map_replicas`), so
    results are independent of the worker count.
    """
    if replicas < 2:
        raise ValueError("quenched averaging needs at least 2 replicas")
    colors = config_array(n, kappa, sector, cap=cap)
    samples = map_replicas(
        partial(_log_partition, colors, beta, kappa, sector, kind), n, seed, replicas, workers
    )
    mean, stderr = mean_stderr([s.free_energy for s in samples])
    return QuenchedFreeEnergy(mean=mean, stderr=stderr, samples=tuple(samples))


def gibbs_expectation(
    g: CouplingMatrix,
    beta: float,
    kappa: int,
    observable: Callable[[SpinConfig], float],
    sector="all",
    kind: str = "raw",
    cap: int = DEFAULT_CAP,
) -> float:
    """Exact Gibbs average of an observable, stabilized by the max energy.

    ``beta = inf`` uses the uniform distribution on the energy maximizers.
    """
    colors = config_array(g.n, kappa, sector, cap=cap)
    energies = _energies(colors, g, kappa, kind)
    values = np.array(
        [observable(SpinConfig(row, kappa)) for row in colors], dtype=np.float64
    )
    w = gibbs_weights(energies, beta)
    return float((w * values).sum() / w.sum())


def ground_state(
    g: CouplingMatrix,
    kappa: int,
    sector="all",
    kind: str = "raw",
    cap: int = DEFAULT_CAP,
) -> GroundStateResult:
    """Exact maximum energy over the sector, with every maximizer kept.

    Float ties are kept as-is: configurations related by a global color
    permutation produce bit-identical energies, so the structural degeneracy
    is exact.
    """
    colors = config_array(g.n, kappa, sector, cap=cap)
    energies = _energies(colors, g, kappa, kind)
    top = float(energies.max())
    return GroundStateResult(
        energy=top,
        maximizers=colors[energies == top],
        n=g.n,
        kappa=kappa,
        sector=_sector_label(sector),
        kind=kind,
    )


def enumerate_admissible(n: int, kappa: int) -> Iterator[AdmissibleMatrix]:
    """All kappa-by-kappa tables with margins n/kappa, in :func:`admissible_array` order."""
    for counts in admissible_array(n, kappa):
        yield AdmissibleMatrix(counts, n)


def admissible_array(n: int, kappa: int) -> np.ndarray:
    """All admissible tables stacked as one ``(count, kappa, kappa)`` array.

    Tables are built one row at a time: every partial table is extended by
    each row composition that fits under its remaining column margins, and
    the last row is forced.  Row-major ``nonzero`` keeps the tables in
    lexicographic order.
    """
    if n % kappa != 0:
        raise DivisibilityError(f"admissible tables need kappa | n, got n={n}, kappa={kappa}")
    margin = n // kappa
    rows = _compositions(margin, kappa)
    tables = np.empty((1, 0, kappa), dtype=np.int64)
    left = np.full((1, kappa), margin, dtype=np.int64)
    for _ in range(kappa - 1):
        p, c = np.nonzero((rows[None] <= left[:, None]).all(axis=2))
        tables = np.concatenate((tables[p], rows[c][:, None]), axis=1)
        left = left[p] - rows[c]
    return np.concatenate((tables, left[:, None]), axis=1)


def _log_gamma_table(n: int) -> np.ndarray:
    # table[k] = log k!
    return gammaln(np.arange(n + 1, dtype=np.float64) + 1.0)


def log_overlap_law(tables: np.ndarray, n: int, kappa: int) -> np.ndarray:
    """Log probability of each admissible table under the balanced overlap law.

    For a fixed balanced sigma and uniform balanced tau the overlap table
    has probability ``[n!/((n/kappa)!)^kappa]^{-1} prod_a (n/kappa)! /
    prod_b (n r_ab)!``.
    """
    tables = np.asarray(tables, dtype=np.int64)
    squeeze = tables.ndim == 2
    if squeeze:
        tables = tables[None]
    glt = _log_gamma_table(n)
    margin = n // kappa
    log_sector = glt[n] - kappa * glt[margin]
    lp = -log_sector + kappa * glt[margin] - glt[tables].sum(axis=(1, 2))
    return lp[0] if squeeze else lp


def overlap_law_exact(n: int, kappa: int, table) -> float:
    """Probability of one admissible overlap table (validates admissibility)."""
    if not isinstance(table, AdmissibleMatrix):
        table = AdmissibleMatrix(np.asarray(table, dtype=np.int64), n)
    elif table.n != n or table.kappa != kappa:
        raise ValueError("table does not match the requested (n, kappa)")
    return float(math.exp(log_overlap_law(table.counts, n, kappa)))


def second_moment_ratio(n: int, beta: float, kappa: int) -> float:
    """Exact ``E (Z^bal)^2 / (E Z^bal)^2`` for the centered balanced model.

    Computed as the overlap-law average of
    ``exp(beta^2 n ||r - kappa^{-2} 11^T||_F^2)`` over admissible tables.
    ``inf`` where the ratio overflows a double.
    """
    return exp_or_inf(_log_second_moment_ratio(n, beta, kappa))


def _log_second_moment_ratio(n: int, beta: float, kappa: int) -> float:
    """Log of :func:`second_moment_ratio`, finite where the ratio overflows."""
    tables = admissible_array(n, kappa)
    lp = log_overlap_law(tables, n, kappa)
    gap = ((tables / n - 1.0 / kappa ** 2) ** 2).sum(axis=(1, 2))
    return logsumexp(lp + beta ** 2 * n * gap)


def ldp_log_probability(n: int, kappa: int, table) -> tuple[float, float]:
    """(exact, asymptotic) log probability of an admissible table.

    The asymptotic value is ``-n D(r||u) - ((kappa-1)^2/2) log n
    - (1/2) sum_{r_ab != 0} log r_ab`` with ``u`` the uniform table; the
    difference of the two stays O(1) as n grows at fixed rational r.
    """
    if not isinstance(table, AdmissibleMatrix):
        table = AdmissibleMatrix(np.asarray(table, dtype=np.int64), n)
    exact = float(log_overlap_law(table.counts, n, kappa))
    r = table.counts / n
    pos = r > 0
    kl = float((r[pos] * np.log(kappa ** 2 * r[pos])).sum())
    asym = -n * kl - (kappa - 1) ** 2 / 2.0 * math.log(n) - 0.5 * float(np.log(r[pos]).sum())
    return exact, asym


def shell_histogram(n: int, kappa: int) -> np.ndarray:
    """Admissible-table counts per Frobenius shell ``[(l-1)/n, l/n)``, l=1..n."""
    tables = admissible_array(n, kappa)
    gap = ((tables / n - 1.0 / kappa ** 2) ** 2).sum(axis=(1, 2))
    shells = np.floor(gap * n).astype(np.int64)  # shell l-1 holds gap in [(l-1)/n, l/n)
    return np.bincount(shells, minlength=n)[:n]


def shell_count(n: int, kappa: int, l: int) -> int:
    if not 1 <= l <= n:
        raise ValueError(f"shell index l must lie in [1, {n}]")
    return int(shell_histogram(n, kappa)[l - 1])


def _fan_out(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(owner, rank) of every slot when item ``i`` owns ``counts[i]`` consecutive slots."""
    owner = np.repeat(np.arange(counts.size), counts)
    return owner, np.arange(owner.size) - np.repeat(np.cumsum(counts) - counts, counts)


def _compositions(total: int, parts: int) -> np.ndarray:
    """All nonnegative integer vectors of length ``parts`` summing to ``total``.

    Rows are in lexicographic order: each prefix is extended by every value
    up to what it has left, and the last entry takes the rest.
    """
    out = np.empty((1, 0), dtype=np.int64)
    left = np.array([total], dtype=np.int64)
    for _ in range(parts - 1):
        p, v = _fan_out(left + 1)
        out = np.hstack((out[p], v[:, None]))
        left = left[p] - v
    return np.hstack((out, left[:, None]))


def _log_ez_raw(n: int, beta: float, kappa: int) -> float:
    """log E Z for the raw Hamiltonian; E e^{beta H} = e^{beta^2 sum_a m_a^2 / (2n)}."""
    glt = _log_gamma_table(n)
    m = _compositions(n, kappa)
    logmult = glt[n] - glt[m].sum(axis=1)
    e1 = beta ** 2 * (m.astype(np.float64) ** 2).sum(axis=1) / (2.0 * n)
    return logsumexp(logmult + e1)


def _log_ez2_raw_all(n: int, beta: float, kappa: int) -> float:
    """log E Z^2 for the unconstrained raw model.

    Pairs (sigma, tau) are grouped by their joint color-count table C; the
    number of pairs with table C is the multinomial n!/prod C_ab!, and the
    Gaussian pair moment is exp(al (sum_a rows_a^2 + sum_b cols_b^2 +
    2 sum C^2)) with al = beta^2 / (2n).  The table sum runs one row r of C
    at a time over the partial column sums s of the rows before it:
    ``W'(s + r) = LSE_{s,r} [W(s) + phi(r) + 2 al s.r]`` from W(0) = 0,
    where ``phi(r) = -sum_b log r_b! + al (|r|^2 + 3 sum_b r_b^2)`` and
    ``|r| = sum_b r_b``; then log E Z^2 = log n! + LSE_{|s|=n} W(s).  Each
    target is stabilized by its own maximum, since the cross term alone can
    overflow exp.
    """
    glt = _log_gamma_table(n)
    al = beta ** 2 / (2.0 * n)
    states = _compositions(n, kappa + 1)[:, :-1]  # every s with |s| <= n, lexicographic
    size = states.sum(axis=1)
    # Pair each s with every r of |r| <= n - |s|: a prefix of the states sorted by size.
    src, rank = _fan_out(np.cumsum(np.bincount(size))[n - size])
    row = np.argsort(size, kind="stable")[rank]
    # s + r never carries in base n + 1, so its key is the sum of the keys.
    keys = np.ravel_multi_index(states.T, (n + 1,) * kappa)
    tgt = np.searchsorted(keys, keys[src] + keys[row])
    sf = states.astype(np.float64)
    phi = -glt[states].sum(axis=1) + al * (size ** 2 + 3.0 * (sf ** 2).sum(axis=1))
    step = phi[row] + 2.0 * al * np.einsum("ij,ij->i", sf[src], sf[row])
    w = np.full(len(states), -np.inf)
    w[0] = 0.0
    for _ in range(kappa):
        x = w[src] + step
        top = np.full(len(states), -np.inf)
        np.maximum.at(top, tgt, x)
        w = top + np.log(np.bincount(tgt, np.exp(x - top[tgt]), minlength=len(states)))
    return float(glt[n] + logsumexp(w[size == n]))


def uncentered_ratio(n: int, beta: float, kappa: int, sector="all", cap: int = DEFAULT_CAP) -> float:
    """Exact ``E Z^2 / (E Z)^2`` for the RAW Hamiltonian.

    Evaluated through the Gaussian pair-moment identity, summed over joint
    color-count tables one row at a time rather than over configuration
    pairs, which is exact and reaches n=24 at kappa=3 and n=12 at kappa=4.
    The cap counts the row recursion's (s, r) pairs.  Diverges with n for
    any beta > 0; the constrained sectors only slow the divergence.
    ``inf`` where the ratio overflows a double.
    """
    return exp_or_inf(_log_uncentered_ratio(n, beta, kappa, sector, cap))


def _log_uncentered_ratio(n: int, beta: float, kappa: int, sector, cap: int) -> float:
    """Log of :func:`uncentered_ratio`, finite where the ratio overflows."""
    counts = sector_counts(n, kappa, sector)
    if counts is None:
        n_pairs = math.comb(n + 2 * kappa, 2 * kappa)
        if n_pairs > cap:
            raise EnumerationCapError(
                f"row recursion has {n_pairs} (s, r) pairs, exceeding the cap of {cap}"
            )
        return _log_ez2_raw_all(n, beta, kappa) - 2.0 * _log_ez_raw(n, beta, kappa)
    if not np.all(counts == counts[0]):
        raise SectorError("uncentered_ratio supports the 'all' and 'balanced' sectors")
    # balanced: E Z = |sector| e^{beta^2 n / (2 kappa)}; the pair sum reduces
    # to the overlap-law average of exp(beta^2 n ||r||_F^2).
    tables = admissible_array(n, kappa)
    lp = log_overlap_law(tables, n, kappa)
    frob = (tables.astype(np.float64) ** 2).sum(axis=(1, 2)) / n
    return logsumexp(lp + beta ** 2 * frob)


def uncentered_lower_bound(n: int, beta: float, kappa: int, sector="all") -> float:
    """Closed-form divergence floor for the raw-Hamiltonian moment ratio (``inf`` on overflow)."""
    return exp_or_inf(_log_uncentered_lower_bound(n, beta, kappa, sector))


def _log_uncentered_lower_bound(n: int, beta: float, kappa: int, sector) -> float:
    """Log of :func:`uncentered_lower_bound`."""
    if sector == "all":
        return beta ** 2 * (n - 1) / kappa ** 2
    if sector == "balanced":
        return beta ** 2 * (n - 1) * ((n - kappa) / ((n - 1) * kappa)) ** 2
    raise SectorError("bound available for the 'all' and 'balanced' sectors")


def annealed_log_partition_balanced(n: int, beta: float, kappa: int) -> float:
    """Closed-form ``log E Z^bal`` for the centered model.

    The centered energy variance is constant on the balanced sector, so
    ``E Z^bal = exp(beta^2 n (kappa-1) / (2 kappa^2)) |Sigma^bal|``.
    """
    if n % kappa != 0:
        raise DivisibilityError(f"balanced sector needs kappa | n, got n={n}, kappa={kappa}")
    return math.log(count_configs(n, kappa, "balanced")) + beta ** 2 * n * (kappa - 1) / (
        2.0 * kappa ** 2
    )


# ---------------------------------------------------------------------------
# kappa = 2 gauge identities


@dataclass(frozen=True)
class GaugePairResult:
    value: float
    value_flipped: float
    pair_sum: float
    parity: str  # 'odd' or 'even'
    flip_site: int | None


def _spin_products(colors: np.ndarray, sites: Sequence[int]) -> np.ndarray:
    # tau_i = +1 when color 1, -1 when color 2
    tau = 3 - 2 * colors  # 1 -> +1, 2 -> -1
    out = np.ones(colors.shape[0], dtype=np.float64)
    for s in sites:
        out *= tau[:, s]
    return out


def _gibbs_product(colors: np.ndarray, g: CouplingMatrix, beta: float, sites: Sequence[int]) -> float:
    w = gibbs_weights(batch_energies_raw(colors, g), beta)
    return float((w * _spin_products(colors, sites)).sum() / w.sum())


def gauge_pair_check(
    g: CouplingMatrix, beta: float, sites: Sequence[int], cap: int = DEFAULT_CAP
) -> GaugePairResult:
    """Evaluate a multi-spin correlation for g and for its gauge flip.

    ``sites`` is a multiset of 0-based site indices.  When some site has odd
    multiplicity, flipping the signs of every coupling incident to it maps
    the Gibbs measure onto the site-flipped one, so the two correlations are
    exact negatives and their sum must vanish -- a deterministic test that
    needs no disorder averaging.  Works for beta in [0, inf]; beta = inf uses
    the uniform measure on energy maximizers.

    With no odd-multiplicity site the result carries parity='even' (the
    correlation is then flip-invariant, e.g. ``<tau_i^2> = 1``).
    """
    return _gauge_pair(config_array(g.n, 2, "all", cap=cap), g, beta, sites)


def _gauge_pair(
    colors: np.ndarray, g: CouplingMatrix, beta: float, sites: Sequence[int]
) -> GaugePairResult:
    """:func:`gauge_pair_check` over the two-color rows ``colors``, shared by g and its flip."""
    sites = [int(s) for s in sites]
    if not sites:
        raise ValueError("sites multiset must be non-empty")
    if any(not 0 <= s < g.n for s in sites):
        raise IndexError(f"site indices must lie in [0, {g.n})")
    degrees: dict[int, int] = {}
    for s in sites:
        degrees[s] = degrees.get(s, 0) + 1
    odd = sorted(s for s, d in degrees.items() if d % 2 == 1)
    value = _gibbs_product(colors, g, beta, sites)
    if not odd:
        return GaugePairResult(value, value, 2.0 * value, "even", None)
    flip = odd[0]
    value_flipped = _gibbs_product(colors, g.flipped_at(flip), beta, sites)
    return GaugePairResult(value, value_flipped, value + value_flipped, "odd", flip)


@dataclass(frozen=True)
class MomentEstimate:
    value: float
    stderr: float
    bound: float
    m: int
    n: int
    beta: float
    replicas: int

    @property
    def satisfied(self) -> bool:
        return self.value <= self.bound + 3.0 * self.stderr


def _gibbs_averages(colors: np.ndarray, observables: np.ndarray, beta: float,
                    g: CouplingMatrix) -> np.ndarray:
    """Gibbs average under ``g`` of each row of ``observables`` (one replica)."""
    w = gibbs_weights(batch_energies_raw(colors, g), beta)
    return (w / w.sum() * observables).sum(axis=1)


def _replica_average(colors: np.ndarray, observables: np.ndarray, beta: float, replicas: int,
                     seed: int, workers: int = 1) -> list[tuple[float, float]]:
    """Disorder (mean, stderr) of Gibbs averages with exact inner enumeration.

    Row ``k`` of the ``(K, states)`` array ``observables`` holds statistic
    ``k`` on each row of ``colors``.  Replica ``r`` draws its coupling from
    stream ``r`` of ``seed``; a single replica reports stderr 0.
    """
    rows = map_replicas(
        partial(_gibbs_averages, colors, observables, beta), colors.shape[1], seed, replicas, workers
    )
    return [mean_stderr(col) for col in np.array(rows).T]


def _color1_excess(n: int, cap: int) -> tuple[np.ndarray, np.ndarray]:
    """Two-color sector rows and their centered color-1 fraction ``d_1 - 1/2``."""
    colors = config_array(n, 2, "all", cap=cap)
    return colors, (colors == 1).sum(axis=1) / n - 0.5


def magnetization_moment_exact(
    n: int,
    beta: float,
    m: int,
    replicas: int = 200,
    seed: int = 0,
    cap: int = DEFAULT_CAP,
    workers: int = 1,
) -> MomentEstimate:
    """Disorder-averaged ``<(d_1 - 1/2)^m>`` for the two-color model.

    Odd moments vanish identically: the global color swap leaves every
    energy bit-for-bit unchanged while negating ``d_1 - 1/2``, so each
    disorder realization's Gibbs average pairs to zero.  Even moments are
    estimated over disorder replicas and compared against the bound
    ``m! / (2^m (m/2)!) n^{-m/2}``.
    """
    if m < 1:
        raise ValueError("moment order m must be >= 1")
    if m % 2 == 1:
        return MomentEstimate(0.0, 0.0, 0.0, m, n, beta, 0)
    if replicas < 2:
        raise ValueError("even-moment estimation needs at least 2 replicas")
    bound = math.factorial(m) / (2 ** m * math.factorial(m // 2)) / n ** (m // 2)
    colors, x = _color1_excess(n, cap)
    [(mean, se)] = _replica_average(colors, x[None] ** m, beta, replicas, seed, workers)
    return MomentEstimate(mean, se, bound, m, n, beta, replicas)


def magnetization_mgf_exact(
    n: int,
    beta: float,
    lam: float,
    replicas: int = 200,
    seed: int = 0,
    cap: int = DEFAULT_CAP,
) -> MomentEstimate:
    """Disorder-averaged ``<exp(lam (d_1 - 1/2))>`` against ``e^{lam^2/(4n)}``."""
    colors, x = _color1_excess(n, cap)
    [(mean, se)] = _replica_average(colors, np.exp(lam * x)[None], beta, replicas, seed)
    return MomentEstimate(mean, se, math.exp(lam ** 2 / (4.0 * n)), 0, n, beta, replicas)


def tail_probability_exact(
    n: int, beta: float, epsilon, replicas: int = 200, seed: int = 0,
    cap: int = DEFAULT_CAP, kappa: int = 2, workers: int = 1,
):
    """Disorder-averaged Gibbs mass of ``max_a |d_a - 1/kappa| >= eps``.

    The bound is ``2 e^{-eps^2 n}`` for kappa = 2 and ``inf`` (no closed
    form) otherwise.  One ``epsilon`` gives one estimate; a sequence gives a
    list of estimates sharing the enumeration and the disorder draws.
    """
    epsilons = [float(epsilon)] if np.isscalar(epsilon) else [float(e) for e in epsilon]
    colors = config_array(n, kappa, "all", cap=cap)
    tails = (max_deviation(colors, kappa) >= np.array(epsilons)[:, None]).astype(np.float64)
    out = [
        MomentEstimate(mean, se, 2.0 * math.exp(-e ** 2 * n) if kappa == 2 else math.inf,
                       0, n, beta, replicas)
        for e, (mean, se) in zip(epsilons, _replica_average(colors, tails, beta, replicas, seed, workers))
    ]
    return out[0] if np.isscalar(epsilon) else out
