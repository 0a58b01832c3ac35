"""Brute-force-exact engines at small n.

Partition functions, free energies, annealed moments, Gibbs tails and
magnetization moments, the exact second-moment ratios summed over overlap
tables one row at a time, the Stirling expansion of the table law, and the
two-color gauge identities.

Every log-scale accumulation uses running-max log-sum-exp; partition
functions are never exponentiated raw.  Factorials go through log-gamma in
double precision, while admissibility is checked in exact integers first.
Each moment, generating function and tail estimator returns one record,
:class:`Estimate`, per order or epsilon, in the order given; an overlap table
is a kappa-by-kappa integer array, and a stack of them one array.
Disorder replication derives child generators from one root seed and the
replica index (see :mod:`pottsglass.core`), so any single replica is
reproducible in isolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .core import (
    CouplingMatrix,
    EnumerationCapError,
    SectorError,
    _gauge_flip,
    _lex_extend,
    _libm_log,
    _polevl,
    centering_shift,
    count_configs,
    map_replicas,
    max_deviation,
    mean_stderr,
    sector_counts,
)

__all__ = [
    "DEFAULT_CAP",
    "Estimate",
    "FreeEnergySample",
    "QuenchedFreeEnergy",
    "GaugePairResult",
    "logsumexp",
    "exp_or_inf",
    "gibbs_weights",
    "log_partition",
    "quenched_free_energy",
    "admissible_array",
    "log_overlap_law",
    "second_moment_ratio",
    "ldp_log_probability",
    "shell_histogram",
    "uncentered_ratio",
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


def gibbs_weights(energies, beta: float, top) -> np.ndarray:
    """Unnormalized weights ``exp(beta (H - top))``.

    beta = inf marks the energies equal to ``top``; beta = 0 weighs every
    energy by 1, ``-inf`` included.
    """
    gap = energies - top
    if math.isinf(beta):
        return (gap == 0).astype(np.float64)
    return np.exp(beta * gap) if beta else np.ones(np.shape(gap))


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


# ---------------------------------------------------------------------------
# Split-half enumeration (meet in the middle: Horowitz and Sahni 1974)
#
# Sites [0, n // 2) form half A and the rest half B, so a configuration is a
# pair (a, b) of half rows and, with S = g + g^T,
#     sqrt(n) H = H_A[a] + H_B[b] + sum_{j in B} U_A[a, j, sigma_B(b)_j],
#     U_A[a, j, c] = sum_{i in A} S_ij 1{sigma_A(a)_i = c},
# where H_A holds the diagonal and the site pairs inside A, and H_B those inside
# B.  Every sum runs in one fixed order for all rows -- elementwise adds, or one
# numpy reduction over all rows at once, never BLAS -- so two configurations
# with the same site-equality pattern, in particular any two related by a color
# permutation, get bit-identical energies.

_BLOCK = 1 << 15  # pairs per energy block: bounds working memory at any sector size
_PAIR_CHUNK = 1 << 17  # (s, r) pairs per chunk of _log_ez2_raw_all's targets: every benchmark size is one chunk


class _Split(NamedTuple):
    """A sector as compatible pairs (a, b) of half rows, built once and shared by all replicas.

    Pair (a, b) is the configuration ``(rows_a[a], rows_b[b])``, with color
    counts ``counts[label[key_a[a] + key_b[b]]]``; it stands for ``mult[a]``
    configurations, its images under the color permutations (1 on a full
    split).  ``pairs_a = (index, eq)``
    gives the flat index in S of each site pair i < j of half A and which of
    its rows have equal colors there (likewise ``pairs_b``).  Each block ``(pa, pb,
    steps)`` covers the pairs ``(pa, pb)`` (broadcast).  A flat block lists
    them, and ``steps[j]`` locates ``U_A[a, j, sigma_B(b)_j]`` in the flat
    ``U_A``; a tree block pairs the A rows ``pa[:, 0]`` with the lexicographic
    B rows ``pb[0]``, whose distinct prefixes of length j + 1 have (parent, color
    index) ``steps[j]``.
    """

    n: int
    kappa: int
    rows_a: np.ndarray
    rows_b: np.ndarray
    counts: np.ndarray
    key_a: np.ndarray
    key_b: np.ndarray
    label: np.ndarray
    mult: np.ndarray
    pairs_a: tuple
    pairs_b: tuple
    flat: bool
    blocks: list

    @property
    def stack(self) -> int:
        """Couplings per :func:`_mass` stack: as many as keep the flat block within ``_BLOCK / 2`` elements
        (fastest from 256 to 4,096 states: a stack's temporaries stay cache-sized)."""
        return max(1, _BLOCK // (2 * self.blocks[0][0].size)) if self.flat else 1


def _prefix_tree(rows: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """(parent, color index) of the distinct prefixes of each length of lexicographic ``rows``."""
    levels, node = [], np.zeros(len(rows), dtype=np.int64)
    for j in range(rows.shape[1]):
        new = np.ones(len(rows), dtype=bool)
        new[1:] = (node[1:] != node[:-1]) | (rows[1:, j] != rows[:-1, j])
        levels.append((node[new], rows[new, j] - 1))
        node = np.cumsum(new) - 1
    return levels


def _unique_rows(rows: np.ndarray, base: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(rows, axis=0, return_inverse=True)`` of entries in [0, base), by key: row order is key order."""
    if base ** rows.shape[1] > 2 ** 63:  # the keys would overflow int64
        unique, inverse = np.unique(rows, axis=0, return_inverse=True)
        return unique, inverse.reshape(-1)
    _, first, inverse = np.unique(rows @ base ** np.arange(rows.shape[1])[::-1], return_index=True, return_inverse=True)
    return rows[first], inverse


def _split(n: int, kappa: int, sector: str = "all", cap: int = DEFAULT_CAP, orbits: bool = False) -> _Split:
    """Enumerate the two halves of a sector once and pair them up (see :class:`_Split`).

    Each half is every lexicographic row that fits under the sector's
    budget (d = n / kappa per color if balanced, else n), grouped by its
    counts.  In the balanced sector the A rows with counts c, for c in
    lexicographic order, pair with the B rows with counts d - c only.  With
    ``orbits`` (both sectors are closed under color permutations), the split
    keeps one A row per color orbit, its restricted-growth string (Knuth,
    TAOCP 7.2.1.5), weighted by the orbit's size ``kappa! / (kappa - k_A)!``
    for its k_A colors: a sum of a color-invariant F over the sector is then
    the weighted sum over the pairs.  The cap counts the sector's states.
    """
    total = count_configs(n, kappa, sector)
    if total > cap:
        raise EnumerationCapError(f"sector has {total} configurations, exceeding the cap of {cap}")
    d = sector_counts(n, kappa, sector)
    budget = np.full(kappa, n) if d is None else d
    enumerated = {}
    for m in {n // 2, n - n // 2}:
        picks, left = _lex_extend(np.eye(kappa, dtype=np.int64), budget, m)
        enumerated[m] = picks, *_unique_rows(budget - left, n + 1)
    (picks_a, groups_a, key_a), (picks_b, groups_b, key_b) = enumerated[n // 2], enumerated[n - n // 2]
    mult = np.ones(len(picks_a))
    if orbits:  # each new color of a kept row is the next unused one
        rows = picks_a.astype(np.int64)
        seen = np.maximum.accumulate(np.hstack((np.full((len(rows), 1), -1), rows)), axis=1)[:, :-1]
        keep = (rows <= seen + 1).all(axis=1)
        picks_a, key_a, colors = picks_a[keep], key_a[keep], (groups_a[key_a[keep]] > 0).sum(axis=1)  # k_A
        mult = np.array([math.perm(kappa, k) for k in range(kappa + 1)], dtype=np.float64)[colors]
    if d is None:
        counts, label = _unique_rows((groups_a[:, None] + groups_b).reshape(-1, kappa), n + 1)
        key_a = key_a * len(groups_b)
        parts = [(len(picks_a), len(picks_b))]
    else:  # balanced: the counts d - c of B run in reverse lexicographic order as c of A runs forward
        sizes_a = np.bincount(key_a, minlength=len(groups_a))
        used = sizes_a[len(groups_a) - 1 - key_b] > 0  # B rows whose A group kept a row
        picks_b, key_b = picks_b[used], key_b[used]
        order_a = np.argsort(key_a, kind="stable")
        picks_a, mult, picks_b = picks_a[order_a], mult[order_a], picks_b[np.argsort(-key_b, kind="stable")]
        parts = [part for part in zip(sizes_a, np.bincount(key_b, minlength=len(groups_b))[::-1]) if part[0]]
        counts, label = d[None], np.zeros(1, dtype=np.int64)  # every pair has counts d
        key_a, key_b = np.zeros(len(picks_a), dtype=np.int64), np.zeros(len(picks_b), dtype=np.int64)
    rows_a, rows_b = picks_a.astype(np.int64) + 1, picks_b.astype(np.int64) + 1  # after the reorder of uint8 picks
    pairs = []
    for offset, rows in ((0, rows_a), (n // 2, rows_b)):  # offset: site of column 0 of the half
        i, j = np.triu_indices(rows.shape[1], 1)
        pairs.append(((i + offset) * n + j + offset, (rows[:, i] == rows[:, j]).astype(np.float64)))
    blocks, a0, b0 = [], 0, 0
    for size_a, size_b in parts:  # chunks of A rows share the B rows and their prefix tree
        a1, b1 = a0 + size_a, b0 + size_b
        pb, levels, step = np.arange(b0, b1)[None], _prefix_tree(rows_b[b0:b1]), max(1, _BLOCK // (b1 - b0))
        blocks += [(np.arange(r, min(r + step, a1))[:, None], pb, levels) for r in range(a0, a1, step)]
        a0, b0 = a1, b1
    flat = sum(size_a * size_b for size_a, size_b in parts) <= _BLOCK  # enumerated pairs
    if flat:  # one block listing every pair: a fixed, small number of array calls per stack
        pa = np.concatenate([np.repeat(ra[:, 0], rb.size) for ra, rb, _ in blocks])
        pb = np.concatenate([np.tile(rb[0], len(ra)) for ra, rb, _ in blocks])
        nb = rows_b.shape[1]
        blocks = [(pa, pb, (pa * nb + np.arange(nb)[:, None]) * kappa + rows_b[pb].T - 1)]
    return _Split(n, kappa, rows_a, rows_b, counts, key_a, key_b, label, mult, *pairs, flat, blocks)


def _pair_sum(eq: np.ndarray, flat_s: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``(eq * flat_s[:, None, index]).sum(axis=2)``, added one pair after the other in a stack of any size (a
    numpy reduction goes pairwise or not by the memory layout), and one (stack, rows) term at a time."""
    total = np.zeros((len(flat_s), len(eq)))
    for p, i in enumerate(index):
        term = eq[:, p] * flat_s[:, i, None]
        total = total + term if p else term
    return total


def _energy_blocks(split: _Split, gs: Sequence[CouplingMatrix], kind: str) -> Iterator[tuple]:
    """Energies under each of the couplings ``gs`` of every sector configuration, one block at a time.

    Yields ``(energies, pa, pb)``: ``energies[r, ...]`` is the energy under
    ``gs[r]`` of the configuration ``(rows_a[pa], rows_b[pb])``, with ``pa``
    and ``pb`` broadcast to its shape.  It is bitwise the same in any stack:
    ``H_A`` and ``H_B`` reduce along the last axis of one coupling's terms,
    ``U_A`` adds the sites of A in order, and every other step is elementwise.
    """
    if kind not in ("raw", "centered"):
        raise ValueError(f"hamiltonian kind must be 'raw' or 'centered', got {kind!r}")
    na, (index_a, eq_a), (index_b, eq_b) = split.rows_a.shape[1], split.pairs_a, split.pairs_b
    g = np.stack([c.g for c in gs])
    s = g + g.transpose(0, 2, 1)
    flat_s = s.reshape(len(gs), -1)
    h_a = np.trace(g, axis1=1, axis2=2)[:, None] + _pair_sum(eq_a, flat_s, index_a)
    h_b = _pair_sum(eq_b, flat_s, index_b)
    u = np.zeros((len(gs), len(split.rows_a), split.n - na, split.kappa))  # U_A
    for i in range(na):
        u += (split.rows_a[:, i, None, None] == np.arange(1, split.kappa + 1)) * s[:, None, i, na:, None]
    shift = np.array([centering_shift(c, split.kappa) if kind == "centered" else 0.0 for c in gs])
    for pa, pb, steps in split.blocks:
        if split.flat:  # sum over the sites j of B in order
            cross = sum(np.take(u.reshape(len(gs), -1), index, axis=1) for index in steps)
        else:  # the same sums, shared along the prefix tree
            cross, u_pa = 0.0, u[:, pa[:, 0]]
            for j, (parent, color) in enumerate(steps):
                cross = (cross[:, :, parent] if j else cross) + u_pa[:, :, j, color]
        energies = np.take(h_a, pa, axis=1) + np.take(h_b, pb, axis=1)
        energies += cross
        energies /= math.sqrt(split.n)
        energies -= shift.reshape((-1,) + (1,) * pa.ndim)
        yield energies, pa, pb


def _mass(split: _Split, gs: Sequence[CouplingMatrix], beta: float, kind: str = "raw",
          factors: Sequence[tuple[np.ndarray, np.ndarray]] = ()) -> tuple[np.ndarray, np.ndarray]:
    """Gibbs mass of the sector under each of the couplings ``gs``, resolved by color counts.

    Returns ``(top, w)``: ``top[r]`` is the largest energy under ``gs[r]`` and
    ``w[r, k, 0]`` the sum of ``exp(beta (H - top[r]))`` over the
    configurations with color counts ``split.counts[k]`` -- at beta = inf, how
    many of them reach ``top[r]`` -- so ``log Z(beta, d_k) = beta top[r] + log
    w[r, k, 0]``.  Column ``1 + f`` also weighs each pair (a, b) by ``fa[r, a]
    fb[r, b]`` for ``(fa, fb) = factors[f]``.  The couplings go through the
    blocks ``split.stack`` at a time, and every sum over one coupling's pairs
    runs in the same order as in a stack of one.  Each pair weighs ``mult[a]``
    times: on an orbit split, a count vector's mass lands on its canonical
    representatives, so only the sum over ``k``, or a statistic averaged over
    the permutations of the count vector, is the sector's.  The blocks of
    :func:`_energy_blocks` fold below a running top: when a block raises it,
    the mass so far is lifted by ``gibbs_weights(old top, beta, new top)`` --
    exactly 1.0 where the top held, and 0 or 1 at beta = inf -- so every
    weight stays <= 1.
    """
    k = len(split.counts)
    top, mass = np.full(len(gs), -np.inf), np.zeros((len(gs), k, 1 + len(factors)))
    for lo in range(0, len(gs), split.stack):
        part = slice(lo, lo + split.stack)
        stack, stack_top, stack_mass = gs[part], top[part], mass[part]  # views: updates land in top and mass
        for energies, pa, pb in _energy_blocks(split, stack, kind):
            peak = np.maximum(stack_top, energies.reshape(len(stack), -1).max(axis=1))
            stack_mass *= gibbs_weights(stack_top, beta, peak)[:, None, None]
            stack_top[:] = peak
            w = gibbs_weights(energies, beta, peak.reshape((-1,) + (1,) * pa.ndim))
            w = w * np.take(split.mult, pa)  # each pair stands for its color images
            label = np.take(split.label + k * np.arange(len(stack))[:, None], split.key_a[pa] + split.key_b[pb], axis=1)
            cols = [w] + [w * np.take(fa[part], pa, axis=1) * np.take(fb[part], pb, axis=1) for fa, fb in factors]
            stack_mass += np.stack([np.bincount(label.ravel(), c.ravel(), len(stack) * k) for c in cols],
                                   axis=1).reshape(stack_mass.shape)
    return top, mass


def log_partition(g: CouplingMatrix, beta: float, kappa: int, sector="all", kind: str = "centered",
                  cap: int = DEFAULT_CAP) -> FreeEnergySample:
    """Exact ``log sum_sigma exp(beta * H(sigma))`` over the sector."""
    return _log_partition(_split(g.n, kappa, sector, cap, orbits=True), beta, kind, sector, [g])[0]


def _log_partition(split: _Split, beta: float, kind: str, sector,
                   gs: Sequence[CouplingMatrix]) -> list[FreeEnergySample]:
    """:func:`log_partition` under each of the couplings ``gs``, over a split sector."""
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    top, mass = _mass(split, gs, beta, kind)
    return [FreeEnergySample(beta * float(t) + math.log(w[:, 0].sum()), g.n, split.kappa, beta, g.seed, g.stream,
                             sector, kind) for g, t, w in zip(gs, top, mass)]


def quenched_free_energy(
    n: int, beta: float, kappa: int, sector="all", kind: str = "centered",
    replicas: int = 8, seed: int = 0, cap: int = DEFAULT_CAP, workers: int = 1,
) -> QuenchedFreeEnergy:
    """Mean and standard error of ``n^{-1} log Z`` over disorder replicas.

    The sector is split once; replica ``r`` draws its coupling from stream
    ``r`` of the root seed (:func:`pottsglass.core.map_replicas`), so results
    are independent of the worker count.
    """
    if replicas < 2:
        raise ValueError("quenched averaging needs at least 2 replicas")
    split = _split(n, kappa, sector, cap, orbits=True)
    samples = map_replicas(partial(_log_partition, split, beta, kind, sector), n, seed, replicas, workers, split.stack)
    mean, stderr = mean_stderr([s.free_energy for s in samples])
    return QuenchedFreeEnergy(mean=mean, stderr=stderr, samples=tuple(samples))


def admissible_array(n: int, kappa: int) -> np.ndarray:
    """All admissible tables stacked as one ``(count, kappa, kappa)`` array.

    Tables are built one row at a time: every partial table is extended by
    each row composition that fits under its remaining column margins, and
    the last row is forced; the rows come out in lexicographic order.  The
    tables are counted first (:func:`_check_tables`), so a set of more than
    ``DEFAULT_CAP`` raises before any partial table is built; every partial
    table completes to at least one table, so no step holds more.
    """
    _check_tables(n, kappa)
    margin = n // kappa
    rows = _compositions(margin, kappa)
    picks, left = _lex_extend(rows, np.full(kappa, margin), kappa - 1)
    return np.concatenate((rows[picks], left[:, None]), axis=1)


def _check_tables(n: int, kappa: int) -> None:
    """Refuse more than ``DEFAULT_CAP`` admissible tables.  The choices of the kappa - 1 free rows bound the
    count; past the cap, :func:`_row_recursion` at phi = 0 gives the log of the count, where its pairs stay
    within ``DEFAULT_CAP`` (as many as any table set under the cap needs, at every kappa).  Near the cap the
    logs of neighbouring counts differ by about 1 / (2 DEFAULT_CAP), millions of times the pass's rounding,
    so the test against log(DEFAULT_CAP + 1/2) decides as the integer count would."""
    margin = int(sector_counts(n, kappa, "balanced")[0])
    if math.comb(margin + kappa - 1, kappa - 1) ** min(kappa - 1, 64) <= DEFAULT_CAP:  # a bound of at least 2^64
        return
    _row_pairs(n, kappa, "balanced", DEFAULT_CAP)
    log_count = _row_recursion(kappa, n, margin)
    if log_count > math.log(DEFAULT_CAP + 0.5):
        count = math.exp(log_count)  # within 4e-15 relative of the count: its units are exact below 1e12 only
        shown = f"{count:.0f}" if count < 1e12 else f"{count:.6g}"
        raise EnumerationCapError(f"{shown} admissible tables, exceeding the cap of {DEFAULT_CAP}")


# Cephes lgam (Moshier 1989), the routine behind scipy.special.gammaln, at the integers x = k + 1: log k! for
# x < 13, else Stirling's series, its correction the A series below 1000, three terms from 1000 on, none above 1e8
_LOG_SMALL_FACTORIALS = np.array([math.log(float(math.factorial(k))) for k in range(12)])
_LS2PI = 0.91893853320467274178  # log sqrt(2 pi)
_LGAM_A = (8.11614167470508450300E-4, -5.95061904284301438324E-4, 7.93650340457716943945E-4,
           -2.77777777730099687205E-3, 8.33333333333331927722E-2)


def _log_factorial(k: np.ndarray) -> np.ndarray:
    """``log k!`` of integers ``k >= 0`` (an array or a scalar), Cephes ``lgam(k + 1)`` operation for operation
    (libm's ``log``), so every value equals ``scipy.special.gammaln(k + 1.0)``'s bit for bit."""
    k = np.asarray(k, dtype=np.int64)
    out = np.empty(k.shape)
    small = k < 12
    out[small] = _LOG_SMALL_FACTORIALS[k[small]]
    x = k[~small] + 1.0
    q = (x - 0.5) * _libm_log(x) - x + _LS2PI
    p = 1.0 / (x * x)
    series = np.where(x >= 1000.0, ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                                    + 0.0833333333333333333333) / x, _polevl(p, _LGAM_A) / x)
    out[~small] = np.where(x > 1e8, q, q + series)
    return out


def _log_gamma_table(n: int) -> np.ndarray:
    # table[k] = log k!
    return _log_factorial(np.arange(n + 1))


def log_overlap_law(tables: np.ndarray, n: int, kappa: int) -> np.ndarray:
    """Log probability of each of a ``(count, kappa, kappa)`` stack of admissible integer tables under
    the balanced overlap law.

    For a fixed balanced sigma and uniform balanced tau the overlap table
    has probability ``[n!/((n/kappa)!)^kappa]^{-1} prod_a (n/kappa)! /
    prod_b (n r_ab)!``.
    """
    glt = _log_gamma_table(n)
    margin = n // kappa
    log_sector = glt[n] - kappa * glt[margin]
    return -log_sector + kappa * glt[margin] - glt[tables].sum(axis=(1, 2))


def second_moment_ratio(n: int, beta: float, kappa: int) -> float:
    """Exact ``E (Z^bal)^2 / (E Z^bal)^2`` for the centered balanced model.

    The overlap-law average of ``exp(beta^2 n ||r - kappa^{-2} 11^T||_F^2)``
    over admissible tables, summed one table row at a time
    (:func:`_row_recursion`); its (s, r) pairs count against ``DEFAULT_CAP``.
    ``inf`` where the ratio overflows a double.
    """
    return exp_or_inf(_log_second_moment_ratio(n, beta, kappa))


def _log_second_moment_ratio(n: int, beta: float, kappa: int) -> float:
    """Log of :func:`second_moment_ratio`, finite where the ratio overflows: n ||T/n - u||_F^2 = ||T||_F^2 / n - n /
    kappa^2, so the balanced uncentered sum less ``beta^2 n / kappa^2``."""
    return _log_uncentered_ratio(n, beta, kappa, "balanced", DEFAULT_CAP) - beta ** 2 * n / kappa ** 2


def ldp_log_probability(n: int, kappa: int, table) -> tuple[float, float]:
    """(exact, asymptotic) log probability of an admissible table.

    The asymptotic value is ``-n D(r||u) - ((kappa-1)^2/2) log n
    - (1/2) sum_{r_ab != 0} log r_ab`` with ``u`` the uniform table; the
    difference of the two stays O(1) as n grows at fixed rational r.  The
    table must be a kappa-by-kappa array of nonnegative integers whose rows
    and columns each sum to n/kappa.
    """
    given = np.asarray(table)
    counts = given.astype(np.int64)
    if counts.shape != (kappa, kappa):
        raise ValueError(f"table must be {kappa}-by-{kappa}, got shape {counts.shape}")
    if not np.array_equal(counts, given):
        raise ValueError(f"table entries must be integers, got {given.tolist()!r}")
    margin = int(sector_counts(n, kappa, "balanced")[0])
    if counts.min() < 0 or (counts.sum(axis=0) != margin).any() or (counts.sum(axis=1) != margin).any():
        raise ValueError(f"all row and column sums must equal n/kappa = {margin}")
    exact = float(log_overlap_law(counts[None], n, kappa)[0])
    r = counts / n
    pos = r > 0
    kl = float((r[pos] * np.log(kappa ** 2 * r[pos])).sum())
    asym = -n * kl - (kappa - 1) ** 2 / 2.0 * math.log(n) - 0.5 * float(np.log(r[pos]).sum())
    return exact, asym


def shell_histogram(n: int, kappa: int) -> np.ndarray:
    """Admissible-table counts per Frobenius shell ``[(l-1)/n, l/n)``, l=1..n."""
    tables = admissible_array(n, kappa)
    # n gap = (kappa^2 ||T||^2 - n^2) / (n kappa^2) in integers: a table on a boundary lands in the shell above it
    shells = (kappa ** 2 * (tables ** 2).sum(axis=(1, 2)) - n ** 2) // (n * kappa ** 2)
    return np.bincount(shells, minlength=n)[:n]


def _fan_out(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(owner, rank) of every slot when item ``i`` owns ``counts[i]`` consecutive slots."""
    owner = np.repeat(np.arange(counts.size), counts)
    return owner, np.arange(owner.size) - np.repeat(np.cumsum(counts) - counts, counts)


def _compositions(total: int, parts: int) -> np.ndarray:
    """All nonnegative integer vectors of length ``parts`` summing to ``total``.

    Rows are in lexicographic order: each prefix is extended by every value
    up to what it has left, and the last entry takes the rest.
    """
    values, left = _lex_extend(np.arange(total + 1)[:, None], [total], parts - 1)
    return np.hstack((values, left))


def _log_ez_raw(n: int, beta: float, kappa: int) -> float:
    """log E Z for the raw Hamiltonian; E e^{beta H} = e^{beta^2 sum_a m_a^2 / (2n)}."""
    glt = _log_gamma_table(n)
    m = _compositions(n, kappa)
    logmult = glt[n] - glt[m].sum(axis=1)
    e1 = beta ** 2 * (m.astype(np.float64) ** 2).sum(axis=1) / (2.0 * n)
    return logsumexp(logmult + e1)


def _log_ez2_raw_all(n: int, beta: float, kappa: int) -> float:
    """log E Z^2 for the unconstrained raw model.

    Pairs (sigma, tau) are grouped by their joint color-count table C: n!/prod
    C_ab! pairs, each of Gaussian moment exp(al (sum_a rows_a^2 + sum_b cols_b^2
    + 2 sum C^2)), al = beta^2 / (2n).  So log n! plus the row recursion over
    any rows with ``phi(r) = -sum_b log r_b! + al (|r|^2 + 3 sum_b r_b^2)``,
    |r| = sum_b r_b, and cross weight 2 al.
    """
    glt, al = _log_gamma_table(n), beta ** 2 / (2.0 * n)
    return float(glt[n] + _row_recursion(
        kappa, n, None, lambda s: -glt[s].sum(axis=1) + al * (s.sum(axis=1) ** 2 + 3.0 * (s ** 2).sum(axis=1)), 2 * al))


def _row_pairs(n: int, kappa: int, sector, cap: float) -> int:
    """The (s, r) pairs of a sector's row recursion, refused where they or the entries of its column sums pass
    ``cap``, or where its keys pass int64.

    Any row: the C(n + 2 kappa, 2 kappa) pairs with |s| + |r| <= n.  Rows of sum m = n / kappa: the recursion
    tests each of the C(m + kappa - 1, kappa - 1) rows once per sorted target t on the planes |t| = m, 2m, .., n
    of [0, m]^kappa, the q^{km} coefficients of the Gaussian binomial [m + kappa choose kappa]_q.  The targets
    are the kappa-multisets of {0, .., m} whose sum m divides, less t = 0: by a roots-of-unity filter over the
    cycle index of S_kappa, sum over e | m, e <= kappa, of phi(e) (C(m / e + kappa // e, kappa // e) - 1) / m.
    The recursion also holds every column sum on those planes, ((m + 1)^kappa + m - 1) / m of them (by the same
    filter over [0, m]^kappa), kappa int64 entries each; their entries count against ``cap`` too.
    """
    d = sector_counts(n, kappa, sector)
    base = n + 1 if d is None else n // kappa + 1
    if base ** min(kappa, 64) > 2 ** 63:  # from kappa = 64 on, past int64 at every n
        raise EnumerationCapError(f"row recursion keys span {base}^{kappa} values, past int64")
    m = base - 1
    pairs = math.comb(n + 2 * kappa, 2 * kappa) if d is None else math.comb(m + kappa - 1, kappa - 1) * sum(
        sum(math.gcd(r, e) == 1 for r in range(e)) * (math.comb(m // e + kappa // e, kappa // e) - 1)
        for e in range(1, kappa + 1) if m % e == 0) // m
    if pairs > cap:
        raise EnumerationCapError(f"row recursion has {pairs} (s, r) pairs, exceeding the cap of {cap}")
    entries = 0 if d is None else kappa * ((base ** kappa + m - 1) // m)  # 'all': C(n + kappa, kappa) <= pairs
    if entries > cap:
        raise EnumerationCapError(f"row recursion holds {entries} column-sum entries, exceeding the cap of {cap}")
    return pairs


def _row_recursion(kappa: int, total: int, row_sum: int | None, phi=None, cross: float = 0.0) -> float:
    """Log-sum-exp over the kappa-row tables of nonnegative integers summing to ``total``, one row at a time.

    A table weighs the sum over its rows r of ``phi(r) + cross s.r``, s the
    column sums of the rows before r: ``W'(t) = LSE_{s+r=t} [W(s) + phi(r) +
    cross s.r]`` from W(0) = 0, then ``LSE_{|t|=total} W(t)``; ``phi`` None
    is phi = 0, the log of the table count.  W is kept per orbit of column
    permutations, at sorted targets t, each read per source s at its orbit;
    2 s.r = |t|^2 - |s|^2 - |r|^2 in integers.  Any row (``row_sum`` None):
    kappa row steps, t taking every s in the box [0, t].  Rows of sum m: the
    column sums lie on planes |s| = k m of [0, m]^kappa, t takes each row r <=
    t, and one in-place pass plane by plane finishes W.  Each target reduces
    alone, below its own maximum, in chunks of about ``_PAIR_CHUNK`` pairs.
    """
    bound = total if row_sum is None else row_sum
    place = (bound + 1) ** np.arange(kappa)[::-1]
    if row_sum is None:  # every s with |s| <= total, lexicographic
        states = _lex_extend(np.arange(total + 1)[:, None], [total], kappa)[0].astype(np.int64)
    else:  # plane k: s_b and m - s_b spend budgets k m and total - k m, so every prefix completes
        v = np.arange(row_sum + 1)[:, None]
        half = [_lex_extend(np.hstack((v, row_sum - v)), [k * row_sum, total - k * row_sum], kappa)[0]
                for k in range(kappa // 2 + 1)]
        states = np.concatenate(half + [row_sum - p for p in half[:(kappa + 1) // 2]]).astype(np.int64)  # s -> m - s
        states = states[np.argsort(states @ place)]
    reps, orbit = _unique_rows(np.sort(states, axis=1), bound + 1)  # one sorted t per orbit, and the orbit of each s
    if row_sum is not None:  # targets plane by plane
        order = np.argsort(reps.sum(axis=1), kind="stable")
        reps, orbit = reps[order], np.argsort(order)[orbit]
    keys, sq = states @ place, (states ** 2).sum(axis=1)  # keys sorted; s + r never carries in base bound + 1
    rep_key, rep_sq, rep_sum = reps @ place, (reps ** 2).sum(axis=1), reps.sum(axis=1)
    rows = np.flatnonzero(states.sum(axis=1) == row_sum)  # the rows of sum m (none for any row)
    cost = np.prod(reps + 1, axis=1) if row_sum is None else np.full(len(reps), len(rows))
    first = np.cumsum(cost) - cost  # a target's first pair
    weight = np.zeros(len(states)) if phi is None else phi(states)

    def pairs(lo: int, hi: int) -> tuple:  # source orbit, step, local target, group starts of targets lo .. hi - 1
        if row_sum is None:  # pairs grouped by target, each box's s in lexicographic order
            tgt, rank = _fan_out(cost[lo:hi])
            tgt += lo
            key = 0
            for b in reversed(range(kappa)):
                rank, digit = np.divmod(rank, reps[tgt, b] + 1)
                key = key + digit * place[b]
            src, row = np.searchsorted(keys, key), np.searchsorted(keys, rep_key[tgt] - key)
            starts = first[lo:hi] - first[lo]
        else:  # each target's rows r <= t, lexicographic
            fits = (states[rows] <= reps[lo:hi, None]).all(axis=2)
            tgt, row = np.nonzero(fits)
            tgt, row, size = tgt + lo, rows[row], fits.sum(axis=1)
            src, starts = np.searchsorted(keys, rep_key[tgt] - keys[row]), np.cumsum(size) - size
        step = weight[row] + cross / 2 * (rep_sq[tgt] - sq[src] - sq[row])
        return orbit[src], step, tgt - lo, starts

    breaks = np.diff(first // _PAIR_CHUNK) != 0  # first pairs in one window
    if row_sum is not None:
        breaks |= np.diff(rep_sum) != 0  # one plane per chunk
    cuts = [0, *(np.flatnonzero(breaks) + 1).tolist(), len(reps)][row_sum is not None:]  # t = 0 takes no row of sum m
    chunks = ((lo, hi, pairs(lo, hi)) for lo, hi in zip(cuts, cuts[1:]))
    w = np.full(len(reps), -np.inf)
    w[0] = 0.0  # at the orbit of s = 0
    if row_sum is None:
        chunks = list(chunks)  # built once, read by every row step
    for _ in range(kappa if row_sum is None else 1):
        nxt = np.empty_like(w) if row_sum is None else w  # in place: a plane reads only the plane below it
        for lo, hi, (src, step, tgt, starts) in chunks:
            x = w[src] + step
            top = np.maximum.reduceat(x, starts)
            nxt[lo:hi] = top + np.log(np.add.reduceat(np.exp(x - top[tgt]), starts))
        w = nxt
    size, last = np.bincount(orbit), rep_sum == total
    return logsumexp((w + np.log(size))[last])


def uncentered_ratio(n: int, beta: float, kappa: int, sector="all", cap: int = DEFAULT_CAP) -> float:
    """Exact ``E Z^2 / (E Z)^2`` for the RAW Hamiltonian.

    Evaluated exactly through the Gaussian pair-moment identity, summed over
    joint color-count tables one row at a time and over color orbits of the
    column sums (:func:`_row_recursion`).  The cap counts the recursion's
    (s, r) pairs (:func:`_row_pairs`).  Diverges with n for any beta > 0; the
    constrained sectors only slow the divergence.  ``inf`` where the ratio
    overflows a double.
    """
    return exp_or_inf(_log_uncentered_ratio(n, beta, kappa, sector, cap))


def _log_uncentered_ratio(n: int, beta: float, kappa: int, sector, cap: int) -> float:
    """Log of :func:`uncentered_ratio`, finite where the ratio overflows."""
    _row_pairs(n, kappa, sector, cap)
    if sector_counts(n, kappa, sector) is None:
        return _log_ez2_raw_all(n, beta, kappa) - 2.0 * _log_ez_raw(n, beta, kappa)
    # balanced: E Z = |sector| e^{beta^2 n / (2 kappa)}, and the pair sum is the overlap-law average of
    # exp(beta^2 ||T||_F^2 / n), whose summand (m!)^(2 kappa) / (n! prod_ab T_ab!) e^(...) factorizes over the entries
    glt, m = _log_gamma_table(n), n // kappa
    tables = _row_recursion(kappa, n, m, lambda s: beta ** 2 / n * (s ** 2).sum(axis=1) - glt[s].sum(axis=1))
    return float(2 * kappa * glt[m] - glt[n] + tables)


def _log_uncentered_lower_bound(n: int, beta: float, kappa: int, sector) -> float:
    """Log of the closed-form divergence floor of the raw-Hamiltonian moment ratio."""
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
    return _gauge_pair(_split(g.n, 2, "all", cap), beta, {g.stream: sites}, [g])[0]


def _gauge_pair(split: _Split, beta: float, sites_of, gs: Sequence[CouplingMatrix]) -> list[GaugePairResult]:
    """:func:`gauge_pair_check` for each g of ``gs`` at the sites ``sites_of[g.stream]``, with every g
    and its flip in one stack; every flip comes from one :func:`pottsglass.core._gauge_flip`."""
    parities = []
    for g in gs:
        sites = [int(s) for s in sites_of[g.stream]]
        if not sites:
            raise ValueError("sites multiset must be non-empty")
        if min(sites) < 0 or max(sites) >= g.n:
            raise IndexError(f"site indices must lie in [0, {g.n})")
        parities.append(np.bincount(sites, minlength=g.n) % 2 == 1)  # tau_s^2 = 1: only odd multiplicities count
    flips = [int(parity.argmax()) if parity.any() else None for parity in parities]  # the smallest odd site
    flipped = _gauge_flip(np.stack([g.g for g in gs]), [-1 if flip is None else flip for flip in flips])  # -1: no site
    stack = [c for g, flip, h in zip(gs, flips, flipped) for c in ([g] if flip is None else [g, CouplingMatrix(h)])]
    odd = np.array([p for parity, flip in zip(parities, flips) for p in [parity] * (1 if flip is None else 2)])
    na = split.rows_a.shape[1]
    tau = [np.where(odd[:, None, lo:hi], 3.0 - 2 * rows, 1.0).prod(axis=2)  # tau = +1 on color 1, -1 on color 2
           for rows, lo, hi in ((split.rows_a, 0, na), (split.rows_b, na, split.n))]
    _, mass = _mass(split, stack, beta, "raw", [tuple(tau)])  # the product is separable: A part times B part
    values, results = iter(float(w[:, 1].sum() / w[:, 0].sum()) for w in mass), []
    for flip, value in zip(flips, values):
        flipped = value if flip is None else next(values)
        results.append(GaugePairResult(value, flipped, value + flipped, "even" if flip is None else "odd", flip))
    return results


@dataclass(frozen=True)
class Estimate:
    """Disorder mean and stderr of a Gibbs average over ``replicas`` replicas, against its closed-form
    ceiling ``bound`` (None: no closed form).  Chains add whether any replica was flagged as slow-mixing
    and a ladder's swap acceptance rate per adjacent rung pair, summed over replicas."""

    value: float
    stderr: float
    bound: float | None
    replicas: int
    flagged: bool = False
    swap_rates: tuple[float, ...] = ()

    @property
    def satisfied(self) -> bool:
        return self.bound is None or self.value <= self.bound + 3.0 * self.stderr


def _tail_bound(n: int, epsilon: float, kappa: int) -> float | None:
    """The tail ceiling ``2 e^{-eps^2 n}`` at kappa = 2; None (no closed form) otherwise."""
    return 2.0 * math.exp(-epsilon ** 2 * n) if kappa == 2 else None


def _count_averages(split: _Split, observables: np.ndarray, beta: float,
                    gs: Sequence[CouplingMatrix]) -> list[np.ndarray]:
    """Gibbs averages under each of ``gs`` of statistics of the color counts, ``observables[:, k]``
    at ``split.counts[k]``."""
    _, mass = _mass(split, gs, beta)
    return [(observables * w[:, 0]).sum(axis=1) / w[:, 0].sum() for w in mass]


def _replica_average(n: int, kappa: int, statistics: Callable[[np.ndarray], np.ndarray], beta: float,
                     replicas: int, seed: int, cap: int, workers: int = 1) -> list[tuple[float, float]]:
    """Disorder (mean, stderr) of exact Gibbs averages over the 'all' sector.

    ``statistics`` maps the ``(D, kappa)`` color fractions ``d / n`` of the
    sector's count vectors to a ``(K, D)`` array, row ``k`` holding statistic
    ``k``.  Replica ``r`` draws its coupling from stream ``r`` of ``seed``; a
    single replica reports stderr 0.  The sum runs over color orbits, so each
    statistic is averaged over the distinct permutations of the count vector,
    which is exact for any statistic: the Gibbs mass of a count vector is that
    of its permutations.  ``split.counts`` lists every count vector of the
    sector, so each one's permutations are all among its rows.
    """
    if replicas < 1:
        raise ValueError(f"need replicas >= 1, got {replicas}")
    split = _split(n, kappa, "all", cap, orbits=True)
    # a count vector's orbit is fixed by how many colors hold each count (no np.sort: its SIMD code adds to RSS)
    size = len(split.counts)
    shape = np.bincount((np.arange(size)[:, None] * (n + 1) + split.counts).ravel(), minlength=size * (n + 1))
    _, orbit = np.unique(shape.reshape(size, n + 1), axis=0, return_inverse=True)
    orbit = orbit.reshape(-1)
    values = np.asarray(statistics(split.counts / n), dtype=np.float64)
    # np.take keeps C order, and with it the order in which _count_averages sums each row
    observables = np.take([np.bincount(orbit, row) / np.bincount(orbit) for row in values], orbit, axis=1)
    rows = map_replicas(partial(_count_averages, split, observables, beta), n, seed, replicas, workers, split.stack)
    return [mean_stderr(col) for col in np.array(rows).T]


def magnetization_moment_exact(n: int, beta: float, m, replicas: int = 200, seed: int = 0,
                               cap: int = DEFAULT_CAP, workers: int = 1):
    """Disorder-averaged ``<(d_1 - 1/2)^m>`` for the two-color model.

    Odd moments vanish identically: the global color swap leaves every
    energy bit-for-bit unchanged while negating ``d_1 - 1/2``, so each
    disorder realization's Gibbs average pairs to zero.  Even moments are
    estimated over disorder replicas and compared against the bound
    ``m! / (2^m (m/2)!) n^{-m/2}``.  One order ``m`` gives one estimate; a
    sequence gives a list of estimates, one per order in its order, sharing
    the enumeration and the disorder draws.
    """
    orders = [int(m)] if np.isscalar(m) else [int(k) for k in m]
    if any(k < 1 for k in orders):
        raise ValueError("moment order m must be >= 1")
    even = [k for k in orders if k % 2 == 0]
    if even and replicas < 2:
        raise ValueError("even-moment estimation needs at least 2 replicas")
    estimates = {k: Estimate(0.0, 0.0, 0.0, 0) for k in orders if k % 2 == 1}
    if even:
        moments = _replica_average(n, 2, lambda f: [(f[:, 0] - 0.5) ** k for k in even], beta, replicas, seed,
                                   cap, workers)
        for k, (mean, se) in zip(even, moments):
            bound = math.factorial(k) / (2 ** k * math.factorial(k // 2)) / n ** (k // 2)
            estimates[k] = Estimate(mean, se, bound, replicas)
    out = [estimates[k] for k in orders]
    return out[0] if np.isscalar(m) else out


def magnetization_mgf_exact(n: int, beta: float, lam: float, replicas: int = 200, seed: int = 0,
                            cap: int = DEFAULT_CAP) -> Estimate:
    """Disorder-averaged ``<exp(lam (d_1 - 1/2))>`` against ``e^{lam^2/(4n)}``."""
    [(mean, se)] = _replica_average(n, 2, lambda f: [np.exp(lam * (f[:, 0] - 0.5))], beta, replicas, seed, cap)
    return Estimate(mean, se, math.exp(lam ** 2 / (4.0 * n)), replicas)


def tail_probability_exact(
    n: int, beta: float, epsilon, replicas: int = 200, seed: int = 0,
    cap: int = DEFAULT_CAP, kappa: int = 2, workers: int = 1,
):
    """Disorder-averaged Gibbs mass of ``max_a |d_a - 1/kappa| >= eps``, as :class:`Estimate`.

    One ``epsilon`` gives one estimate; a sequence gives a list of estimates,
    one per epsilon in its order, sharing the enumeration and the disorder draws.
    """
    eps = [float(epsilon)] if np.isscalar(epsilon) else [float(e) for e in epsilon]
    tails = _replica_average(n, kappa, lambda f: max_deviation(f) >= np.array(eps)[:, None], beta, replicas, seed,
                             cap, workers)
    out = [Estimate(mean, se, _tail_bound(n, e, kappa), replicas) for e, (mean, se) in zip(eps, tails)]
    return out[0] if np.isscalar(epsilon) else out
