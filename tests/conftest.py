"""Shared oracle helpers for the test suite.

These deliberately re-derive quantities through independent routes (indicator
inner products, configuration-pair double sums, materialized projections) so
the library code is never checked against itself.  The one exception,
``split_energies``, lists the engine's own block energies in full, for the
bitwise and block-fold tests; ``full_split_log_partition`` sums those
energies, as the oracle of the color-orbit quotient.  ``log_ez2_raw_all_pairs``
is the raw E Z^2 row recursion over every column-sum state, the oracle of
the library's recursion over color orbits.
"""

import math

import numpy as np
import pytest

from pottsglass import core, exact


def config_array(n: int, kappa: int, sector: str = "all", cap: int | None = None) -> np.ndarray:
    """All sector configurations as one ``(count, n)`` int array, the brute-force route.

    Rows are in lexicographic order: each site takes every color that still has
    sites left in the sector (any color, for ``"all"``).  Raises :class:`pottsglass.core.EnumerationCapError` before
    materializing anything too large.
    """
    total = core.count_configs(n, kappa, sector)
    if cap is not None and total > cap:
        raise core.EnumerationCapError(f"sector has {total} configurations, exceeding the cap of {cap}")
    counts = core.sector_counts(n, kappa, sector)
    picks, _ = core._lex_extend(np.eye(kappa, dtype=np.int64), np.full(kappa, n) if counts is None else counts, n)
    return picks.astype(np.int64) + 1


def maximizers(g: core.CouplingMatrix, kappa: int, sector: str = "all") -> np.ndarray:
    """The sector's energy maximizers, in lexicographic order: every row of :func:`config_array` whose
    :func:`pottsglass.core.hamiltonian_raw` equals the largest, so a color image of a maximizer ties bitwise."""
    colors = config_array(g.n, kappa, sector)
    energies = np.array([core.hamiltonian_raw(core.SpinConfig(row, kappa), g) for row in colors])
    return colors[energies == energies.max()]


def flipped_at(g: core.CouplingMatrix, site: int) -> core.CouplingMatrix:
    """``g`` with the sign of every coupling incident to ``site`` flipped by hand; the diagonal entry flips twice."""
    hand = g.g.copy()
    hand[site, :] *= -1.0
    hand[:, site] *= -1.0
    return core.CouplingMatrix(hand)


def split_energies(n, kappa, sector, g):
    """Every configuration of the split sector with its raw energy from the engine's blocks, all materialized."""
    split = exact._split(n, kappa, sector)
    parts = [[np.broadcast_to(x, e[0].shape).ravel() for x in (e[0], pa, pb)]
             for e, pa, pb in exact._energy_blocks(split, [g], "raw")]
    energies, pa, pb = (np.concatenate(x) for x in zip(*parts))
    return np.hstack((split.rows_a[pa], split.rows_b[pb])), energies


def full_split_log_partition(g, beta, kappa, sector, kind):
    """log Z by log-sum-exp over every configuration of the full split, one energy each (no color orbits)."""
    _, energies = split_energies(g.n, kappa, sector, g)
    shift = core.centering_shift(g, kappa) if kind == "centered" else 0.0
    return exact.logsumexp(beta * (energies - shift))


def log_ez2_raw_all_pairs(n: int, beta: float, kappa: int) -> float:
    """log E Z^2 for the unconstrained raw model, by the row recursion over every state s (no color orbits).

    ``W'(s + r) = LSE_{s,r} [W(s) + phi(r) + 2 al s.r]`` over every pair of
    column-sum vectors with |s| + |r| <= n, scattered to its target with
    ``np.maximum.at`` and ``np.bincount``; then log n! + LSE_{|s|=n} W(s)
    (see :func:`pottsglass.exact._log_ez2_raw_all`).
    """
    glt = exact._log_gamma_table(n)
    al = beta ** 2 / (2.0 * n)
    states = exact._compositions(n, kappa + 1)[:, :-1]  # every s with |s| <= n, lexicographic
    size = states.sum(axis=1)
    # Pair each s with every r of |r| <= n - |s|: a prefix of the states sorted by size.
    src, rank = exact._fan_out(np.cumsum(np.bincount(size))[n - size])
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
    return float(glt[n] + exact.logsumexp(w[size == n]))


def indicator_inner_product(sig: np.ndarray, tau: np.ndarray) -> float:
    """Coefficient-space covariance oracle: sum_ij 1{s_i=s_j} 1{t_i=t_j} / n."""
    n = sig.size
    ms = sig[:, None] == sig[None, :]
    mt = tau[:, None] == tau[None, :]
    return float((ms & mt).sum() / n)


def match_matrix_flat(colors: np.ndarray) -> np.ndarray:
    """(m, n*n) flattened site-match indicators for a batch of configs."""
    return (colors[:, :, None] == colors[:, None, :]).reshape(colors.shape[0], -1)


def gram_pair_covariances(colors: np.ndarray) -> np.ndarray:
    """All-pairs covariance oracle: entry (i, j) = n ||R(sigma_i, sigma_j)||_F^2."""
    m = match_matrix_flat(colors).astype(np.float64)
    return m @ m.T / colors.shape[1]


_ENERGY_CHUNK = 4096  # rows per mask block in batch_energies_raw


def batch_energies_raw(colors: np.ndarray, g: core.CouplingMatrix) -> np.ndarray:
    """Raw Hamiltonian of every row of a ``(m, n)`` color matrix.

    The BLAS mask kernel: each row's site-match mask times the flattened
    couplings.  BLAS picks the summation order, so a configuration and its
    color image may differ in the last bits; an oracle route, not a library one.
    """
    colors = np.asarray(colors, dtype=np.int64)
    m, n = colors.shape
    if n != g.n:
        raise core.DimensionMismatchError(f"configs have {n} sites, coupling is {g.n}x{g.n}")
    flat = g.g.reshape(-1)
    sqn = math.sqrt(n)
    out = np.empty(m, dtype=np.float64)
    for lo in range(0, m, _ENERGY_CHUNK):
        hi = min(m, lo + _ENERGY_CHUNK)
        blk = colors[lo:hi]
        mask = (blk[:, :, None] == blk[:, None, :]).reshape(hi - lo, -1)
        out[lo:hi] = mask.astype(np.float64) @ flat / sqn
    return out


def brute_force_energy(colors: np.ndarray, g: np.ndarray) -> float:
    """Scalar double-loop Hamiltonian, the slowest possible oracle."""
    n = colors.size
    total = 0.0
    for i in range(n):
        for j in range(n):
            if colors[i] == colors[j]:
                total += g[i, j]
    return total / math.sqrt(n)


def independent_grid_oracle(beta, delta, pitch=1.0 / 120.0):
    """Plain nested-loop grid scan over the kappa=3 margin polytope."""
    third = 1.0 / 3.0
    steps = int(round(third / pitch))
    axis = [i * third / steps for i in range(steps + 1)]
    u = 1.0 / 9.0
    best = math.inf
    b2 = beta ** 2
    block = np.array([[x, y, z] for x in axis for y in axis for z in axis])
    for r11 in axis:
        r12, r21, r22 = block[:, 0], block[:, 1], block[:, 2]
        rest = np.stack(
            [
                third - r11 - r12,
                third - r21 - r22,
                third - r11 - r21,
                third - r12 - r22,
                r11 + r12 + r21 + r22 - third,
            ],
            axis=1,
        )
        ok = np.all(rest >= -1e-12, axis=1)
        if not ok.any():
            continue
        full = np.concatenate(
            [np.full((ok.sum(), 1), r11), block[ok], np.clip(rest[ok], 0.0, None)], axis=1
        )
        gap = ((full - u) ** 2).sum(axis=1)
        sel = gap >= delta
        if not sel.any():
            continue
        pts, gap = full[sel], gap[sel]
        with np.errstate(divide="ignore", invalid="ignore"):
            ent = np.where(pts > 0, pts * np.log(9.0 * pts), 0.0)
        best = min(best, float((ent.sum(axis=1) - b2 * gap).min()))
    return best


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_config(rng, n: int, kappa: int) -> core.SpinConfig:
    return core.SpinConfig(rng.integers(1, kappa + 1, size=n), kappa)
