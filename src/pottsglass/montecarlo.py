"""Samplers for system sizes beyond exact enumeration.

Single-site Metropolis targets the unconstrained Gibbs measure; pair-swap
dynamics target the balanced sector while conserving the magnetization
exactly; parallel tempering couples chains across an inverse-temperature
ladder.  Estimators (magnetization tails, thermodynamic integration over a
tempering ladder) ride on top of these kernels, through one runner
(:func:`_run_stack`), which also drives a lone chain or ladder
(:func:`run_sweeps`).

Zero temperature is never sampled here: beta = inf claims route to the
exact ground-state measure in :mod:`pottsglass.exact`, since no
equilibration guarantee exists at beta = inf.

Reproducibility: chain ``c`` of root seed ``s`` draws from the Philox stream
``CHAIN_NAMESPACE | c`` of ``s`` the same 3n uniforms per sweep (a block of
``b`` sweeps draws ``random((b, 3, n))``, the values of ``b`` draws
``random((3, n))``) through one proposal map (:func:`_proposal_tables`), so
trajectories are bit-for-bit reproducible and independent of the worker count,
of the stack a chain sweeps in, of the block sizes and of the kernel form, row
by row or lockstep.
Its energy is computed from scratch by :func:`pottsglass.core.hamiltonian_raw`
at its start and every ``AUDIT_INTERVAL`` sweeps, which guards the cached
running sum against drift; so a configuration and its color images get
bit-identical energies there.

Every kernel accepts in the log domain, ``u < e^{beta dH}`` as one comparison
with a threshold made when ``u`` is drawn (:func:`_log_uniforms`); row by row
and in lockstep, a chain compares the same floats.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left, insort
from dataclasses import dataclass, fields
from functools import partial
from numbers import Integral

import numpy as np

from .core import (
    CHAIN_NAMESPACE,
    TEMPER_NAMESPACE,
    CouplingMatrix,
    SectorError,
    SpinConfig,
    centering_shift,
    count_configs,
    hamiltonian_raw,
    map_replicas,
    max_deviation,
    mean_stderr,
    philox_generator,
    sector_counts,
    write_atomic,
)
from .exact import DEFAULT_CAP, Estimate, _tail_bound, tail_probability_exact

__all__ = [
    "ChainState",
    "TemperingLadder",
    "TiResult",
    "run_sweeps",
    "estimate_tail",
    "free_energy_ti",
    "equilibration_flagged",
    "save_checkpoint",
    "load_chain",
    "load_ladder",
]

CHECKPOINT_VERSION = 2
AUDIT_INTERVAL = 100  # sweeps between recomputations of a chain's cached energy
# per sector (kernel), tiers (largest n, rows): from that many rows a stack of chains of size n, in the first tier
# that covers n, sweeps faster in lockstep than row by row (BENCH_mc_stack.json, BENCH_mc_swap_lockstep.json,
# BENCH_mc_log_accept.json, BENCH_mc_one_runner.json)
LOCKSTEP_ROWS = {"all": ((12, 12), (13, 16), (math.inf, 24)), "balanced": ((9, 8), (96, 13), (math.inf, 24))}
_STACK_ELEMS = 1 << 21  # coupling elements per estimate_tail stack: its stacked g + g^T stays within 16 MiB
_BLOCK_PROPOSALS = 1 << 13  # proposals per _run_stack draw block: its draws and tables stay within 1 MiB
MAX_RUNGS = 256  # rungs of a tempering ladder: its chain ids keep 8 bits for the rung


@dataclass
class ChainState:
    """One Markov chain: configuration, cached raw energy, its own RNG.

    The cached energy always refers to the raw Hamiltonian (the centered one
    differs by a configuration-independent shift, so the dynamics agree).
    For the balanced sector the magnetization is validated at construction
    and preserved exactly by the swap kernel.
    """

    colors: np.ndarray
    kappa: int
    beta: float
    sector: str
    energy: float
    rng: np.random.Generator
    sweeps: int = 0
    seed: int | None = None
    chain_id: int | None = None

    def __post_init__(self):
        if not math.isfinite(self.beta) or self.beta < 0:
            raise ValueError("chain beta must be finite and nonnegative")
        if not math.isfinite(self.energy):
            raise ValueError(f"chain energy must be finite, got {self.energy!r}")
        # a fractional count would never meet the audit schedule of _end_sweep
        if isinstance(self.sweeps, bool) or not isinstance(self.sweeps, Integral) or self.sweeps < 0:
            raise ValueError(f"chain sweeps must be a nonnegative integer, got {self.sweeps!r}")
        colors = np.asarray(self.colors)
        self.colors = np.ascontiguousarray(colors, dtype=np.int64)
        if not np.array_equal(self.colors, colors):
            raise ValueError(f"chain colors must be integers, got {colors.tolist()!r}")
        SpinConfig(self.colors.copy(), self.kappa)  # 1-d, non-empty, kappa >= 2, colors in [1, kappa]
        counts = sector_counts(self.colors.size, self.kappa, self.sector)  # None for 'all'; other sectors raise
        if counts is not None and not np.array_equal(np.bincount(self.colors - 1, minlength=self.kappa), counts):
            raise SectorError("balanced chain must start from a balanced configuration")

    @property
    def n(self) -> int:
        return int(self.colors.size)

    @classmethod
    def start(
        cls,
        g: CouplingMatrix,
        kappa: int,
        beta: float,
        sector: str = "all",
        seed: int = 0,
        chain_id: int = 0,
    ) -> "ChainState":
        counts = sector_counts(g.n, kappa, sector)  # None for 'all'; any other sector raises before a draw
        rng = philox_generator(seed, CHAIN_NAMESPACE | chain_id)
        if counts is None:
            colors = rng.integers(1, kappa + 1, size=g.n)
        else:
            colors = np.repeat(np.arange(1, kappa + 1), counts)
            rng.shuffle(colors)
        energy = hamiltonian_raw(SpinConfig(colors.copy(), kappa), g)
        return cls(colors=colors, kappa=kappa, beta=beta, sector=sector, energy=energy, rng=rng,
                   seed=seed, chain_id=chain_id)

    def _audit(self, g: CouplingMatrix) -> None:
        # a copy: SpinConfig freezes the array it is given, and the sweeps write into the colors
        recomputed = hamiltonian_raw(SpinConfig(self.colors.copy(), self.kappa), g)
        scale = max(1.0, abs(recomputed))
        if abs(self.energy - recomputed) > 1e-6 * scale:
            raise RuntimeError(
                f"cached energy drifted: cached={self.energy!r} recomputed={recomputed!r}"
            )
        self.energy = recomputed  # resync to stop error accumulation

    def _end_sweep(self, g: CouplingMatrix, energy: float) -> "ChainState":
        """Store a sweep's running energy, count the sweep, and audit on schedule."""
        self.energy = energy
        self.sweeps += 1
        if self.sweeps % AUDIT_INTERVAL == 0:
            self._audit(g)
        return self


def _stack_fields(colors: np.ndarray, s: np.ndarray, kappa: int) -> np.ndarray:
    """The local fields ``h[..., a, i] = sum_j S_ij 1{c_j = a}`` of the chains ``colors`` (0-based, ``(..., n)``) on
    the couplings ``s`` (``(..., n, n)``), leading axes broadcast: one matmul.  :func:`_run_stack` passes its rows
    grouped by coupling, ``(G, R / G, n)`` against ``s[:, None]``, so a group shares its matrix; the batch runs the
    same BLAS product per chain as a chain alone, so no field depends on the stack."""
    return (colors[..., None, :] == np.arange(kappa)[:, None]).astype(np.float64) @ s


@np.errstate(divide="ignore")  # as a decorator: it costs less per call than a with block
def _log_uniforms(us: np.ndarray) -> np.ndarray:
    """``np.log`` of a draw's uniforms, -inf at u = 0: a proposal is accepted iff its raw difference ``x = sqrt(n) dH``
    exceeds ``log(u)`` times ``sqrt(n) / beta`` (inf at beta = 0, so every proposal is accepted there), and a ladder
    swap iff its log acceptance exceeds ``log(u)``."""
    return np.log(us)


def _proposal_tables(draws: np.ndarray, choices: int, scales) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The proposal map: entry ``[k, j, r]`` of the three tables is proposal ``j`` of chain ``r`` in sweep ``k``, its
    site, its proposal (a new color for Metropolis, a partner rank for a swap; ``choices`` of them) and its threshold.

    ``draws[k, :, :, r]`` is chain ``r``'s draw for sweep ``k``, slice ``k`` of its block's ``random((b, 3, n))``
    (the values of ``b`` draws ``random((3, n))``); proposal ``j`` reads column ``j`` as ``(u0, u1, u)``: site
    ``int(u0 * n)``, proposal ``int(u1 * choices)`` and threshold ``log(u) * scales[r]`` (:func:`_log_uniforms`),
    in numpy, which at n = 256 costs less than a Python ``int(u * n)`` per proposal.
    """
    sites, props = (draws[:, :2] * np.array([draws.shape[2], choices])[:, None, None]).astype(np.int64).swapaxes(0, 1)
    limits = _log_uniforms(draws[:, 2])
    limits *= scales  # elementwise, the product each row kernel forms
    return sites, props, limits


def _metropolis_row(colors, energy: float, h: np.ndarray, s: np.ndarray, sites, props, limits) -> float:
    """A Metropolis sweep of one chain (0-based ``colors``, changed in place; its fields ``h``, ``(kappa, n)``, and
    couplings ``s = g + g^T``) from its column of the proposal tables; returns its running energy.

    Proposal ``(t, new, limit)`` recolors site ``t`` to color ``new`` with acceptance min(1, e^{beta dH}), iff
    ``x = sqrt(n) dH`` exceeds ``limit``, and adds ``x / sqrt(n)`` to the energy; the current color is a no-op.  A
    proposal costs O(1), an accepted move O(n) in place.
    """
    hrows = list(h)  # row views, made once per sweep
    sqn = math.sqrt(colors.size)
    for t, new, limit in zip(sites, props, limits):
        old = colors.item(t)
        if new == old:
            continue  # dH = 0: always accepted, state unchanged
        x = h.item(new, t) - h.item(old, t) + s.item(t, t)
        if x > limit:
            colors[t] = new
            row = s[t]
            np.subtract(hrows[old], row, out=hrows[old])
            np.add(hrows[new], row, out=hrows[new])
            energy += x / sqn
    return energy


def _swap_row(colors, energy: float, h: np.ndarray, s: np.ndarray, sites, ranks, limits) -> float:
    """A pair-swap sweep of one balanced chain, as :func:`_metropolis_row` makes a Metropolis one: proposal
    ``(i, rank, limit)`` transposes site ``i`` (color ``a``) and its partner ``j``, with ``(c, p) = divmod(rank,
    n // kappa)`` the ``p``-th site in index order of color ``b = c + (c >= a)``, the ``c``-th color other than
    ``a``.  Every color holds ``n // kappa`` sites, so the ranks name each other-color site once: the proposal is
    symmetric, and the color counts are conserved exactly.  The per-color site lists stay sorted (``del`` and
    ``insort``, O(n) like the field update, which moves ``S[i] - S[j]`` from ``h[a]`` to ``h[b]``)."""
    n, kappa = colors.size, len(h)
    per = n // kappa
    own = np.argsort(colors, kind="stable").reshape(kappa, per).tolist()  # sorted sites per color
    hrows, shift = list(h), np.empty(n)
    sqn = math.sqrt(n)
    for i, rank, limit in zip(sites, ranks, limits):
        a = colors.item(i)
        c, p = divmod(rank, per)
        b = c + (c >= a)
        j = own[b][p]
        sij = s.item(i, j)
        x1 = h.item(b, i) - h.item(a, i) + s.item(i, i)
        # site j's fields once site i already holds color b
        x2 = (h.item(a, j) - sij) - (h.item(b, j) + sij) + s.item(j, j)
        x = x1 + x2
        if x > limit:
            colors[i] = b
            colors[j] = a
            np.subtract(s[i], s[j], out=shift)
            np.subtract(hrows[a], shift, out=hrows[a])
            np.add(hrows[b], shift, out=hrows[b])
            for sites_of, out, into in ((own[a], i, j), (own[b], j, i)):
                del sites_of[bisect_left(sites_of, out)]
                insort(sites_of, into)
            energy += x / sqn
    return energy


def _lockstep(rows: int, n: int, sector: str) -> bool:
    """Whether a stack of ``rows`` chains of size ``n`` sweeps faster in lockstep than row by row."""
    return rows >= next(need for top, need in LOCKSTEP_ROWS[sector] if n <= top)


def _run_stack(chains: list[ChainState], tempers: list[TemperingLadder], gs: list[CouplingMatrix], burn_in: int,
               sweeps: int, thinning: int, observe) -> np.ndarray:
    """The one chain runner, of the estimators and of :func:`run_sweeps`: ``burn_in + sweeps`` sweeps of a stack's
    chains, each followed by every ladder's swaps (:func:`_stack_swaps`); returns ``observe(colors, energies)`` of
    the stack (0-based colors, a row per chain, in an array of the sweep's own that ``observe`` may keep) after
    every ``thinning``-th measured sweep, as columns.

    ``chains``: ``len(chains) // len(gs)`` per coupling of ``gs`` (a chain, or a ladder's rungs), in
    coupling order, at one sweep count; their colors and energies live in arrays for the run.  A block of
    ``b`` sweeps draws ``random((b, 3, n))`` per chain, mapped to proposal tables (:func:`_proposal_tables`),
    and ``random((b, rungs - 1))`` per ladder; it ends at the run's end or the next audit and holds at most
    ``_BLOCK_PROPOSALS`` proposals (or one sweep).  The runner owns a sweep's state: one stack ``s`` of the
    couplings ``g + g^T``, and per sweep one copy of the colors and one build of the fields (:func:`_stack_fields`),
    which the kernels change in place.  From the crossover :func:`_lockstep` on, a sweep runs in lockstep
    (:func:`_lockstep_moves`, :func:`_swap_moves` in the balanced sector); below it, row by row, row ``r`` on
    ``s[r // per]`` (:func:`_metropolis_row`, :func:`_swap_row`): the same bytes either way.  A block's last sweep
    ends through :meth:`ChainState._end_sweep`, chain by chain, so each keeps its audit schedule; the chains then
    hold the stack's state.
    """
    rows, n, kappa, per = len(chains), chains[0].n, chains[0].kappa, len(chains) // len(gs)
    swap, owners = chains[0].sector == "balanced", [g for g in gs for _ in range(per)]
    s = np.empty((len(gs), n, n))
    for k, g in enumerate(gs):
        np.add(g.g, g.g.T, out=s[k])
    if _lockstep(rows, n, chains[0].sector):
        r = np.arange(rows)
        # per row: the offsets of its fields, cells and coupling rows; S[g, t, t] at g * n + t
        offsets = (r * kappa, r * n, r // per * n, np.diagonal(s, axis1=1, axis2=2).reshape(-1))
        moves = partial(_swap_moves if swap else _lockstep_moves, s=s, offsets=offsets)
    else:
        moves = partial(_row_moves, _swap_row if swap else _metropolis_row, [s[r // per] for r in range(rows)])
    colors, energy = np.stack([c.colors for c in chains]) - 1, np.array([c.energy for c in chains])
    betas, choices = [c.beta for c in chains], n - n // kappa if swap else kappa
    scales = np.array([math.sqrt(n) / beta if beta else math.inf for beta in betas])
    lows = [k for k in range(rows - 1) if (k + 1) % per]  # lower rung of each adjacent pair of a ladder
    dbetas, accepts = [betas[k] - betas[k + 1] for k in lows], [0] * len(lows)
    records, done, total = [], 0, burn_in + sweeps
    while done < total:
        b = min(total - done, AUDIT_INTERVAL - chains[0].sweeps % AUDIT_INTERVAL,
                max(1, _BLOCK_PROPOSALS // (rows * n)))
        draws = np.empty((b, 3, n, rows))  # each generator straight into its slice
        for r, c in enumerate(chains):
            draws[..., r] = c.rng.random((b, 3, n))
        tables = _proposal_tables(draws, choices, scales)
        ladder_logs = tempers and _log_uniforms(np.hstack([t.rng.random((b, per - 1)) for t in tempers])).tolist()
        for k, step in enumerate(zip(*tables)):
            colors = colors.copy()  # the last sweep's colors stay as observe got them
            h = _stack_fields(colors.reshape(len(gs), per, n), s[:, None], kappa).reshape(rows, kappa, n)
            energy = moves(colors, h, energy, step)
            if k == b - 1:
                for c, row in zip(chains, colors + 1):
                    c.colors, c.sweeps = row, c.sweeps + b - 1
                energy = np.array([c._end_sweep(g, e).energy for c, g, e in zip(chains, owners, energy.tolist())])
            if tempers:
                e = energy.tolist()
                order = _stack_swaps(e, lows, dbetas, ladder_logs[k], accepts)
                colors, energy = colors[order], np.array(e)
            if (measured := done + k - burn_in) >= 0 and measured % thinning == 0:
                records.append(observe(colors, energy))
        done += b
        del draws, tables, step  # freed before the next block draws
    for c, row, e in zip(chains, colors + 1, energy.tolist()):  # after the last ladder swaps
        c.colors, c.energy = row, e
    for temper, acc in zip(tempers, np.reshape(accepts, (len(tempers), per - 1))):
        temper.swap_attempts, temper.swap_accepts = temper.swap_attempts + total, temper.swap_accepts + acc
    return np.stack(records, axis=1)


def _row_moves(kernel, syms, colors, h, energy, step):
    """One sweep of a stack below the crossover: ``kernel`` (:func:`_metropolis_row` or :func:`_swap_row`) on each
    row's colors, fields, couplings ``syms[r]`` and column of the sweep's tables ``step``; returns the energies."""
    columns = (table.T.tolist() for table in step)
    return np.array([kernel(*row) for row in zip(colors, energy.tolist(), h, syms, *columns)])


def _settle(energy, steps, moves):
    """A sweep's energies: each adds its accepted ``x / sqrt(n)`` in proposal order (a rejected one adds ``-0.0``,
    which changes no float), the row kernels' sum, from one division of the step table."""
    steps /= math.sqrt(len(steps))
    steps[~moves] = -0.0
    return np.add.accumulate(np.vstack((energy, steps)), axis=0)[-1]


def _lockstep_moves(colors, h, energy, step, s, offsets):
    """The ``n`` proposals of one sweep of a stack of Metropolis chains at once, from its tables ``step``, on the
    stack's colors (0-based) and fields ``h`` in place; returns the energies (:func:`_settle`).

    ``offsets`` place site ``t`` of chain ``r`` in the flat stack: cell ``r n + t``, coupling row ``S[r, t]`` and
    field ``h[r, a, t]``.  Proposal ``j`` of chain ``r`` reads ``x = h[r, new, t] - h[r, old, t] + S[r, t, t]`` and
    is accepted iff ``x`` exceeds its threshold; an accepted one sets the color and makes ``h[r, old] -= S[r, t]``
    and ``h[r, new] += S[r, t]``, elementwise, as :func:`_metropolis_row` does, on the same floats.
    """
    sites, props, limits = step
    n = colors.shape[1]
    base, cells0, srows0, diag = offsets
    at, srow, hcol = sites + cells0, sites + srows0, sites + base * n
    flat, hrows, srows, cells = h.reshape(-1), h.reshape(-1, n), s.reshape(-1, n), colors.reshape(-1)
    steps, moves = np.empty_like(limits), np.empty(limits.shape, dtype=bool)
    for at_k, srow_k, diag_k, hcol_k, hnew_k, new, limit, x, move in zip(
            at, srow, diag[srow], hcol, hcol + props * n, props, limits, steps, moves):
        old = cells[at_k]
        np.subtract(flat[hnew_k], flat[hcol_k + old * n], out=x)
        x += diag_k
        np.greater(x, limit, out=move)
        move &= new != old
        idx = move.nonzero()[0]
        if idx.size:
            now, row, at_base = new[idx], srows.take(srow_k[idx], axis=0), base[idx]
            cells[at_k[idx]] = now
            sink = np.concatenate((at_base + old[idx], at_base + now))
            rows = hrows.take(sink, axis=0)  # one gather and one scatter for both rows of every move
            rows[:idx.size] -= row
            rows[idx.size:] += row
            hrows[sink] = rows
    return _settle(energy, steps, moves)


def _swap_moves(colors, h, energy, step, s, offsets):
    """:func:`_lockstep_moves` for balanced chains, as :func:`_swap_row` makes them: proposal ``j`` of chain ``r``
    pairs site ``i`` (color ``a``) with the ``(p + 1)``-th site of color ``b = c + (c >= a)`` in index order, and
    compares the same raw ``x1 + x2`` with its threshold; an accepted one swaps the two colors and moves
    ``S[r, i] - S[r, j]`` from ``h[r, a]`` to ``h[r, b]``.  Every row holds ``n // kappa`` sites of each color, so
    that site is entry ``r n // kappa + p`` of the column indices of ``colors == b`` over the whole stack."""
    sites, ranks, limits = step
    n, kappa = colors.shape[1], h.shape[1]
    base, cells0, srows0, diag = offsets
    at, srow, hcol = sites + cells0, sites + srows0, sites + base * n
    cs, ps = np.divmod(ranks, n // kappa)
    ps += cells0 // kappa
    flat, hrows, srows, cells = h.reshape(-1), h.reshape(-1, n), s.reshape(-1, n), colors.reshape(-1)
    sflat, hbase = s.reshape(-1), base * n
    steps, moves = np.empty_like(limits), np.empty(limits.shape, dtype=bool)
    for at_i, srow_i, diag_i, hcol_i, c, p, limit, x, move in zip(at, srow, diag[srow], hcol, cs, ps, limits,
                                                                   steps, moves):
        a = cells[at_i]
        b = c + (c >= a)
        j = (colors == b[:, None]).nonzero()[1][p]
        srow_j, hcol_j, an, bn = srows0 + j, hbase + j, a * n, b * n
        sij = sflat[srow_i * n + j]
        x1 = flat[hcol_i + bn] - flat[hcol_i + an]
        x1 += diag_i
        np.subtract(flat[hcol_j + an] - sij, flat[hcol_j + bn] + sij, out=x)  # site j's once site i holds b
        x += diag[srow_j]
        x += x1
        np.greater(x, limit, out=move)
        idx = move.nonzero()[0]
        if idx.size:
            now, was = b[idx], a[idx]
            cells[at_i[idx]], cells[cells0[idx] + j[idx]] = now, was
            shift = srows.take(srow_i[idx], axis=0) - srows.take(srow_j[idx], axis=0)
            sink = np.concatenate((base[idx] + was, base[idx] + now))
            rows = hrows.take(sink, axis=0)
            rows[:idx.size] -= shift
            rows[idx.size:] += shift
            hrows[sink] = rows
    return _settle(energy, steps, moves)


@dataclass
class TemperingLadder:
    """Parallel-tempering stack: one chain per rung, shared disorder."""

    rungs: list[ChainState]
    rng: np.random.Generator
    swap_attempts: np.ndarray  # per adjacent rung pair
    swap_accepts: np.ndarray
    seed: int | None = None
    ladder_id: int | None = None

    def __post_init__(self):
        if len(self.rungs) < 2:  # a lone rung has no pair to swap with
            raise ValueError(f"a tempering ladder needs at least 2 rungs, got {len(self.rungs)}")
        betas = [r.beta for r in self.rungs]
        if any(b2 < b1 for b1, b2 in zip(betas, betas[1:])):
            raise ValueError("rung betas must be nondecreasing")
        if not len(self.swap_attempts) == len(self.swap_accepts) == len(betas) - 1:
            raise ValueError(f"a ladder of {len(betas)} rungs needs {len(betas) - 1} swap counters")
        given = [np.asarray(c) for c in (self.swap_attempts, self.swap_accepts)]  # as a checkpoint holds them
        self.swap_attempts, self.swap_accepts = tried, taken = [np.array(c, dtype=np.int64) for c in given]
        if not all(map(np.array_equal, (tried, taken), given)) or (taken < 0).any() or (taken > tried).any():
            raise ValueError(f"swap counters must be integers, 0 <= accepts <= attempts: {[c.tolist() for c in given]}")
        first = self.rungs[0]
        # one sweep count too: a run's draw blocks end at the first rung's audits (_run_stack)
        if any((r.kappa, r.sector, r.n, r.sweeps) != (first.kappa, first.sector, first.n, first.sweeps)
               for r in self.rungs):
            raise ValueError("ladder rungs must share kappa, sector, n and sweep count")

    @classmethod
    def start(
        cls,
        g: CouplingMatrix,
        kappa: int,
        betas,
        sector: str = "all",
        seed: int = 0,
        ladder_id: int = 0,
    ) -> "TemperingLadder":
        if len(betas) > MAX_RUNGS:  # rung k runs chain (ladder_id << 8) | k: one more would be the next ladder's
            raise ValueError(f"a tempering ladder has at most {MAX_RUNGS} rungs, got {len(betas)}")
        rungs = [
            ChainState.start(g, kappa, float(b), sector, seed, chain_id=(ladder_id << 8) | k)
            for k, b in enumerate(betas)
        ]
        rng = philox_generator(seed, TEMPER_NAMESPACE | ladder_id)
        pairs = max(len(rungs) - 1, 0)
        return cls(rungs, rng, np.zeros(pairs, dtype=np.int64), np.zeros(pairs, dtype=np.int64),
                   seed=seed, ladder_id=ladder_id)


def run_sweeps(state: ChainState | TemperingLadder, g: CouplingMatrix, count: int,
               observe=lambda colors, energy: energy) -> np.ndarray:
    """``count`` sweeps of a chain, or of a ladder's rungs each followed by its swaps, on its coupling ``g``, in one
    :func:`_run_stack` call; returns ``observe(colors, energies)`` after every sweep, a row per chain or rung
    (0-based colors) and a column per sweep, by default the energies; ``state`` ends at the last sweep.  Every sweep
    hands ``observe`` colors of its own, so it may keep them without a copy."""
    if count < 1:
        raise ValueError(f"need sweeps >= 1, got {count}")
    chains, tempers = (state.rungs, [state]) if isinstance(state, TemperingLadder) else ([state], [])
    return _run_stack(chains, tempers, [g], 0, count, 1, observe)


def _stack_swaps(energy: list[float], lows, dbetas, logs, accepts) -> list[int]:
    """Adjacent ladder swaps (Hukushima and Nemoto 1996) from the bottom up, in one pass over a stack's ladders: pair
    ``p`` may exchange rows ``k = lows[p]`` and ``k + 1`` (betas ``dbetas[p]`` apart), iff ``L = (beta_k - beta_{k+1})
    (H_{k+1} - H_k)`` exceeds ``log u = logs[p]`` (counted in ``accepts[p]``).  Configurations and energies travel,
    temperatures stay put: swaps ``energy`` in place and returns the row each row now holds."""
    order = list(range(len(energy)))
    for p, (k, dbeta, log_u) in enumerate(zip(lows, dbetas, logs)):
        if dbeta * (energy[k + 1] - energy[k]) > log_u:
            order[k], order[k + 1], energy[k], energy[k + 1] = order[k + 1], order[k], energy[k + 1], energy[k]
            accepts[p] += 1
    return order


def equilibration_flagged(series: np.ndarray) -> bool:
    """Geweke-style flag: first-half and second-half means differ by > 3
    pooled standard errors."""
    series = np.asarray(series, dtype=np.float64)
    if series.size < 8:
        return False
    half = series.size // 2
    a, b = series[:half], series[half:]
    se = math.sqrt(a.var(ddof=1) / a.size + b.var(ddof=1) / b.size)
    if se == 0.0:
        return False
    return bool(abs(a.mean() - b.mean()) / se > 3.0)


# ---------------------------------------------------------------------------
# Estimators


def estimate_tail(
    n: int, beta: float, epsilon, kappa: int = 2, replicas: int = 8, sweeps: int = 2000,
    burn_in: int = 1000, thinning: int = 10, ladder=(), seed: int = 0, cap: int = DEFAULT_CAP,
    workers: int = 1,
) -> list[Estimate]:
    """Disorder-and-Gibbs double average of ``1{max_a |d_a - 1/kappa| >= eps}``.

    Accepts one epsilon or a sequence; all epsilons share the same chains,
    and the list holds one :class:`pottsglass.exact.Estimate` per epsilon, in
    order.  beta = inf returns :func:`pottsglass.exact.tail_probability_exact`
    itself; finite beta runs Metropolis chains, or a tempering ladder when
    ``ladder`` is set (recommended for large beta).  Replica ``r`` samples
    the coupling of stream ``r`` (:func:`pottsglass.core.map_replicas`).
    The replicas go in ``ceil(replicas / workers)`` per stack, at most
    ``_STACK_ELEMS`` coupling elements, each run by :func:`_run_stack`: the
    same bytes as one chain at a time.
    """
    if replicas < 1 or sweeps < 1 or thinning < 1 or burn_in < 0:
        raise ValueError(f"need replicas >= 1, sweeps >= 1, thinning >= 1 and burn_in >= 0, "
                         f"got {replicas}, {sweeps}, {thinning}, {burn_in}")
    if len(ladder) == 1:  # TemperingLadder refuses it too, but only once the couplings are drawn
        raise ValueError(f"a tempering ladder needs at least 2 rungs, got {tuple(ladder)}")
    if ladder and (math.isinf(beta) or ladder[-1] != beta):  # beta = inf is exact: no chains to temper
        raise ValueError(f"the ladder must end at a finite target beta: ladder top {ladder[-1]}, beta {beta}")
    epsilons = [float(epsilon)] if np.isscalar(epsilon) else [float(e) for e in epsilon]
    if math.isinf(beta):
        return tail_probability_exact(n, beta, epsilons, replicas=replicas, seed=seed, cap=cap, kappa=kappa,
                                      workers=workers)

    stack = max(1, min(-(-replicas // max(workers, 1)), _STACK_ELEMS // (n * n)))  # a stack per worker
    results = map_replicas(
        partial(_tail_replicas, beta, epsilons, kappa, sweeps, burn_in, thinning, ladder, seed),
        n, seed, replicas, workers, stack,
    )
    fractions = np.array([f for f, _, _ in results])
    flagged = any(flag for _, flag, _ in results)
    swap_rates = ()
    if ladder:
        attempts, accepts = np.sum([swaps for _, _, swaps in results], axis=0)
        swap_rates = tuple((accepts / attempts).tolist())
    return [Estimate(*mean_stderr(fractions[:, idx]), _tail_bound(n, e, kappa), replicas, flagged, swap_rates)
            for idx, e in enumerate(epsilons)]


def _tail_replicas(beta, epsilons, kappa, sweeps, burn_in, thinning, ladder, seed,
                   gs: list[CouplingMatrix]) -> list[tuple[list[float], bool, np.ndarray | None]]:
    """Replicas of :func:`estimate_tail`, one per coupling of ``gs``: each one's tail fractions per
    epsilon, its flag, and its ladder's ``(swap_attempts, swap_accepts)`` (None without a ladder).

    Replica ``r`` (coupling stream ``g.stream``) runs chain or ladder ``r``, all of them through :func:`_run_stack`.
    """
    if ladder:
        tempers = [TemperingLadder.start(g, kappa, ladder, "all", seed, ladder_id=g.stream) for g in gs]
        chains = [rung for temper in tempers for rung in temper.rungs]
    else:
        tempers, chains = [], [ChainState.start(g, kappa, beta, "all", seed, chain_id=g.stream) for g in gs]
    top = len(chains) // len(gs) - 1  # each replica's chain: its ladder's top rung
    devs = _run_stack(chains, tempers, gs, burn_in, sweeps, thinning,
                      lambda colors, energy: _deviations(colors[top::top + 1], kappa))
    swaps = [np.stack((t.swap_attempts, t.swap_accepts)) for t in tempers] or [None] * len(gs)
    return [([(row >= e).mean() for e in epsilons], equilibration_flagged(row), sw) for row, sw in zip(devs, swaps)]


def _deviations(colors: np.ndarray, kappa: int) -> np.ndarray:
    """``max_a |d_a - 1/kappa|`` of each row's color fractions ``d`` (0-based colors, shape ``(R, n)``)."""
    return max_deviation((colors[:, :, None] == np.arange(kappa)).sum(axis=1) / colors.shape[1])


@dataclass(frozen=True)
class TiResult:
    value: float
    stderr: float
    quad_error: float
    grid: np.ndarray
    energy_means: np.ndarray
    energy_stderrs: np.ndarray
    log_sector_size: float
    flagged: bool
    swap_rates: tuple[float, ...] = ()  # the grid ladder's swap acceptance per adjacent pair of grid points


def _batch_stats(series: np.ndarray, n_batches: int = 20) -> tuple[float, float]:
    """Mean of ``series`` and the stderr of its batch means (at least 2 batches)."""
    k = min(n_batches, max(2, series.size // 4))
    usable = (series.size // k) * k
    return float(series.mean()), mean_stderr(series[:usable].reshape(k, -1).mean(axis=1))[1]


def free_energy_ti(
    g: CouplingMatrix,
    kappa: int,
    beta_max: float,
    n_grid: int,
    sector: str = "all",
    kind: str = "centered",
    seed: int = 0,
    sweeps: int = 2000,
    burn_in: int = 500,
) -> TiResult:
    """Per-site free energy at beta_max by thermodynamic integration.

    ``d(log Z)/d(beta) = <H>``, so the trapezoid rule over Monte Carlo
    estimates of the mean energy, anchored at ``log |sector|`` for beta = 0,
    reconstructs ``n^{-1} log Z(beta_max)``.  The grid is one tempering ladder
    (Hukushima and Nemoto 1996; ``ladder_id`` 0): rung ``k`` sits at grid point
    ``k``, and its energies after each measured sweep and swap pass are that
    point's series.  The reported uncertainty is the propagated batch-means
    stderr; the quadrature error is estimated from second differences of the
    integrand.
    """
    if n_grid < 8:
        raise ValueError("need n_grid >= 8 for a usable trapezoid rule")
    if sweeps < 2 or burn_in < 0:  # a batch stderr needs 2 batches
        raise ValueError(f"need sweeps >= 2 and burn_in >= 0, got {sweeps}, {burn_in}")
    if beta_max < 0:
        raise ValueError(f"beta_max must be nonnegative, got {beta_max}")
    n = g.n
    log_size = math.log(count_configs(n, kappa, sector))
    if kind not in ("raw", "centered"):
        raise ValueError(f"unknown hamiltonian kind {kind!r}")
    shift = centering_shift(g, kappa) if kind == "centered" else 0.0
    grid = np.linspace(0.0, beta_max, n_grid)
    ladder = TemperingLadder.start(g, kappa, grid, sector, seed)
    energies = _run_stack(ladder.rungs, [ladder], [g], burn_in, sweeps, 1, lambda _, energy: energy - shift)
    means, errs = np.array([_batch_stats(series) for series in energies]).T
    flagged = any(equilibration_flagged(series) for series in energies)
    swap_rates = tuple((ladder.swap_accepts / ladder.swap_attempts).tolist())
    h = grid[1] - grid[0]
    integral = float(np.trapezoid(means, grid))
    weights = np.full(n_grid, h)
    weights[0] = weights[-1] = h / 2.0
    se = math.sqrt(float(((weights * errs) ** 2).sum())) / n
    second = np.abs(np.diff(means, 2))
    quad = float(second.sum()) * h / 12.0 / n
    return TiResult(
        value=(log_size + integral) / n,
        stderr=se,
        quad_error=quad,
        grid=grid,
        energy_means=means,
        energy_stderrs=errs,
        log_sector_size=log_size,
        flagged=flagged,
        swap_rates=swap_rates,
    )


# ---------------------------------------------------------------------------
# Checkpoints (versioned JSON: a record's dataclass fields plus ``kind`` and ``version``)


def _restore_rng(state: dict) -> np.random.Generator:
    rng = np.random.Generator(np.random.Philox())
    rng.bit_generator.state = state  # numpy reads the counter, key and buffer lists as uint64
    return rng


_KINDS = {ChainState: "chain", TemperingLadder: "ladder"}


def _payload(obj) -> dict:
    """Every dataclass field of ``obj``, tagged with its kind and the checkpoint version."""
    payload = {"kind": _KINDS[type(obj)], "version": CHECKPOINT_VERSION}
    payload.update((f.name, getattr(obj, f.name)) for f in fields(obj))
    return payload


def _to_json(value):
    """How ``json.dumps`` writes a payload's other values: a rung as its payload, a generator
    as its Philox state, and arrays (the state's too) as lists."""
    if isinstance(value, ChainState):
        return _payload(value)
    if isinstance(value, np.random.Generator):
        return value.bit_generator.state
    return value.tolist()


def save_checkpoint(obj, path: str) -> None:
    """Atomically write a chain or ladder checkpoint as versioned JSON."""
    if type(obj) not in _KINDS:
        raise TypeError(f"cannot checkpoint {type(obj).__name__}")
    write_atomic(path, json.dumps(_payload(obj), sort_keys=True, default=_to_json))


# Fields whose JSON value is not the field value itself; every other field loads as stored.
_DECODE = {
    "colors": np.array,  # ChainState rejects colors that an integer cast would change
    "swap_attempts": np.array,  # TemperingLadder rejects counters that an integer cast would change
    "swap_accepts": np.array,
    "rng": _restore_rng,
    "rungs": lambda payloads: [_from_payload(p, ChainState) for p in payloads],
}


def _from_payload(payload: dict, cls):
    """The ``cls`` record held by ``payload``; ValueError unless kind and version match."""
    kind = _KINDS[cls]
    if payload.get("kind") != kind:
        raise ValueError(f"checkpoint does not hold a {kind}")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {payload.get('version')!r}")
    return cls(**{f.name: _DECODE.get(f.name, lambda value: value)(payload[f.name]) for f in fields(cls)})


def load_chain(path: str) -> ChainState:
    with open(path) as fh:
        return _from_payload(json.load(fh), ChainState)


def load_ladder(path: str) -> TemperingLadder:
    with open(path) as fh:
        return _from_payload(json.load(fh), TemperingLadder)
