"""Samplers for system sizes beyond exact enumeration.

Single-site Metropolis targets the unconstrained Gibbs measure; pair-swap
dynamics target the balanced sector while conserving the magnetization
exactly; parallel tempering couples chains across an inverse-temperature
ladder.  Estimators (magnetization tails, thermodynamic integration over a
tempering ladder) ride on top of these kernels, through one runner
(:func:`_run_chains`).

Zero temperature is never sampled here: beta = inf claims route to the
exact ground-state measure in :mod:`pottsglass.exact`, since no
equilibration guarantee exists at beta = inf.

Reproducibility: chain ``c`` of root seed ``s`` draws from the Philox stream
``CHAIN_NAMESPACE | c`` of ``s`` the same 3n uniforms per sweep, drawn per
sweep (``random((3, n))``) or per block of ``b`` (``random((b, 3, n))``), so
trajectories are bit-for-bit reproducible and independent of the worker count
used to farm out disorder replicas, and of whether a chain sweeps alone or in
lockstep with others (:func:`_run_stack`).  Its energy is computed from scratch
by :func:`pottsglass.core.hamiltonian_raw` at its start and every
``AUDIT_INTERVAL`` sweeps, which guards the cached running sum against drift;
so a configuration and its color images get bit-identical energies there.

Every kernel accepts in the log domain, ``u < e^{beta dH}`` as one comparison
with a threshold made when ``u`` is drawn (:func:`_log_uniforms`); alone and in
lockstep, a chain compares the same floats.
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
from .exact import DEFAULT_CAP, TailEstimate, _tail_bound, tail_probability_exact

__all__ = [
    "ChainState",
    "TemperingLadder",
    "TiResult",
    "metropolis_sweep",
    "swap_sweep",
    "sweep",
    "tempering_step",
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
# that covers n, sweeps faster in lockstep than chain by chain (BENCH_mc_stack.json, BENCH_mc_swap_lockstep.json,
# BENCH_mc_log_accept.json)
LOCKSTEP_ROWS = {"all": ((12, 9), (math.inf, 24)), "balanced": ((9, 8), (96, 13), (math.inf, 24))}
_STACK_ELEMS = 1 << 21  # coupling elements per estimate_tail stack: its stacked g + g^T stays within 16 MiB
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


def _local_fields(colors: np.ndarray, s: np.ndarray, kappa: int) -> np.ndarray:
    """``h[a - 1, i] = sum_j S_ij 1{c_j = a}`` for every color ``a`` and site ``i``, one matmul."""
    onehot = colors == np.arange(1, kappa + 1)[:, None]
    return onehot.astype(np.float64) @ s


def _stack_fields(colors: np.ndarray, s: np.ndarray, kappa: int) -> np.ndarray:
    """:func:`_local_fields` of every row of ``colors`` (0-based, shape ``(R, n)``), one batched matmul.

    The rows come in ``len(s)`` equal groups, group ``g`` on the couplings ``s[g]``; a group's rows
    share its matrix, not copies.  The batch runs the same BLAS product per chain as a stack of one,
    so a chain's fields do not depend on the stack it sweeps in.
    """
    rows, n = colors.shape
    onehot = (colors[:, None] == np.arange(kappa)[:, None]).astype(np.float64)
    return (onehot.reshape(len(s), -1, kappa, n) @ s[:, None]).reshape(rows, kappa, n)


def _partner(own: list[list[int]], a: int, rank: int) -> int:
    """Swap partner of rank ``rank`` for color ``a``: with ``(c, p) = divmod(rank, per)``, site ``p``
    of the sorted sites ``own`` of the ``c``-th color other than ``a``.  O(1); in the balanced
    sector ranks ``0 .. n - per - 1`` name each other-color site exactly once."""
    c, p = divmod(rank, len(own[0]))
    return own[c + (c + 1 >= a)][p]


def _log_uniforms(us: np.ndarray) -> np.ndarray:
    """``np.log`` of a draw's uniforms, -inf at u = 0: a proposal is accepted iff its raw difference ``x = sqrt(n) dH``
    exceeds ``log(u)`` times ``sqrt(n) / beta`` (inf at beta = 0, so every proposal is accepted there), and a ladder
    swap iff its log acceptance exceeds ``log(u)``."""
    with np.errstate(divide="ignore"):
        return np.log(us)


def metropolis_sweep(state: ChainState, g: CouplingMatrix) -> ChainState:
    """n single-site recoloring proposals with acceptance min(1, e^{beta dH}).

    One ``random((3, n))`` draw per sweep: proposal ``k`` reads column ``k``
    as ``(u0, u1, u)``, recolors site ``int(u0 * n)`` to color
    ``1 + int(u1 * kappa)`` and accepts if ``sqrt(n) dH`` exceeds the
    threshold of ``u`` (:func:`_log_uniforms`).  A proposal equal to the current
    color is a no-op.  The local fields are rebuilt once per sweep, an
    O(kappa n^2) product; a proposal then costs O(1) and an accepted move O(n),
    in place.  :func:`_run_stack` makes this sweep for a stack of chains at
    once, with the same bytes, from the crossover :func:`_lockstep` on.
    """
    if state.sector != "all":
        raise SectorError("metropolis_sweep serves the unconstrained sector")
    n, kappa, beta = state.n, state.kappa, state.beta
    s = g.sym
    sqn = math.sqrt(n)
    draws = state.rng.random((3, n))
    # the map in numpy: at large n a Python int(u * n) per proposal costs more than the saved draw calls
    sites, props = (draws[:2] * [[n], [kappa]]).astype(np.int64).tolist()
    colors = state.colors
    h = _local_fields(colors, s, kappa)
    hrows, srows = list(h), list(s)  # row views, made once per sweep
    energy = state.energy
    scale = sqn / beta if beta else math.inf
    for t, new, log_u in zip(sites, props, _log_uniforms(draws[2]).tolist()):  # colors 0-based here
        old = colors.item(t) - 1
        if new == old:
            continue  # dH = 0: always accepted, state unchanged
        x = h.item(new, t) - h.item(old, t) + s.item(t, t)
        if x > log_u * scale:
            colors[t] = new + 1
            np.subtract(hrows[old], srows[t], out=hrows[old])
            np.add(hrows[new], srows[t], out=hrows[new])
            energy += x / sqn
    return state._end_sweep(g, energy)


def _lockstep(rows: int, n: int, sector: str) -> bool:
    """Whether a stack of ``rows`` chains of size ``n`` sweeps faster in :func:`_run_stack` than chain by chain."""
    return rows >= next(need for top, need in LOCKSTEP_ROWS[sector] if n <= top)


def _run_chains(chains: list[ChainState], tempers: list[TemperingLadder], gs: list[CouplingMatrix], kappa: int,
                burn_in: int, sweeps: int, thinning: int, observe) -> np.ndarray:
    """:func:`_run_stack` from the crossover (:func:`_lockstep`) on; below it :func:`sweep` or :func:`tempering_step`
    runs each replica alone, with the same bytes and records (``observe`` then sees that replica's chains)."""
    if _lockstep(len(chains), chains[0].n, chains[0].sector):
        return _run_stack(chains, tempers, gs, kappa, burn_in, sweeps, thinning, observe)
    per, step_one, records = len(chains) // len(gs), tempering_step if tempers else sweep, []
    for r, (unit, g) in enumerate(zip(tempers or chains, gs)):  # replica by replica, its couplings alone in cache
        own, series = chains[r * per:(r + 1) * per], []
        for t in range(burn_in + sweeps):
            step_one(unit, g)
            if t >= burn_in and (t - burn_in) % thinning == 0:
                series.append(observe(np.stack([c.colors for c in own]) - 1, np.array([c.energy for c in own])))
        records.append(np.array(series).T)
    return np.vstack(records)


def _run_stack(chains: list[ChainState], tempers: list[TemperingLadder], gs: list[CouplingMatrix], kappa: int,
               burn_in: int, sweeps: int, thinning: int, observe) -> np.ndarray:
    """``burn_in + sweeps`` :func:`sweep` steps of a stack's chains at once (:func:`_lockstep_moves`, or
    :func:`_swap_moves` in the balanced sector), each followed by every ladder's :func:`_ladder_swaps`, with the
    same bytes; returns ``observe(colors, energies)`` of the stack (0-based colors, a row per chain) after every
    ``thinning``-th measured sweep, as columns.

    ``chains``: ``len(chains) // len(gs)`` per coupling of ``gs`` (a chain, or a ladder's rungs), in
    coupling order, at one sweep count; their colors, energies and betas live in arrays for the run.  A
    chain draws ``random((b, 3, n))``, the values of ``b`` calls ``random((3, n))``, and a ladder
    ``random((b, rungs - 1))``, in blocks ending at the run's end or the next audit, within ``_STACK_ELEMS``
    (ten numbers a proposal).  A block's last sweep ends through :meth:`ChainState._end_sweep`, chain
    by chain, so each keeps its audit schedule; the chains then hold the stack's state.
    """
    rows, n, per = len(chains), chains[0].n, len(chains) // len(gs)
    s, colors = np.stack([g.sym for g in gs]), np.stack([c.colors for c in chains]) - 1
    energy, betas, r = np.array([c.energy for c in chains]), [c.beta for c in chains], np.arange(rows)
    # per row: its threshold scale and the offsets of its fields, cells and coupling rows; S[g, t, t] at g * n + t
    consts = (np.array([math.sqrt(n) / beta if beta else math.inf for beta in betas]), r * kappa, r * n, r // per * n,
              np.diagonal(s, axis1=1, axis2=2).reshape(-1))
    swap = chains[0].sector == "balanced"
    moves = _swap_moves if swap else _lockstep_moves
    owners = [g for g in gs for _ in range(per)]
    lows = [k for k in range(rows - 1) if (k + 1) % per]  # lower rung of each adjacent pair of a ladder
    dbetas, accepts = [betas[k] - betas[k + 1] for k in lows], [0] * len(lows)
    records, done, total = [], 0, burn_in + sweeps
    while done < total:
        b = min(total - done, AUDIT_INTERVAL - chains[0].sweeps % AUDIT_INTERVAL,
                max(1, _STACK_ELEMS // (10 * rows * n)))
        tables = _proposal_tables([c.rng for c in chains], b, n, consts, kappa, swap)
        ladder_logs = tempers and _log_uniforms(np.hstack([t.rng.random((b, per - 1)) for t in tempers])).tolist()
        for k, step in enumerate(zip(*tables)):
            colors, energy = moves(colors, energy, s, step, consts, kappa)
            if k == b - 1:
                for c, row in zip(chains, colors + 1):
                    c.colors, c.sweeps = row, c.sweeps + b - 1
                energy = np.array([c._end_sweep(g, e).energy for c, g, e in zip(chains, owners, energy.tolist())])
            if tempers:
                colors, energy = _stack_swaps(colors, energy, lows, dbetas, ladder_logs[k], accepts)
            if (measured := done + k - burn_in) >= 0 and measured % thinning == 0:
                records.append(observe(colors, energy))
        done += b
        del tables, step  # freed before the next block draws
    for c, row, e in zip(chains, colors + 1, energy.tolist()):  # after the last ladder swaps
        c.colors, c.energy = row, e
    for temper, acc in zip(tempers, np.reshape(accepts, (len(tempers), per - 1))):
        temper.swap_attempts, temper.swap_accepts = temper.swap_attempts + total, temper.swap_accepts + acc
    return np.stack(records, axis=1)


def _proposal_tables(rngs, b: int, n: int, consts, kappa: int, swap: bool) -> tuple[np.ndarray, ...]:
    """Entry ``[k, j, r]``: proposal ``j`` of chain ``r`` (drawing from ``rngs[r]``) in sweep ``k`` of a block:
    its site ``t`` in the flat colors, row ``S[r, t]`` of the stacked couplings, ``S[r, t, t]``, the flat
    position of ``h[r, 0, t]``, then those of ``h[r, new, t]`` and ``new`` (Metropolis) or the partner's
    ``divmod(rank, n // kappa)`` (swap), and the threshold of ``u``, read as in :func:`metropolis_sweep` or
    :func:`swap_sweep`."""
    log_scales, fields0, cells0, srows0, diag = consts
    draws = np.stack([rng.random((b, 3, n)) for rng in rngs], axis=-1)  # [k, :, j, r]
    scale = n - n // kappa if swap else kappa
    sites, props = (draws[:, :2] * [[[n]], [[scale]]]).astype(np.int64).swapaxes(0, 1)
    srow, hcol, limits = sites + srows0, sites + fields0 * n, _log_uniforms(draws[:, 2])
    limits *= log_scales  # elementwise, the product each chain's kernel forms
    if swap:  # the partner's other-color index c, and its place r * per + p among the stack's sites of its color
        c, p = np.divmod(props, n // kappa)
        return sites + cells0, srow, diag[srow], hcol, c, p + cells0 // kappa, limits
    return sites + cells0, srow, diag[srow], hcol, hcol + props * n, props.copy(), limits


def _settle(colors, energy, steps, moves):
    """A sweep's colors and energies: each energy adds its accepted ``x / sqrt(n)`` in proposal order (a rejected
    one adds ``-0.0``, which changes no float), the per-chain kernels' sum, from one division of the step table."""
    steps /= math.sqrt(colors.shape[1])
    steps[~moves] = -0.0
    return colors, np.add.accumulate(np.vstack((energy, steps)), axis=0)[-1]


def _lockstep_moves(colors, energy, s, step, consts, kappa):
    """The ``n`` proposals of one :func:`_run_stack` sweep of Metropolis chains, from its tables ``step``;
    returns the new colors (0-based) and energies (:func:`_settle`).

    Proposal ``j`` of chain ``r`` reads ``x = h[r, new, t] - h[r, old, t] + S[r, t, t]`` and is accepted
    iff ``x`` exceeds its threshold; an accepted one sets the color and makes ``h[r, old] -= S[r, t]`` and
    ``h[r, new] += S[r, t]``, elementwise, as :func:`metropolis_sweep` does, on the same floats.
    """
    n, base = colors.shape[1], consts[1]
    colors = colors.copy()
    h = _stack_fields(colors, s, kappa)
    flat, hrows, srows, cells = h.reshape(-1), h.reshape(-1, n), s.reshape(-1, n), colors.reshape(-1)
    steps, moves = np.empty_like(step[-1]), np.empty(step[-1].shape, dtype=bool)
    for at_k, srow_k, diag_k, hcol_k, hnew_k, new, limit, x, move in zip(*step, steps, moves):
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
    return _settle(colors, energy, steps, moves)


def _swap_moves(colors, energy, s, step, consts, kappa):
    """:func:`_lockstep_moves` for balanced chains, as :func:`swap_sweep` makes them: proposal ``j`` of chain ``r``
    pairs site ``i`` (color ``a``) with the ``(p + 1)``-th site of color ``b = c + (c >= a)`` in index order, the
    site :func:`_partner` names, and compares the same raw ``x1 + x2`` with its threshold; an accepted one swaps the
    two colors and moves ``S[r, i] - S[r, j]`` from ``h[r, a]`` to ``h[r, b]``."""
    n = colors.shape[1]
    base, cells0, srows0, diag = consts[1:]
    colors = colors.copy()
    h = _stack_fields(colors, s, kappa)
    flat, hrows, srows, cells = h.reshape(-1), h.reshape(-1, n), s.reshape(-1, n), colors.reshape(-1)
    sflat, hbase = s.reshape(-1), base * n
    steps, moves = np.empty_like(step[-1]), np.empty(step[-1].shape, dtype=bool)
    for at_i, srow_i, diag_i, hcol_i, c, p, limit, x, move in zip(*step, steps, moves):
        a = cells[at_i]
        b = c + (c >= a)
        j = (colors == b[:, None]).nonzero()[1][p]  # every row holds n // kappa sites of each color
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
    return _settle(colors, energy, steps, moves)


def swap_sweep(state: ChainState, g: CouplingMatrix) -> ChainState:
    """n proposed transpositions of two differing-color sites (balanced sector).

    One ``random((3, n))`` draw per sweep: proposal ``k`` reads column ``k``
    as ``(u0, u1, u)``, swaps site ``int(u0 * n)`` with its partner of rank
    ``int(u1 * (n - per))`` (:func:`_partner`) and accepts if ``sqrt(n) dH``
    exceeds the threshold of ``u`` (:func:`_log_uniforms`).  The partner is
    uniform over the sites of the other colors, whose count is constant in the
    balanced sector, so the proposal is symmetric.  Color counts are conserved
    exactly.  :func:`_run_stack` makes this sweep for a stack of chains at once
    (:func:`_swap_moves`), with the same bytes.
    """
    if state.sector != "balanced":
        raise SectorError("swap_sweep serves the balanced sector")
    n, kappa, beta = state.n, state.kappa, state.beta
    per = n // kappa
    n_other = n - per
    if n_other == 0:
        raise SectorError("no differing-color pair exists")
    s = g.sym
    sqn = math.sqrt(n)
    draws = state.rng.random((3, n))
    sites, ranks = (draws[:2] * [[n], [n_other]]).astype(np.int64).tolist()
    colors = state.colors
    h = _local_fields(colors, s, kappa)
    own = np.argsort(colors, kind="stable").reshape(kappa, per).tolist()  # sorted sites per color
    hrows, srows, shift = list(h), list(s), np.empty(n)
    energy = state.energy
    scale = sqn / beta if beta else math.inf
    for i, rank, log_u in zip(sites, ranks, _log_uniforms(draws[2]).tolist()):
        a = colors.item(i)
        j = _partner(own, a, rank)
        b = colors.item(j)
        sij = s.item(i, j)
        x1 = h.item(b - 1, i) - h.item(a - 1, i) + s.item(i, i)
        # site j's fields once site i already holds color b
        x2 = (h.item(a - 1, j) - sij) - (h.item(b - 1, j) + sij) + s.item(j, j)
        x = x1 + x2
        if x > log_u * scale:
            colors[i] = b
            colors[j] = a
            np.subtract(srows[i], srows[j], out=shift)
            np.subtract(hrows[a - 1], shift, out=hrows[a - 1])
            np.add(hrows[b - 1], shift, out=hrows[b - 1])
            for sites_of, out, into in ((own[a - 1], i, j), (own[b - 1], j, i)):
                del sites_of[bisect_left(sites_of, out)]
                insort(sites_of, into)
            energy += x / sqn
    return state._end_sweep(g, energy)


def sweep(state: ChainState, g: CouplingMatrix) -> ChainState:
    return swap_sweep(state, g) if state.sector == "balanced" else metropolis_sweep(state, g)


def run_sweeps(state: ChainState, g: CouplingMatrix, count: int) -> ChainState:
    for _ in range(count):
        sweep(state, g)
    return state


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
        if not self.rungs:
            raise ValueError("ladder needs at least one rung")
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
        if any((r.kappa, r.sector, r.n) != (first.kappa, first.sector, first.n) for r in self.rungs):
            raise ValueError("ladder rungs must share kappa, sector and n")

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


def tempering_step(ladder: TemperingLadder, g: CouplingMatrix) -> TemperingLadder:
    """One sweep per rung, then :func:`_ladder_swaps`.

    :func:`estimate_tail` and :func:`free_energy_ti` make it for a stack of
    ladders at once, all rungs in lockstep and all swaps in one pass
    (:func:`_run_stack`).
    """
    if len(ladder.rungs) < 2:
        raise ValueError("tempering needs at least 2 rungs")
    for rung in ladder.rungs:
        sweep(rung, g)
    return _ladder_swaps(ladder)


def _ladder_swaps(ladder: TemperingLadder) -> TemperingLadder:
    """Adjacent swap proposals from the bottom up, one ``random(rungs - 1)`` draw.

    A swap of rungs (i, j) is accepted with probability min(1, e^L),
    L = (beta_i - beta_j)(H_j - H_i): iff L exceeds ``log u``; configurations
    and cached energies travel, the rung temperatures stay put.
    """
    rungs = ladder.rungs
    ladder.swap_attempts += 1
    logs = _log_uniforms(ladder.rng.random(size=len(rungs) - 1)).tolist()
    for k, (lo, hi, log_u) in enumerate(zip(rungs, rungs[1:], logs)):
        if (lo.beta - hi.beta) * (hi.energy - lo.energy) > log_u:
            lo.colors, hi.colors = hi.colors, lo.colors
            lo.energy, hi.energy = hi.energy, lo.energy
            ladder.swap_accepts[k] += 1
    return ladder


def _stack_swaps(colors, energy, lows, dbetas, logs, accepts):
    """:func:`_ladder_swaps` of a :func:`_run_stack` stack's ladders in one pass, with the same floats: pair
    ``p`` may exchange rows ``k = lows[p]`` and ``k + 1`` (betas ``dbetas[p]`` apart), against ``log u = logs[p]``."""
    e, order = energy.tolist(), list(range(len(energy)))
    for p, (k, dbeta, log_u) in enumerate(zip(lows, dbetas, logs)):
        if dbeta * (e[k + 1] - e[k]) > log_u:
            order[k], order[k + 1], e[k], e[k + 1] = order[k + 1], order[k], e[k + 1], e[k]
            accepts[p] += 1
    return colors[order], np.array(e)


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
) -> list[TailEstimate]:
    """Disorder-and-Gibbs double average of ``1{max_a |d_a - 1/kappa| >= eps}``.

    Accepts one epsilon or a sequence; all epsilons share the same chains.
    beta = inf returns :func:`pottsglass.exact.tail_probability_exact`
    itself; finite beta runs Metropolis chains, or a tempering ladder when
    ``ladder`` is set (recommended for large beta).  Replica ``r`` samples
    the coupling of stream ``r`` (:func:`pottsglass.core.map_replicas`).
    The replicas go in ``ceil(replicas / workers)`` per stack, at most
    ``_STACK_ELEMS`` coupling elements, and a stack from the crossover
    :func:`_lockstep` on sweeps in lockstep (:func:`_run_stack`): the same
    bytes as one chain at a time, in less time.
    """
    if replicas < 1 or sweeps < 1 or thinning < 1 or burn_in < 0:
        raise ValueError(f"need replicas >= 1, sweeps >= 1, thinning >= 1 and burn_in >= 0, "
                         f"got {replicas}, {sweeps}, {thinning}, {burn_in}")
    if len(ladder) == 1:  # the lockstep path never reaches tempering_step's own check
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
    return [
        TailEstimate(e, *mean_stderr(fractions[:, idx]), _tail_bound(n, e, kappa), replicas, flagged, swap_rates)
        for idx, e in enumerate(epsilons)
    ]


def _tail_replicas(beta, epsilons, kappa, sweeps, burn_in, thinning, ladder, seed,
                   gs: list[CouplingMatrix]) -> list[tuple[list[float], bool, np.ndarray | None]]:
    """Replicas of :func:`estimate_tail`, one per coupling of ``gs``: each one's tail fractions per
    epsilon, its flag, and its ladder's ``(swap_attempts, swap_accepts)`` (None without a ladder).

    Replica ``r`` (coupling stream ``g.stream``) runs chain or ladder ``r``, all of them through :func:`_run_chains`.
    """
    if ladder:
        tempers = [TemperingLadder.start(g, kappa, ladder, "all", seed, ladder_id=g.stream) for g in gs]
        chains = [rung for temper in tempers for rung in temper.rungs]
    else:
        tempers, chains = [], [ChainState.start(g, kappa, beta, "all", seed, chain_id=g.stream) for g in gs]
    top = len(chains) // len(gs) - 1  # each replica's chain: its ladder's top rung
    devs = _run_chains(chains, tempers, gs, kappa, burn_in, sweeps, thinning,
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
    energies = _run_chains(ladder.rungs, [ladder], [g], kappa, burn_in, sweeps, 1, lambda _, energy: energy - shift)
    means, errs = np.array([_batch_stats(series) for series in energies]).T
    flagged = any(equilibration_flagged(series) for series in energies)
    swap_rates = tuple((ladder.swap_accepts / ladder.swap_attempts).tolist())
    if beta_max == 0.0:
        return TiResult(log_size / n, 0.0, 0.0, grid, means, errs, log_size, flagged, swap_rates)
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
