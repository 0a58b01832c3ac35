"""Samplers for system sizes beyond exact enumeration.

Single-site Metropolis targets the unconstrained Gibbs measure; pair-swap
dynamics target the balanced sector while conserving the magnetization
exactly; parallel tempering couples chains across an inverse-temperature
ladder.  Estimators (magnetization tails, thermodynamic integration) ride on
top of these kernels.

Zero temperature is never sampled here: beta = inf claims route to the
exact ground-state measure in :mod:`pottsglass.exact`, since no
equilibration guarantee exists at beta = inf.

Reproducibility: chain ``c`` of root seed ``s`` draws from the Philox stream
``CHAIN_NAMESPACE | c`` of ``s``, one ``random((3, n))`` call per sweep, so
trajectories are bit-for-bit reproducible and independent of the worker count
used to farm out disorder replicas.  A chain's energy is computed from
scratch by :func:`pottsglass.core.hamiltonian_raw` at its start and every
``AUDIT_INTERVAL`` sweeps, which guards the cached running sum against drift;
so a configuration and its color images get bit-identical energies there.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left, insort
from dataclasses import dataclass, fields
from functools import partial

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
        if self.sector not in ("all", "balanced"):
            raise SectorError(f"unsupported chain sector {self.sector!r}")
        self.colors = np.ascontiguousarray(self.colors, dtype=np.int64)
        SpinConfig(self.colors.copy(), self.kappa)  # 1-d, non-empty, kappa >= 2, colors in [1, kappa]
        if self.sector == "balanced":
            counts = np.bincount(self.colors - 1, minlength=self.kappa)
            if not np.all(counts == self.colors.size // self.kappa):
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
        rng = philox_generator(seed, CHAIN_NAMESPACE | chain_id)
        n = g.n
        if sector == "balanced":
            counts = sector_counts(n, kappa, "balanced")
            colors = np.repeat(np.arange(1, kappa + 1), counts)
            rng.shuffle(colors)
        else:
            colors = rng.integers(1, kappa + 1, size=n)
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


def _partner(own: list[list[int]], a: int, rank: int) -> int:
    """Swap partner of rank ``rank`` for color ``a``: with ``(c, p) = divmod(rank, per)``, site ``p``
    of the sorted sites ``own`` of the ``c``-th color other than ``a``.  O(1); in the balanced
    sector ranks ``0 .. n - per - 1`` name each other-color site exactly once."""
    c, p = divmod(rank, len(own[0]))
    return own[c + (c + 1 >= a)][p]


def metropolis_sweep(state: ChainState, g: CouplingMatrix) -> ChainState:
    """n single-site recoloring proposals with acceptance min(1, e^{beta dH}).

    One ``random((3, n))`` draw per sweep: proposal ``k`` reads column ``k``
    as ``(u0, u1, u)``, recolors site ``int(u0 * n)`` to color
    ``1 + int(u1 * kappa)`` and accepts if ``u < e^{beta dH}``.  A proposal
    equal to the current color is a no-op.  The local fields are rebuilt once
    per sweep, an O(kappa n^2) product; a proposal then costs O(1) and an
    accepted move O(n).
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
    energy = state.energy
    for t, new, u in zip(sites, props, draws[2].tolist()):  # colors 0-based here
        old = colors.item(t) - 1
        if new == old:
            continue  # dH = 0: always accepted, state unchanged
        d = (h.item(new, t) - h.item(old, t) + s.item(t, t)) / sqn
        if d >= 0.0 or u < math.exp(beta * d):
            colors[t] = new + 1
            row = s[t]
            h[old] -= row
            h[new] += row
            energy += d
    return state._end_sweep(g, energy)


def swap_sweep(state: ChainState, g: CouplingMatrix) -> ChainState:
    """n proposed transpositions of two differing-color sites (balanced sector).

    One ``random((3, n))`` draw per sweep: proposal ``k`` reads column ``k``
    as ``(u0, u1, u)``, swaps site ``int(u0 * n)`` with its partner of rank
    ``int(u1 * (n - per))`` (:func:`_partner`) and accepts if
    ``u < e^{beta dH}``.  The partner is uniform over the sites of the other
    colors, whose count is constant in the balanced sector, so the proposal is
    symmetric.  Color counts are conserved exactly.
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
    energy = state.energy
    for i, rank, u in zip(sites, ranks, draws[2].tolist()):
        a = colors.item(i)
        j = _partner(own, a, rank)
        b = colors.item(j)
        sij = s.item(i, j)
        d1 = (h.item(b - 1, i) - h.item(a - 1, i) + s.item(i, i)) / sqn
        # site j's fields once site i already holds color b
        d2 = ((h.item(a - 1, j) - sij) - (h.item(b - 1, j) + sij) + s.item(j, j)) / sqn
        d = d1 + d2
        if d >= 0.0 or u < math.exp(beta * d):
            colors[i] = b
            colors[j] = a
            shift = s[i] - s[j]
            h[a - 1] -= shift
            h[b - 1] += shift
            for sites_of, out, into in ((own[a - 1], i, j), (own[b - 1], j, i)):
                del sites_of[bisect_left(sites_of, out)]
                insort(sites_of, into)
            energy += d
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
        first = self.rungs[0]
        if any((r.kappa, r.sector, r.n) != (first.kappa, first.sector, first.n) for r in self.rungs):
            raise ValueError("ladder rungs must share kappa, sector and n")

    @property
    def betas(self) -> tuple[float, ...]:
        return tuple(r.beta for r in self.rungs)

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
        rungs = [
            ChainState.start(g, kappa, float(b), sector, seed, chain_id=(ladder_id << 8) | k)
            for k, b in enumerate(betas)
        ]
        rng = philox_generator(seed, TEMPER_NAMESPACE | ladder_id)
        pairs = max(len(rungs) - 1, 0)
        return cls(rungs, rng, np.zeros(pairs, dtype=np.int64), np.zeros(pairs, dtype=np.int64),
                   seed=seed, ladder_id=ladder_id)


def tempering_step(ladder: TemperingLadder, g: CouplingMatrix) -> TemperingLadder:
    """One sweep per rung, then adjacent swap proposals from the bottom up.

    A swap of rungs (i, j) is accepted with probability
    min(1, exp((beta_i - beta_j)(H_j - H_i))); configurations and cached
    energies travel, the rung temperatures stay put.
    """
    if len(ladder.rungs) < 2:
        raise ValueError("tempering needs at least 2 rungs")
    for rung in ladder.rungs:
        sweep(rung, g)
    us = ladder.rng.random(size=len(ladder.rungs) - 1)
    for k in range(len(ladder.rungs) - 1):
        lo, hi = ladder.rungs[k], ladder.rungs[k + 1]
        ladder.swap_attempts[k] += 1
        log_acc = (lo.beta - hi.beta) * (hi.energy - lo.energy)
        if log_acc >= 0.0 or us[k] < math.exp(log_acc):
            lo.colors, hi.colors = hi.colors, lo.colors
            lo.energy, hi.energy = hi.energy, lo.energy
            ladder.swap_accepts[k] += 1
    return ladder


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
    """
    if replicas < 1 or sweeps < 1 or thinning < 1 or burn_in < 0:
        raise ValueError(f"need replicas >= 1, sweeps >= 1, thinning >= 1 and burn_in >= 0, "
                         f"got {replicas}, {sweeps}, {thinning}, {burn_in}")
    if ladder and (math.isinf(beta) or ladder[-1] != beta):  # beta = inf is exact: no chains to temper
        raise ValueError(f"the ladder must end at a finite target beta: ladder top {ladder[-1]}, beta {beta}")
    epsilons = [float(epsilon)] if np.isscalar(epsilon) else [float(e) for e in epsilon]
    if math.isinf(beta):
        return tail_probability_exact(n, beta, epsilons, replicas=replicas, seed=seed, cap=cap, kappa=kappa,
                                      workers=workers)

    results = map_replicas(
        partial(_tail_replicas, beta, epsilons, kappa, sweeps, burn_in, thinning, ladder, seed),
        n, seed, replicas, workers,
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

    Replica ``r`` (coupling stream ``g.stream``) runs chain or ladder ``r``.
    """
    out = []
    for g in gs:
        temper = None
        if ladder:
            temper = TemperingLadder.start(g, kappa, ladder, "all", seed, ladder_id=g.stream)
            target, step = temper.rungs[-1], lambda: tempering_step(temper, g)
        else:
            target = ChainState.start(g, kappa, beta, "all", seed, chain_id=g.stream)
            step = lambda: metropolis_sweep(target, g)
        devs = _series(step, lambda: max_deviation(np.bincount(target.colors - 1, minlength=kappa) / g.n),
                       burn_in, sweeps, thinning)
        swaps = None if temper is None else np.stack((temper.swap_attempts, temper.swap_accepts))
        out.append(([(devs >= e).mean() for e in epsilons], equilibration_flagged(devs), swaps))
    return out


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


def _series(step, observe, burn_in: int, sweeps: int, thinning: int = 1) -> np.ndarray:
    """``burn_in`` discarded steps, then ``sweeps`` steps with ``observe()`` recorded
    after every ``thinning``-th (the first included)."""
    for _ in range(burn_in):
        step()
    values = []
    for t in range(sweeps):
        step()
        if t % thinning == 0:
            values.append(observe())
    return np.asarray(values, dtype=np.float64)


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
    reconstructs ``n^{-1} log Z(beta_max)``.  The reported uncertainty is the
    propagated sampling stderr; the quadrature error is estimated from
    second differences of the integrand.
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
    means = np.empty(n_grid)
    errs = np.empty(n_grid)
    flagged = False
    chain = ChainState.start(g, kappa, 0.0, sector, seed, chain_id=0)
    for idx, b in enumerate(grid):
        chain.beta = float(b)
        series = _series(lambda: sweep(chain, g), lambda: chain.energy - shift, burn_in, sweeps)
        flagged = flagged or equilibration_flagged(series)
        means[idx], errs[idx] = _batch_stats(series)
    if beta_max == 0.0:
        return TiResult(log_size / n, 0.0, 0.0, grid, means, errs, log_size, flagged)
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
    "colors": partial(np.array, dtype=np.int64),
    "swap_attempts": partial(np.array, dtype=np.int64),
    "swap_accepts": partial(np.array, dtype=np.int64),
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
