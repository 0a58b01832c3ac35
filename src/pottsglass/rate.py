"""Rate-function and threshold layer.

KL divergence to the uniform table, its local quadratic expansion with an
explicit cubic error bound, the row-decomposed mean-field Potts objective,
constrained minimization of ``D(r||u) - beta^2 ||r - u||_F^2`` over the
transportation polytope with margins 1/kappa, and the closed-form
temperature thresholds (including the zero-temperature color-symmetry
breaking scan).

Conventions: ``0 log 0 = 0`` everywhere; entries below 1e-300 are treated
as zero inside logarithms.  All functions are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import philox_generator, RESTART_NAMESPACE

__all__ = [
    "PolytopePoint",
    "GapResult",
    "ThresholdResult",
    "ZeroTempBounds",
    "LocalExpansionResult",
    "margin_fit",
    "random_polytope_point",
    "kl_to_uniform",
    "local_expansion_check",
    "potts_row_objective",
    "exponent_gap",
    "high_temperature_threshold",
    "annealed_free_energy_limit",
    "ferro_potts_critical_coupling",
    "second_moment_coupling_bound",
    "zero_temperature_bounds",
    "min_breaking_colors",
]

_MARGIN_TOL = 1e-12
_ZERO_FLOOR = 1e-300
_FIT_ITER = 400  # proportional-fitting sweeps in margin_fit
_DESCENT_ITER = 400  # descent steps per start in exponent_gap
_LINE_ALPHAS = np.array([0.2, 0.4, 0.6, 0.8, 0.92, 0.98, 0.999])  # exponent_gap's permutation-line starts
_EPS16 = 16.0 * np.finfo(np.float64).eps  # noise floor factor of local_expansion_check


def margin_fit(matrix: np.ndarray, kappa: int) -> np.ndarray:
    """Fit a nonnegative matrix to row and column sums 1/kappa.

    Iterative proportional fitting, finished by an additive raking polish:
    multiplicative IPF alone converges arbitrarily slowly near permutation-
    supported matrices, while one additive step zeroes the margins exactly
    and only needs re-clamping when it drives an entry negative.

    ``matrix`` is one kappa-by-kappa matrix or a stack ``(S, kappa, kappa)``.
    The matrices of a stack are fitted in lockstep, and each leaves both
    loops at the sweep where a fit of it alone would, so every matrix comes
    out bit for bit as it would on its own.
    """
    target = 1.0 / kappa
    r = np.clip(np.asarray(matrix, dtype=np.float64), 0.0, None)
    out = np.ascontiguousarray(r).reshape(-1, kappa, kappa)
    idx = np.arange(len(out))
    work = out
    rows = work.sum(axis=2, keepdims=True)
    for _ in range(_FIT_ITER):
        work = np.where(rows > 0, work * (target / np.maximum(rows, _ZERO_FLOOR)), target / kappa)
        cols = work.sum(axis=1, keepdims=True)
        work = np.where(cols > 0, work * (target / np.maximum(cols, _ZERO_FLOOR)), target / kappa)
        rows = work.sum(axis=2, keepdims=True)  # checked here, scaled by in the next sweep
        row_err = np.abs(rows - target).max(axis=(1, 2))
        # the column check runs only once some matrix passes the row check (fmin skips NaN)
        if np.fmin.reduce(row_err, initial=math.inf) < _MARGIN_TOL:
            col_err = np.abs(work.sum(axis=1) - target).max(axis=1)
            done = (row_err < _MARGIN_TOL) & (col_err < _MARGIN_TOL)
            work, idx = _retire(out, work, idx, done)
            if not idx.size:
                return out.reshape(r.shape)
            rows = rows[~done]
    # A matrix that passed the IPF check would pass the polish check at once,
    # so only the matrices that used up their sweeps are polished.
    for _ in range(60):
        rows = work.sum(axis=2, keepdims=True)
        cols = work.sum(axis=1, keepdims=True)
        done = (
            (np.abs(rows - target).max(axis=(1, 2)) < _MARGIN_TOL)
            & (np.abs(cols - target).max(axis=(1, 2)) < _MARGIN_TOL)
            & (work.min(axis=(1, 2)) >= 0.0)
        )
        work, idx = _retire(out, work, idx, done)
        if not idx.size:
            break
        rows, cols = rows[~done], cols[~done]
        total = work.reshape(len(work), -1).sum(axis=1)[:, None, None]
        work = work - (rows - target) / kappa - (cols - target) / kappa + (total - 1.0) / kappa ** 2
        work = np.clip(work, 0.0, None)
    out[idx] = work
    return out.reshape(r.shape)


def _retire(out: np.ndarray, work: np.ndarray, idx: np.ndarray, done: np.ndarray):
    """Write the finished rows of a lockstep loop back to ``out`` (at ``idx``)
    and return the rows still running with their indices."""
    if not np.count_nonzero(done):
        return work, idx
    out[idx[done]] = work[done]
    return work[~done], idx[~done]


@dataclass(frozen=True, eq=False)
class PolytopePoint:
    """A kappa-by-kappa nonnegative matrix with all margins 1/kappa."""

    r: np.ndarray
    kappa: int

    def __post_init__(self):
        arr = np.ascontiguousarray(self.r, dtype=np.float64)
        if arr.shape != (self.kappa, self.kappa):
            raise ValueError(f"expected a {self.kappa}x{self.kappa} matrix")
        if arr.min() < -1e-15:
            raise ValueError(f"entries must be nonnegative, min was {arr.min()}")
        arr = np.clip(arr, 0.0, None)
        target = 1.0 / self.kappa
        if (
            np.abs(arr.sum(axis=1) - target).max() > _MARGIN_TOL
            or np.abs(arr.sum(axis=0) - target).max() > _MARGIN_TOL
        ):
            raise ValueError("row and column sums must equal 1/kappa to 1e-12")
        arr.setflags(write=False)
        object.__setattr__(self, "r", arr)


def random_polytope_point(kappa: int, rng: np.random.Generator) -> PolytopePoint:
    """Dirichlet rows pushed onto the margin polytope by proportional fitting."""
    raw = rng.dirichlet(np.ones(kappa), size=kappa) / kappa
    return PolytopePoint(margin_fit(raw, kappa), kappa)


def _as_matrix(point) -> tuple[np.ndarray, int]:
    if isinstance(point, PolytopePoint):
        return point.r, point.kappa
    arr = np.asarray(point, dtype=np.float64)
    return arr, arr.shape[0]


def _xlog_sums(x: np.ndarray, ratio: np.ndarray) -> np.ndarray:
    """``sum x log(ratio)`` along the last axis over the entries ``x > 1e-300``.

    Each row sums as the 1-D array of its kept entries would.  Zeroing the
    dropped entries instead would shift the kept ones within numpy's
    pairwise summation and regroup the adds once a row has 8 or more.
    """
    if x.min(initial=math.inf) > _ZERO_FLOOR:
        return (x * np.log(ratio)).sum(axis=-1)
    width = x.shape[-1]
    keep = (x > _ZERO_FLOOR).reshape(-1, width)
    terms = (x * np.log(np.where(keep, ratio, 1.0))).reshape(-1, width)
    sums = terms.sum(axis=1)
    partial = np.flatnonzero(~keep.all(axis=1))
    kept = keep[partial]
    counts = kept.sum(axis=1)
    packed = np.take_along_axis(terms[partial], np.argsort(~kept, axis=1, kind="stable"), axis=1)
    for count in np.unique(counts):
        sel = counts == count
        sums[partial[sel]] = packed[sel, :count].sum(axis=1)
    return sums.reshape(x.shape[:-1])


def _kl_rows(r: np.ndarray, kappa: int) -> np.ndarray:
    """KL to uniform of each matrix in a stack ``(S, kappa, kappa)``."""
    flat = r.reshape(len(r), -1)
    return _xlog_sums(flat, kappa ** 2 * flat)


def _sq_gaps(r: np.ndarray, kappa: int) -> np.ndarray:
    """Squared Frobenius gap to the uniform table of each matrix in a stack."""
    return ((r - 1.0 / kappa ** 2) ** 2).reshape(len(r), -1).sum(axis=1)


def kl_to_uniform(point) -> float:
    """``sum_ab r_ab log(kappa^2 r_ab)`` with the 0 log 0 = 0 convention."""
    r, kappa = _as_matrix(point)
    target = 1.0 / kappa
    if (
        np.abs(r.sum(axis=1) - target).max() > 1e-9
        or np.abs(r.sum(axis=0) - target).max() > 1e-9
    ):
        raise ValueError("point violates the margin constraints")
    return float(_kl_rows(r[None], kappa)[0])


class LocalExpansionResult(NamedTuple):
    lhs_gap: float
    rhs_bound: float
    holds: bool | None
    precondition_ok: bool


def local_expansion_check(p, q) -> LocalExpansionResult:
    """Compare ``|D(p||q) - (1/2) sum (p-q)^2 / q|`` with its cubic bound.

    The bound is ``5 (min q)^{-2} sum |p-q|^3`` and requires ``min q > 0``
    and ``max |p-q| <= (min q)/2``.  A precondition violation is reported in
    the result status, never silently mapped to ``holds = False``.

    ``holds`` allows a machine-precision margin: each log-quotient carries
    an absolute rounding error of order eps, so for p extremely close to q
    both sides sink below the evaluation noise floor and a raw comparison
    would report roundoff, not mathematics.

    Two ``(m, dim)`` stacks are checked row by row: each field is then an
    array of length m, with NaN bounds and a ``holds`` of None (an object
    array) where a row's precondition fails.  Any other shape is one
    distribution, checked as a stack of one and returned as ``float``,
    ``float``, ``bool`` or None, and ``bool``, so a single check equals the
    matching row of a stacked one by construction.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.ndim != 2:
        single = local_expansion_check(p.reshape(1, -1), q.reshape(1, -1))
        return LocalExpansionResult(float(single.lhs_gap[0]), float(single.rhs_bound[0]),
                                    single.holds[0], bool(single.precondition_ok[0]))
    if p.shape != q.shape:
        raise ValueError("p and q must have the same shape")
    qmin = q.min(axis=-1)
    diff = p - q
    dist = np.abs(diff)
    ok = ~((qmin <= 0.0) | (dist.max(axis=-1) > 0.5 * qmin))
    p, q, diff, dist, qmin = p[ok], q[ok], diff[ok], dist[ok], qmin[ok]
    kl = _xlog_sums(p, p / q)
    quad = 0.5 * (diff ** 2 / q).sum(axis=-1)
    lhs = abs(kl - quad)
    # float_power rounds as Python's ``**`` (libm pow) does; numpy's square differs
    rhs = 5.0 / np.float_power(qmin, 2.0) * (dist ** 3).sum(axis=-1)
    holds = lhs <= rhs + _EPS16 * (1.0 + abs(kl) + quad)
    lhs_all = np.full(len(ok), math.nan)
    rhs_all = np.full(len(ok), math.nan)
    holds_all = np.full(len(ok), None, dtype=object)
    lhs_all[ok], rhs_all[ok], holds_all[ok] = lhs, rhs, holds.tolist()
    return LocalExpansionResult(lhs_all, rhs_all, holds_all, ok)


def potts_row_objective(v, beta: float) -> float:
    """Row objective ``sum_b v_b log(kappa v_b) - (beta^2/kappa) sum_b v_b^2``.

    ``v`` is a probability vector over kappa colors; at the uniform vector
    the value is ``-beta^2 / kappa^2``.
    """
    v = np.asarray(v, dtype=np.float64).ravel()
    kappa = v.size
    if abs(float(v.sum()) - 1.0) > 1e-9 or float(v.min()) < -1e-15:
        raise ValueError("v must lie on the probability simplex")
    v = np.clip(v, 0.0, None)
    return float(_xlog_sums(v, kappa * v)) - beta ** 2 / kappa * float((v ** 2).sum())


# ---------------------------------------------------------------------------
# Constrained minimization of D(r||u) - beta^2 ||r - u||_F^2


@dataclass(frozen=True)
class GapResult:
    value: float
    argmin: np.ndarray
    delta: float
    beta: float
    kappa: int
    restarts: int
    iterations: int
    converged: bool


def _objective(r: np.ndarray, kappa: int, beta: float, delta: float) -> np.ndarray:
    """``D(r||u) - beta^2 ||r-u||_F^2`` of each matrix in a stack, +inf for a
    matrix that the shell push left below ``||r-u||_F^2 >= delta``."""
    gap = _sq_gaps(r, kappa)
    return np.where(gap < delta * (1.0 - 1e-12), math.inf, _kl_rows(r, kappa) - beta ** 2 * gap)


def _tangent_gradient(r: np.ndarray, kappa: int, beta: float) -> np.ndarray:
    u = 1.0 / kappa ** 2
    grad = np.log(kappa ** 2 * np.maximum(r, 1e-12)) + 1.0 - 2.0 * beta ** 2 * (r - u)
    # project onto the zero-margin tangent space
    grad = grad - grad.mean(axis=2, keepdims=True)
    grad = grad - grad.mean(axis=1, keepdims=True)
    return grad


def _push_to_shell(r: np.ndarray, kappa: int, delta: float) -> np.ndarray:
    """One radial step ``u + t (r - u)`` per matrix of the stack, with ``t =
    max(1, min(sqrt(delta / gap) (1 + 1e-12), reach))`` and ``reach`` the
    largest scale that keeps every entry nonnegative, then a clip at 0.  The
    margins hold, as r - u has zero row and column sums.  A matrix on the
    shell or at u (gap below 1e-30) comes back unchanged; one whose ray leaves
    the polytope first stops there, off the shell, with an entry at 0."""
    u = 1.0 / kappa ** 2
    d = r - u
    gap = _sq_gaps(r, kappa)
    reach = u / np.maximum(-d.min(axis=(1, 2)), _ZERO_FLOOR)
    over = 1.0 + 1e-12  # applied last, so a step that stays inside rounds as v0.1.7's did
    t = np.maximum(np.minimum(np.sqrt(delta / np.maximum(gap, _ZERO_FLOOR)), reach / over), 1.0 / over)
    keep = (gap >= delta * (1.0 - 1e-12)) | (gap < 1e-30)
    return np.where(keep[:, None, None], r, np.clip(u + d * t[:, None, None] * over, 0.0, None))


def exponent_gap(kappa: int, beta: float, delta: float, restarts: int = 64, seed: int = 0) -> GapResult:
    """Minimize ``D(r||u) - beta^2 ||r-u||_F^2`` over margins 1/kappa with
    ``||r-u||_F^2 >= delta``.

    Multi-start projected descent (margin refit by proportional fitting,
    then one radial step out to the shell) from ``restarts`` Dirichlet starts
    and 7 points on the line from u toward a permutation table; ``value`` is
    the objective at ``argmin``.  Below the coupling bound ``beta^2 < kappa
    (kappa-1) log(kappa-1) / (kappa-2)`` the minimum is positive; well above
    it the minimum turns negative.

    A point whose ray leaves the polytope before the shell never counts as
    an improvement, and a start that never reaches the shell keeps +inf.
    """
    if kappa < 2:
        raise ValueError("kappa must be >= 2")
    if not math.isfinite(beta):
        raise ValueError(f"beta must be finite, got {beta}")
    max_gap = (kappa - 1) / kappa ** 2
    if not 0.0 < delta <= max_gap + 1e-15:
        raise ValueError(
            f"delta must lie in (0, {max_gap:.6g}], the polytope's maximal squared gap"
        )
    rng = philox_generator(seed, RESTART_NAMESPACE)
    raw = rng.dirichlet(np.ones(kappa), size=(restarts, kappa)) / kappa
    # The line from u toward I/kappa, where the objective first turns negative in the
    # first-order regime; a column permutation, which leaves the objective unchanged,
    # maps it onto the line toward any other permutation table.
    u = 1.0 / kappa ** 2
    line = u + _LINE_ALPHAS[:, None, None] * (np.eye(kappa) / kappa - u)
    # All starts descend in lockstep; each keeps its own step, acceptance
    # and stop rule, so each ends where a descent of it alone would.
    r = _push_to_shell(margin_fit(np.concatenate([raw, line]), kappa), kappa, delta)
    val = _objective(r, kappa, beta, delta)
    step = np.full(len(r), 0.05)
    active = np.arange(len(r))
    total_iter = 0
    for _ in range(_DESCENT_ITER):
        total_iter += active.size
        cur = r[active]
        cand = cur - step[active, None, None] * _tangent_gradient(cur, kappa, beta)
        cand = _push_to_shell(margin_fit(cand, kappa), kappa, delta)
        cval = _objective(cand, kappa, beta, delta)
        better = cval < val[active] - 1e-15
        won = active[better]
        r[won], val[won] = cand[better], cval[better]
        step[won] = np.minimum(step[won] * 1.2, 0.2)
        step[active[~better]] *= 0.5
        active = active[better | ~(step[active] < 1e-12)]
        if not active.size:
            break
    converged = not active.size

    best = int(np.argmin(val))  # the first start holding the minimum
    return GapResult(
        value=float(val[best]),
        argmin=r[best].copy(),
        delta=delta,
        beta=beta,
        kappa=kappa,
        restarts=len(r),
        iterations=total_iter,
        converged=converged,
    )


# ---------------------------------------------------------------------------
# Closed-form thresholds


@dataclass(frozen=True)
class ThresholdResult:
    kappa: int
    beta: float
    branch: str  # 'second-moment' or 'ferro-reduction'
    second_moment_branch: float
    ferro_branch: float


def high_temperature_threshold(kappa: int) -> ThresholdResult:
    """High-temperature threshold for color symmetry breaking.

    ``sqrt(kappa (kappa-1) log(kappa-1)) * min(1/sqrt(kappa-2),
    sqrt(2)/(kappa-2))``.  The first branch comes from the second-moment
    coupling bound, the second from the ferromagnetic-Potts reduction; they
    cross exactly at kappa = 4, above which the ferro branch is smaller.
    """
    if kappa < 3:
        raise ValueError("the threshold is defined for kappa >= 3")
    root = math.sqrt(kappa * (kappa - 1) * math.log(kappa - 1))
    first = root / math.sqrt(kappa - 2)
    second = root * math.sqrt(2.0) / (kappa - 2)
    if second <= first:
        return ThresholdResult(kappa, second, "ferro-reduction", first, second)
    return ThresholdResult(kappa, first, "second-moment", first, second)


def annealed_free_energy_limit(kappa: int, beta: float) -> float:
    """High-temperature limiting free energy ``log kappa + beta^2 (kappa-1) / (2 kappa^2)``."""
    if kappa < 2 or beta < 0:
        raise ValueError("need kappa >= 2 and beta >= 0")
    return math.log(kappa) + beta ** 2 * (kappa - 1) / (2.0 * kappa ** 2)


def ferro_potts_critical_coupling(kappa: int) -> float:
    """First-order transition coupling ``2 (kappa-1) log(kappa-1) / (kappa-2)``
    of the mean-field ferromagnetic Potts model."""
    if kappa < 3:
        raise ValueError("defined for kappa >= 3")
    return 2.0 * (kappa - 1) * math.log(kappa - 1) / (kappa - 2)


def second_moment_coupling_bound(kappa: int) -> float:
    """Squared-beta bound ``kappa (kappa-1) log(kappa-1) / (kappa-2)`` under
    which the shell-constrained objective stays positive."""
    if kappa < 3:
        raise ValueError("defined for kappa >= 3")
    return kappa * (kappa - 1) * math.log(kappa - 1) / (kappa - 2)


class ZeroTempBounds(NamedTuple):
    balanced_upper: float
    unconstrained_lower: float
    breaks: bool


def zero_temperature_bounds(kappa: int) -> ZeroTempBounds:
    """Balanced ground-state upper bound vs the unconstrained lower bound.

    Upper: ``sqrt(2 (kappa-1) log kappa / kappa^2)``; lower: ``2/(3 sqrt(pi))``.
    When the upper falls below the lower, color symmetry breaking at zero
    temperature is certified.
    """
    if kappa < 2:
        raise ValueError("need kappa >= 2")
    upper = math.sqrt(2.0 * (kappa - 1) * math.log(kappa) / kappa ** 2)
    lower = 2.0 / (3.0 * math.sqrt(math.pi))
    return ZeroTempBounds(upper, lower, upper < lower)


def min_breaking_colors(kappa_max: int = 500) -> int:
    """Smallest color count whose zero-temperature bounds certify breaking."""
    for kappa in range(2, kappa_max + 1):
        if zero_temperature_bounds(kappa).breaks:
            return kappa
    raise RuntimeError(f"no breaking kappa found up to {kappa_max}")
