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
from itertools import islice, permutations
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
    "frobenius_gap",
    "local_expansion_check",
    "potts_row_objective",
    "exponent_gap",
    "dense_grid_minimum",
    "high_temperature_threshold",
    "annealed_free_energy_limit",
    "ferro_reduction_applies",
    "ferro_potts_critical_coupling",
    "second_moment_coupling_bound",
    "zero_temperature_bounds",
    "min_breaking_colors",
    "uniform_shell_log_bound",
]

_MARGIN_TOL = 1e-12
_ZERO_FLOOR = 1e-300
_FIT_ITER = 400  # proportional-fitting sweeps in margin_fit
_DESCENT_ITER = 400  # descent steps per start in exponent_gap
_PERMUTATION_LIMIT = 720  # permutation directions tried by exponent_gap (all of them up to kappa = 6)
_GRID_PITCH = 1.0 / 60.0  # pitch of exponent_gap's kappa = 3 grid scan


def margin_fit(matrix: np.ndarray, kappa: int) -> np.ndarray:
    """Fit a nonnegative matrix to row and column sums 1/kappa.

    Iterative proportional fitting, finished by an additive raking polish:
    multiplicative IPF alone converges arbitrarily slowly near permutation-
    supported matrices, while one additive step zeroes the margins exactly
    and only needs re-clamping when it drives an entry negative.
    """
    target = 1.0 / kappa
    r = np.clip(np.asarray(matrix, dtype=np.float64), 0.0, None)
    for _ in range(_FIT_ITER):
        rows = r.sum(axis=1, keepdims=True)
        r = np.where(rows > 0, r * (target / np.maximum(rows, _ZERO_FLOOR)), target / kappa)
        cols = r.sum(axis=0, keepdims=True)
        r = np.where(cols > 0, r * (target / np.maximum(cols, _ZERO_FLOOR)), target / kappa)
        if (
            np.abs(r.sum(axis=1) - target).max() < _MARGIN_TOL
            and np.abs(r.sum(axis=0) - target).max() < _MARGIN_TOL
        ):
            break
    for _ in range(60):
        rows = r.sum(axis=1, keepdims=True)
        cols = r.sum(axis=0, keepdims=True)
        if (
            np.abs(rows - target).max() < _MARGIN_TOL
            and np.abs(cols - target).max() < _MARGIN_TOL
            and r.min() >= 0.0
        ):
            break
        r = r - (rows - target) / kappa - (cols - target) / kappa + (r.sum() - 1.0) / kappa ** 2
        r = np.clip(r, 0.0, None)
    return r


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


def _kl_matrix(r: np.ndarray, kappa: int) -> float:
    pos = r > _ZERO_FLOOR
    vals = r[pos]
    return float((vals * np.log(kappa ** 2 * vals)).sum())


def kl_to_uniform(point) -> float:
    """``sum_ab r_ab log(kappa^2 r_ab)`` with the 0 log 0 = 0 convention."""
    r, kappa = _as_matrix(point)
    target = 1.0 / kappa
    if (
        np.abs(r.sum(axis=1) - target).max() > 1e-9
        or np.abs(r.sum(axis=0) - target).max() > 1e-9
    ):
        raise ValueError("point violates the margin constraints")
    return _kl_matrix(r, kappa)


def frobenius_gap(point) -> float:
    """Squared Frobenius distance to the uniform table ``kappa^{-2} 11^T``."""
    r, kappa = _as_matrix(point)
    return float(((r - 1.0 / kappa ** 2) ** 2).sum())


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
    """
    p = np.asarray(p, dtype=np.float64).ravel()
    q = np.asarray(q, dtype=np.float64).ravel()
    if p.shape != q.shape:
        raise ValueError("p and q must have the same length")
    qmin = float(q.min())
    diff = p - q
    if qmin <= 0.0 or float(np.abs(diff).max()) > 0.5 * qmin:
        return LocalExpansionResult(math.nan, math.nan, None, False)
    pos = p > _ZERO_FLOOR
    kl = float((p[pos] * np.log(p[pos] / q[pos])).sum())
    quad = 0.5 * float((diff ** 2 / q).sum())
    lhs = abs(kl - quad)
    rhs = 5.0 / qmin ** 2 * float((np.abs(diff) ** 3).sum())
    noise = 16.0 * np.finfo(np.float64).eps * (1.0 + abs(kl) + quad)
    return LocalExpansionResult(lhs, rhs, lhs <= rhs + noise, True)


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
    pos = v > _ZERO_FLOOR
    ent = float((v[pos] * np.log(kappa * v[pos])).sum())
    return ent - beta ** 2 / kappa * float((v ** 2).sum())


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
    source: str  # 'descent' or 'grid'


def _objective(r: np.ndarray, kappa: int, beta: float) -> float:
    return _kl_matrix(r, kappa) - beta ** 2 * float(((r - 1.0 / kappa ** 2) ** 2).sum())


def _tangent_gradient(r: np.ndarray, kappa: int, beta: float) -> np.ndarray:
    u = 1.0 / kappa ** 2
    grad = np.log(kappa ** 2 * np.maximum(r, 1e-12)) + 1.0 - 2.0 * beta ** 2 * (r - u)
    # project onto the zero-margin tangent space
    grad = grad - grad.mean(axis=1, keepdims=True)
    grad = grad - grad.mean(axis=0, keepdims=True)
    return grad


def _push_to_shell(r: np.ndarray, kappa: int, delta: float, rng: np.random.Generator) -> np.ndarray:
    """Radially rescale toward the shell boundary; margins are preserved
    exactly because r - u has zero row and column sums."""
    u = 1.0 / kappa ** 2
    for _ in range(50):
        gap = float(((r - u) ** 2).sum())
        if gap >= delta * (1.0 - 1e-12):
            return r
        if gap < 1e-30:
            d = rng.standard_normal((kappa, kappa))
            d -= d.mean(axis=1, keepdims=True)
            d -= d.mean(axis=0, keepdims=True)
            d /= math.sqrt(float((d ** 2).sum()))
            r = u + math.sqrt(delta) * d
        else:
            r = u + (r - u) * math.sqrt(delta / gap) * (1.0 + 1e-12)
        if r.min() < 0.0:
            r = margin_fit(r, kappa)
        else:
            return r
    return r


def _permutation_line_points(kappa: int) -> list[np.ndarray]:
    """Points along u -> (permutation matrix)/kappa directions.

    These are the low-entropy candidates where the objective first turns
    negative in the first-order-transition regime.
    """
    u = np.full((kappa, kappa), 1.0 / kappa ** 2)
    pts = []
    for perm in islice(permutations(range(kappa)), _PERMUTATION_LIMIT):
        p = np.zeros((kappa, kappa))
        p[np.arange(kappa), list(perm)] = 1.0 / kappa
        for alpha in (0.2, 0.4, 0.6, 0.8, 0.92, 0.98, 0.999):
            pts.append(u + alpha * (p - u))
    return pts


def dense_grid_minimum(beta: float, delta: float, pitch: float) -> float:
    """Grid scan of the kappa=3 objective over the 4-dimensional polytope.

    The free block (r11, r12, r21, r22) ranges over multiples of ``pitch``
    in [0, 1/3]; the remaining five entries are forced by the margins.
    """
    third = 1.0 / 3.0
    npts = int(round(third / pitch)) + 1
    ax = np.linspace(0.0, third, npts)
    u = 1.0 / 9.0
    best = math.inf
    g12, g21, g22 = np.meshgrid(ax, ax, ax, indexing="ij")
    g12, g21, g22 = g12.ravel(), g21.ravel(), g22.ravel()
    for r11 in ax:
        r13 = third - r11 - g12
        r23 = third - g21 - g22
        r31 = third - r11 - g21
        r32 = third - g12 - g22
        r33 = r11 + g12 + g21 + g22 - third
        stack = np.stack(
            [np.full_like(g12, r11), g12, r13, g21, g22, r23, r31, r32, r33], axis=1
        )
        feasible = np.all(stack >= -1e-12, axis=1)
        if not feasible.any():
            continue
        pts = np.clip(stack[feasible], 0.0, None)
        gap = ((pts - u) ** 2).sum(axis=1)
        on_shell = gap >= delta
        if not on_shell.any():
            continue
        pts, gap = pts[on_shell], gap[on_shell]
        with np.errstate(divide="ignore", invalid="ignore"):
            ent = pts * np.log(9.0 * pts)
        ent[pts == 0.0] = 0.0
        vals = ent.sum(axis=1) - beta ** 2 * gap
        low = float(vals.min())
        if low < best:
            best = low
    return best


def exponent_gap(kappa: int, beta: float, delta: float, restarts: int = 64, seed: int = 0) -> GapResult:
    """Minimize ``D(r||u) - beta^2 ||r-u||_F^2`` over margins 1/kappa with
    ``||r-u||_F^2 >= delta``.

    Multi-start projected descent (margin refit by proportional fitting,
    shell enforcement by radial rescale) plus candidate points along the
    permutation-matrix directions; at kappa=3 a dense grid scan at
    pitch 1/60 is folded in as an extra safeguard against missed symmetric
    minima.  Below the coupling bound
    ``beta^2 < kappa (kappa-1) log(kappa-1) / (kappa-2)`` the minimum is
    positive; well above it the minimum turns negative.
    """
    if kappa < 2:
        raise ValueError("kappa must be >= 2")
    max_gap = (kappa - 1) / kappa ** 2
    if not 0.0 < delta <= max_gap + 1e-15:
        raise ValueError(
            f"delta must lie in (0, {max_gap:.6g}], the polytope's maximal squared gap"
        )
    rng = philox_generator(seed, RESTART_NAMESPACE)
    starts: list[np.ndarray] = [random_polytope_point(kappa, rng).r for _ in range(restarts)]
    starts.extend(_permutation_line_points(kappa))

    best_val = math.inf
    best_pt: np.ndarray | None = None
    total_iter = 0
    converged = True
    for start in starts:
        r = _push_to_shell(margin_fit(start, kappa), kappa, delta, rng)
        val = _objective(r, kappa, beta)
        step = 0.05
        for _ in range(_DESCENT_ITER):
            total_iter += 1
            cand = r - step * _tangent_gradient(r, kappa, beta)
            cand = margin_fit(cand, kappa)
            cand = _push_to_shell(cand, kappa, delta, rng)
            cval = _objective(cand, kappa, beta)
            if cval < val - 1e-15:
                r, val = cand, cval
                step = min(step * 1.2, 0.2)
            else:
                step *= 0.5
                if step < 1e-12:
                    break
        else:
            converged = False
        if val < best_val:
            best_val, best_pt = val, r

    source = "descent"
    if kappa == 3:
        grid_val = dense_grid_minimum(beta, delta, _GRID_PITCH)
        if grid_val < best_val:
            # keep the grid value; its argmin is not tracked, flag the source
            best_val = grid_val
            source = "grid"
    assert best_pt is not None
    return GapResult(
        value=best_val,
        argmin=best_pt,
        delta=delta,
        beta=beta,
        kappa=kappa,
        restarts=len(starts),
        iterations=total_iter,
        converged=converged,
        source=source,
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


def ferro_reduction_applies(kappa: int, beta: float) -> bool:
    """Whether ``beta^2 a_kappa`` sits below the ferro-Potts critical coupling.

    Equivalent to ``beta < sqrt(2 kappa (kappa-1) log(kappa-1)) / (kappa-2)``;
    both forms are evaluated and must agree.
    """
    if kappa < 3:
        raise ValueError("defined for kappa >= 3")
    a = 1.0 - 2.0 / kappa
    lhs = beta ** 2 * a < ferro_potts_critical_coupling(kappa)
    rhs = beta < math.sqrt(2.0 * kappa * (kappa - 1) * math.log(kappa - 1)) / (kappa - 2)
    if lhs != rhs:  # algebraically identical; disagreement means float trouble
        raise AssertionError("ferro-reduction branch forms disagree")
    return lhs


def uniform_shell_log_bound(
    kappa: int, delta: float, samples: int = 2000, seed: int = 0
) -> float:
    """Empirical ceiling for ``sum_ab |log r_ab|`` within a Frobenius shell.

    The constant is existential (any small enough shell admits one); this
    reports the observed maximum over random polytope directions at squared
    radius up to ``delta``, for use as a concrete working value.
    """
    rng = philox_generator(seed, RESTART_NAMESPACE | 1)
    u = 1.0 / kappa ** 2
    worst = float(kappa ** 2 * abs(math.log(u)))  # attained at the center
    found = 0
    while found < samples:
        d = rng.standard_normal((kappa, kappa))
        d -= d.mean(axis=1, keepdims=True)
        d -= d.mean(axis=0, keepdims=True)
        norm = math.sqrt(float((d ** 2).sum()))
        if norm == 0.0:
            continue
        r = u + math.sqrt(float(rng.random()) * delta) / norm * d
        if r.min() <= 0.0:
            continue
        found += 1
        worst = max(worst, float(np.abs(np.log(r)).sum()))
    return worst


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
