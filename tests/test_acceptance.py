"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
report.  Criterion 5 carries one strict xfail: its literal tolerance is
provably unattainable at n = 9 (see the companion test, which pins the
finite-size obstruction exactly); the corrected finite-size comparison and
the exact first-moment identity are asserted instead.
"""

import math
import time
from contextlib import contextmanager
from decimal import Decimal, getcontext

import numpy as np
import pytest

from pottsglass import core, exact, montecarlo as mc, rate

from conftest import batch_energies_raw, config_array, independent_grid_oracle, match_matrix_flat
from test_montecarlo import configurations, single_proposal_kernel, visit_counts


@contextmanager
def criterion(cid, desc, budget_seconds):
    t0 = time.time()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {cid} [{desc}]: FAIL ({time.time() - t0:.1f}s)")
        raise
    elapsed = time.time() - t0
    print(f"\nACCEPTANCE {cid} [{desc}]: PASS ({elapsed:.1f}s)")
    assert elapsed < budget_seconds, f"runtime {elapsed:.1f}s exceeds budget {budget_seconds}s"


# ---------------------------------------------------------------------------
# 1. Threshold table


def test_criterion_1_thresholds():
    with criterion(1, "threshold table", 1.0):
        getcontext().prec = 40
        hi_prec = (Decimal(6) * Decimal(2).ln()).sqrt()
        th3 = rate.high_temperature_threshold(3)
        assert abs(th3.beta - float(hi_prec)) <= 1e-12

        th4 = rate.high_temperature_threshold(4)
        assert abs(th4.second_moment_branch - th4.ferro_branch) <= 1e-12
        assert rate.high_temperature_threshold(5).branch == "ferro-reduction"

        assert rate.min_breaking_colors() == 56


# ---------------------------------------------------------------------------
# 2. Covariance identities, exhaustive


def pairwise_overlap_route(colors, kappa, projection=None):
    """n ||R||_F^2 (or n ||P R P||_F^2) for all pairs via joint color counts."""
    m, n = colors.shape
    out = np.empty((m, m))
    sq = kappa * kappa
    base = (colors - 1) * kappa
    for i in range(m):
        codes = base[i][None, :] + (colors - 1)
        counts = np.zeros((m, sq))
        np.add.at(counts, (np.repeat(np.arange(m), n), codes.ravel()), 1.0)
        if projection is None:
            out[i] = (counts ** 2).sum(axis=1) / n
        else:
            r = counts.reshape(m, kappa, kappa) / n
            prp = np.einsum("ab,mbc,cd->mad", projection, r, projection)
            out[i] = n * (prp ** 2).sum(axis=(1, 2))
    return out


def test_criterion_2_covariance_identities():
    with criterion(2, "covariance identities, exhaustive", 10.0):
        rng = np.random.default_rng(2)
        for kappa, n in ((3, 6), (2, 8)):
            colors = config_array(n, kappa, "all")
            mask = match_matrix_flat(colors).astype(np.float64)

            # raw: indicator inner product vs the overlap-matrix formula
            gram_raw = mask @ mask.T / n
            formula_raw = pairwise_overlap_route(colors, kappa)
            assert np.abs(gram_raw - formula_raw).max() <= 1e-10

            # centered: projected-indicator inner product vs n ||P R P||_F^2
            centered_mask = mask - 1.0 / kappa
            gram_cen = centered_mask @ centered_mask.T / n
            p = np.eye(kappa) - 1.0 / kappa  # projection onto the complement of the all-ones direction
            formula_cen = pairwise_overlap_route(colors, kappa, projection=p)
            assert np.abs(gram_cen - formula_cen).max() <= 1e-10

            # the scalar operations agree with the exhaustive tables
            for _ in range(100):
                i, j = rng.integers(0, len(colors), size=2)
                s = core.SpinConfig(colors[i], kappa)
                t = core.SpinConfig(colors[j], kappa)
                assert abs(core.covariance_raw(s, t) - gram_raw[i, j]) <= 1e-10
                assert abs(core.covariance_centered(s, t) - gram_cen[i, j]) <= 1e-10


# ---------------------------------------------------------------------------
# 3. Second moment, exact


def pair_sum_second_moment(colors, n, kappa, beta):
    """Brute-force oracle: uniform pair average of exp(beta^2 n ||R - u||^2)."""
    mask = match_matrix_flat(colors).astype(np.float64)
    gram = mask @ mask.T / n  # n ||R||_F^2
    exponent = beta ** 2 * (gram - n / kappa ** 2)  # balanced: n ||R - u||^2
    return math.exp(exact.logsumexp(exponent) - 2 * math.log(len(colors)))


def test_criterion_3_second_moment():
    with criterion(3, "second moment: oracle grid, trend, uncentered divergence", 300.0):
        for kappa in (2, 3):
            for n in range(kappa, 10, kappa):
                colors = config_array(n, kappa, "balanced")
                for beta in (0.0, 0.5, 1.0, 2.0):
                    got = exact.second_moment_ratio(n, beta, kappa)
                    want = pair_sum_second_moment(colors, n, kappa, beta)
                    assert abs(got - want) <= 1e-9 * want

        beta = 0.5 * rate.high_temperature_threshold(3).beta
        sizes = list(range(3, 25, 3))
        ratios = [exact.second_moment_ratio(n, beta, 3) for n in sizes]
        last4 = ratios[-4:]
        assert max(last4) / min(last4) < 1.5

        unc = [exact.uncentered_ratio(n, beta, 3, "all") for n in sizes]
        assert all(a < b for a, b in zip(unc, unc[1:]))
        for n, value in zip(sizes, unc):
            assert value > math.exp(beta ** 2 * (n - 1) / 9)


# ---------------------------------------------------------------------------
# 4. Rate function


def test_criterion_4_rate_function():
    with criterion(4, "rate function: expansion, decomposition, exponent gap", 600.0):
        rng = np.random.default_rng(4)
        checked = 0
        while checked < 100_000:
            dim = int(rng.integers(2, 10))
            q = rng.dirichlet(np.ones(dim))
            direction = rng.standard_normal(dim)
            direction -= direction.mean()
            denom = max(np.abs(direction).max(), 1e-12)
            p = q + rng.random() * 0.5 * q.min() / denom * direction
            if p.min() < 0:
                continue
            res = rate.local_expansion_check(p, q)
            if not res.precondition_ok:
                continue
            checked += 1
            assert res.holds

        for _ in range(10_000):
            kappa = int(rng.integers(2, 5))
            point = rate.random_polytope_point(kappa, rng)
            beta = float(rng.random() * 2.5)
            lhs = rate.kl_to_uniform(point) - beta ** 2 * float((point.r ** 2).sum())
            rows = kappa * point.r
            rhs = sum(rate.potts_row_objective(rows[a], beta) for a in range(kappa)) / kappa
            assert abs(lhs - rhs) <= 1e-10

        beta_sub = 0.9 * math.sqrt(6 * math.log(2))
        res_sub = rate.exponent_gap(3, beta_sub, 0.01, seed=4)
        assert res_sub.value > 0
        assert abs(res_sub.value - independent_grid_oracle(beta_sub, 0.01)) <= 1e-3

        res_zero = rate.exponent_gap(3, 0.0, 0.02, seed=4)
        assert abs(res_zero.value - independent_grid_oracle(0.0, 0.02)) <= 1e-3

        res_super = rate.exponent_gap(3, math.sqrt(9 * math.log(2)), 0.001, seed=4)
        assert res_super.value <= 0


# ---------------------------------------------------------------------------
# 5. Theorem-1 finite-size trend


@pytest.fixture(scope="module")
def quenched_trend():
    means = {}
    stderrs = {}
    for n in (3, 6, 9):
        spec = dict(
            n=n, beta=1.0, kappa=3,
            sector="balanced", kind="centered", replicas=200, seed=2024,
        )
        res = exact.quenched_free_energy(**spec)
        means[n], stderrs[n] = res.mean, res.stderr
    return means, stderrs


def test_criterion_5_trend_and_first_moment(quenched_trend):
    with criterion(5, "finite-size free-energy trend + first-moment identity", 600.0):
        means, _ = quenched_trend
        assert means[3] < means[6] < means[9]

        limit = rate.annealed_free_energy_limit(3, 1.0)
        annealed_9 = exact.annealed_log_partition_balanced(9, 1.0, 3) / 9
        # Jensen pins the quenched mean below the finite-n annealed value,
        # which itself sits 0.27 below the n -> inf limit: the literal
        # 0.08-of-the-limit tolerance cannot be met at n = 9 (see the xfail
        # companion); the meaningful finite-size statement is the Jensen gap.
        assert means[9] <= annealed_9 + 1e-9
        assert limit - annealed_9 > 0.08  # the structural obstruction
        assert abs(means[9] - annealed_9) <= 0.08

        # first-moment identity against the enumeration oracle, to 1e-10
        closed = exact.annealed_log_partition_balanced(9, 1.0, 3)
        colors = config_array(9, 3, "balanced")
        variances = [
            core.covariance_centered(core.SpinConfig(c, 3), core.SpinConfig(c, 3)) for c in colors
        ]
        oracle = exact.logsumexp([0.5 * v for v in variances])
        assert abs(closed - oracle) <= 1e-10
        assert abs(closed - (math.log(len(colors)) + 1.0 ** 2 * 9 * 2 / 18)) <= 1e-10


@pytest.mark.xfail(
    strict=True,
    reason="unattainable finite-size tolerance: by Jensen the quenched mean "
    "at n=9 is capped by the finite-n annealed value 0.936, which already "
    "sits 0.27 below the limit 1.2097, so no implementation can land within "
    "0.08 of the limit; the companion test pins this obstruction exactly",
)
def test_criterion_5_literal_limit_tolerance(quenched_trend):
    means, _ = quenched_trend
    print(
        f"\nACCEPTANCE 5-literal [n=9 within 0.08 of the limit]: FAIL (expected; "
        f"mean={means[9]:.4f}, limit={rate.annealed_free_energy_limit(3, 1.0):.4f})"
    )
    assert abs(means[9] - rate.annealed_free_energy_limit(3, 1.0)) <= 0.08


# ---------------------------------------------------------------------------
# 6. kappa = 2 gauge suite


def test_criterion_6_gauge_suite():
    with criterion(6, "two-color gauge suite: antisymmetry, moments, tails", 900.0):
        rng = np.random.default_rng(6)
        betas = [0.5, 1.0, 2.0, math.inf]
        worst = 0.0
        for trial in range(1000):
            n = int(rng.integers(3, 9))
            g = core.CouplingMatrix.from_seed(n, 606, trial)
            sites = [int(s) for s in rng.integers(0, n, size=int(rng.integers(1, 6)))]
            if all(sites.count(s) % 2 == 0 for s in set(sites)):
                sites.append(int(rng.integers(0, n)))
            res = exact.gauge_pair_check(g, betas[trial % 4], sites)
            assert res.parity == "odd"
            worst = max(worst, abs(res.pair_sum))
        assert worst <= 1e-12

        for m in (1, 3):
            assert exact.magnetization_moment_exact(8, 1.0, m).value == 0.0
        for n in (4, 8):
            for m in (2, 4):
                est = exact.magnetization_moment_exact(n, 1.0, m, replicas=300, seed=66)
                assert est.value <= est.bound + 3 * est.stderr

        for n in (4, 8):
            for lam in (0.5, 1.0, 2.0, 4.0):
                est = exact.magnetization_mgf_exact(n, 1.0, lam, replicas=300, seed=67)
                assert est.value <= est.bound * (1 + 3 * est.stderr)

        for n in (4, 8, 12):
            for beta in (0.0, 1.0, 4.0, math.inf):
                if math.isinf(beta):
                    spec = dict(n=n, beta=beta, kappa=2, replicas=200, seed=68)
                elif beta >= 2.0:
                    spec = dict(
                        n=n, beta=beta, kappa=2, replicas=48,
                        sweeps=900, burn_in=300, thinning=3, seed=68,
                        ladder=(0.0, 1.0, 2.0, 3.0, 4.0),
                    )
                else:
                    spec = dict(
                        n=n, beta=beta, kappa=2, replicas=48,
                        sweeps=900, burn_in=300, thinning=3, seed=68,
                    )
                for est in mc.estimate_tail(epsilon=(0.25, 0.5), **spec):
                    assert est.value <= est.bound + 3 * est.stderr, (n, beta, est)


# ---------------------------------------------------------------------------
# 7. Table law and Stirling asymptotics


def test_criterion_7_ldp_and_shells():
    with criterion(7, "overlap law, Stirling band, shell-count fit", 120.0):
        for kappa in (2, 3, 4):
            for n in range(kappa, 25, kappa):
                tables = exact.admissible_array(n, kappa)
                total = np.exp(exact.log_overlap_law(tables, n, kappa)).sum()
                assert abs(total - 1.0) <= 1e-10

        for kappa, step, top in ((2, 4, 160), (3, 9, 180)):
            gaps = []
            for n in range(step, top + 1, step):
                table = np.full((kappa, kappa), n // kappa ** 2, dtype=np.int64)
                e, a = exact.ldp_log_probability(n, kappa, table)
                gaps.append(e - a)
            assert max(gaps) - min(gaps) <= 1.0

        for kappa in (2, 3):
            expo = (kappa - 1) ** 2 / 2.0
            ratios = {}
            for n in range(kappa, 12 * kappa + 1, kappa):
                hist = exact.shell_histogram(n, kappa)
                assert hist.sum() == len(exact.admissible_array(n, kappa))
                for l in range(1, n + 1):
                    if hist[l - 1]:
                        ratios[(n, l)] = hist[l - 1] / (l * n) ** expo
            fitted = max(v for (n, _), v in ratios.items() if n <= 6 * kappa)
            for (n, l), value in ratios.items():
                assert value <= fitted + 1e-12, f"shell bound broke at (n={n}, l={l})"


# ---------------------------------------------------------------------------
# 8. Monte Carlo validity


def exact_state_probs(g, kappa, beta, sector):
    colors = config_array(g.n, kappa, sector)
    energies = batch_energies_raw(colors, g)
    w = np.exp(beta * (energies - energies.max()))
    return colors, energies, w / w.sum()


def histogram_matches(visited, colors, probs, n_batches, per_batch):
    """Whether a chain's ``configurations`` records, ``n_batches`` batches of ``per_batch`` sweeps, visit each row of
    ``colors`` (a sector) with its probability ``probs``, to 3 batch-mean stderrs."""
    fracs = visit_counts(visited, colors, n_batches) / per_batch
    emp = fracs.mean(axis=0)
    se = fracs.std(axis=0, ddof=1) / math.sqrt(n_batches)
    return np.all(np.abs(emp - probs) <= 3 * se + 2e-4)


def test_criterion_8_mc_validity():
    with criterion(8, "sampler marginals, detailed balance, TI free energy", 1200.0):
        # samplers vs exact sector Gibbs at n = 6
        g = core.CouplingMatrix.from_seed(6, 88)
        colors, _, probs = exact_state_probs(g, 2, 0.8, "all")
        chain = mc.ChainState.start(g, 2, 0.8, "all", seed=80)
        mc.run_sweeps(chain, g, 1000)
        visited = mc.run_sweeps(chain, g, 60 * 1500, configurations)[0]
        assert histogram_matches(visited, colors, probs, 60, 1500)

        colors_b, _, probs_b = exact_state_probs(g, 3, 1.0, "balanced")
        chain_b = mc.ChainState.start(g, 3, 1.0, "balanced", seed=81)
        mc.run_sweeps(chain_b, g, 1000)
        visited = mc.run_sweeps(chain_b, g, 60 * 1500, configurations)[0]
        assert histogram_matches(visited, colors_b, probs_b, 60, 1500)

        # tempering rung stationarity at n = 5
        g5 = core.CouplingMatrix.from_seed(5, 89)
        ladder = mc.TemperingLadder.start(g5, 2, [0.5, 1.2], "all", seed=82)
        mc.run_sweeps(ladder, g5, 1000)
        cold_colors, _, cold_probs = exact_state_probs(g5, 2, 1.2, "all")
        n_batches, per_batch = 40, 1200
        cold = mc.run_sweeps(ladder, g5, n_batches * per_batch, configurations)[1]
        assert histogram_matches(cold, cold_colors, cold_probs, n_batches, per_batch)

        # detailed balance of the single-proposal kernel at n <= 4
        for kappa, n, beta, sector in ((2, 4, 1.2, "all"), (3, 3, 0.8, "all"), (2, 4, 1.0, "balanced")):
            gk = core.CouplingMatrix.from_seed(n, 90 + n)
            _, energies, P = single_proposal_kernel(gk, kappa, beta, sector)
            pi = np.exp(beta * (energies - energies.max()))
            pi /= pi.sum()
            flow = pi[:, None] * P
            assert np.abs(flow - flow.T).max() <= 1e-10

        # thermodynamic integration vs exact at n = 6
        g6 = core.CouplingMatrix.from_seed(6, 91)
        res = mc.free_energy_ti(g6, 3, 1.0, 13, "balanced", "centered", seed=83,
                                sweeps=2500, burn_in=500)
        target = exact.log_partition(g6, 1.0, 3, "balanced", "centered").free_energy
        assert abs(res.value - target) <= 3 * res.stderr + res.quad_error
