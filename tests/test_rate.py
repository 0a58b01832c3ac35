import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pottsglass import rate

from conftest import independent_grid_oracle


def uniform_table(kappa):
    return np.full((kappa, kappa), 1.0 / kappa ** 2)


def permutation_table(kappa):
    return np.eye(kappa) / kappa


def frobenius_gap(r):
    """Squared Frobenius distance to the uniform table ``kappa^{-2} 11^T``, by the stack route of ``exponent_gap``."""
    return float(rate._sq_gaps(np.asarray(r)[None], len(r))[0])


class TestPolytope:
    def test_margin_fit(self, rng):
        for kappa in (2, 3, 5):
            raw = rng.random((kappa, kappa))
            fitted = rate.margin_fit(raw, kappa)
            assert np.abs(fitted.sum(axis=0) - 1 / kappa).max() < 1e-12
            assert np.abs(fitted.sum(axis=1) - 1 / kappa).max() < 1e-12

    def test_point_validation(self):
        rate.PolytopePoint(uniform_table(3), 3)
        with pytest.raises(ValueError):
            rate.PolytopePoint(np.full((3, 3), 0.2), 3)
        with pytest.raises(ValueError):
            rate.PolytopePoint(uniform_table(3) - 1e-3, 3)

    def test_random_points_feasible(self, rng):
        for _ in range(10):
            p = rate.random_polytope_point(4, rng)
            assert p.r.min() >= 0

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 5), st.integers(1, 8), st.integers(0, 2 ** 32 - 1))
    def test_stack_fits_each_matrix_as_alone(self, kappa, size, seed):
        # negative entries are clipped to 0 before fitting; some rows vanish entirely
        gen = np.random.default_rng(seed)
        stack = gen.standard_normal((size, kappa, kappa)) * gen.choice([0.01, 0.3, 1.0], (size, 1, 1))
        stack += gen.choice([0.0, 0.3, 1.0], (size, 1, 1))
        stack[gen.random((size, kappa, kappa)) < 0.1] = 0.0
        fitted = rate.margin_fit(stack, kappa)
        assert fitted.shape == stack.shape
        for one, alone in zip(fitted, stack):
            assert one.tobytes() == rate.margin_fit(alone, kappa).tobytes()


class TestKl:
    def test_zero_at_reference(self):
        assert rate.kl_to_uniform(uniform_table(3)) == 0.0

    def test_permutation_value(self):
        assert rate.kl_to_uniform(permutation_table(3)) == pytest.approx(math.log(3), abs=1e-12)
        assert rate.kl_to_uniform(np.eye(2) / 2) == pytest.approx(math.log(2), abs=1e-12)

    def test_nonnegative(self, rng):
        for _ in range(100):
            p = rate.random_polytope_point(3, rng)
            assert rate.kl_to_uniform(p) >= 0

    def test_margin_violation_rejected(self):
        with pytest.raises(ValueError):
            rate.kl_to_uniform(np.full((3, 3), 0.2))

    def test_sums_the_positive_entries_alone(self, rng):
        # bitwise against the sum over the positive entries, zeros dropped
        # rather than added (numpy's pairwise sum groups by position)
        for kappa in (3, 4):
            for _ in range(50):
                raw = rng.random((kappa, kappa))
                raw[rng.random((kappa, kappa)) < 0.3] = 0.0
                r = rate.margin_fit(raw, kappa)
                vals = r[r > 1e-300]
                assert rate.kl_to_uniform(r) == float((vals * np.log(kappa ** 2 * vals)).sum())


class TestFrobeniusGap:
    def test_values(self):
        assert frobenius_gap(uniform_table(4)) == 0.0
        assert frobenius_gap(permutation_table(3)) == pytest.approx(2 / 9, abs=1e-14)

    def test_identity_with_raw_norm(self, rng):
        # ||r - u||_F^2 == ||r||_F^2 - 1/kappa^2 on the margin polytope
        for kappa in (2, 3, 4):
            for _ in range(50):
                p = rate.random_polytope_point(kappa, rng)
                lhs = frobenius_gap(p.r)
                rhs = float((p.r ** 2).sum()) - 1.0 / kappa ** 2
                assert lhs == pytest.approx(rhs, abs=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 5), st.integers(0, 2 ** 32 - 1))
    def test_identity_property(self, kappa, seed):
        p = rate.random_polytope_point(kappa, np.random.default_rng(seed))
        lhs = frobenius_gap(p.r)
        rhs = float((p.r ** 2).sum()) - 1.0 / kappa ** 2
        assert abs(lhs - rhs) <= 1e-12
        assert rate.kl_to_uniform(p) >= 0.0


def reference_expansion_check(p, q):
    """The one-pair check written out with Python floats, as v0.1.5 computed it."""
    qmin = float(q.min())
    diff = p - q
    if qmin <= 0.0 or float(np.abs(diff).max()) > 0.5 * qmin:
        return rate.LocalExpansionResult(math.nan, math.nan, None, False)
    pos = p > 1e-300
    kl = float((p[pos] * np.log(p[pos] / q[pos])).sum())
    quad = 0.5 * float((diff ** 2 / q).sum())
    lhs = abs(kl - quad)
    rhs = 5.0 / qmin ** 2 * float((np.abs(diff) ** 3).sum())
    noise = 16.0 * np.finfo(np.float64).eps * (1.0 + abs(kl) + quad)
    return rate.LocalExpansionResult(lhs, rhs, bool(lhs <= rhs + noise), True)


class TestLocalExpansion:
    def test_equal_distributions(self):
        res = rate.local_expansion_check([0.25] * 4, [0.25] * 4)
        assert res == (0.0, 0.0, True, True)

    def test_structured_perturbation(self):
        q = np.full(4, 0.25)
        p = q + 0.05 * np.array([1.0, -1.0, 1.0, -1.0])
        res = rate.local_expansion_check(p, q)
        assert res.precondition_ok and res.holds

    def test_precondition_status(self):
        res = rate.local_expansion_check([0.9, 0.1], [0.5, 0.5])
        assert not res.precondition_ok
        assert res.holds is None
        res2 = rate.local_expansion_check([1.0, 0.0], [1.0, 0.0])
        assert not res2.precondition_ok  # min q = 0

    def test_stack_matches_single_checks(self, rng):
        fields = rate.LocalExpansionResult._fields
        for dim in (2, 5, 8, 9, 12):
            q = rng.dirichlet(np.ones(dim), size=300)
            direction = rng.standard_normal((300, dim))
            direction -= direction.mean(axis=1, keepdims=True)
            reach = q.min(axis=1) / np.abs(direction).max(axis=1)
            p = q + (rng.random(300) * reach)[:, None] * direction
            p[::7] = q[::7] + 0.5 * direction[::7]  # max |p - q| above (min q)/2
            q[::11, 0] = 0.0  # min q = 0
            p[::13, 1] = 0.0  # an entry dropped from the KL sum
            stacked = rate.local_expansion_check(p, q)
            assert not stacked.precondition_ok.all() and stacked.precondition_ok.any()
            for i in range(len(p)):
                alone = rate.local_expansion_check(p[i], q[i])
                ref = reference_expansion_check(p[i], q[i])
                assert alone.precondition_ok == ref.precondition_ok
                assert alone == ref or not ref.precondition_ok
                for name, column, value in zip(fields, stacked, alone):
                    cell = column[i]
                    if value is None or isinstance(value, bool):
                        assert (None if cell is None else bool(cell)) is value, (dim, i, name)
                    else:  # bitwise, so NaN matches NaN
                        assert np.float64(cell).tobytes() == np.float64(value).tobytes(), (dim, i, name)

    def test_random_sweep(self, rng):
        checked = 0
        for _ in range(20000):
            dim = int(rng.integers(2, 10))
            q = rng.dirichlet(np.ones(dim))
            direction = rng.standard_normal(dim)
            direction -= direction.mean()
            denom = max(np.abs(direction).max(), 1e-12)
            p = q + rng.random() * 0.5 * q.min() / denom * direction
            if p.min() < 0:
                continue
            res = rate.local_expansion_check(p, q)
            if res.precondition_ok:
                checked += 1
                assert res.holds
        assert checked > 15000


class TestRowObjective:
    def test_uniform_value(self):
        assert rate.potts_row_objective(np.full(3, 1 / 3), 1.0) == pytest.approx(-1 / 9, abs=1e-14)

    def test_point_mass_at_beta_zero(self):
        assert rate.potts_row_objective([1.0, 0.0, 0.0], 0.0) == pytest.approx(math.log(3), abs=1e-12)

    def test_uniform_minimizes_at_beta_zero(self, rng):
        base = rate.potts_row_objective(np.full(3, 1 / 3), 0.0)
        assert base == pytest.approx(0.0, abs=1e-14)
        for _ in range(200):
            v = rng.dirichlet(np.ones(3))
            assert rate.potts_row_objective(v, 0.0) >= base - 1e-12

    def test_row_decomposition_identity(self, rng):
        # D(r||u) - beta^2 ||r||_F^2 == (1/kappa) sum_a S(kappa * row_a)
        for kappa in (2, 3, 4):
            for _ in range(60):
                p = rate.random_polytope_point(kappa, rng)
                beta = float(rng.random() * 2.5)
                lhs = rate.kl_to_uniform(p) - beta ** 2 * float((p.r ** 2).sum())
                rows = kappa * p.r
                rhs = sum(rate.potts_row_objective(rows[a], beta) for a in range(kappa)) / kappa
                assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_simplex_violation(self):
        with pytest.raises(ValueError):
            rate.potts_row_objective([0.5, 0.4], 1.0)


class TestExponentGap:
    def test_pure_kl_on_shell_is_positive(self):
        res = rate.exponent_gap(3, 0.0, 0.02, restarts=16)
        assert res.value > 0
        assert abs(res.value - independent_grid_oracle(0.0, 0.02, 1.0 / 120.0)) < 1e-3

    @pytest.mark.parametrize("delta", (0.005, 0.02, 0.1, 0.2))
    @pytest.mark.parametrize("beta", (0.0, 1.0, 1.835, math.sqrt(6 * math.log(2)), 2.6))
    def test_no_grid_point_beats_the_descent(self, beta, delta):
        res = rate.exponent_gap(3, beta, delta)
        assert res.value <= independent_grid_oracle(beta, delta, 1.0 / 60.0) + 1e-9

    @staticmethod
    def permutation_line_minimum(kappa, beta, delta):
        """Closed-form minimum along ``u + alpha (P/kappa - u)`` for a
        permutation matrix P, over the alphas on the shell."""
        low = kappa * math.sqrt(delta / (kappa - 1)) * (1.0 + 1e-9)
        alpha = np.linspace(low, 1.0, 20001)
        off = (1.0 - alpha) / kappa ** 2
        diag = off + alpha / kappa
        with np.errstate(divide="ignore", invalid="ignore"):
            off_kl = np.where(off > 0, off * np.log(kappa ** 2 * off), 0.0)
        kl = kappa * (diag * np.log(kappa ** 2 * diag) + (kappa - 1) * off_kl)
        return float((kl - beta ** 2 * alpha ** 2 * (kappa - 1) / kappa ** 2).min())

    @pytest.mark.parametrize("factor", (0.8, 1.0, 1.2))
    @pytest.mark.parametrize("kappa", (3, 4, 5, 6))
    def test_no_permutation_line_point_beats_the_descent(self, kappa, factor):
        # at the bound (factor 1) the Dirichlet starts alone miss the zero on
        # the line at kappa = 6: they stop at 0.0197; the second shell is half
        # the polytope's maximal squared gap
        beta = factor * math.sqrt(rate.second_moment_coupling_bound(kappa))
        for delta in (0.01, (kappa - 1) / (2 * kappa ** 2)):
            res = rate.exponent_gap(kappa, beta, delta)
            assert res.value <= self.permutation_line_minimum(kappa, beta, delta) + 1e-9, delta

    @pytest.mark.parametrize(
        "case", ((3, 1.835, 0.01), (4, 2.2, 0.005), (3, 0.5, 0.2), (2, 1.0, 0.01)), ids=str)
    def test_value_is_the_objective_at_argmin(self, case):
        res = rate.exponent_gap(*case)
        beta = case[1]
        assert rate.kl_to_uniform(res.argmin) - beta ** 2 * frobenius_gap(res.argmin) == res.value

    def test_subcritical_positive(self):
        beta = 0.9 * math.sqrt(6 * math.log(2))
        res = rate.exponent_gap(3, beta, 0.01, restarts=24)
        assert res.value > 0

    def test_supercritical_nonpositive(self):
        res = rate.exponent_gap(3, math.sqrt(9 * math.log(2)), 0.001, restarts=24)
        assert res.value <= 0

    def test_argmin_feasible(self):
        # on the wide shells many candidates' rays leave the polytope before
        # the shell; none of them may be returned
        for kappa, delta in ((3, 0.01), (3, 0.1), (3, 0.15), (3, 0.2), (4, 0.15)):
            res = rate.exponent_gap(kappa, 1.0, delta, restarts=8)
            assert np.abs(res.argmin.sum(axis=0) - 1 / kappa).max() < 1e-9
            assert np.abs(res.argmin.sum(axis=1) - 1 / kappa).max() < 1e-9
            assert frobenius_gap(res.argmin) >= res.delta - 1e-9, (kappa, delta)

    # Each GapResult as v0.1.8 computed it (v0.1.7 gave the same bytes), the
    # argmin as float.hex per cell.
    PINNED = {
        (3, 1.835, 0.01): (
            "0x1.26c5c899cfc5cp-7", 4886, 71, True,
            ["0x1.441965438b5dep-3", "0x1.669145671f4cbp-4", "0x1.669145671f4cbp-4",
             "0x1.669145671f4cbp-4", "0x1.441965438b5dep-3", "0x1.669145671f4cbp-4",
             "0x1.669145671f4cbp-4", "0x1.669145671f4cbp-4", "0x1.441965438b5dfp-3"],
        ),
        (4, 2.2, 0.005): (
            "0x1.973a417632b32p-7", 5358, 71, True,
            ["0x1.7d69f3b36e2afp-4", "0x1.ac6408330be34p-5", "0x1.ac6408330be34p-5",
             "0x1.ac6408330be34p-5", "0x1.ac6408330be34p-5", "0x1.7d69f3b36e2afp-4",
             "0x1.ac6408330be34p-5", "0x1.ac6408330be34p-5", "0x1.ac6408330be34p-5",
             "0x1.ac6408330be34p-5", "0x1.7d69f3b36e2b6p-4", "0x1.ac6408330be34p-5",
             "0x1.ac6408330be32p-5", "0x1.ac6408330be32p-5", "0x1.ac6408330be37p-5",
             "0x1.7d69f3b36e2b1p-4"],
        ),
    }

    @pytest.mark.parametrize("case", sorted(PINNED), ids=str)
    def test_result_pinned(self, case):
        value, iterations, restarts, converged, argmin = self.PINNED[case]
        res = rate.exponent_gap(*case, seed=0)
        assert res.value.hex() == value
        assert (res.iterations, res.restarts, res.converged) == (iterations, restarts, converged)
        assert [v.hex() for v in res.argmin.ravel().tolist()] == argmin

    def test_infeasible_delta(self):
        with pytest.raises(ValueError):
            rate.exponent_gap(3, 1.0, 0.5)  # above (kappa-1)/kappa^2

    @pytest.mark.parametrize("beta", (math.nan, math.inf, -math.inf))
    def test_non_finite_beta_rejected_before_compute(self, beta, monkeypatch):
        def no_compute(*args):
            raise AssertionError("margin_fit ran before beta was checked")

        monkeypatch.setattr(rate, "margin_fit", no_compute)
        with pytest.raises(ValueError, match="beta must be finite"):
            rate.exponent_gap(3, beta, 0.01)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(2, 6), st.integers(1, 8), st.floats(0.0, 1.0, exclude_min=True),
           st.integers(0, 2 ** 32 - 1))
    def test_shell_push_is_one_radial_step(self, kappa, size, frac, seed):
        gen = np.random.default_rng(seed)
        stack = gen.standard_normal((size, kappa, kappa)) * gen.choice([0.01, 0.3, 1.0], (size, 1, 1))
        stack += gen.choice([0.0, 0.3, 1.0], (size, 1, 1))
        stack[gen.random((size, kappa, kappa)) < 0.1] = 0.0
        stack = rate.margin_fit(stack, kappa)
        delta = frac * (kappa - 1) / kappa ** 2
        out = rate._push_to_shell(stack, kappa, delta)
        assert out.min() >= 0.0
        before = ((stack - 1 / kappa ** 2) ** 2).sum(axis=(1, 2))
        after = ((out - 1 / kappa ** 2) ** 2).sum(axis=(1, 2))
        # r - u has zero margins, so the step adds no margin error of its own: it
        # scales the residual that margin_fit left by the step's t
        t = np.sqrt(after / np.maximum(before, 1e-300))
        for axis in (1, 2):
            residual = np.abs(stack.sum(axis=axis) - 1 / kappa).max(axis=1)
            assert np.all(np.abs(out.sum(axis=axis) - 1 / kappa).max(axis=1) <= t * (residual + 1e-15) + 1e-15)
        on_shell = before >= delta * (1 - 1e-12)
        assert np.array_equal(out[on_shell], stack[on_shell])
        # off the shell: pushed onto it, or stopped where the ray leaves the polytope
        # (an entry at 0, to rounding), or left at u, which has no ray
        at_u = before < 1e-30
        assert np.all((after >= delta * (1 - 1e-12)) | (out.min(axis=(1, 2)) <= 1e-15) | at_u)
        assert np.array_equal(out[at_u], stack[at_u])


class TestThresholds:
    def test_kappa3_first_branch(self):
        th = rate.high_temperature_threshold(3)
        assert th.beta == pytest.approx(math.sqrt(6 * math.log(2)), abs=1e-15)
        assert th.branch == "second-moment"

    def test_kappa4_branches_cross(self):
        th = rate.high_temperature_threshold(4)
        assert abs(th.second_moment_branch - th.ferro_branch) < 1e-12
        assert th.beta == pytest.approx(math.sqrt(6 * math.log(3)), rel=1e-12)

    def test_large_kappa_prefers_ferro_branch(self):
        th = rate.high_temperature_threshold(10)
        assert th.branch == "ferro-reduction"
        assert th.ferro_branch < th.second_moment_branch

    def test_domain(self):
        with pytest.raises(ValueError):
            rate.high_temperature_threshold(2)

    def test_coupling_bound_never_hits_kappa_sq_over_two(self):
        # min(kappa^2/2, second-moment bound) is always the second term
        for kappa in range(3, 101):
            assert rate.second_moment_coupling_bound(kappa) < kappa ** 2 / 2


class TestAnnealedLimit:
    def test_values(self):
        assert rate.annealed_free_energy_limit(3, 0.0) == pytest.approx(math.log(3), abs=1e-15)
        assert rate.annealed_free_energy_limit(3, 1.0) == pytest.approx(math.log(3) + 1 / 9, abs=1e-12)
        assert rate.annealed_free_energy_limit(2, 1.0) == pytest.approx(math.log(2) + 1 / 8, abs=1e-12)


class TestFerroReduction:
    # the ferromagnetic-Potts (EW90) reduction applies below the threshold's ferro branch
    def test_examples(self):
        assert 2.0 < rate.high_temperature_threshold(3).ferro_branch
        assert rate.high_temperature_threshold(3).ferro_branch <= 3.0
        assert 0.0 < rate.high_temperature_threshold(7).ferro_branch

    def test_threshold_value(self):
        limit = math.sqrt(12 * math.log(2))
        assert limit - 1e-9 < rate.high_temperature_threshold(3).ferro_branch
        assert rate.high_temperature_threshold(3).ferro_branch <= limit + 1e-9

    def test_matches_threshold_second_branch(self):
        # the branch is beta^2 (1 - 2/kappa) < ferro_potts_critical_coupling(kappa), solved for beta
        for kappa in range(3, 40):
            branch = rate.high_temperature_threshold(kappa).ferro_branch
            for scale in (0.0, 0.25, 0.5, 0.9, 0.999, 1 - 1e-12, 1.001, 1.1, 2.0, 4.0):
                beta = branch * scale
                coupling_form = beta ** 2 * (1 - 2 / kappa) < rate.ferro_potts_critical_coupling(kappa)
                assert (beta < branch) == coupling_form == (scale < 1)


class TestZeroTemperature:
    def test_boundary_cases(self):
        assert not rate.zero_temperature_bounds(55).breaks
        zt = rate.zero_temperature_bounds(56)
        assert zt.breaks
        assert zt.balanced_upper == pytest.approx(0.375760, abs=5e-6)
        assert zt.unconstrained_lower == pytest.approx(2 / (3 * math.sqrt(math.pi)), abs=1e-15)
        assert not rate.zero_temperature_bounds(3).breaks

    def test_min_breaking_scan(self):
        assert rate.min_breaking_colors() == 56
        assert all(not rate.zero_temperature_bounds(k).breaks for k in range(2, 56))
        assert all(rate.zero_temperature_bounds(k).breaks for k in range(56, 201))


class TestCurvatureFloor:
    def test_kl_dominates_quadratic_near_uniform(self, rng):
        # D >= (1 - 0.1)(kappa^2/2) ||r-u||^2 inside the empirically located
        # shell delta' = 0.1/kappa^2; 1e5 random near-uniform points in total
        total_tested = 0
        for kappa in (2, 3, 4):
            delta_prime = 0.1 / kappa ** 2
            u = 1.0 / kappa ** 2
            d = rng.standard_normal((40000, kappa, kappa))
            d -= d.mean(axis=2, keepdims=True)
            d -= d.mean(axis=1, keepdims=True)
            norms = np.sqrt((d ** 2).sum(axis=(1, 2), keepdims=True))
            radii = np.sqrt(rng.random((40000, 1, 1)) * delta_prime)
            pts = u + radii / np.maximum(norms, 1e-300) * d
            ok = pts.min(axis=(1, 2)) > 0
            pts = pts[ok]
            gaps = ((pts - u) ** 2).sum(axis=(1, 2))
            kls = (pts * np.log(kappa ** 2 * pts)).sum(axis=(1, 2))
            sel = (gaps > 0) & (gaps <= delta_prime)
            assert np.all(kls[sel] >= 0.9 * (kappa ** 2 / 2) * gaps[sel])
            total_tested += int(sel.sum())
        assert total_tested >= 100_000
