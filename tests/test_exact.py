import itertools
import math
import warnings
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from pottsglass import core, exact
from pottsglass import montecarlo as mc

from conftest import (config_array, flipped_at, full_split_log_partition, gram_pair_covariances,
                      log_ez2_raw_all_pairs, match_matrix_flat, split_energies)


def coupling(matrix):
    return core.CouplingMatrix(np.array(matrix, dtype=np.float64))


def mass_average(g, beta, kappa, fa, fb, sector="all"):
    """Gibbs average of ``fa(half A row) fb(half B row)`` by :func:`exact._mass`'s factor column, over the full split."""
    split = exact._split(g.n, kappa, sector)
    _, (w,) = exact._mass(split, [g], beta, "raw", [(fa(split.rows_a)[None], fb(split.rows_b)[None])])
    return w[:, 1].sum() / w[:, 0].sum()


def ground(g, kappa, sector="all"):
    """(largest energy, number of maximizers) by :func:`exact._mass` at beta = inf, over the full split."""
    (top,), (w,) = exact._mass(exact._split(g.n, kappa, sector), [g], math.inf)
    return float(top), w[:, 0].sum()


def pair_sum_ratio_oracle(n, beta, kappa, kind):
    """Moment ratio by literal double sum over configuration pairs.

    Uses only the Gaussian moment identity E e^X = e^{Var X / 2} and the
    covariance operations; independent of the table-law machinery.
    """
    colors = config_array(n, kappa, "balanced")
    cov = gram_pair_covariances(colors)  # n ||R||_F^2 for every pair
    if kind == "centered":
        cov = cov - n / kappa ** 2  # balanced identity: n ||P R P||^2
    diag = np.diag(cov)
    log_ez2 = exact.logsumexp(0.5 * beta ** 2 * (diag[:, None] + diag[None, :] + 2.0 * cov))
    log_ez = exact.logsumexp(0.5 * beta ** 2 * diag)
    return math.exp(log_ez2 - 2 * log_ez)


class TestLogPartition:
    def test_infinite_temperature_counts_states(self):
        g = core.CouplingMatrix.from_seed(4, 11)
        fs = exact.log_partition(g, 0.0, 2, "all", "raw")
        assert fs.free_energy == pytest.approx(math.log(2), abs=1e-14)
        fs_bal = exact.log_partition(g, 0.0, 2, "balanced", "raw")
        assert fs_bal.log_z == pytest.approx(math.log(6), abs=1e-14)

    def test_single_site(self):
        g = coupling([[1.7]])
        fs = exact.log_partition(g, 0.9, 3, "all", "raw")
        assert fs.log_z == pytest.approx(math.log(3) + 0.9 * 1.7, abs=1e-12)

    def test_cap_and_divisibility(self):
        g = core.CouplingMatrix.from_seed(11, 1)
        with pytest.raises(core.EnumerationCapError):
            exact.log_partition(g, 1.0, 3, "all", "raw", cap=1000)
        g5 = core.CouplingMatrix.from_seed(5, 1)
        with pytest.raises(core.DivisibilityError):
            exact.log_partition(g5, 1.0, 2, "balanced", "raw")

    def test_sector_is_all_or_balanced(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("computed before the sector was rejected")

        assert exact.quenched_free_energy(4, 1.0, 2, "balanced", replicas=2).samples[0].sector == "balanced"
        monkeypatch.setattr(exact, "_lex_extend", refuse)
        monkeypatch.setattr(mc, "philox_generator", refuse)
        g = core.CouplingMatrix.from_seed(6, 1)
        for sector in ((3, 3), np.array([3, 3]), None, "fixed"):
            for call in (lambda: core.sector_counts(6, 2, sector), lambda: core.count_configs(6, 2, sector),
                         lambda: exact.log_partition(g, 1.0, 2, sector),
                         lambda: mc.ChainState.start(g, 2, 1.0, sector),
                         lambda: mc.ChainState(np.array([1, 2]), 2, 1.0, sector, 0.0, rng=None)):  # as a load builds it
                with pytest.raises(core.SectorError):
                    call()


class TestQuenchedFreeEnergy:
    def test_beta_zero_has_no_variance(self):
        res = exact.quenched_free_energy(4, 0.0, 2, replicas=4)
        assert res.mean == pytest.approx(math.log(2), abs=1e-14)
        assert res.stderr == 0.0

    def test_single_site_closed_form(self):
        res = exact.quenched_free_energy(1, 0.7, 3, kind="centered", replicas=64, seed=5)
        for s in res.samples:
            g = core.CouplingMatrix.from_seed(1, 5, s.stream)
            expected = math.log(3) + 0.7 * float(g.g[0, 0]) * (1 - 1 / 3)
            assert s.log_z == pytest.approx(expected, abs=1e-12)
        assert abs(res.mean - math.log(3)) < 3 * res.stderr + 1e-12

    def test_centered_and_raw_differ_by_analytic_shift(self):
        for stream in range(5):
            g = core.CouplingMatrix.from_seed(6, 42, stream)
            raw = exact.log_partition(g, 1.3, 3, "balanced", "raw")
            cen = exact.log_partition(g, 1.3, 3, "balanced", "centered")
            shift = 1.3 * core.centering_shift(g, 3)
            assert raw.log_z == pytest.approx(cen.log_z + shift, abs=1e-10)

    def test_raw_and_centered_means_agree(self):
        # the centering shift is mean-zero over disorder, so the two kinds
        # share the quenched mean up to replica noise
        base = dict(n=5, beta=1.0, kappa=3, sector="all", seed=8, replicas=48)
        raw = exact.quenched_free_energy(kind="raw", **base)
        cen = exact.quenched_free_energy(kind="centered", **base)
        pooled = math.hypot(raw.stderr, cen.stderr)
        assert abs(raw.mean - cen.mean) <= 3 * pooled

    def test_worker_count_invariance(self):
        spec = dict(n=5, beta=0.8, kappa=2, sector="all", replicas=6, seed=3)
        serial = exact.quenched_free_energy(**spec, workers=1)
        parallel = exact.quenched_free_energy(**spec, workers=2)
        assert serial.mean == parallel.mean
        assert [s.log_z for s in serial.samples] == [s.log_z for s in parallel.samples]


class TestGibbsExpectation:
    def test_constant_observable(self):
        g = core.CouplingMatrix.from_seed(4, 2)
        ones = lambda rows: np.ones(len(rows))
        assert mass_average(g, 1.2, 2, ones, ones) == pytest.approx(1.0, abs=1e-12)

    def test_uniform_marginal(self):
        g = core.CouplingMatrix.from_seed(4, 2)
        got = mass_average(g, 0.0, 3, lambda rows: (rows[:, 0] == 1).astype(float), lambda rows: np.ones(len(rows)))
        assert got == pytest.approx(1 / 3, abs=1e-12)

    def test_monochrome_mass_at_infinite_temperature(self):
        # replica 0 of seed 2 is CouplingMatrix.from_seed(4, 2); only the two monochrome configs deviate by 0.5
        assert exact.tail_probability_exact(4, 0.0, 0.5, replicas=1, seed=2).value == pytest.approx(2 / 16, abs=1e-12)


class TestGroundState:
    def test_single_site(self):
        energy, degeneracy = ground(coupling([[0.4]]), 3)
        assert energy == pytest.approx(0.4, abs=1e-14)
        assert degeneracy == 3

    def test_all_ones_coupling(self):
        g = coupling(np.ones((4, 4)))
        energy, degeneracy = ground(g, 2)
        assert energy == pytest.approx(8.0, abs=1e-12)
        assert degeneracy == 2  # the two monochrome configurations
        assert ground(g, 2, "balanced")[0] == pytest.approx(4.0, abs=1e-12)

    def test_color_swap_degeneracy_is_bitwise(self):
        g = core.CouplingMatrix.from_seed(6, 9)
        assert ground(g, 2)[1] % 2 == 0


class TestLogFactorial:
    """``exact._log_factorial`` is Cephes ``lgam`` at the integers: scipy's ``gammaln`` values, bit for bit."""

    def test_table_equals_gammaln(self):
        n = 200_000  # log k! below 13, the A series below 1000, the three-term series from 1000 on
        got = exact._log_gamma_table(n)
        assert got.shape == (n + 1,)
        assert np.array_equal(got.view(np.int64), gammaln(np.arange(n + 1) + 1.0).view(np.int64))

    @pytest.mark.parametrize("k", [0, 11, 12, 998, 999, 10 ** 8 - 1, 10 ** 8, 10 ** 8 + 1, 3 * 10 ** 9, 2 ** 52])
    def test_scalar_calls_equal_gammaln(self, k):
        # from x = k + 1 > 1e8 on, Stirling's series carries no correction
        got = exact._log_factorial(k)
        assert float(got) == gammaln(k + 1.0) and np.signbit(got) == np.signbit(gammaln(k + 1.0))


class TestAdmissible:
    def test_counts(self):
        assert len(exact.admissible_array(2, 2)) == 2
        assert len(exact.admissible_array(3, 3)) == 6
        assert len(exact.admissible_array(4, 2)) == 3

    def test_margins(self):
        arr = exact.admissible_array(6, 3)
        assert (arr.sum(axis=1) == 2).all() and (arr.sum(axis=2) == 2).all()
        assert len(np.unique(arr.reshape(len(arr), -1), axis=0)) == len(arr)

    @pytest.mark.parametrize("n,kappa", [(8, 2), (6, 3), (4, 4)])
    def test_array_matches_brute_force_in_order(self, n, kappa):
        # every cell vector in lexicographic order, kept when all margins hold
        margin = n // kappa
        cells = np.array(list(itertools.product(range(margin + 1), repeat=kappa * kappa)))
        cells = cells.reshape(-1, kappa, kappa)
        keep = (cells.sum(axis=1) == margin).all(axis=1) & (cells.sum(axis=2) == margin).all(axis=1)
        assert exact.admissible_array(n, kappa).tolist() == cells[keep].tolist()

    def test_divisibility(self):
        with pytest.raises(core.DivisibilityError):
            exact.admissible_array(5, 2)

    def test_table_count_cap(self, monkeypatch):
        # kappa = 4, n = 8: 282 tables, counted before any is built; the row recursion has 80 (s, r) pairs
        monkeypatch.setattr(exact, "DEFAULT_CAP", 282)
        assert len(exact.admissible_array(8, 4)) == 282
        monkeypatch.setattr(exact, "DEFAULT_CAP", 281)
        for run in (lambda: exact.admissible_array(8, 4), lambda: exact.shell_histogram(8, 4)):
            with pytest.raises(core.EnumerationCapError, match="282 admissible tables, exceeding the cap of 281"):
                run()
        # the table count itself stops at DEFAULT_CAP pairs; the second moments count the row recursion's pairs
        # against DEFAULT_CAP, and against the cap given
        monkeypatch.setattr(exact, "DEFAULT_CAP", 79)
        for run in (lambda: exact.admissible_array(8, 4), lambda: exact.second_moment_ratio(8, 1.0, 4),
                    lambda: exact.uncentered_ratio(8, 1.0, 4, "balanced", 79)):
            with pytest.raises(core.EnumerationCapError, match=r"80 \(s, r\) pairs, exceeding the cap of 79"):
                run()
        # and the 164 entries of its 41 column sums on the planes, 4 entries each
        monkeypatch.setattr(exact, "DEFAULT_CAP", 163)
        for run in (lambda: exact.admissible_array(8, 4), lambda: exact.second_moment_ratio(8, 1.0, 4),
                    lambda: exact.uncentered_ratio(8, 1.0, 4, "balanced", 163)):
            with pytest.raises(core.EnumerationCapError, match="164 column-sum entries, exceeding the cap of 163"):
                run()
        monkeypatch.setattr(exact, "DEFAULT_CAP", 164)
        assert math.isfinite(exact.second_moment_ratio(8, 1.0, 4) + exact.uncentered_ratio(8, 1.0, 4, "balanced", 164))

    def test_table_count_cap_at_every_table_size(self):
        # wherever the count, not the row recursion's pairs or column-sum entries, binds: the log-domain count
        # passes at the enumerated count and refuses one below, with the count exact in the message
        binding = []
        for kappa, sizes in TABLE_SIZES.items():
            for n in sizes:
                count = len(exact.admissible_array(n, kappa))
                try:
                    exact._row_pairs(n, kappa, "balanced", count - 1)
                except core.EnumerationCapError:
                    continue
                binding.append((kappa, n))
                with mock.patch.object(exact, "DEFAULT_CAP", count):
                    exact._check_tables(n, kappa)
                with mock.patch.object(exact, "DEFAULT_CAP", count - 1), pytest.raises(
                        core.EnumerationCapError, match=f"^{count} admissible tables, exceeding the cap of {count - 1}$"):
                    exact._check_tables(n, kappa)
        assert len(binding) == 14 and (4, 8) in binding and (6, 12) in binding

    def test_oversized_table_set_refused_before_any_partial_table(self, monkeypatch):
        # kappa = n = 12: 12! tables, counted over 4,096 column sums; the table rows are never extended
        lex_extend = exact._lex_extend

        def no_tables(choices, *args, **kwargs):
            assert choices.shape[1] < 12, "partial tables enumerated"
            return lex_extend(choices, *args, **kwargs)

        monkeypatch.setattr(exact, "_lex_extend", no_tables)
        with pytest.raises(core.EnumerationCapError, match="479001600 admissible tables"):
            exact.admissible_array(12, 12)

    @pytest.mark.parametrize("total,parts", [(0, 1), (0, 3), (5, 1), (5, 3), (6, 5)])
    def test_compositions_match_product_filter_in_order(self, total, parts):
        expected = [v for v in itertools.product(range(total + 1), repeat=parts) if sum(v) == total]
        rows = exact._compositions(total, parts)
        assert rows.dtype == np.int64
        assert [tuple(row) for row in rows] == expected


class TestOverlapLaw:
    def test_hand_values(self):
        for n, kappa, table, probability in ((4, 2, [[2, 0], [0, 2]], 1 / 6), (4, 2, [[1, 1], [1, 1]], 4 / 6),
                                             (3, 3, np.eye(3, dtype=int), 1 / 6)):
            exact_lp, _ = exact.ldp_log_probability(n, kappa, table)
            assert math.exp(exact_lp) == pytest.approx(probability, abs=1e-12)

    def test_law_normalizes(self):
        for kappa, n in ((2, 8), (3, 9), (4, 8)):
            tables = exact.admissible_array(n, kappa)
            total = np.exp(exact.log_overlap_law(tables, n, kappa)).sum()
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_law_matches_counting_oracle(self):
        # direct count over all balanced pairs at kappa=2, n=4
        colors = config_array(4, 2, "balanced")
        fixed = colors[0]
        for table in exact.admissible_array(4, 2):
            hits = sum(
                1
                for other in colors
                if np.array_equal(
                    core.overlap(core.SpinConfig(fixed, 2), core.SpinConfig(other, 2)).counts, table
                )
            )
            exact_lp, _ = exact.ldp_log_probability(4, 2, table)
            assert math.exp(exact_lp) == pytest.approx(hits / len(colors), abs=1e-12)

    def test_rejects_inadmissible(self):
        with pytest.raises(ValueError):
            exact.ldp_log_probability(4, 2, [[2, 1], [0, 1]])
        with pytest.raises(core.DivisibilityError):
            exact.ldp_log_probability(5, 2, [[2, 0], [0, 3]])


class TestSecondMoment:
    def test_beta_zero(self):
        assert exact.second_moment_ratio(6, 0.0, 3) == pytest.approx(1.0, abs=1e-12)

    def test_hand_value(self):
        assert exact.second_moment_ratio(2, 1.0, 2) == pytest.approx(math.exp(0.5), rel=1e-12)

    def test_matches_pair_sum_oracle(self):
        for beta in (0.0, 0.7, 1.5):
            got = exact.second_moment_ratio(3, beta, 3)
            assert got == pytest.approx(pair_sum_ratio_oracle(3, beta, 3, "centered"), rel=1e-12)

    @pytest.mark.parametrize("n,kappa,beta,replicas", [(6, 3, 0.5, 4000), (6, 3, 1.0, 4000), (4, 2, 1.0, 4000),
                                                       (8, 4, 0.5, 1000)])
    def test_matches_sampled_disorder_mean(self, n, kappa, beta, replicas):
        # E (Z^bal / E Z^bal)^2 over exact log Z of the engine's own couplings, against the table law:
        # checks the Philox draws, the kept diagonal and the centering shift by an independent route
        qfe = exact.quenched_free_energy(n, beta, kappa, "balanced", "centered", replicas=replicas, seed=0)
        log_ez = exact.annealed_log_partition_balanced(n, beta, kappa)
        mean, stderr = core.mean_stderr([math.exp(2.0 * (s.log_z - log_ez)) for s in qfe.samples])
        assert abs(mean - exact.second_moment_ratio(n, beta, kappa)) <= 4.0 * stderr


class TestLdp:
    def test_uniform_table_has_zero_rate(self):
        n, kappa = 16, 2
        table = np.full((2, 2), 4, dtype=np.int64)
        exact_lp, asym = exact.ldp_log_probability(n, kappa, table)
        # rate term vanishes at the reference: asymptotic = -(1/2)log n - (1/2) sum log r
        expected = -((kappa - 1) ** 2 / 2) * math.log(n) - 0.5 * 4 * math.log(1 / 4)
        assert asym == pytest.approx(expected, abs=1e-12)
        assert exact_lp < 0

    def test_exact_value(self):
        exact_lp, _ = exact.ldp_log_probability(4, 2, [[2, 0], [0, 2]])
        assert exact_lp == pytest.approx(math.log(1 / 6), abs=1e-12)

    @pytest.mark.parametrize("n,kappa", [(9, 3), (6, 4), (6, 2)])
    def test_table_must_match_n_and_kappa(self, n, kappa):
        table = 2 * np.eye(3, dtype=np.int64)  # admissible at (n, kappa) = (6, 3) only
        for given in (table, table.tolist()):  # the table is read at the requested n
            with pytest.raises(ValueError):
                exact.ldp_log_probability(n, kappa, given)
        exact.ldp_log_probability(6, 3, table)

    def test_rejects_a_table_an_integer_cast_would_change(self):
        # the cast of [[2.7, 0], [0, 2]] is admissible at n = 4, but the table is not
        for table in ([[2.7, 0], [0, 2]], [[2.0, 0.0], [0.0, 2.0 + 1e-9]]):
            with pytest.raises(ValueError, match="integers"):
                exact.ldp_log_probability(4, 2, table)
        whole = exact.ldp_log_probability(4, 2, [[2.0, 0.0], [0.0, 2.0]])  # integer-valued floats stay accepted
        assert whole == exact.ldp_log_probability(4, 2, [[2, 0], [0, 2]])

    def test_gap_stays_bounded(self):
        gaps = []
        for n in range(4, 81, 4):
            table = np.full((2, 2), n // 4, dtype=np.int64)
            e, a = exact.ldp_log_probability(n, 2, table)
            gaps.append(e - a)
        # successive doubling moves the O(1) remainder by far less than 1
        for n_small, n_big in ((4, 8), (8, 16), (16, 32), (40, 80)):
            i, j = n_small // 4 - 1, n_big // 4 - 1
            assert abs(gaps[i] - gaps[j]) < 1.0


class TestShells:
    def test_partition(self):
        for kappa, n in ((2, 8), (3, 9)):
            hist = exact.shell_histogram(n, kappa)
            assert hist.sum() == len(exact.admissible_array(n, kappa))

    def test_kappa2_n4(self):
        hist = exact.shell_histogram(4, 2)
        assert hist.sum() == 3

    @pytest.mark.parametrize("n,kappa", [(24, 4), (10, 5)])
    def test_tables_on_a_boundary_open_the_shell_above(self, n, kappa):
        # shell l - 1 holds the gap ||T||^2 / n^2 - 1 / kappa^2 in [(l - 1) / n, l / n), here in exact rationals;
        # some tables of these sizes lie on a boundary, where the gap in floats reads one shell low
        norms, counts = np.unique((exact.admissible_array(n, kappa) ** 2).sum(axis=(1, 2)), return_counts=True)
        want = np.zeros(n, dtype=np.int64)
        for norm, count in zip(norms.tolist(), counts):
            want[math.floor(n * (Fraction(norm, n ** 2) - Fraction(1, kappa ** 2)))] += count
        assert exact.shell_histogram(n, kappa).tolist() == want.tolist()


class TestUncenteredRatio:
    def test_row_recursion_keys_fit_in_int64(self, monkeypatch):
        assert exact.uncentered_ratio(3, 1.0, 31) == 2.7337692097639783  # keys below 4^31 = 2^62: the value as before
        monkeypatch.setattr(exact, "_log_ez2_raw_all", lambda *args: pytest.fail("recursion ran past int64 keys"))
        for n, kappa in ((3, 32), (4, 28)):
            with pytest.raises(core.EnumerationCapError, match=rf"{n + 1}\^{kappa} values, past int64"):
                exact.uncentered_ratio(n, 1.0, kappa)

    def test_beta_zero(self):
        assert exact.uncentered_ratio(4, 0.0, 2, "all") == pytest.approx(1.0, abs=1e-12)
        assert exact.uncentered_ratio(4, 0.0, 2, "balanced") == pytest.approx(1.0, abs=1e-12)

    def test_against_pair_sum_oracle(self):
        # literal double sum over configs via the covariance operation
        for kappa, n, beta, sector in ((2, 4, 1.0, "all"), (3, 4, 0.8, "all"), (2, 4, 1.0, "balanced"), (3, 6, 0.6, "balanced"),
                                       (4, 4, 0.7, "all"), (3, 5, 1.3, "all"), (2, 7, 2.0, "all")):
            colors = config_array(n, kappa, sector)
            cov = gram_pair_covariances(colors)
            diag = np.diag(cov)
            log_ez2 = exact.logsumexp(0.5 * beta ** 2 * (diag[:, None] + diag[None, :] + 2 * cov))
            log_ez = exact.logsumexp(0.5 * beta ** 2 * diag)
            oracle = math.exp(log_ez2 - 2 * log_ez)
            assert exact.uncentered_ratio(n, beta, kappa, sector) == pytest.approx(oracle, rel=1e-12)

    def test_exceeds_appendix_bound_and_grows(self):
        kappa, beta = 2, 1.0
        values = [exact.uncentered_ratio(n, beta, kappa, "all") for n in (2, 4, 6, 8)]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert math.log(values[-1]) >= exact._log_uncentered_lower_bound(8, beta, kappa, "all")
        bal = [exact.uncentered_ratio(n, beta, kappa, "balanced") for n in (2, 4, 6, 8)]
        for n, v in zip((2, 4, 6, 8), bal):
            assert math.log(v) >= exact._log_uncentered_lower_bound(n, beta, kappa, "balanced")

    @pytest.mark.parametrize("kappa,ns", [(2, (1, 2, 5, 10, 20, 40)), (3, (1, 3, 8, 15, 24)), (4, (2, 5, 8, 12)),
                                          (5, (1, 4, 7, 10)), (6, (2, 3, 6, 8))])
    def test_orbit_recursion_matches_per_state_oracle(self, kappa, ns):
        for n in ns:
            for beta in (0.0, 0.5, 1.0, 3.0, 50.0):
                got, want = exact._log_ez2_raw_all(n, beta, kappa), log_ez2_raw_all_pairs(n, beta, kappa)
                assert math.isclose(got, want, rel_tol=1e-13), (n, beta, got, want)

    @pytest.mark.parametrize("kappa,n", [(2, 9), (3, 7), (4, 6), (5, 5), (6, 4)])
    def test_orbit_recursion_counts(self, kappa, n):
        seen = {}

        def spy(name, fn):
            def wrapped(*args):
                seen[name] = fn(*args)
                return seen[name]
            return wrapped

        with mock.patch.object(exact, "_unique_rows", spy("orbits", exact._unique_rows)), \
                mock.patch.object(exact, "_fan_out", spy("pairs", exact._fan_out)):
            exact._log_ez2_raw_all(n, 1.0, kappa)
        reps, orbit = seen["orbits"]
        multisets = [t for t in itertools.combinations_with_replacement(range(n + 1), kappa) if sum(t) <= n]
        assert reps.tolist() == [list(t) for t in multisets]  # one sorted target per orbit
        sizes = np.bincount(orbit)
        assert sizes.tolist() == [len(set(itertools.permutations(t))) for t in multisets]
        assert sizes.sum() == math.comb(n + kappa, kappa)  # the orbits cover every state
        pairs = len(seen["pairs"][0])
        assert pairs == sum(math.prod(b + 1 for b in t) for t in multisets)  # the box [0, t] of each target
        box = np.prod(reps + 1, axis=1)
        assert (sizes * box).sum() == math.comb(n + 2 * kappa, 2 * kappa)  # the represented pairs, as capped

    @pytest.mark.parametrize("kappa,n", [(2, 20), (3, 12), (4, 8), (5, 6)])
    def test_chunked_targets_equal_one_chunk(self, kappa, n):
        betas = (0.0, 0.5, 3.0, 50.0)
        whole = [exact._log_ez2_raw_all(n, beta, kappa) for beta in betas]
        chunks, fan_out = [], exact._fan_out
        with mock.patch.object(exact, "_PAIR_CHUNK", 7), \
                mock.patch.object(exact, "_fan_out", lambda box: chunks.append(len(box)) or fan_out(box)):
            chunked = [exact._log_ez2_raw_all(n, beta, kappa) for beta in betas]
        assert len(chunks) > 2 * len(betas)  # several chunks per call, each built once
        assert chunked == whole  # bitwise

    @pytest.mark.parametrize("kappa,n", [(3, 24), (4, 8)])
    def test_benchmark_sizes_are_one_chunk(self, kappa, n):
        calls, fan_out = [], exact._fan_out
        with mock.patch.object(exact, "_fan_out", lambda box: calls.append(len(box)) or fan_out(box)):
            exact._log_ez2_raw_all(n, 1.0, kappa)
        assert len(calls) == 1

    @pytest.mark.parametrize("kappa,n,beta", [(3, 24, 0.0), (3, 24, 1.0), (4, 12, 1.0), (2, 6, 50.0)])
    def test_no_runtime_warning(self, kappa, n, beta):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ratio = exact.uncentered_ratio(n, beta, kappa)
        assert ratio == math.inf if beta == 50.0 else math.isfinite(ratio)


# every (kappa, n) whose tables criteria 3 and 7 enumerate, and kappa = 5 and 6
TABLE_SIZES = {2: range(2, 25, 2), 3: range(3, 37, 3), 4: range(4, 25, 4), 5: (5, 10, 15), 6: (12,)}
exact_unique = exact._unique_rows  # the unpatched one, for spies


class TestRowRecursion:
    @pytest.mark.parametrize("kappa", sorted(TABLE_SIZES))
    def test_balanced_sums_match_table_enumeration(self, kappa):
        for n in TABLE_SIZES[kappa]:
            tables = exact.admissible_array(n, kappa)
            lp = exact.log_overlap_law(tables, n, kappa)
            gap = ((tables / n - 1.0 / kappa ** 2) ** 2).sum(axis=(1, 2))
            frob = (tables.astype(np.float64) ** 2).sum(axis=(1, 2)) / n
            assert round(math.exp(exact._row_recursion(kappa, n, n // kappa))) == len(tables)
            for beta in (0.0, 0.5, 2.5):
                for got, want in ((exact._log_second_moment_ratio(n, beta, kappa),
                                   exact.logsumexp(lp + beta ** 2 * n * gap)),
                                  (exact._log_uncentered_ratio(n, beta, kappa, "balanced", exact.DEFAULT_CAP),
                                   exact.logsumexp(lp + beta ** 2 * frob))):
                    assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12), (n, beta, got, want)

    def test_any_row_values_pinned(self):
        # the 'all' sector's log E Z^2 and ratios, as v0.1.14 gave them: the same floats
        pinned = {(2, 40, 1.0): (89.04283662599725, 404201.7182271505),
                  (3, 24, 0.5): (55.81243983905796, 2.472821849377266),
                  (4, 12, 3.0): (218.77258872352422, 7.862652193614798e+46),
                  (5, 10, 1.0): (36.5651471935434, 4.452194731425811),
                  (6, 8, 50.0): (40003.58351893845, math.inf),
                  (31, 3, 1.0): (22.685810272849228, 2.7337692097639783)}
        for (kappa, n, beta), values in pinned.items():
            assert (exact._log_ez2_raw_all(n, beta, kappa), exact.uncentered_ratio(n, beta, kappa)) == values

    @pytest.mark.parametrize("kappa,n", [(2, 8), (3, 9), (4, 8), (5, 10), (6, 12), (6, 42)])
    def test_balanced_pairs_and_targets(self, kappa, n):
        # the cap counts each sorted target on a plane above the first against each row of sum m, as the
        # recursion tests them
        m = n // kappa
        dense = [s for s in itertools.product(range(m + 1), repeat=kappa) if sum(s) % m == 0]
        rows = sum(sum(s) == m for s in dense)
        pairs = exact._row_pairs(n, kappa, "balanced", math.inf)
        assert pairs == len({tuple(sorted(s)) for s in dense if sum(s)}) * rows
        seen = []
        with mock.patch.object(exact, "_unique_rows", lambda *a: seen.append(exact_unique(*a)) or seen[-1]):
            exact._log_second_moment_ratio(n, 1.0, kappa)
        reps, orbit = seen[-1]
        assert sorted(map(tuple, reps.tolist())) == sorted({tuple(sorted(s)) for s in dense})
        assert np.bincount(orbit).sum() == len(dense)
        assert (len(reps) - 1) * rows == pairs
        held = max(pairs, kappa * len(dense))  # the column sums' entries count against the cap as well
        assert exact._row_pairs(n, kappa, "balanced", held) == pairs
        with pytest.raises(core.EnumerationCapError, match=f"{held} .*exceeding the cap of {held - 1}"):
            exact._row_pairs(n, kappa, "balanced", held - 1)

    @pytest.mark.parametrize("kappa,n", [(3, 24), (4, 12), (5, 10)])
    def test_balanced_chunks_equal_one_chunk(self, kappa, n):
        betas = (0.0, 0.5, 2.5)

        def run():
            return [exact._log_second_moment_ratio(n, beta, kappa) for beta in betas] + [exact._row_recursion(kappa, n, n // kappa)]

        whole = run()
        with mock.patch.object(exact, "_PAIR_CHUNK", 7):
            chunked = run()
        assert chunked == whole  # bitwise

    def test_balanced_keys_fit_in_int64(self, monkeypatch):
        monkeypatch.setattr(exact, "_row_recursion", lambda *args: pytest.fail("recursion ran past int64 keys"))
        for run in (lambda: exact.second_moment_ratio(64, 1.0, 64),
                    lambda: exact.uncentered_ratio(64, 1.0, 64, "balanced")):
            with pytest.raises(core.EnumerationCapError, match=r"2\^64 values, past int64"):
                run()


class TestAnnealedIdentity:
    def test_closed_form_matches_enumeration(self):
        n, kappa, beta = 6, 3, 1.1
        colors = config_array(n, kappa, "balanced")
        variances = [
            core.covariance_centered(core.SpinConfig(c, kappa), core.SpinConfig(c, kappa))
            for c in colors
        ]
        oracle = exact.logsumexp([0.5 * beta ** 2 * v for v in variances])
        assert exact.annealed_log_partition_balanced(n, beta, kappa) == pytest.approx(oracle, abs=1e-10)


class TestGauge:
    def test_odd_single_site(self):
        g = core.CouplingMatrix.from_seed(3, 21)
        res = exact.gauge_pair_check(g, 1.0, [0])
        assert res.parity == "odd"
        assert abs(res.pair_sum) <= 1e-12

    def test_even_degree_status(self):
        g = core.CouplingMatrix.from_seed(3, 21)
        res = exact.gauge_pair_check(g, 1.0, [0, 0])
        assert res.parity == "even"
        assert res.value == pytest.approx(1.0, abs=1e-12)  # tau^2 = 1

    def test_mixed_multiset(self):
        g = core.CouplingMatrix.from_seed(4, 8)
        res = exact.gauge_pair_check(g, 1.0, [0, 1, 1, 1])
        assert res.parity == "odd"
        assert abs(res.pair_sum) <= 1e-12

    def test_zero_temperature(self):
        for stream in range(5):
            g = core.CouplingMatrix.from_seed(5, 33, stream)
            res = exact.gauge_pair_check(g, math.inf, [2])
            assert abs(res.pair_sum) <= 1e-12

    @pytest.mark.parametrize("beta", [1.0, math.inf])
    def test_stack_mixing_parities_equals_one_trial_at_a_time(self, beta):
        n = 6
        sites_of = {0: [0], 1: [1, 1], 2: [n - 1], 3: [2, 2, 3, 3], 4: [0, n - 1, n - 1], 5: [n - 1, 4, 4]}
        split = exact._split(n, 2, "all")
        gs = [core.CouplingMatrix.from_seed(n, 17, r) for r in sites_of]
        stacked = exact._gauge_pair(split, beta, sites_of, gs)
        assert [res.parity for res in stacked] == ["odd", "even", "odd", "even", "odd", "odd"]
        for g, res in zip(gs, stacked):
            assert res == exact.gauge_pair_check(g, beta, sites_of[g.stream])  # bitwise
            if res.flip_site is not None:
                hand = g.g.copy()
                hand[res.flip_site, :] *= -1.0
                hand[:, res.flip_site] *= -1.0
                flipped = core.CouplingMatrix(hand)
                assert res.value_flipped == exact.gauge_pair_check(flipped, beta, sites_of[g.stream]).value


class TestKappa2Moments:
    def test_odd_moment_is_exactly_zero(self):
        est = exact.magnetization_moment_exact(4, 1.0, 1)
        assert est.value == 0.0 and est.stderr == 0.0
        est3 = exact.magnetization_moment_exact(6, 2.0, 3)
        assert est3.value == 0.0

    def test_second_moment_at_infinite_temperature(self):
        est = exact.magnetization_moment_exact(4, 0.0, 2, replicas=3, seed=1)
        # binomial(4, 1/2)/4 has variance 1/16; the bound is 1/8
        assert est.value == pytest.approx(1 / 16, abs=1e-12)
        assert est.bound == pytest.approx(1 / 8, abs=1e-15)
        assert est.satisfied

    def test_fourth_moment_bound(self):
        est = exact.magnetization_moment_exact(8, 1.0, 4, replicas=120, seed=2)
        assert est.bound == pytest.approx(0.75 / 64, rel=1e-12)
        assert est.satisfied

    def test_mgf_bound(self):
        for lam in (0.5, 2.0):
            est = exact.magnetization_mgf_exact(4, 1.0, lam, replicas=120, seed=3)
            assert est.value <= est.bound * (1 + 3 * est.stderr)

    def test_tail_exact_at_infinite_temperature(self):
        est = exact.tail_probability_exact(8, 0.0, 0.5, replicas=3, seed=4)
        assert est.value == pytest.approx(2 / 256, abs=1e-12)
        assert est.satisfied

    def test_replica_engines_need_a_replica(self):
        # zero replicas used to fail deep in the engines (IndexError, or while unpacking)
        for run in (lambda: exact.tail_probability_exact(4, 1.0, 0.25, replicas=0),
                    lambda: exact.magnetization_mgf_exact(4, 1.0, 0.5, replicas=0)):
            with pytest.raises(ValueError, match="replicas"):
                run()


# ---------------------------------------------------------------------------
# Split-half engine: bitwise color symmetry and an independent oracle


def color_images(rows, kappa):
    """For every permutation of the colors: the position of each permuted row among ``rows``."""
    weights = kappa ** np.arange(rows.shape[1])[::-1]
    codes = (rows - 1) @ weights
    order = np.argsort(codes)
    for perm in itertools.permutations(range(1, kappa + 1)):
        image = np.array((0,) + perm)[rows]
        yield perm, order[np.searchsorted(codes[order], (image - 1) @ weights)]


PERMUTATION_CASES = [  # (kappa, n, sector, seed); the first one broke under the mask kernel
    (3, 7, "all", 1),
    (3, 12, "balanced", 6),
    (4, 8, "balanced", 1),
    (4, 6, "all", 1),
    (3, 10, "all", 1),  # tree blocks with several count vectors each
]


class TestSplitEngine:
    @pytest.mark.parametrize("kappa,n,sector,seed", PERMUTATION_CASES)
    def test_color_permutations_give_bitwise_equal_energies(self, kappa, n, sector, seed):
        g = core.CouplingMatrix.from_seed(n, seed, 0)
        rows, energies = split_energies(n, kappa, sector, g)
        assert len(rows) == core.count_configs(n, kappa, sector)
        for perm, idx in color_images(rows, kappa):
            assert np.array_equal(rows[idx], np.array((0,) + perm)[rows])
            assert np.array_equal(energies[idx], energies), perm

    @pytest.mark.parametrize("kappa,n,sector,seed", PERMUTATION_CASES)
    def test_ground_states_are_closed_under_color_permutations(self, kappa, n, sector, seed):
        g = core.CouplingMatrix.from_seed(n, seed, 0)
        rows, energies = split_energies(n, kappa, sector, g)
        found = {tuple(row) for row in rows[energies == energies.max()]}
        assert ground(g, kappa, sector) == (energies.max(), len(found))
        for perm in itertools.permutations(range(1, kappa + 1)):
            assert {tuple(np.array((0,) + perm)[list(row)]) for row in found} == found

    @pytest.mark.parametrize("kappa,n,sector", [(3, 7, "all"), (3, 6, "balanced"), (2, 10, "balanced"),
                                                (3, 9, "balanced")])
    def test_flat_and_tree_blocks_agree_bitwise(self, kappa, n, sector, monkeypatch):
        g = core.CouplingMatrix.from_seed(n, 12, 3)
        flat_rows, flat = split_energies(n, kappa, sector, g)
        monkeypatch.setattr(exact, "_BLOCK", 7)  # tree blocks of a few pairs each
        assert not exact._split(n, kappa, sector).flat
        tree_rows, tree = split_energies(n, kappa, sector, g)
        key = lambda rows: np.lexsort(rows.T[::-1])
        assert np.array_equal(flat_rows[key(flat_rows)], tree_rows[key(tree_rows)])
        assert np.array_equal(flat[key(flat_rows)], tree[key(tree_rows)])

    @pytest.mark.parametrize("kappa,n,sector,seed", PERMUTATION_CASES)
    def test_ground_state_agrees_over_small_blocks(self, kappa, n, sector, seed, monkeypatch):
        g = core.CouplingMatrix.from_seed(n, seed, 0)
        want_top, want = exact._mass(exact._split(n, kappa, sector), [g], math.inf)
        monkeypatch.setattr(exact, "_BLOCK", 7)  # tree blocks of a few pairs: the running top moves often
        got_top, got = exact._mass(exact._split(n, kappa, sector), [g], math.inf)
        assert np.array_equal(got_top, want_top)
        assert np.array_equal(got, want)  # the maximizers of each count vector

    @pytest.mark.parametrize("kappa,n,sector,seed", PERMUTATION_CASES)
    def test_folded_gibbs_expectation_matches_unfolded_sum(self, kappa, n, sector, seed, monkeypatch):
        g = core.CouplingMatrix.from_seed(n, seed, 0)
        rows, energies = split_energies(n, kappa, sector, g)
        fa = lambda half: 1.0 + (half == 1).sum(axis=1)
        fb = lambda half: 0.5 * half[:, -1]
        monkeypatch.setattr(exact, "_BLOCK", 7)  # tree blocks of a few pairs: the running top moves often
        for beta in (0.0, 1.0, math.inf):
            w = exact.gibbs_weights(energies, beta, energies.max())
            want = (w * fa(rows[:, :n // 2]) * fb(rows[:, n // 2:])).sum() / w.sum()
            got = mass_average(g, beta, kappa, fa, fb, sector)
            assert math.isclose(got, want, rel_tol=1e-12), beta

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_stacked_mass_equals_stacks_of_one_bitwise(self, data):
        kappa = data.draw(st.sampled_from((2, 3, 4)))
        n = data.draw(st.integers(1, {2: 10, 3: 7, 4: 6}[kappa]))
        sector = data.draw(st.sampled_from(["all"] + (["balanced"] if n % kappa == 0 else [])))
        kind = data.draw(st.sampled_from(("raw", "centered")))
        beta = data.draw(st.sampled_from((0.0, math.inf)) | st.floats(0.1, 4.0))
        block = data.draw(st.sampled_from((5, 64, 1000, exact._BLOCK)))  # tree or flat; stacks cut or whole
        size, seed = data.draw(st.integers(1, 7)), data.draw(st.integers(0, 2 ** 32 - 1))
        gs = [core.CouplingMatrix.from_seed(n, seed, r) for r in range(size)]
        with mock.patch.object(exact, "_BLOCK", block):
            split = exact._split(n, kappa, sector)
            rng = np.random.default_rng(seed)
            factors = [(rng.standard_normal((size, len(split.rows_a))), rng.standard_normal((size, len(split.rows_b))))
                       for _ in range(data.draw(st.integers(0, 2)))]
            top, mass = exact._mass(split, gs, beta, kind, factors)
            for r, g in enumerate(gs):
                one_top, one_mass = exact._mass(split, [g], beta, kind, [(fa[[r]], fb[[r]]) for fa, fb in factors])
                assert np.array_equal(top[[r]], one_top)
                assert np.array_equal(mass[[r]], one_mass)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_unique_rows_by_key_match_unique_by_axis(self, data):
        base, width = data.draw(st.integers(1, 30)), data.draw(st.integers(1, 6))
        flat = data.draw(st.lists(st.integers(0, base - 1), min_size=width, max_size=40 * width))
        rows = np.array(flat[:len(flat) - len(flat) % width], dtype=np.int64).reshape(-1, width)
        got_rows, got_inverse = exact._unique_rows(rows, base)
        want_rows, want_inverse = np.unique(rows, axis=0, return_inverse=True)
        assert np.array_equal(got_rows, want_rows)
        assert np.array_equal(got_inverse, want_inverse.reshape(-1))

    def test_unique_rows_past_int64_keys(self):
        rows = np.eye(45, dtype=np.int64)  # base 4: a key would need 4^45 > 2^63
        got_rows, got_inverse = exact._unique_rows(rows, 4)
        assert np.array_equal(got_rows, rows[::-1]) and np.array_equal(got_inverse, np.arange(45)[::-1])
        assert len(exact._split(3, 45, "all").counts) == math.comb(47, 3)  # every count vector of the sector

    def test_cap_is_checked_before_any_enumeration(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("enumerated past the cap")

        monkeypatch.setattr(exact, "_lex_extend", refuse)
        with pytest.raises(core.EnumerationCapError):
            exact.tail_probability_exact(20, 1.0, 0.25, replicas=2, cap=1000)
        with pytest.raises(core.EnumerationCapError):
            exact.log_partition(core.CouplingMatrix.from_seed(11, 1), 1.0, 3, "all", cap=1000)

    def test_replica_engines_are_worker_count_invariant(self):
        def run(workers):
            tails = exact.tail_probability_exact(7, 1.3, [0.1, 0.3], replicas=5, seed=4, kappa=3, workers=workers)
            moment = exact.magnetization_moment_exact(9, 1.3, 2, replicas=5, seed=4, workers=workers)
            return [(t.value, t.stderr) for t in tails] + [(moment.value, moment.stderr)]

        assert run(1) == run(2)


def orbit_images(rows, kappa):
    """Every color image of every row, as a set of tuples."""
    return {tuple(np.array((0,) + perm)[row]) for row in rows for perm in itertools.permutations(range(1, kappa + 1))}


class TestOrbitQuotient:
    @pytest.mark.parametrize("kappa", [2, 3, 4])
    def test_multiplicities_count_the_sector(self, kappa):
        for n in range(1, {2: 12, 3: 10, 4: 8}[kappa] + 1):
            for sector in ["all"] + (["balanced"] if n % kappa == 0 else []):
                split = exact._split(n, kappa, sector, orbits=True)
                full = exact._split(n, kappa, sector)
                assert orbit_images(split.rows_a, kappa) == {tuple(row) for row in full.rows_a}  # one row per orbit
                sizes = [len(orbit_images([row], kappa)) for row in split.rows_a]
                assert split.mult.tolist() == sizes  # the orbit's size, kappa!/(kappa - k_A)!
                represented = sum(int((split.mult[pa] * np.ones(pb.shape)).sum()) for pa, pb, _ in split.blocks)
                assert represented == core.count_configs(n, kappa, sector), (n, sector)
                read_b = np.unique(np.concatenate([pb.ravel() for _, pb, _ in split.blocks]))
                assert np.array_equal(read_b, np.arange(len(split.rows_b))), (n, sector)  # no unread B row

    @pytest.mark.parametrize("kappa,n,sector,seed", PERMUTATION_CASES)
    def test_log_partition_matches_full_split_oracle(self, kappa, n, sector, seed):
        for stream in range(2):
            g = core.CouplingMatrix.from_seed(n, seed, stream)
            for kind in ("raw", "centered"):
                for beta in (0.0, 0.7, 2.5):
                    got = exact.log_partition(g, beta, kappa, sector, kind).log_z
                    assert math.isclose(got, full_split_log_partition(g, beta, kappa, sector, kind), rel_tol=1e-12)
        for kind in ("raw", "centered"):
            res = exact.quenched_free_energy(n, 1.3, kappa, sector, kind, replicas=3, seed=seed)
            for sample in res.samples:
                g = core.CouplingMatrix.from_seed(n, seed, sample.stream)
                assert math.isclose(sample.log_z, full_split_log_partition(g, 1.3, kappa, sector, kind), rel_tol=1e-12)

    @pytest.mark.parametrize("kappa,n", [(2, 7), (2, 8), (3, 6), (3, 7), (4, 5), (5, 6)])
    def test_non_invariant_statistic_matches_brute_force(self, kappa, n):
        colors = config_array(n, kappa, "all")
        fractions = (colors[:, :, None] == np.arange(1, kappa + 1)).sum(axis=1) / n
        calls = []

        def statistic(f):  # no color symmetry
            calls.append(len(f))
            return [f[:, 0] - 2.0 * f[:, -1] ** 2, np.exp(1.7 * (f[:, 0] - 0.5))]

        for beta in BETAS:
            want = []
            for r in range(3):
                w = oracle_weights(oracle_energies(colors, core.CouplingMatrix.from_seed(n, 2, r)), beta)
                want.append([(w * s).sum() / w.sum() for s in statistic(fractions)])
            calls.clear()
            got = exact._replica_average(n, kappa, statistic, beta, 3, 2, exact.DEFAULT_CAP)
            assert calls == [math.comb(n + kappa - 1, kappa - 1)]  # one call, on each count vector once
            for (mean, _), value in zip(got, np.mean(want, axis=0)):
                assert close(mean, value, floor=1e-12), (beta, mean, value)
            if kappa == 2:
                mgf = exact.magnetization_mgf_exact(n, beta, 1.7, replicas=3, seed=2)
                assert close(mgf.value, np.mean(want, axis=0)[1]), beta

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_stacked_mass_on_orbits_equals_stacks_of_one_bitwise(self, data):
        kappa = data.draw(st.sampled_from((2, 3, 4)))
        n = data.draw(st.integers(1, {2: 10, 3: 7, 4: 6}[kappa]))
        sector = data.draw(st.sampled_from(["all"] + (["balanced"] if n % kappa == 0 else [])))
        beta = data.draw(st.sampled_from((0.0, math.inf)) | st.floats(0.1, 4.0))
        block = data.draw(st.sampled_from((5, 64, exact._BLOCK)))
        size, seed = data.draw(st.integers(1, 7)), data.draw(st.integers(0, 2 ** 32 - 1))
        gs = [core.CouplingMatrix.from_seed(n, seed, r) for r in range(size)]
        with mock.patch.object(exact, "_BLOCK", block):
            split = exact._split(n, kappa, sector, orbits=True)
            top, mass = exact._mass(split, gs, beta)
            for r, g in enumerate(gs):
                one_top, one_mass = exact._mass(split, [g], beta)
                assert np.array_equal(top[[r]], one_top)
                assert np.array_equal(mass[[r]], one_mass)


def oracle_energies(colors, g):
    """Raw energies by site-match masks times couplings, summed row by row (no split)."""
    flat = g.g.ravel()
    return np.concatenate([(match_matrix_flat(colors[lo:lo + 2048]) * flat).sum(axis=1)
                           for lo in range(0, len(colors), 2048)]) / math.sqrt(colors.shape[1])


def oracle_weights(energies, beta):
    """Gibbs weights; at beta = inf, ties with the maximum up to 1e-12 relative."""
    top = energies.max()
    if math.isinf(beta):
        return (np.abs(energies - top) <= 1e-12 * np.maximum(1.0, np.abs(energies))).astype(float)
    return np.exp(beta * (energies - top))


ORACLE_SIZES = [(n, kappa) for n in (1, 2, 3, 5, 8, 13) for kappa in (2, 3, 4)]
BETAS = (0.0, 1.3, math.inf)


def close(a, b, floor=0.0):
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=floor)


class TestSplitOracle:
    @pytest.mark.parametrize("n,kappa", ORACLE_SIZES)
    def test_log_partition_and_ground_state(self, n, kappa):
        sectors = ["all"] + (["balanced"] if n % kappa == 0 else [])
        for sector in sectors:
            if core.count_configs(n, kappa, sector) > 70_000:
                continue
            colors = config_array(n, kappa, sector)
            for stream in range(2):
                g = core.CouplingMatrix.from_seed(n, 17, stream)
                energies = oracle_energies(colors, g)
                for kind, shift in (("raw", 0.0), ("centered", core.centering_shift(g, kappa))):
                    for beta in BETAS[:2]:
                        got = exact.log_partition(g, beta, kappa, sector, kind).log_z
                        assert close(got, exact.logsumexp(beta * (energies - shift))), (sector, kind, beta)
                split = exact._split(n, kappa, sector)
                (top,), (w,) = exact._mass(split, [g], math.inf)
                ties = oracle_weights(energies, math.inf) > 0
                assert close(top, energies.max())
                want = Counter(tuple(np.bincount(row - 1, minlength=kappa).tolist()) for row in colors[ties])
                assert {tuple(c): m for c, m in zip(split.counts.tolist(), w[:, 0]) if m} == want  # maximizers per count vector

    @pytest.mark.parametrize("n,kappa", ORACLE_SIZES)
    def test_tails(self, n, kappa):
        if kappa ** n > 70_000:
            pytest.skip("sector too large for the mask oracle")
        colors = config_array(n, kappa, "all")
        deviation = np.abs((colors[:, :, None] == np.arange(1, kappa + 1)).sum(axis=1) / n - 1 / kappa).max(axis=1)
        epsilons = (0.1, 0.25, 0.5)
        for beta in BETAS:
            per_replica = []
            for r in range(3):
                w = oracle_weights(oracle_energies(colors, core.CouplingMatrix.from_seed(n, 5, r)), beta)
                per_replica.append([(w * (deviation >= e)).sum() / w.sum() for e in epsilons])
            got = exact.tail_probability_exact(n, beta, epsilons, replicas=3, seed=5, kappa=kappa)
            for e, est, want in zip(epsilons, got, np.mean(per_replica, axis=0)):
                assert close(est.value, want), (beta, e)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13])
    def test_two_color_moments_mgf_and_gauge(self, n):
        colors = config_array(n, 2, "all")
        x = (colors == 1).sum(axis=1) / n - 0.5
        tau = 3 - 2 * colors
        for beta in BETAS:
            moments, mgf = [], []
            for r in range(3):
                w = oracle_weights(oracle_energies(colors, core.CouplingMatrix.from_seed(n, 8, r)), beta)
                moments.append((w * x ** 2).sum() / w.sum())
                mgf.append((w * np.exp(1.7 * x)).sum() / w.sum())
            assert close(exact.magnetization_moment_exact(n, beta, 2, replicas=3, seed=8).value, np.mean(moments))
            assert close(exact.magnetization_mgf_exact(n, beta, 1.7, replicas=3, seed=8).value, np.mean(mgf))
            g = core.CouplingMatrix.from_seed(n, 9, 0)
            sites = [0, n - 1, n // 2, n // 2]
            res = exact.gauge_pair_check(g, beta, sites)
            flipped = g if res.flip_site is None else flipped_at(g, res.flip_site)
            for value, coupling_ in ((res.value, g), (res.value_flipped, flipped)):
                w = oracle_weights(oracle_energies(colors, coupling_), beta)
                want = (w * tau[:, sites].prod(axis=1)).sum() / w.sum()
                assert close(value, want, floor=1e-12), (beta, value, want)
