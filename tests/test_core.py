import importlib
import itertools
import math
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from pottsglass import core

from conftest import (batch_energies_raw, brute_force_energy, config_array, flipped_at, indicator_inner_product,
                      random_config)


def cfg(colors, kappa):
    return core.SpinConfig(np.array(colors, dtype=np.int64), kappa)


def coupling(matrix):
    return core.CouplingMatrix(np.array(matrix, dtype=np.float64))


def color_counts(s):
    """Sites of each color of a configuration."""
    return np.bincount(s.colors - 1, minlength=s.kappa)


def product_filter(n, kappa, sector):
    """The sector's configurations by filtering every color tuple by its counts, in lexicographic order."""
    counts = core.sector_counts(n, kappa, sector)
    return [colors for colors in itertools.product(range(1, kappa + 1), repeat=n)
            if counts is None or np.array_equal(np.bincount(np.array(colors) - 1, minlength=kappa), counts)]


# configs paired with couplings of matching size, for property tests
small_systems = st.integers(2, 6).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.integers(2, 4),
        st.lists(st.integers(0, 10 ** 6), min_size=n, max_size=n),
        st.lists(
            st.lists(st.floats(-3, 3, allow_nan=False), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        ),
    )
)


class TestSpinConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            cfg([0, 1], 2)
        with pytest.raises(ValueError):
            cfg([1, 3], 2)
        with pytest.raises(ValueError):
            core.SpinConfig(np.array([1, 2]), 1)

    def test_immutable(self):
        s = cfg([1, 2, 1], 2)
        with pytest.raises(ValueError):
            s.colors[0] = 2


class TestHamiltonians:
    def test_single_site_is_identity(self):
        g = coupling([[3.25]])
        assert core.hamiltonian_raw(cfg([1], 3), g) == 3.25

    def test_two_sites_distinct_colors_keep_diagonal(self):
        g = coupling([[1.0, 2.0], [3.0, 4.0]])
        assert core.hamiltonian_raw(cfg([1, 2], 2), g) == pytest.approx((1 + 4) / math.sqrt(2), abs=1e-14)

    def test_two_sites_same_color(self):
        g = coupling([[1.0, 1.0], [1.0, 1.0]])
        assert core.hamiltonian_raw(cfg([1, 1], 2), g) == pytest.approx(4 / math.sqrt(2), abs=1e-12)

    def test_centered_single_site(self):
        g = coupling([[5.0]])
        assert core.hamiltonian_raw(cfg([2], 3), g) - core.centering_shift(g, 3) == pytest.approx(5.0 * 2 / 3, abs=1e-14)

    def test_centered_hand_value(self):
        g = coupling([[1.0, 0.0], [0.0, 1.0]])
        got = core.hamiltonian_raw(cfg([1, 2], 2), g) - core.centering_shift(g, 2)
        assert got == pytest.approx(math.sqrt(2) / 2, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(core.DimensionMismatchError):
            core.hamiltonian_raw(cfg([1, 2, 1], 2), coupling([[1.0]]))

    @settings(max_examples=60, deadline=None)
    @given(small_systems)
    def test_centering_shift_independent_of_config(self, sys):
        n, kappa, color_seed, g_rows = sys
        g = coupling(g_rows)
        shift = core.centering_shift(g, kappa)
        for offset in range(3):
            colors = np.array([(c + offset) % kappa + 1 for c in color_seed])
            centered = (g.g * ((colors[:, None] == colors[None, :]) - 1.0 / kappa)).sum() / math.sqrt(n)
            assert core.hamiltonian_raw(cfg(colors, kappa), g) - shift == pytest.approx(centered, abs=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(small_systems)
    def test_matches_double_loop_oracle(self, sys):
        n, kappa, color_seed, g_rows = sys
        colors = np.array([c % kappa + 1 for c in color_seed])
        g = coupling(g_rows)
        expected = brute_force_energy(colors, g.g)
        assert batch_energies_raw(colors[None, :], g)[0] == pytest.approx(expected, abs=1e-10)
        assert core.hamiltonian_raw(core.SpinConfig(colors, kappa), g) == pytest.approx(expected, abs=1e-10)


class TestMagnetizationOverlap:
    def test_overlap_examples(self):
        s = cfg([1, 2, 3], 3)
        assert np.array_equal(core.overlap(s, s).counts, np.eye(3, dtype=np.int64))
        a = cfg([1, 1, 2, 2, 3, 3], 3)
        b = cfg([1, 2, 3, 1, 2, 3], 3)
        assert core.overlap(a, b).counts.tolist() == [[1, 1, 0], [1, 0, 1], [0, 1, 1]]

    def test_self_overlap_is_diagonal_magnetization(self, rng):
        for _ in range(10):
            s = random_config(rng, 9, 3)
            r = core.overlap(s, s)
            assert np.array_equal(np.diag(r.counts), color_counts(s))
            assert np.array_equal(r.counts, np.diag(np.diag(r.counts)))

    def test_margins_reproduce_magnetization(self, rng):
        for _ in range(20):
            s = random_config(rng, 10, 4)
            t = random_config(rng, 10, 4)
            r = core.overlap(s, t)
            assert np.array_equal(r.counts.sum(axis=1), color_counts(s))
            assert np.array_equal(r.counts.sum(axis=0), color_counts(t))

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(2, 4).flatmap(
            lambda k: st.tuples(
                st.just(k),
                st.lists(st.integers(1, k), min_size=1, max_size=10),
                st.lists(st.integers(1, k), min_size=10, max_size=10),
            )
        )
    )
    def test_margin_property(self, data):
        kappa, a, b = data
        n = len(a)
        s = cfg(a, kappa)
        t = cfg(b[:n], kappa)
        r = core.overlap(s, t)
        assert np.array_equal(r.counts.sum(axis=1), color_counts(s))
        assert np.array_equal(r.counts.sum(axis=0), color_counts(t))
        assert int(r.counts.sum()) == n

    def test_size_mismatch(self):
        with pytest.raises(core.DimensionMismatchError):
            core.overlap(cfg([1, 2], 2), cfg([1, 2, 1], 2))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 5).flatmap(
        lambda k: st.lists(st.lists(st.integers(1, k), min_size=1, max_size=12), min_size=1, max_size=4)
        .map(lambda configs: (k, configs))))
    def test_max_deviation_matches_a_loop(self, data):
        kappa, configs = data
        for colors in configs:
            n = len(colors)
            want = max(abs(colors.count(a) / n - 1 / kappa) for a in range(1, kappa + 1))
            got = core.max_deviation(np.bincount(np.array(colors) - 1, minlength=kappa) / n)
            assert got == want
        stack = np.array([color_counts(cfg(c, kappa)) / len(c) for c in configs])
        assert core.max_deviation(stack).tolist() == [core.max_deviation(row) for row in stack]


class TestCovariance:
    def test_balanced_self(self):
        s = cfg([1, 2, 3], 3)
        assert core.covariance_raw(s, s) == pytest.approx(1.0, abs=1e-14)

    def test_monochrome_self(self):
        s = cfg([2, 2, 2, 2], 3)
        assert core.covariance_raw(s, s) == pytest.approx(4.0, abs=1e-14)

    def test_disjoint_colors(self):
        assert core.covariance_raw(cfg([1, 1], 2), cfg([2, 2], 2)) == pytest.approx(2.0, abs=1e-14)

    def test_symmetric_and_matches_indicator_oracle(self, rng):
        for _ in range(30):
            s = random_config(rng, 6, 3)
            t = random_config(rng, 6, 3)
            got = core.covariance_raw(s, t)
            assert got == pytest.approx(core.covariance_raw(t, s), abs=1e-12)
            assert got == pytest.approx(indicator_inner_product(s.colors, t.colors), abs=1e-10)

    def test_centered_balanced_self(self):
        for kappa, n in ((2, 4), (3, 6)):
            colors = np.repeat(np.arange(1, kappa + 1), n // kappa)
            s = core.SpinConfig(colors, kappa)
            assert core.covariance_centered(s, s) == pytest.approx(n * (kappa - 1) / kappa ** 2, abs=1e-12)

    def test_centered_monochrome_matches_projection_oracle(self):
        for kappa in (2, 3, 4):
            n = 4
            s = cfg([1] * n, kappa)
            p = np.eye(kappa) - 1.0 / kappa  # projection onto the complement of the all-ones direction
            r = core.overlap(s, s).asarray()
            expected = n * ((p @ r @ p) ** 2).sum()
            assert core.covariance_centered(s, s) == pytest.approx(expected, abs=1e-12)
            # closed form for a rank-one overlap: n * ((kappa-1)/kappa)^2
            assert expected == pytest.approx(n * ((kappa - 1) / kappa) ** 2, abs=1e-12)

    def test_centered_antialigned_pair(self):
        got = core.covariance_centered(cfg([1, 2], 2), cfg([2, 1], 2))
        assert got == pytest.approx(0.5, abs=1e-14)

    def test_centered_equals_shifted_frobenius_for_balanced(self):
        # exhaustive over all balanced pairs at kappa=3, n=6
        kappa, n = 3, 6
        colors = config_array(n, kappa, "balanced")
        configs = [core.SpinConfig(c, kappa) for c in colors]
        for s in configs:
            for t in configs:
                r = core.overlap(s, t).asarray()
                expected = n * ((r - 1 / kappa ** 2) ** 2).sum()
                assert abs(core.covariance_centered(s, t) - expected) <= 1e-10


class TestEnumeration:
    def test_counts(self):
        assert core.count_configs(2, 2, "all") == 4
        assert core.count_configs(4, 2, "balanced") == 6
        assert core.count_configs(3, 3, "balanced") == 6
        assert core.count_configs(9, 3, "balanced") == 1680

    def test_enumeration_unique_and_complete(self):
        seen = {tuple(row) for row in config_array(4, 2, "balanced")}
        assert len(seen) == 6
        assert all(sum(1 for c in t if c == 1) == 2 for t in seen)
        assert len({tuple(row) for row in config_array(2, 2)}) == 4

    def test_divisibility_error_names_constraint(self):
        with pytest.raises(core.DivisibilityError, match="balanced"):
            core.sector_counts(5, 2, "balanced")

    def test_config_array_matches_stream(self):
        arr = config_array(3, 3, "balanced")
        stream = product_filter(3, 3, "balanced")
        assert [tuple(row) for row in arr] == stream
        arr_all = config_array(3, 2, "all")
        stream_all = product_filter(3, 2, "all")
        assert [tuple(row) for row in arr_all] == stream_all
        for n, kappa, sector in [(6, 2, "balanced"), (6, 3, "balanced"), (8, 4, "balanced"), (1, 3, "all"),
                                 (5, 3, "all"), (4, 4, "all")]:
            arr = config_array(n, kappa, sector)
            assert arr.dtype == np.int64
            stream = product_filter(n, kappa, sector)
            assert [tuple(row) for row in arr] == stream
            assert len(stream) == core.count_configs(n, kappa, sector)

    def test_cap(self):
        with pytest.raises(core.EnumerationCapError):
            config_array(10, 3, "all", cap=100)


class TestIdentities:
    def test_pointwise_centering_identity(self):
        # (1{match} - 1/k)^2 == (1 - 2/k) 1{match} + 1/k^2 for both indicator values
        for kappa in range(2, 8):
            a = 1.0 - 2.0 / kappa
            for ind in (0.0, 1.0):
                lhs = (ind - 1.0 / kappa) ** 2
                rhs = a * ind + 1.0 / kappa ** 2
                assert lhs == pytest.approx(rhs, abs=1e-15)


def _replica_record(gs):
    return [(g.stream, g.g) for g in gs]


def _stack_record(gs):
    return [(g.stream, gs[0].stream, len(gs)) for g in gs]


class TestMapReplicas:
    def test_replica_r_gets_stream_r_in_index_order(self):
        out = core.map_replicas(_replica_record, 4, 11, 5)
        assert [stream for stream, _ in out] == list(range(5))
        for r, (_, g) in enumerate(out):
            assert np.array_equal(g, core.CouplingMatrix.from_seed(4, 11, r).g)

    def test_worker_count_invariance(self):
        serial = core.map_replicas(_replica_record, 4, 11, 5, workers=1)
        parallel = core.map_replicas(_replica_record, 4, 11, 5, workers=2)
        assert [s for s, _ in parallel] == [s for s, _ in serial]
        assert all(np.array_equal(a[1], b[1]) for a, b in zip(serial, parallel))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_stacks_are_consecutive_replicas_from_multiples_of_the_stack(self, workers):
        out = core.map_replicas(_stack_record, 4, 11, 7, workers=workers, stack=3)
        assert out == [(r, r - r % 3, min(3, 7 - r + r % 3)) for r in range(7)]

    def test_mean_stderr(self):
        assert core.mean_stderr([2.5]) == (2.5, 0.0)
        mean, se = core.mean_stderr([1.0, 2.0, 3.0, 6.0])
        assert mean == 3.0
        assert se == pytest.approx(math.sqrt(7 / 6), rel=1e-14)  # sqrt((4+1+0+9)/3) / 2


class TestCouplingMatrix:
    def test_reproducible(self):
        a = core.CouplingMatrix.from_seed(5, 123, 7)
        b = core.CouplingMatrix.from_seed(5, 123, 7)
        assert np.array_equal(a.g, b.g)

    def test_streams_differ(self):
        a = core.CouplingMatrix.from_seed(5, 123, 0)
        b = core.CouplingMatrix.from_seed(5, 123, 1)
        assert not np.allclose(a.g, b.g)

    def test_entries_look_standard_normal(self):
        g = core.CouplingMatrix.from_seed(200, 9)
        flat = g.g.ravel()
        assert abs(flat.mean()) < 0.02
        assert abs(flat.std() - 1.0) < 0.02

    @pytest.mark.parametrize("n,seed,stream", [
        (1, 0, 0), (8, 0, 5), (5, 123, 7), (8, 1, core.CHAIN_NAMESPACE | 3),
        (12, 2 ** 40, core.RESTART_NAMESPACE), (6, 7, core.TEMPER_NAMESPACE | 9),
    ])
    def test_rekeyed_draw_equals_a_fresh_generator(self, n, seed, stream):
        core.CouplingMatrix.from_seed(3, 99, 1)  # leaves the re-keyed generator mid-buffer
        fresh = core.philox_generator(seed, stream).integers(0, 1 << 53, size=(n, n))
        assert np.array_equal(core.CouplingMatrix.from_seed(n, seed, stream).g, ndtri((fresh + 0.5) * 2.0 ** -53))

    @pytest.mark.parametrize("n,seed,stream", [
        (4, 0, 0), (8, 2, core.CHAIN_NAMESPACE | 1), (6, 2 ** 62 + 3, core.TEMPER_NAMESPACE | 2),
        (5, 2 ** 63 - 1, 2 ** 63 - 1),
    ])
    def test_keys_below_2_63_draw_as_a_hand_built_philox(self, n, seed, stream):
        hand = np.random.Generator(np.random.Philox(key=[seed, stream])).integers(0, 1 << 53, size=(n, n))
        assert np.array_equal(core.philox_generator(seed, stream).integers(0, 1 << 53, size=(n, n)), hand)
        assert np.array_equal(core.CouplingMatrix.from_seed(n, seed, stream).g, ndtri((hand + 0.5) * 2.0 ** -53))

    @pytest.mark.parametrize("seed", [2 ** 63, 2 ** 64 - 2])
    def test_large_keys_stay_exact(self, seed):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert core.philox_generator(seed + 1, 5).bit_generator.state["state"]["key"].tolist() == [seed + 1, 5]
            a, b = core.CouplingMatrix.from_seed(4, seed), core.CouplingMatrix.from_seed(4, seed + 1)
            c = core.CouplingMatrix.from_seed(4, 7, seed)
        assert not np.array_equal(a.g, b.g)
        assert not np.array_equal(c.g, core.CouplingMatrix.from_seed(4, 7, seed + 1).g)

    def test_threads_draw_their_own_streams(self):
        want = [core.CouplingMatrix.from_seed(5, 2, r).g for r in range(40)]
        bad = []

        def draw(offset):
            for k in range(400):
                r = (offset + k) % 40
                if not np.array_equal(core.CouplingMatrix.from_seed(5, 2, r).g, want[r]):
                    bad.append(r)

        threads = [threading.Thread(target=draw, args=(t,)) for t in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, so a shared generator would be re-keyed mid-draw
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert bad == []

    def test_flipped_at(self):
        g = core.CouplingMatrix.from_seed(4, 3)
        f = core._gauge_flip(g.g[None], [1])[0]
        assert f[1, 1] == g.g[1, 1]
        assert f[1, 0] == -g.g[1, 0]
        assert f[2, 1] == -g.g[2, 1]
        assert f[0, 2] == g.g[0, 2]


class TestStackedDraw:
    """One draw route: a replica stack is drawn at once, bitwise as ``from_seed`` per stream."""

    @pytest.mark.parametrize("stack", [1, 3, 64])
    @pytest.mark.parametrize("n", [1, 2, 8, 33])
    def test_map_replicas_stacks_equal_from_seed(self, stack, n):
        replicas = 2 * stack + 1  # a partial last stack of one
        for seed in (5, 2 ** 63 + 11):
            out = core.map_replicas(_replica_record, n, seed, replicas, stack=stack)
            assert [stream for stream, _ in out] == list(range(replicas))
            for r, (_, g) in enumerate(out):
                assert np.array_equal(g, core.CouplingMatrix.from_seed(n, seed, r).g)

    @pytest.mark.parametrize("n", [1, 2, 8, 33, 64])
    def test_stack_rows_equal_a_fresh_generator(self, n):
        streams = [0, 7, core.CHAIN_NAMESPACE | 3, core.RESTART_NAMESPACE, core.TEMPER_NAMESPACE | 9, 2 ** 63,
                   2 ** 64 - 1]
        for seed in (0, 2 ** 40, 2 ** 63, 2 ** 64 - 2):
            draws = core._standard_normal(n, seed, streams)
            assert draws.shape == (len(streams), n, n) and not draws.flags.writeable
            for row, stream in zip(draws, streams):
                fresh = core.philox_generator(seed, stream).integers(0, 1 << 53, size=(n, n))
                assert np.array_equal(row, ndtri((fresh + 0.5) * 2.0 ** -53))
                assert np.array_equal(row, core.CouplingMatrix.from_seed(n, seed, stream).g)

    def test_replicas_hold_read_only_rows(self):
        (g, h), = core.map_replicas(lambda gs: [tuple(gs)], 4, 3, 2, stack=2)
        assert not g.g.flags.writeable and not h.g.flags.writeable
        assert (g.seed, g.stream, h.stream) == (3, 0, 1)

    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_stacked_flips_equal_flipped_at(self, n):
        gs = [core.CouplingMatrix.from_seed(n, 13, r) for r in range(5)]
        sites = [0, n - 1, -1, n // 2, 0]  # -1 flips nothing: an even-parity trial in the same stack
        flipped = core._gauge_flip(np.stack([g.g for g in gs]), sites)
        for g, site, f in zip(gs, sites, flipped):
            hand = flipped_at(g, site).g if site >= 0 else g.g
            assert np.array_equal(f, hand) and np.array_equal(np.signbit(f), np.signbit(hand))


def _grid(k) -> np.ndarray:
    """The draw grid ``(k + 0.5) 2^-53`` as ``_standard_normal`` forms it."""
    return np.asarray(k, dtype=np.uint64) * 2.0 ** -53 + 2.0 ** -54


def _bits(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64).view(np.int64)


class TestNdtriPort:
    """``core._ndtri`` is Cephes ``ndtri`` operation for operation: scipy's values, compared bit for bit."""

    def assert_bitwise_scipy(self, y):
        got = np.concatenate([core._ndtri(part) for part in np.array_split(y, -(-y.size // core._NDTRI_CHUNK))])
        assert np.count_nonzero(_bits(got) != _bits(ndtri(y))) == 0

    def test_random_grid_points(self):
        rng = np.random.default_rng(20260)
        for _ in range(4):  # 2^22 draws, a quarter at a time
            self.assert_bitwise_scipy(_grid(rng.integers(0, 2 ** 53, size=2 ** 20)))

    def test_both_tail_ends(self):
        k = np.arange(10 ** 6, dtype=np.uint64)
        y = _grid(k)
        assert np.count_nonzero(y < math.exp(-32)) > 0  # the x >= 8 branch (P2, Q2)
        self.assert_bitwise_scipy(y)
        self.assert_bitwise_scipy(_grid(2 ** 53 - 1 - k))

    def test_top_of_the_grid_is_plus_infinity(self):
        y = _grid([2 ** 53 - 1, 2 ** 53 - 2, 0])
        assert y[0] == 1.0
        got = core._ndtri(y)
        assert got[0] == np.inf and np.isfinite(got[1:]).all()
        self.assert_bitwise_scipy(y)

    @pytest.mark.parametrize("edge", [math.exp(-2), 1.0 - math.exp(-2), math.exp(-32), 1.0 - math.exp(-32)])
    def test_branch_edges(self, edge):
        k0 = int(edge * 2 ** 53)
        self.assert_bitwise_scipy(_grid(np.arange(max(k0 - 20_000, 0), min(k0 + 20_000, 2 ** 53))))
        y = edge + np.arange(-2000, 2001) * np.spacing(edge)  # every double within 2000 ulps, off the grid too
        self.assert_bitwise_scipy(y[y <= 1.0])

    def test_stacks_convert_in_chunks(self):
        n = 200  # 3 * 200^2 entries: several conversion chunks, the last one partial
        streams = [0, 5, core.CHAIN_NAMESPACE | 1]
        g = core._standard_normal(n, 3, streams)
        assert 3 * n * n > 2 * core._NDTRI_CHUNK
        for row, stream in zip(g, streams):
            hand = core.philox_generator(3, stream).integers(0, 1 << 53, size=(n, n))
            assert np.array_equal(_bits(row), _bits(ndtri((hand + 0.5) * 2.0 ** -53)))


class TestLibmLog:
    """``core._libm_log`` equals the C library's ``log`` (``math.log``) in every memory layout it is handed."""

    @pytest.fixture(scope="class")
    def tails(self):
        rng = np.random.default_rng(7)
        y = _grid(rng.integers(0, 2 ** 50, size=100_000))  # the tail branch's log y, y < 2^-3
        s = np.sqrt(-2.0 * np.array([math.log(v) for v in y]))  # and its log x, x = sqrt(-2 log y)
        x = np.concatenate([y, s, 2.0 + 6.6 * rng.random(100_000)])
        return x, np.array([math.log(v) for v in x])

    def test_contiguous(self, tails):
        x, want = tails
        assert np.array_equal(_bits(core._libm_log(x)), _bits(want))

    def test_reversed_view(self, tails):
        # a reversed view reversed again is contiguous, and would take numpy's SIMD loop
        x, want = tails
        assert np.array_equal(_bits(core._libm_log(x[::-1])), _bits(want[::-1]))
        assert np.array_equal(_bits(core._libm_log(x[::-1][::-1])), _bits(want))

    def test_strided_view(self, tails):
        x, want = tails
        assert np.array_equal(_bits(core._libm_log(x[::3])), _bits(want[::3]))
        assert np.array_equal(_bits(core._libm_log(x[::-2])), _bits(want[::-2]))

    def test_short_arrays(self, tails):
        x, want = tails
        for size in range(0, 40):
            assert np.array_equal(_bits(core._libm_log(x[size:2 * size])), _bits(want[size:2 * size]))


@pytest.mark.parametrize("module",["pottsglass", "pottsglass.core", "pottsglass.exact", "pottsglass.rate",
                                    "pottsglass.montecarlo", "pottsglass.cli", "pottsglass.experiment"])
def test_exported_names_resolve(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []  # hasattr resolves by getattr
