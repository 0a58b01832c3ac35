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


def product_filter(n, kappa, constraint):
    """The sector's configurations by filtering every color tuple by its counts, in lexicographic order."""
    counts = core.sector_counts(n, kappa, constraint)
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
        assert core.count_configs(5, 2, (3, 2)) == 10

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
        for n, kappa, sector in [(5, 2, (3, 2)), (6, 3, (2, 1, 3)), (6, 3, (0, 3, 3)),
                                 (8, 4, "balanced"), (1, 3, "all"), (5, 3, "all"), (4, 4, "all")]:
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


@pytest.mark.parametrize("module", ["pottsglass", "pottsglass.core", "pottsglass.exact", "pottsglass.rate",
                                    "pottsglass.montecarlo", "pottsglass.cli", "pottsglass.experiment"])
def test_exported_names_resolve(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []  # hasattr resolves by getattr
