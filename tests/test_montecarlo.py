import json
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import chisquare

from pottsglass import core, exact, montecarlo as mc

from conftest import batch_energies_raw, config_array


def exact_gibbs_weights(g, kappa, beta, sector):
    colors = config_array(g.n, kappa, sector)
    energies = batch_energies_raw(colors, g)
    w = np.exp(beta * (energies - energies.max()))
    return colors, w / w.sum()


def single_proposal_kernel(g, kappa, beta, sector):
    """Transition matrix of one proposal, mirroring the sweep acceptance rule."""
    colors, _ = exact_gibbs_weights(g, kappa, beta, sector)
    energies = batch_energies_raw(colors, g)
    index = {tuple(row): i for i, row in enumerate(colors)}
    m = len(colors)
    n = g.n
    P = np.zeros((m, m))
    if sector == "all":
        for i, row in enumerate(colors):
            for t in range(n):
                for c in range(1, kappa + 1):
                    row2 = row.copy()
                    row2[t] = c
                    j = index[tuple(row2)]
                    acc = 1.0 if j == i else min(1.0, math.exp(beta * (energies[j] - energies[i])))
                    P[i, j] += acc / (n * kappa)
                    P[i, i] += (1 - acc) / (n * kappa)
    else:
        per = n // kappa
        n_other = n - per
        for i, row in enumerate(colors):
            for t in range(n):
                for s in range(n):
                    if row[s] == row[t]:
                        continue
                    row2 = row.copy()
                    row2[t], row2[s] = row[s], row[t]
                    j = index[tuple(row2)]
                    acc = min(1.0, math.exp(beta * (energies[j] - energies[i])))
                    P[i, j] += acc / (n * n_other)
                    P[i, i] += (1 - acc) / (n * n_other)
    return colors, energies, P


# The O(n)-per-proposal sweeps of v0.1.3, kept as the reference that the
# local-field kernels must follow move for move: a weighted bincount over all
# sites per proposal, and a flatnonzero scan for the swap partner.  Their
# draws follow the kernels' documented map (v0.1.11): one random((3, n)) per
# sweep, site int(u0 n), color 1 + int(u1 kappa) or swap rank int(u1 (n - per)).


def _reference_site_delta(colors, srow, site, old, new, kappa, sqn):
    sums = np.bincount(colors - 1, weights=srow, minlength=kappa)
    return float((sums[new - 1] - sums[old - 1] + srow[site]) / sqn)


def reference_metropolis_sweep(state, g):
    n, kappa, beta = state.n, state.kappa, state.beta
    s = g.g + g.g.T
    sqn = math.sqrt(n)
    u0, u1, us = state.rng.random((3, n))
    colors = state.colors
    for k in range(n):
        t, new = int(u0[k] * n), 1 + int(u1[k] * kappa)
        old = int(colors[t])
        if new == old:
            continue
        d = _reference_site_delta(colors, s[t], t, old, new, kappa, sqn)
        if d >= 0.0 or us[k] < math.exp(beta * d):
            colors[t] = new
            state.energy += d
    state.sweeps += 1
    if state.sweeps % mc.AUDIT_INTERVAL == 0:
        state._audit(g)


def reference_swap_sweep(state, g):
    n, kappa, beta = state.n, state.kappa, state.beta
    s = g.g + g.g.T
    sqn = math.sqrt(n)
    per = n // kappa
    u0, u1, us = state.rng.random((3, n))
    colors = state.colors
    for k in range(n):
        i = int(u0[k] * n)
        a = int(colors[i])
        c, p = divmod(int(u1[k] * (n - per)), per)
        b = c + 1 if c + 1 < a else c + 2
        j = int(np.flatnonzero(colors == b)[p])
        d1 = _reference_site_delta(colors, s[i], i, a, b, kappa, sqn)
        colors[i] = b
        d2 = _reference_site_delta(colors, s[j], j, b, a, kappa, sqn)
        colors[i] = a
        if d1 + d2 >= 0.0 or us[k] < math.exp(beta * (d1 + d2)):
            colors[i], colors[j] = b, a
            state.energy += d1 + d2
    state.sweeps += 1
    if state.sweeps % mc.AUDIT_INTERVAL == 0:
        state._audit(g)


def reference_tempering_step(ladder, g):
    for rung in ladder.rungs:
        reference_metropolis_sweep(rung, g)
    us = ladder.rng.random(size=len(ladder.rungs) - 1)
    for k in range(len(ladder.rungs) - 1):
        lo, hi = ladder.rungs[k], ladder.rungs[k + 1]
        log_acc = (lo.beta - hi.beta) * (hi.energy - lo.energy)
        if log_acc >= 0.0 or us[k] < math.exp(log_acc):
            lo.colors, hi.colors = hi.colors, lo.colors
            lo.energy, hi.energy = hi.energy, lo.energy


def assert_same_chain(new, ref):
    assert np.array_equal(new.colors, ref.colors)
    assert abs(new.energy - ref.energy) <= 1e-9 * max(1.0, abs(ref.energy))


class TestKernelsMatchReference:
    """Same Philox draws, same acceptance rule: identical colors after every sweep."""

    @pytest.mark.parametrize("n, kappa, sweeps", [(5, 3, 400), (8, 2, 400), (64, 3, 150)])
    def test_metropolis(self, n, kappa, sweeps):
        g = core.CouplingMatrix.from_seed(n, 31)
        new, ref = (mc.ChainState.start(g, kappa, 1.3, "all", seed=8) for _ in range(2))
        for _ in range(sweeps):
            mc.metropolis_sweep(new, g)
            reference_metropolis_sweep(ref, g)
            assert_same_chain(new, ref)

    @pytest.mark.parametrize("n, kappa, sweeps", [(6, 3, 400), (12, 3, 400), (30, 2, 250)])
    def test_swap(self, n, kappa, sweeps):
        g = core.CouplingMatrix.from_seed(n, 32)
        new, ref = (mc.ChainState.start(g, kappa, 1.3, "balanced", seed=9) for _ in range(2))
        for _ in range(sweeps):
            mc.swap_sweep(new, g)
            reference_swap_sweep(ref, g)
            assert_same_chain(new, ref)

    def test_tempering(self):
        g = core.CouplingMatrix.from_seed(8, 33)
        new, ref = (mc.TemperingLadder.start(g, 2, [0.0, 1.0, 2.0, 4.0], "all", seed=10)
                    for _ in range(2))
        for _ in range(300):
            mc.tempering_step(new, g)
            reference_tempering_step(ref, g)
            for a, b in zip(new.rungs, ref.rungs):
                assert_same_chain(a, b)


@given(st.integers(2, 4), st.integers(1, 12), st.data())
def test_partner_ranks_cover_other_color_sites_once(kappa, per, data):
    colors = np.array(data.draw(st.permutations(np.repeat(np.arange(1, kappa + 1), per).tolist())))
    a = data.draw(st.integers(1, kappa))
    own = [np.flatnonzero(colors == b).tolist() for b in range(1, kappa + 1)]
    partners = [mc._partner(own, a, rank) for rank in range(colors.size - per)]
    assert sorted(partners) == np.flatnonzero(colors != a).tolist()


class _TopEdgeGenerator:
    """Stands in for a chain's generator: every uniform is the largest double below 1."""

    def random(self, shape):
        return np.full(shape, np.nextafter(1.0, 0.0))


class TestTopEdgeOfDrawMap:
    """Uniforms just below 1 map to the last site, color and rank, never one past them."""

    @pytest.mark.parametrize("n, kappa", [(1, 2), (5, 3), (8, 2), (257, 4)])
    def test_metropolis_proposes_last_site_and_color(self, n, kappa):
        g = core.CouplingMatrix.from_seed(n, 34)
        chain = mc.ChainState.start(g, kappa, 0.0, "all", seed=11)
        chain.rng = _TopEdgeGenerator()
        expected = chain.colors.copy()
        expected[n - 1] = kappa  # beta = 0 accepts every proposal
        mc.metropolis_sweep(chain, g)
        assert np.array_equal(chain.colors, expected)

    @pytest.mark.parametrize("n, kappa", [(2, 2), (6, 3), (12, 3), (192, 3)])
    def test_swap_proposes_last_rank(self, n, kappa):
        g = core.CouplingMatrix.from_seed(n, 35)
        new, ref = (mc.ChainState.start(g, kappa, 0.0, "balanced", seed=12) for _ in range(2))
        new.rng = ref.rng = _TopEdgeGenerator()
        colors = new.colors.copy()
        own = [np.flatnonzero(colors == b).tolist() for b in range(1, kappa + 1)]
        last = own[kappa - 1][-1] if colors[n - 1] != kappa else own[kappa - 2][-1]
        assert mc._partner(own, int(colors[n - 1]), n - n // kappa - 1) == last
        # every proposal pairs site n - 1 with the last rank, and beta = 0 accepts it
        mc.swap_sweep(new, g)
        reference_swap_sweep(ref, g)
        assert_same_chain(new, ref)


class TestMetropolis:
    def test_infinite_temperature_site_marginals_uniform(self):
        g = core.CouplingMatrix.from_seed(5, 1)
        chain = mc.ChainState.start(g, 3, 0.0, "all", seed=7)
        counts = np.zeros((5, 3), dtype=np.int64)
        for _ in range(10000):
            mc.metropolis_sweep(chain, g)
            counts[np.arange(5), chain.colors - 1] += 1
        for site in range(5):
            assert chisquare(counts[site]).pvalue > 0.001

    def test_detailed_balance_matrix(self):
        for kappa, n, beta in ((2, 4, 1.2), (3, 3, 0.8)):
            g = core.CouplingMatrix.from_seed(n, 3)
            _, energies, P = single_proposal_kernel(g, kappa, beta, "all")
            pi = np.exp(beta * (energies - energies.max()))
            pi /= pi.sum()
            flow = pi[:, None] * P
            assert np.abs(flow - flow.T).max() < 1e-10
            assert np.abs(P.sum(axis=1) - 1).max() < 1e-12

    def test_sector_guard(self):
        g = core.CouplingMatrix.from_seed(4, 1)
        chain = mc.ChainState.start(g, 2, 1.0, "balanced", seed=0)
        with pytest.raises(core.SectorError):
            mc.metropolis_sweep(chain, g)

    def test_matches_exact_state_distribution(self):
        g = core.CouplingMatrix.from_seed(4, 12)
        kappa, beta = 2, 0.9
        colors, probs = exact_gibbs_weights(g, kappa, beta, "all")
        index = {tuple(row): i for i, row in enumerate(colors)}
        chain = mc.ChainState.start(g, kappa, beta, "all", seed=4)
        mc.run_sweeps(chain, g, 500)
        n_batches, per_batch = 50, 800
        batch_fracs = np.zeros((n_batches, len(colors)))
        for b in range(n_batches):
            for _ in range(per_batch):
                mc.metropolis_sweep(chain, g)
                batch_fracs[b, index[tuple(chain.colors)]] += 1
        batch_fracs /= per_batch
        emp = batch_fracs.mean(axis=0)
        se = batch_fracs.std(axis=0, ddof=1) / math.sqrt(n_batches)
        # batch means absorb the sweep-to-sweep autocorrelation
        assert np.all(np.abs(emp - probs) <= 3 * se + 1e-4)


class TestSwap:
    def test_conserves_magnetization(self):
        g = core.CouplingMatrix.from_seed(6, 5)
        chain = mc.ChainState.start(g, 3, 1.5, "balanced", seed=2)
        target = np.bincount(chain.colors - 1, minlength=3).copy()
        for _ in range(2000):
            mc.swap_sweep(chain, g)
            assert np.array_equal(np.bincount(chain.colors - 1, minlength=3), target)

    def test_conserves_magnetization_over_a_million_moves(self):
        g = core.CouplingMatrix.from_seed(20, 55)
        chain = mc.ChainState.start(g, 2, 0.8, "balanced", seed=56)
        target = np.bincount(chain.colors - 1, minlength=2).copy()
        for block in range(100):
            for _ in range(500):  # 100 * 500 sweeps * 20 proposals = 1e6 moves
                mc.swap_sweep(chain, g)
            assert np.array_equal(np.bincount(chain.colors - 1, minlength=2), target)

    def test_uniform_over_balanced_at_infinite_temperature(self):
        g = core.CouplingMatrix.from_seed(4, 9)
        chain = mc.ChainState.start(g, 2, 0.0, "balanced", seed=3)
        colors = config_array(4, 2, "balanced")
        index = {tuple(row): i for i, row in enumerate(colors)}
        visits = np.zeros(6)
        for _ in range(30000):
            mc.swap_sweep(chain, g)
            visits[index[tuple(chain.colors)]] += 1
        assert chisquare(visits).pvalue > 0.001

    def test_detailed_balance_matrix(self):
        g = core.CouplingMatrix.from_seed(4, 6)
        _, energies, P = single_proposal_kernel(g, 2, 1.1, "balanced")
        pi = np.exp(1.1 * (energies - energies.max()))
        pi /= pi.sum()
        flow = pi[:, None] * P
        assert np.abs(flow - flow.T).max() < 1e-10

    def test_sector_guard(self):
        g = core.CouplingMatrix.from_seed(4, 1)
        chain = mc.ChainState.start(g, 2, 1.0, "all", seed=0)
        with pytest.raises(core.SectorError):
            mc.swap_sweep(chain, g)

    def test_unbalanced_start_rejected(self):
        g = core.CouplingMatrix.from_seed(4, 1)
        with pytest.raises(core.SectorError):
            mc.ChainState(
                colors=np.array([1, 1, 1, 2]), kappa=2, beta=1.0, sector="balanced",
                energy=0.0, rng=core.philox_generator(0, 0),
            )


class TestTempering:
    def test_equal_betas_always_swap(self):
        g = core.CouplingMatrix.from_seed(4, 2)
        ladder = mc.TemperingLadder.start(g, 2, [0.7, 0.7], "all", seed=5)
        for _ in range(50):
            mc.tempering_step(ladder, g)
        assert ladder.swap_accepts[0] == ladder.swap_attempts[0] == 50

    def test_rung_marginals_match_exact(self):
        g = core.CouplingMatrix.from_seed(4, 15)
        betas = [0.4, 1.0]
        ladder = mc.TemperingLadder.start(g, 2, betas, "all", seed=6)
        for _ in range(500):
            mc.tempering_step(ladder, g)
        colors, probs_hot = exact_gibbs_weights(g, 2, betas[0], "all")
        _, probs_cold = exact_gibbs_weights(g, 2, betas[1], "all")
        index = {tuple(row): i for i, row in enumerate(colors)}
        visits = np.zeros((2, len(colors)))
        sweeps = 30000
        for _ in range(sweeps):
            mc.tempering_step(ladder, g)
            for r in range(2):
                visits[r, index[tuple(ladder.rungs[r].colors)]] += 1
        assert chisquare(visits[0], probs_hot * sweeps).pvalue > 0.001
        assert chisquare(visits[1], probs_cold * sweeps).pvalue > 0.001

    def test_needs_two_rungs(self):
        g = core.CouplingMatrix.from_seed(4, 2)
        ladder = mc.TemperingLadder.start(g, 2, [0.5], "all", seed=1)
        with pytest.raises(ValueError):
            mc.tempering_step(ladder, g)


class TestEstimators:
    def test_zero_temperature_routes_to_ground_state(self):
        spec = dict(
            n=6, beta=math.inf, kappa=2, replicas=8, seed=9
        )
        (est,) = mc.estimate_tail(epsilon=0.25, **spec)
        # oracle: direct uniform-over-maximizers average per replica
        vals = []
        for r in range(8):
            g = core.CouplingMatrix.from_seed(6, 9, r)
            gs = exact.ground_state(g, 2, "all", "raw")
            dev = np.abs(
                np.stack([(gs.maximizers == a).sum(axis=1) for a in (1, 2)], axis=1) / 6 - 0.5
            ).max(axis=1)
            vals.append((dev >= 0.25).mean())
        assert est.value == pytest.approx(np.mean(vals), abs=1e-14)

    @pytest.mark.parametrize("kappa", [2, 3])
    def test_zero_temperature_is_the_exact_record(self, kappa):
        got = mc.estimate_tail(6, math.inf, (0.1, 0.3), kappa=kappa, replicas=3, seed=2)
        assert got == exact.tail_probability_exact(6, math.inf, (0.1, 0.3), replicas=3, seed=2, kappa=kappa)

    @pytest.mark.parametrize("beta", [1.0, math.inf])
    def test_needs_a_replica(self, beta):
        with pytest.raises(ValueError, match="replicas >= 1"):
            mc.estimate_tail(4, beta, 0.25, replicas=0)

    def test_infinite_temperature_matches_counting(self):
        # at beta=0 only the two monochrome configs reach deviation 0.5
        spec = dict(
            n=8, beta=0.0, kappa=2, replicas=24,
            sweeps=800, burn_in=100, thinning=2, seed=14,
        )
        (est,) = mc.estimate_tail(epsilon=0.5, **spec)
        assert abs(est.value - 2 / 256) <= 3 * est.stderr + 1e-3

    def test_ladder_must_end_at_target_beta(self):
        spec = dict(
            n=4, beta=2.0, kappa=2, replicas=2,
            sweeps=10, burn_in=2, thinning=1, seed=1, ladder=(0.5, 1.0),
        )
        with pytest.raises(ValueError, match="ladder"):
            mc.estimate_tail(epsilon=0.25, **spec)

    def test_ladder_needs_finite_beta(self):
        # beta = inf used to return the exact tail and silently drop the ladder
        with pytest.raises(ValueError, match="finite target beta"):
            mc.estimate_tail(4, math.inf, 0.25, replicas=2, ladder=(0.0, 1.0))

    @pytest.mark.parametrize("sweeps, burn_in, thinning", [(0, 2, 1), (10, -1, 1), (10, 2, 0)])
    def test_chain_lengths_must_be_valid(self, sweeps, burn_in, thinning):
        # sweeps=0 used to give a nan estimate with a RuntimeWarning
        with pytest.raises(ValueError, match="sweeps >= 1"):
            mc.estimate_tail(4, 1.0, 0.25, replicas=2, sweeps=sweeps, burn_in=burn_in, thinning=thinning)

    def test_reproducible_bit_for_bit(self):
        spec = dict(
            n=6, beta=1.0, kappa=2, replicas=4,
            sweeps=200, burn_in=50, thinning=2, seed=13,
        )
        a = mc.estimate_tail(epsilon=(0.25, 0.5), **spec)
        b = mc.estimate_tail(epsilon=(0.25, 0.5), **spec)
        assert [(e.value, e.stderr) for e in a] == [(e.value, e.stderr) for e in b]

    def test_ladder_path(self):
        spec = dict(
            n=6, beta=2.0, kappa=2, replicas=3,
            sweeps=100, burn_in=30, thinning=2, seed=13, ladder=(0.5, 1.0, 2.0),
        )
        (est,) = mc.estimate_tail(epsilon=0.5, **spec)
        assert 0.0 <= est.value <= 1.0 and est.bound == pytest.approx(2 * math.exp(-0.25 * 6))


class TestFreeEnergyTi:
    def test_beta_zero_is_entropy(self):
        g = core.CouplingMatrix.from_seed(6, 3)
        res = mc.free_energy_ti(g, 3, 0.0, 8, "balanced", "centered", seed=1, sweeps=64, burn_in=8)
        assert res.value == pytest.approx(math.log(90) / 6, abs=1e-14)
        assert res.stderr == 0.0

    def test_matches_exact_at_small_n(self):
        g = core.CouplingMatrix.from_seed(6, 21)
        res = mc.free_energy_ti(g, 3, 1.0, 9, "balanced", "centered", seed=2, sweeps=1500, burn_in=300)
        target = exact.log_partition(g, 1.0, 3, "balanced", "centered").free_energy
        assert abs(res.value - target) <= 3 * res.stderr + res.quad_error + 1e-3

    def test_grid_too_small(self):
        g = core.CouplingMatrix.from_seed(4, 1)
        with pytest.raises(ValueError):
            mc.free_energy_ti(g, 2, 1.0, 4, "all", seed=1)

    def test_negative_beta_max(self):
        g = core.CouplingMatrix.from_seed(4, 1)
        with pytest.raises(ValueError, match="beta_max"):
            mc.free_energy_ti(g, 2, -1.0, 8, "all", seed=1, sweeps=2, burn_in=0)

    @pytest.mark.parametrize("sweeps, burn_in", [(1, 0), (0, 0), (10, -3)])
    def test_chain_lengths_must_be_valid(self, sweeps, burn_in):
        # sweeps=1 used to give a nan stderr with a RuntimeWarning, and burn_in=-3 ran silently
        g = core.CouplingMatrix.from_seed(4, 1)
        with pytest.raises(ValueError, match="sweeps >= 2"):
            mc.free_energy_ti(g, 2, 1.0, 8, "all", seed=1, sweeps=sweeps, burn_in=burn_in)


class TestEquilibrationFlag:
    def test_stationary_series_not_flagged(self, rng):
        assert not mc.equilibration_flagged(rng.standard_normal(400))

    def test_drifting_series_flagged(self, rng):
        series = np.concatenate([rng.standard_normal(200), rng.standard_normal(200) + 5.0])
        assert mc.equilibration_flagged(series)


class TestChainInternals:
    def test_energy_audit_catches_corruption(self):
        g = core.CouplingMatrix.from_seed(4, 4)
        chain = mc.ChainState.start(g, 2, 0.5, "all", seed=1)
        chain.energy += 1.0  # simulate drift
        with pytest.raises(RuntimeError, match="drifted"):
            for _ in range(mc.AUDIT_INTERVAL):
                mc.metropolis_sweep(chain, g)
        assert chain.sweeps == mc.AUDIT_INTERVAL  # caught by the first audit, not before

    def test_checkpoint_roundtrip_chain(self, tmp_path):
        g = core.CouplingMatrix.from_seed(5, 8)
        chain = mc.ChainState.start(g, 3, 0.7, "all", seed=2)
        mc.run_sweeps(chain, g, 37)
        path = str(tmp_path / "chain.json")
        mc.save_checkpoint(chain, path)
        restored = mc.load_chain(path)
        mc.run_sweeps(chain, g, 20)
        mc.run_sweeps(restored, g, 20)
        assert np.array_equal(chain.colors, restored.colors)
        assert chain.energy == restored.energy
        assert chain.sweeps == restored.sweeps

    def test_checkpoint_roundtrip_ladder(self, tmp_path):
        g = core.CouplingMatrix.from_seed(4, 8)
        ladder = mc.TemperingLadder.start(g, 2, [0.3, 0.9], "all", seed=3)
        for _ in range(11):
            mc.tempering_step(ladder, g)
        path = str(tmp_path / "ladder.json")
        mc.save_checkpoint(ladder, path)
        restored = mc.load_ladder(path)
        mc.tempering_step(ladder, g)
        mc.tempering_step(restored, g)
        for a, b in zip(ladder.rungs, restored.rungs):
            assert np.array_equal(a.colors, b.colors)
            assert a.energy == b.energy
        assert np.array_equal(ladder.swap_accepts, restored.swap_accepts)

    def test_checkpoint_kind_and_version_checked(self, tmp_path):
        g = core.CouplingMatrix.from_seed(4, 8)
        chain_path, ladder_path = tmp_path / "chain.json", tmp_path / "ladder.json"
        mc.save_checkpoint(mc.ChainState.start(g, 2, 0.5, "all", seed=1), str(chain_path))
        mc.save_checkpoint(mc.TemperingLadder.start(g, 2, [0.3, 0.9], "all", seed=3), str(ladder_path))
        with pytest.raises(ValueError, match="does not hold a ladder"):
            mc.load_ladder(str(chain_path))
        with pytest.raises(ValueError, match="does not hold a chain"):
            mc.load_chain(str(ladder_path))
        for path, load in ((chain_path, mc.load_chain), (ladder_path, mc.load_ladder)):
            payload = json.loads(path.read_text())
            payload["version"] = mc.CHECKPOINT_VERSION + 1
            path.write_text(json.dumps(payload))
            with pytest.raises(ValueError, match="unsupported checkpoint version"):
                load(str(path))
        payload = json.loads(ladder_path.read_text())
        payload["version"] = mc.CHECKPOINT_VERSION
        payload["rungs"][1]["version"] = mc.CHECKPOINT_VERSION + 1  # each rung is checked too
        ladder_path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="unsupported checkpoint version"):
            mc.load_ladder(str(ladder_path))
        chain_path.write_text(V1_CHAIN)  # version 1 carried the audit_interval field
        with pytest.raises(ValueError, match="unsupported checkpoint version 1"):
            mc.load_chain(str(chain_path))

    def test_cached_energy_matches_recomputation(self):
        # the start and audit energies are core.hamiltonian_raw's, bit for bit (the mask
        # kernel that v0.1.8 used differed from it in the last bits at 76 of these 100 starts)
        for n, kappa in ((6, 3), (12, 3), (8, 2), (30, 4), (256, 3)):
            g = core.CouplingMatrix.from_seed(n, 6)

            def recomputed(chain):
                return core.hamiltonian_raw(core.SpinConfig(chain.colors.copy(), kappa), g)

            for seed in range(20):
                chain = mc.ChainState.start(g, kappa, 1.2, "all", seed=seed)
                assert chain.energy == recomputed(chain)
            mc.run_sweeps(chain, g, mc.AUDIT_INTERVAL)
            assert chain.energy == recomputed(chain)
        g = core.CouplingMatrix.from_seed(6, 6)
        chain = mc.ChainState.start(g, 3, 1.2, "all", seed=4)
        mc.run_sweeps(chain, g, 333)
        full = float(batch_energies_raw(chain.colors[None, :], g)[0])
        assert chain.energy == pytest.approx(full, rel=1e-6)

    @pytest.mark.parametrize("kind, edit, match", [
        # colors 0 used to run on garbage: h.item(-1, t) wraps to the last color's row
        pytest.param("chain", {"colors": [0, 1, 1, 1, 2]}, r"colors must lie in \[1, 3\]", id="color-0"),
        pytest.param("chain", {"colors": [[2, 1], [1, 2]]}, "non-empty 1-d", id="colors-2d"),
        pytest.param("chain", {"colors": []}, "non-empty 1-d", id="colors-empty"),
        pytest.param("chain", {"kappa": 1, "colors": [1, 1, 1, 1, 1]}, "kappa must be >= 2", id="kappa-1"),
        pytest.param("chain", {"energy": math.nan}, "energy must be finite", id="energy-nan"),
        pytest.param("chain", {"energy": -math.inf}, "energy must be finite", id="energy-inf"),
        # short counters used to raise IndexError only inside tempering_step
        pytest.param("ladder", {"swap_attempts": [4]}, "needs 2 swap counters", id="attempts-short"),
        pytest.param("ladder", {"swap_accepts": [3, 2, 0]}, "needs 2 swap counters", id="accepts-long"),
        # a top rung unlike the others used to load; a balanced one ended in IndexError in swap_sweep
        pytest.param("top-rung", {"sector": "balanced", "colors": [1, 2, 1, 2]}, "must share",
                     id="top-rung-balanced"),
        pytest.param("top-rung", {"kappa": 3}, "must share", id="top-rung-kappa-3"),
        pytest.param("top-rung", {"colors": [2, 1, 2]}, "must share", id="top-rung-n-3"),
    ])
    def test_malformed_checkpoint_rejected(self, kind, edit, match, tmp_path):
        path = tmp_path / "edited.json"
        payload = json.loads(PINNED_CHECKPOINTS["chain-all" if kind == "chain" else "ladder"])
        (payload["rungs"][-1] if kind == "top-rung" else payload).update(edit)
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=match):
            (mc.load_chain if kind == "chain" else mc.load_ladder)(str(path))


# A chain checkpoint as v0.1.5 to v0.1.8 saved it (version 1).
V1_CHAIN = (
    '{"audit_interval": 100, "beta": 0.7, "chain_id": 1, "colors": [2, 1, 1, 1, 2]'
    ', "energy": -1.2972297041501357, "kappa": 3, "kind": "chain"'
    ', "rng": {"bit_generator": "Philox", "buffer": [1256477096058323303, 16052574837747377924'
    ', 1352686618695844241, 10689723240430104699], "buffer_pos": 1, "has_uint32": 1'
    ', "state": {"counter": [19, 0, 0, 0], "key": [2, 4294967297]}, "uinteger": 1608830103}'
    ', "sector": "all", "seed": 2, "sweeps": 7, "version": 1}'
)

# Checkpoints as v0.1.11 saved them (format version 2), with the run that reaches each one afresh.
PINNED_CHECKPOINTS = {
    "chain-all": (
        '{"beta": 0.7, "chain_id": 1, "colors": [1, 1, 3, 3, 2], "energy": -1.3324953211564068'
        ', "kappa": 3, "kind": "chain", "rng": {"bit_generator": "Philox"'
        ', "buffer": [7028720698002719311, 2004213160001063103, 17796596325536789351'
        ', 14619114732973239025], "buffer_pos": 4, "has_uint32": 1, "state": {"counter": [27, 0, 0'
        ', 0], "key": [2, 4294967297]}, "uinteger": 1713663079}, "sector": "all", "seed": 2'
        ', "sweeps": 7, "version": 2}'
    ),
    "chain-balanced": (
        '{"beta": 1.1, "chain_id": 0, "colors": [3, 2, 2, 3, 1, 1], "energy": -0.031979352872448574'
        ', "kappa": 3, "kind": "chain", "rng": {"bit_generator": "Philox"'
        ', "buffer": [16999385605001807902, 6269155169665324258, 15572276232625003615'
        ', 16732531859924243977], "buffer_pos": 1, "has_uint32": 0, "state": {"counter": [465, 0, 0'
        ', 0], "key": [4, 4294967296]}, "uinteger": 216909385}, "sector": "balanced", "seed": 4'
        ', "sweeps": 103, "version": 2}'
    ),
    "ladder": (
        '{"kind": "ladder", "ladder_id": 2, "rng": {"bit_generator": "Philox"'
        ', "buffer": [15803601742490975237, 18071095372905398312, 13205400030976850009'
        ', 12030535612457570053], "buffer_pos": 4, "has_uint32": 0, "state": {"counter": [2, 0, 0, 0]'
        ', "key": [3, 12884901890]}, "uinteger": 0}, "rungs": [{"beta": 0.2, "chain_id": 512'
        ', "colors": [2, 2, 2, 2], "energy": 0.17722958615537432, "kappa": 2, "kind": "chain"'
        ', "rng": {"bit_generator": "Philox", "buffer": [13272061709010187033, 6155700892867239059'
        ', 3336045680236367539, 10997801417544078440], "buffer_pos": 2, "has_uint32": 0'
        ', "state": {"counter": [13, 0, 0, 0], "key": [3, 4294967808]}, "uinteger": 1339433064}'
        ', "sector": "all", "seed": 3, "sweeps": 4, "version": 2}, {"beta": 0.6, "chain_id": 513'
        ', "colors": [2, 1, 1, 2], "energy": 1.1760557039483104, "kappa": 2, "kind": "chain"'
        ', "rng": {"bit_generator": "Philox", "buffer": [9826638139487843714, 6340931704362504078'
        ', 4095798652938071381, 5666253497478099922], "buffer_pos": 2, "has_uint32": 0'
        ', "state": {"counter": [13, 0, 0, 0], "key": [3, 4294967809]}, "uinteger": 2756699029}'
        ', "sector": "all", "seed": 3, "sweeps": 4, "version": 2}, {"beta": 1.0, "chain_id": 514'
        ', "colors": [1, 2, 1, 1], "energy": 2.340668196005623, "kappa": 2, "kind": "chain"'
        ', "rng": {"bit_generator": "Philox", "buffer": [6278736764048362555, 1199169832032416641'
        ', 13214539018572044369, 13284566307333472793], "buffer_pos": 2, "has_uint32": 0'
        ', "state": {"counter": [13, 0, 0, 0], "key": [3, 4294967810]}, "uinteger": 2287199711}'
        ', "sector": "all", "seed": 3, "sweeps": 4, "version": 2}], "seed": 3, "swap_accepts": [4, 3]'
        ', "swap_attempts": [4, 4], "version": 2}'
    ),
}


def _pinned_run(name):
    """The state ``PINNED_CHECKPOINTS[name]`` holds, run afresh, and its step."""
    if name == "ladder":
        g = core.CouplingMatrix.from_seed(4, 3)
        ladder = mc.TemperingLadder.start(g, 2, [0.2, 0.6, 1.0], "all", seed=3, ladder_id=2)
        for _ in range(4):
            mc.tempering_step(ladder, g)
        return ladder, lambda state: mc.tempering_step(state, g)
    if name == "chain-all":
        g = core.CouplingMatrix.from_seed(5, 2)
        chain, sweeps = mc.ChainState.start(g, 3, 0.7, "all", seed=2, chain_id=1), 7
    else:
        g = core.CouplingMatrix.from_seed(6, 4)
        # past the first audit, so the saved energy is a running sum on an audited one
        chain, sweeps = mc.ChainState.start(g, 3, 1.1, "balanced", seed=4, chain_id=0), mc.AUDIT_INTERVAL + 3
    return mc.run_sweeps(chain, g, sweeps), lambda state: mc.sweep(state, g)


class TestCheckpointFormat:
    @staticmethod
    def saved(obj, path) -> str:
        mc.save_checkpoint(obj, str(path))
        return path.read_text()

    @pytest.mark.parametrize("name", sorted(PINNED_CHECKPOINTS))
    def test_v015_checkpoint_loads_resumes_and_saves_back(self, name, tmp_path):
        text = PINNED_CHECKPOINTS[name]
        path = tmp_path / "v015.json"
        path.write_text(text)
        restored = (mc.load_ladder if name == "ladder" else mc.load_chain)(str(path))
        assert self.saved(restored, tmp_path / "back.json") == text
        fresh, step = _pinned_run(name)
        assert self.saved(fresh, tmp_path / "fresh.json") == text
        for _ in range(13):
            step(fresh)
            step(restored)
        assert self.saved(restored, tmp_path / "a.json") == self.saved(fresh, tmp_path / "b.json")

    def test_payload_keys_are_the_dataclass_fields(self, tmp_path):
        ladder, _ = _pinned_run("ladder")
        payload = json.loads(self.saved(ladder, tmp_path / "ladder.json"))
        assert set(payload) == {f.name for f in fields(mc.TemperingLadder)} | {"kind", "version"}
        chain, _ = _pinned_run("chain-balanced")
        for rung in payload["rungs"] + [json.loads(self.saved(chain, tmp_path / "chain.json"))]:
            assert set(rung) == {f.name for f in fields(mc.ChainState)} | {"kind", "version"}
