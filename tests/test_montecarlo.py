import json
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import chisquare

from pottsglass import core, exact, montecarlo as mc

from conftest import batch_energies_raw, config_array, maximizers


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
# They accept in the log domain (v0.1.14): a raw difference x = sqrt(n) dH
# above log(u) sqrt(n) / beta, with np.log over the same draw row.


def _reference_site_delta(colors, srow, site, old, new, kappa):
    sums = np.bincount(colors - 1, weights=srow, minlength=kappa)
    return float(sums[new - 1] - sums[old - 1] + srow[site])


def _reference_logs(us):
    with np.errstate(divide="ignore"):  # u = 0: log u = -inf, always accepted
        return np.log(us).tolist()


def _reference_limits(us, sqn, beta):
    return [-math.inf if beta == 0.0 else log_u * (sqn / beta) for log_u in _reference_logs(us)]


def reference_metropolis_sweep(state, g):
    n, kappa, beta = state.n, state.kappa, state.beta
    s = g.g + g.g.T
    sqn = math.sqrt(n)
    u0, u1, us = state.rng.random((3, n))
    limits = _reference_limits(us, sqn, beta)
    colors = state.colors
    for k in range(n):
        t, new = int(u0[k] * n), 1 + int(u1[k] * kappa)
        old = int(colors[t])
        if new == old:
            continue
        x = _reference_site_delta(colors, s[t], t, old, new, kappa)
        if x > limits[k]:
            colors[t] = new
            state.energy += x / sqn
    state.sweeps += 1
    if state.sweeps % mc.AUDIT_INTERVAL == 0:
        state._audit(g)


def reference_swap_sweep(state, g):
    n, kappa, beta = state.n, state.kappa, state.beta
    s = g.g + g.g.T
    sqn = math.sqrt(n)
    per = n // kappa
    u0, u1, us = state.rng.random((3, n))
    limits = _reference_limits(us, sqn, beta)
    colors = state.colors
    for k in range(n):
        i = int(u0[k] * n)
        a = int(colors[i])
        c, p = divmod(int(u1[k] * (n - per)), per)
        b = c + 1 if c + 1 < a else c + 2
        j = int(np.flatnonzero(colors == b)[p])
        x1 = _reference_site_delta(colors, s[i], i, a, b, kappa)
        colors[i] = b
        x2 = _reference_site_delta(colors, s[j], j, b, a, kappa)
        colors[i] = a
        if x1 + x2 > limits[k]:
            colors[i], colors[j] = b, a
            state.energy += (x1 + x2) / sqn
    state.sweeps += 1
    if state.sweeps % mc.AUDIT_INTERVAL == 0:
        state._audit(g)


def reference_tempering_step(ladder, g):
    for rung in ladder.rungs:
        reference_metropolis_sweep(rung, g)
    logs = _reference_logs(ladder.rng.random(size=len(ladder.rungs) - 1))
    for k in range(len(ladder.rungs) - 1):
        lo, hi = ladder.rungs[k], ladder.rungs[k + 1]
        if (lo.beta - hi.beta) * (hi.energy - lo.energy) > logs[k]:
            lo.colors, hi.colors = hi.colors, lo.colors
            lo.energy, hi.energy = hi.energy, lo.energy


class _EdgeDraws:
    """Stands in for a generator: the uniforms it has drawn, counted from its first, are 0 at every 7th place
    and 1 - 2^-53 at every 11th, the wrapped generator's elsewhere; so a per-sweep and a per-block draw
    read the same values, and both edges of [0, 1) reach every kind of decision."""

    def __init__(self, rng):
        self.rng, self.drawn = rng, 0

    def __getattr__(self, name):
        return getattr(self.rng, name)

    def random(self, size):
        us = self.rng.random(size)
        at = self.drawn + np.arange(us.size).reshape(us.shape)
        us[at % 7 == 3], us[at % 11 == 5] = 0.0, np.nextafter(1.0, 0.0)
        self.drawn += us.size
        return us


def _edge_generator(seed, stream):
    return _EdgeDraws(core.philox_generator(seed, stream))


class _CountedDraws:
    """Stands in for a chain's generator and counts its draws: ``_run_stack`` makes one per draw block."""

    def __init__(self, rng):
        self.rng, self.calls = rng, 0

    def random(self, size):
        self.calls += 1
        return self.rng.random(size)


def energies(colors, energy):
    """The record of a stack run that tests only its chains: every chain's energy."""
    return energy


def trajectory(colors, energy):
    """The record of a run that follows its chains: each chain's colors as it holds them (1-based), then its energy,
    one float row."""
    return np.hstack((colors + 1, energy[:, None]))


def configurations(colors, energy):
    """The record of a run that counts where its chains go: each chain's colors (0-based)."""
    return colors.copy()


def visit_counts(records, colors, batches=1):
    """A row per run of ``batches`` equal runs of one chain's ``configurations`` records: how many of its sweeps
    end in each row of ``colors`` (1-based, a sector as ``config_array`` lists it)."""
    index = {tuple(row): i for i, row in enumerate(colors.tolist())}
    visits = np.array([index[tuple(row)] for row in (records + 1).tolist()])
    return np.stack([np.bincount(run, minlength=len(colors)) for run in np.split(visits, batches)])


def force_lockstep(monkeypatch, on):
    """Make every ``_run_stack`` stack sweep in lockstep (``on``) or row by row, whatever its size."""
    monkeypatch.setattr(mc, "_lockstep", lambda *stack: on)


def step_alone(state, g):
    """One ``run_sweeps`` sweep of a chain or ladder, row by row whatever ``force_lockstep`` set: the side that a
    stack, in lockstep or not, is compared with."""
    with pytest.MonkeyPatch.context() as patch:
        force_lockstep(patch, False)
        mc.run_sweeps(state, g, 1)


def swap_partner(colors, kappa, i, rank):
    """The site that a swap proposal of site ``i`` at ``rank`` pairs it with (1-based ``colors``): the other site
    that ``_swap_row`` recolors when it accepts that one proposal (threshold -inf, fields and couplings 0)."""
    after = colors - 1  # as the runner hands them to the kernels
    mc._swap_row(after, 0.0, np.zeros((kappa, colors.size)), np.zeros((colors.size, colors.size)), [i], [rank],
                 [-math.inf])
    after += 1
    moved = np.flatnonzero(after != colors)
    assert moved.size == 2 and i in moved
    return int(moved[moved != i][0])


def assert_same_chain(new, ref):
    """``new``: a chain, or its row of a ``trajectory`` record."""
    colors, energy = (new.colors, new.energy) if isinstance(new, mc.ChainState) else (new[:-1], new[-1])
    assert np.array_equal(colors, ref.colors)
    assert abs(energy - ref.energy) <= 1e-9 * max(1.0, abs(ref.energy))


class TestKernelsMatchReference:
    """Same Philox draws, same acceptance rule: identical colors after every sweep."""

    @pytest.mark.parametrize("n, kappa, sweeps", [(5, 3, 400), (8, 2, 400), (64, 3, 150)])
    def test_metropolis(self, n, kappa, sweeps):
        g = core.CouplingMatrix.from_seed(n, 31)
        new, ref = (mc.ChainState.start(g, kappa, 1.3, "all", seed=8) for _ in range(2))
        for record in mc.run_sweeps(new, g, sweeps, trajectory)[0]:
            reference_metropolis_sweep(ref, g)
            assert_same_chain(record, ref)
        assert_same_chain(new, ref)

    @pytest.mark.parametrize("n, kappa, sweeps", [(6, 3, 400), (12, 3, 400), (30, 2, 250)])
    def test_swap(self, n, kappa, sweeps):
        g = core.CouplingMatrix.from_seed(n, 32)
        new, ref = (mc.ChainState.start(g, kappa, 1.3, "balanced", seed=9) for _ in range(2))
        for record in mc.run_sweeps(new, g, sweeps, trajectory)[0]:
            reference_swap_sweep(ref, g)
            assert_same_chain(record, ref)
        assert_same_chain(new, ref)

    def test_tempering(self):
        g = core.CouplingMatrix.from_seed(8, 33)
        new, ref = (mc.TemperingLadder.start(g, 2, [0.0, 1.0, 2.0, 4.0], "all", seed=10)
                    for _ in range(2))
        for records in mc.run_sweeps(new, g, 300, trajectory).swapaxes(0, 1):
            reference_tempering_step(ref, g)
            for a, b in zip(records, ref.rungs):
                assert_same_chain(a, b)
        for a, b in zip(new.rungs, ref.rungs):
            assert_same_chain(a, b)

    @pytest.mark.parametrize("kind, n, kappa", [("all", 96, 3), ("balanced", 96, 3), ("ladder", 32, 2)])
    def test_one_run_across_audits_and_draw_blocks(self, kind, n, kappa):
        # one run_sweeps call of 250 sweeps, its records against the reference after every sweep: it crosses the
        # audits at sweeps 100 and 200 in five draw blocks of 85, 15, 85, 15 and 50 sweeps (85 sweeps of 96
        # proposals, one chain at n = 96 or three rungs at n = 32, fill _BLOCK_PROPOSALS)
        g = core.CouplingMatrix.from_seed(n, 42)
        if kind == "ladder":
            new, ref = (mc.TemperingLadder.start(g, kappa, [0.0, 1.0, 2.5], "all", seed=24) for _ in range(2))
            step, chains, refs = reference_tempering_step, new.rungs, ref.rungs
        else:
            new, ref = (mc.ChainState.start(g, kappa, 1.3, kind, seed=24) for _ in range(2))
            step, chains, refs = reference_metropolis_sweep if kind == "all" else reference_swap_sweep, [new], [ref]
        for chain in chains:
            chain.rng = _CountedDraws(chain.rng)
        for records in mc.run_sweeps(new, g, 250, trajectory).swapaxes(0, 1):
            step(ref, g)
            for a, b in zip(records, refs):
                assert_same_chain(a, b)
        assert [(c.rng.calls, c.sweeps) for c in chains] == [(5, 250)] * len(chains)

    @pytest.mark.parametrize("n, kappa", [(5, 3), (8, 2), (64, 3)])
    def test_lockstep(self, n, kappa, monkeypatch):
        # 16 chains on distinct couplings and betas; 250 sweeps cross two audits; in lockstep, then row by row
        betas = np.linspace(0.0, 4.0, 16)
        gs = [core.CouplingMatrix.from_seed(n, 36, r) for r in range(16)]
        for on in (True, False):
            force_lockstep(monkeypatch, on)
            stacked, alone = ([mc.ChainState.start(g, kappa, float(b), "all", seed=13, chain_id=r)
                               for r, (g, b) in enumerate(zip(gs, betas))] for _ in range(2))
            for _ in range(250):
                mc._run_stack(stacked, [], gs, 0, 1, 1, energies)
                for chain, g in zip(alone, gs):
                    step_alone(chain, g)
                for a, b in zip(stacked, alone):
                    assert np.array_equal(a.colors, b.colors) and a.energy == b.energy and a.sweeps == b.sweeps

    def test_lockstep_at_the_draw_edges(self, monkeypatch):
        # u = 0 and u = 1 - 2^-53 in every sweep of every chain, beta = 0 included
        monkeypatch.setattr(mc, "philox_generator", _edge_generator)
        self.test_lockstep(8, 2, monkeypatch)

    def test_lockstep_ladders(self, monkeypatch):
        # four 5-rung ladders in one stack: the rungs of a ladder share their replica's couplings
        gs = [core.CouplingMatrix.from_seed(8, 37, r) for r in range(4)]
        for on in (True, False):
            force_lockstep(monkeypatch, on)
            stacked, alone = ([mc.TemperingLadder.start(g, 2, [0.0, 1.0, 2.0, 3.0, 4.0], "all", seed=14,
                                                        ladder_id=r) for r, g in enumerate(gs)] for _ in range(2))
            chains = [rung for ladder in stacked for rung in ladder.rungs]
            for _ in range(250):
                mc._run_stack(chains, stacked, gs, 0, 1, 1, energies)
                for ladder, g in zip(alone, gs):
                    step_alone(ladder, g)
            for a, b in zip(stacked, alone):
                assert np.array_equal(a.swap_attempts, b.swap_attempts)
                assert np.array_equal(a.swap_accepts, b.swap_accepts)
                assert a.swap_accepts.sum() > 0
                for x, y in zip(a.rungs, b.rungs):
                    assert np.array_equal(x.colors, y.colors) and x.energy == y.energy

    @pytest.mark.parametrize("n, kappa", [(6, 3), (8, 2), (12, 4)])
    def test_swap_lockstep(self, n, kappa, monkeypatch):
        # two 4-rung balanced ladders in one stack, one sweep a run: 250 sweeps cross two audits; in lockstep,
        # then row by row
        gs = [core.CouplingMatrix.from_seed(n, 40, r) for r in range(2)]
        for on in (True, False):
            force_lockstep(monkeypatch, on)
            stacked, alone = ([mc.TemperingLadder.start(g, kappa, [0.0, 0.7, 1.5, 3.0], "balanced", seed=19,
                                                        ladder_id=r) for r, g in enumerate(gs)] for _ in range(2))
            chains = [rung for ladder in stacked for rung in ladder.rungs]
            for _ in range(250):
                mc._run_stack(chains, stacked, gs, 0, 1, 1, energies)
                for ladder, g in zip(alone, gs):
                    step_alone(ladder, g)
                for a, b in zip(chains, (rung for ladder in alone for rung in ladder.rungs)):
                    assert np.array_equal(a.colors, b.colors) and a.energy == b.energy and a.sweeps == b.sweeps
            for a, b in zip(stacked, alone):
                assert np.array_equal(a.swap_accepts, b.swap_accepts) and a.swap_accepts.sum() > 0

    def test_swap_lockstep_at_the_draw_edges(self, monkeypatch):
        monkeypatch.setattr(mc, "philox_generator", _edge_generator)  # the ladders' swap draws too
        self.test_swap_lockstep(6, 3, monkeypatch)

    @staticmethod
    def run_ladders(n, kappa, betas, replicas, burn_in, sweeps, thinning, seed, sector="all"):
        """A stack of ``replicas`` ladders run by ``_run_stack``, and the same ladders stepped alone, a sweep a call."""
        gs = [core.CouplingMatrix.from_seed(n, 39, r) for r in range(replicas)]
        stacked, alone = ([mc.TemperingLadder.start(g, kappa, betas, sector, seed=seed, ladder_id=r)
                           for r, g in enumerate(gs)] for _ in range(2))

        def top_deviations(colors, energy):  # each ladder's top rung, as estimate_tail records it
            return mc._deviations(colors[len(betas) - 1::len(betas)], kappa)

        records = mc._run_stack([rung for ladder in stacked for rung in ladder.rungs], stacked, gs, burn_in, sweeps,
                                thinning, top_deviations)
        for ladder, g in zip(alone, gs):
            for _ in range(burn_in + sweeps):
                step_alone(ladder, g)
        return records, stacked, alone

    @staticmethod
    def assert_same_ladders(stacked, alone):
        def state(rng):
            return json.dumps(rng.bit_generator.state, sort_keys=True, default=np.ndarray.tolist)

        for a, b in zip(stacked, alone):
            assert state(a.rng) == state(b.rng)
            assert np.array_equal(a.swap_attempts, b.swap_attempts) and np.array_equal(a.swap_accepts, b.swap_accepts)
            for x, y in zip(a.rungs, b.rungs):
                assert state(x.rng) == state(y.rng)
                assert np.array_equal(x.colors, y.colors) and x.energy == y.energy and x.sweeps == y.sweeps

    def test_stack_run_leaves_every_stream_where_alone(self):
        # 250 sweeps from sweep 0 make draw blocks of 100, 100 and 50: none may draw past an audit or the run
        self.assert_same_ladders(*self.run_ladders(9, 3, [0.0, 1.0, 2.5], 3, 50, 200, 7, seed=16)[1:])

    def test_swap_stack_run_leaves_every_stream_where_alone(self):
        # balanced ladders at n = 12 and 48, in draw blocks of 75 and 18 sweeps that also end at every audit
        for n in (12, 48):
            self.assert_same_ladders(*self.run_ladders(n, 3, [0.0, 1.0, 2.5], 3, 50, 200, 7, seed=20,
                                                       sector="balanced")[1:])

    def test_records_independent_of_draw_block(self, monkeypatch):
        runs = [self.run_ladders(8, 2, [0.5, 1.5, 3.0], 4, 30, 220, 3, seed=17)]
        monkeypatch.setattr(mc, "_BLOCK_PROPOSALS", 1)  # one sweep per draw block
        runs.append(self.run_ladders(8, 2, [0.5, 1.5, 3.0], 4, 30, 220, 3, seed=17))
        (records, stacked, alone), (one_sweep_records, one_sweep_stacked, _) = runs
        assert records.shape == (4, 74) and np.array_equal(records, one_sweep_records)
        self.assert_same_ladders(stacked, alone)
        self.assert_same_ladders(one_sweep_stacked, alone)

    @pytest.mark.parametrize("sector, n, kappa, seed", [("all", 8, 2, 18), ("balanced", 6, 3, 21),
                                                        ("all", 48, 3, 22), ("balanced", 24, 3, 23)])
    def test_draw_edges_inside_a_block(self, sector, n, kappa, seed, monkeypatch):
        # u = 0 and u = 1 - 2^-53 inside the draw blocks (several of them at n = 24 and 48, and the audit at
        # sweep 100), beta = 0 rungs included: _run_stack gives the same records, states and generators with
        # every stack in lockstep and with every stack row by row
        monkeypatch.setattr(mc, "philox_generator", _edge_generator)
        gs = [core.CouplingMatrix.from_seed(n, 41, r) for r in range(3)]
        runs = []
        for on in (True, False):
            force_lockstep(monkeypatch, on)
            ladders = [mc.TemperingLadder.start(g, kappa, [0.0, 2.0, 4.0], sector, seed=seed, ladder_id=r)
                       for r, g in enumerate(gs)]
            chains = [rung for ladder in ladders for rung in ladder.rungs]
            runs.append((mc._run_stack(chains, ladders, gs, 20, 130, 5, energies), ladders))
        (records, stacked), (alone_records, alone) = runs
        assert records.shape == (9, 26) and records.tolist() == alone_records.tolist()
        self.assert_same_ladders(stacked, alone)
        assert all(ladder.swap_accepts.sum() > 0 for ladder in stacked)


@pytest.mark.parametrize("sector", ["all", "balanced"])
def test_observe_may_keep_the_colors_it_is_handed(sector, monkeypatch):
    """The runner copies a stack's colors once per sweep, so in either kernel form a record that keeps the array
    it is handed equals one that copies it."""
    g = core.CouplingMatrix.from_seed(6, 43)
    for on in (True, False):
        force_lockstep(monkeypatch, on)
        kept, copied = (mc.run_sweeps(mc.ChainState.start(g, 3, 1.3, sector, seed=25), g, 50, observe)
                        for observe in (lambda colors, energy: colors, configurations))
        assert np.array_equal(kept, copied) and len(np.unique(copied[0], axis=0)) > 1


def test_log_of_draws_is_layout_free():
    """``np.log`` gives the same bits over 2^20 draws in every layout the two paths take it in, so a chain's
    acceptance thresholds do not depend on the stack it sweeps in: a per-chain row of any length, the strided
    ``[:, 2]`` slice of a ``(b, 3, n, R)`` block, a ladders' ``(b, rungs - 1)`` hstack, and numpy scalars.
    (A negative-stride view may take a different loop, which rounds differently; no path makes one.)"""
    us = core.philox_generator(23, 0).random(1 << 20)
    logs = np.log(us)
    # per-chain rows: contiguous chunks of every length 1 to 64, the SIMD loops' tails included
    cuts = np.cumsum(np.resize(np.arange(1, 65), us.size))
    chunks = np.split(us, cuts[cuts < us.size])
    assert np.concatenate([np.log(chunk) for chunk in chunks]).tolist() == logs.tolist()
    for b, n, rows in ((64, 128, 128), (256, 4096, 1), (16, 4096, 16), (1024, 1024, 1)):
        block = np.zeros((b, 3, n, rows))
        block[:, 2] = us[:b * n * rows].reshape(b, n, rows)
        assert np.log(block[:, 2]).reshape(-1).tolist() == logs[:b * n * rows].tolist()
    ladders = np.hstack([chunk.reshape(512, -1) for chunk in np.split(us, 4)])  # four (512, 512) draws
    assert np.log(ladders).reshape(512, 4, 512).swapaxes(0, 1).reshape(-1).tolist() == logs.tolist()
    assert [np.log(np.float64(u)) for u in us.tolist()] == logs.tolist()


def test_block_thresholds_equal_each_chains_own():
    """A draw block's thresholds (``_proposal_tables``: one ``np.log`` over the block, times each chain's scale)
    equal ``log(u) * scale`` as the per-chain kernels form it in Python floats, beta = 0 and the edges of [0, 1)
    included; u = 0 and beta = 0 give -inf, which every raw difference exceeds."""
    n, betas = 12, [0.0, 1e-300, 0.3, 1.0, 7.5]
    block = core.philox_generator(24, 0).random((40, 3, n, len(betas)))
    block[0, 2, :2] = [[0.0] * len(betas), [np.nextafter(1.0, 0.0)] * len(betas)]
    scales = [math.sqrt(n) / beta if beta else math.inf for beta in betas]  # as the kernels form them
    limits = mc._proposal_tables(block, 2, np.array(scales))[-1]
    for k in range(40):
        for r, scale in enumerate(scales):
            row = np.ascontiguousarray(block[k, :, :, r])[2]
            assert [log_u * scale for log_u in mc._log_uniforms(row).tolist()] == limits[k, :, r].tolist()
    assert np.isneginf(limits[:, :, 0]).all() and np.isneginf(limits[0, 0]).all()
    assert (-1e-14 < limits[0, 1, 2:]).all() and (limits[0, 1, 2:] < 0.0).all()


@pytest.mark.parametrize("n, kappa, couplings, per", [(1, 2, 3, 1), (8, 2, 16, 1), (8, 2, 4, 5), (64, 3, 5, 3),
                                                      (257, 4, 2, 2)])
def test_stack_fields_are_each_chains_own_product(n, kappa, couplings, per):
    """A chain's fields in a stack equal its fields alone, so no result depends on the stack size."""
    s = np.stack([g.g + g.g.T for g in (core.CouplingMatrix.from_seed(n, 38, r) for r in range(couplings))])
    colors = np.random.default_rng(15).integers(0, kappa, size=(couplings * per, n))
    # grouped by coupling, as the runner passes its rows
    fields = mc._stack_fields(colors.reshape(couplings, per, n), s[:, None], kappa).reshape(-1, kappa, n)
    for r, row in enumerate(colors):
        assert np.array_equal(fields[r], (row == np.arange(kappa)[:, None]).astype(np.float64) @ s[r // per])
        assert np.array_equal(fields[r], mc._stack_fields(row, s[r // per], kappa))


@given(st.integers(2, 4), st.integers(1, 12), st.data())
def test_partner_ranks_cover_other_color_sites_once(kappa, per, data):
    colors = np.array(data.draw(st.permutations(np.repeat(np.arange(1, kappa + 1), per).tolist())))
    a = data.draw(st.integers(1, kappa))
    i = data.draw(st.sampled_from(np.flatnonzero(colors == a).tolist()))
    partners = [swap_partner(colors, kappa, i, rank) for rank in range(colors.size - per)]
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
        mc.run_sweeps(chain, g, 1)
        assert np.array_equal(chain.colors, expected)

    @pytest.mark.parametrize("n, kappa", [(1, 2), (5, 3), (8, 2), (257, 4)])
    def test_lockstep_proposes_last_site_and_color(self, n, kappa, monkeypatch):
        gs = [core.CouplingMatrix.from_seed(n, 34, r) for r in range(3)]
        for on in (True, False):
            force_lockstep(monkeypatch, on)
            chains = [mc.ChainState.start(g, kappa, 0.0, "all", seed=11, chain_id=r) for r, g in enumerate(gs)]
            expected = []
            for chain in chains:
                chain.rng = _TopEdgeGenerator()
                expected.append(chain.colors.copy())
                expected[-1][n - 1] = kappa
            mc._run_stack(chains, [], gs, 0, 1, 1, energies)
            for chain, colors in zip(chains, expected):
                assert np.array_equal(chain.colors, colors)

    @pytest.mark.parametrize("n, kappa", [(2, 2), (6, 3), (12, 3), (192, 3)])
    def test_swap_proposes_last_rank(self, n, kappa):
        g = core.CouplingMatrix.from_seed(n, 35)
        new, ref = (mc.ChainState.start(g, kappa, 0.0, "balanced", seed=12) for _ in range(2))
        new.rng = ref.rng = _TopEdgeGenerator()
        colors = new.colors.copy()
        own = [np.flatnonzero(colors == b).tolist() for b in range(1, kappa + 1)]
        last = own[kappa - 1][-1] if colors[n - 1] != kappa else own[kappa - 2][-1]
        assert swap_partner(colors, kappa, n - 1, n - n // kappa - 1) == last
        # every proposal pairs site n - 1 with the last rank, and beta = 0 accepts it
        mc.run_sweeps(new, g, 1)
        reference_swap_sweep(ref, g)
        assert_same_chain(new, ref)

    @pytest.mark.parametrize("n, kappa", [(2, 2), (6, 3), (12, 3), (192, 3)])
    def test_swap_lockstep_proposes_last_rank(self, n, kappa, monkeypatch):
        gs = [core.CouplingMatrix.from_seed(n, 35, r) for r in range(3)]
        for on in (True, False):
            force_lockstep(monkeypatch, on)
            stacked, alone = ([mc.ChainState.start(g, kappa, 0.0, "balanced", seed=12, chain_id=r)
                               for r, g in enumerate(gs)] for _ in range(2))
            for chain in stacked + alone:
                chain.rng = _TopEdgeGenerator()
            mc._run_stack(stacked, [], gs, 0, 1, 1, energies)
            for a, b, g in zip(stacked, alone, gs):
                step_alone(b, g)
                assert np.array_equal(a.colors, b.colors) and a.energy == b.energy


class TestMetropolis:
    def test_infinite_temperature_site_marginals_uniform(self):
        g = core.CouplingMatrix.from_seed(5, 1)
        chain = mc.ChainState.start(g, 3, 0.0, "all", seed=7)
        # sweeps that end with each site at each color
        counts = (mc.run_sweeps(chain, g, 10000, configurations)[0][:, :, None] == np.arange(3)).sum(axis=0)
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

    def test_matches_exact_state_distribution(self):
        g = core.CouplingMatrix.from_seed(4, 12)
        kappa, beta = 2, 0.9
        colors, probs = exact_gibbs_weights(g, kappa, beta, "all")
        chain = mc.ChainState.start(g, kappa, beta, "all", seed=4)
        mc.run_sweeps(chain, g, 500)
        n_batches, per_batch = 50, 800
        visited = mc.run_sweeps(chain, g, n_batches * per_batch, configurations)[0]
        batch_fracs = visit_counts(visited, colors, n_batches) / per_batch
        emp = batch_fracs.mean(axis=0)
        se = batch_fracs.std(axis=0, ddof=1) / math.sqrt(n_batches)
        # batch means absorb the sweep-to-sweep autocorrelation
        assert np.all(np.abs(emp - probs) <= 3 * se + 1e-4)


class TestSwap:
    def test_conserves_magnetization(self):
        g = core.CouplingMatrix.from_seed(6, 5)
        chain = mc.ChainState.start(g, 3, 1.5, "balanced", seed=2)
        target = np.bincount(chain.colors - 1, minlength=3).copy()
        for colors in mc.run_sweeps(chain, g, 2000, configurations)[0]:
            assert np.array_equal(np.bincount(colors, minlength=3), target)

    def test_conserves_magnetization_over_a_million_moves(self):
        g = core.CouplingMatrix.from_seed(20, 55)
        chain = mc.ChainState.start(g, 2, 0.8, "balanced", seed=56)
        target = np.bincount(chain.colors - 1, minlength=2).copy()
        for block in range(100):
            mc.run_sweeps(chain, g, 500)  # 100 * 500 sweeps * 20 proposals = 1e6 moves
            assert np.array_equal(np.bincount(chain.colors - 1, minlength=2), target)

    def test_uniform_over_balanced_at_infinite_temperature(self):
        g = core.CouplingMatrix.from_seed(4, 9)
        chain = mc.ChainState.start(g, 2, 0.0, "balanced", seed=3)
        colors = config_array(4, 2, "balanced")
        (visits,) = visit_counts(mc.run_sweeps(chain, g, 30000, configurations)[0], colors)
        assert chisquare(visits).pvalue > 0.001

    def test_detailed_balance_matrix(self):
        g = core.CouplingMatrix.from_seed(4, 6)
        _, energies, P = single_proposal_kernel(g, 2, 1.1, "balanced")
        pi = np.exp(1.1 * (energies - energies.max()))
        pi /= pi.sum()
        flow = pi[:, None] * P
        assert np.abs(flow - flow.T).max() < 1e-10

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
        mc.run_sweeps(ladder, g, 50)
        assert ladder.swap_accepts[0] == ladder.swap_attempts[0] == 50

    def test_rung_marginals_match_exact(self):
        g = core.CouplingMatrix.from_seed(4, 15)
        betas = [0.4, 1.0]
        ladder = mc.TemperingLadder.start(g, 2, betas, "all", seed=6)
        mc.run_sweeps(ladder, g, 500)
        colors, probs_hot = exact_gibbs_weights(g, 2, betas[0], "all")
        _, probs_cold = exact_gibbs_weights(g, 2, betas[1], "all")
        sweeps = 30000
        visits = np.vstack([visit_counts(rung, colors) for rung in mc.run_sweeps(ladder, g, sweeps, configurations)])
        assert chisquare(visits[0], probs_hot * sweeps).pvalue > 0.001
        assert chisquare(visits[1], probs_cold * sweeps).pvalue > 0.001

    def test_at_most_256_rungs(self):
        # rung k of ladder l runs chain (l << 8) | k: rung 256 of ladder 0 would be rung 0 of ladder 1
        g = core.CouplingMatrix.from_seed(2, 2)
        assert len(mc.TemperingLadder.start(g, 2, [1.0] * 256, "all", seed=1).rungs) == 256
        with pytest.raises(ValueError, match="at most 256 rungs"):
            mc.TemperingLadder.start(g, 2, [1.0] * 257, "all", seed=1)

    def test_needs_two_rungs(self, tmp_path):
        # a 1-rung ladder used to start, save and load, and was refused only at its first step
        g = core.CouplingMatrix.from_seed(4, 2)
        for betas in ([0.5], []):
            with pytest.raises(ValueError, match="at least 2 rungs"):
                mc.TemperingLadder.start(g, 2, betas, "all", seed=1)
        payload = json.loads(PINNED_CHECKPOINTS["ladder"])
        payload.update(rungs=payload["rungs"][:1], swap_attempts=[], swap_accepts=[])
        path = tmp_path / "one-rung.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="at least 2 rungs"):
            mc.load_ladder(str(path))


class TestEstimators:
    def test_zero_temperature_routes_to_ground_state(self):
        spec = dict(
            n=6, beta=math.inf, kappa=2, replicas=8, seed=9
        )
        (est,) = mc.estimate_tail(epsilon=0.25, **spec)
        # oracle: direct uniform-over-maximizers average per replica
        vals = []
        for r in range(8):
            rows = maximizers(core.CouplingMatrix.from_seed(6, 9, r), 2)
            dev = np.abs(np.stack([(rows == a).sum(axis=1) for a in (1, 2)], axis=1) / 6 - 0.5).max(axis=1)
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

    def test_one_rung_ladder_fails_before_compute(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("a ladder was started")

        monkeypatch.setattr(mc.TemperingLadder, "start", never)
        with pytest.raises(ValueError, match="at least 2 rungs"):
            mc.estimate_tail(4, 2.0, 0.25, replicas=2, ladder=(2.0,))

    @pytest.mark.parametrize("ladder", [(), (0.0, 0.5, 1.0)])
    def test_records_independent_of_lockstep_and_workers(self, ladder, monkeypatch):
        spec = dict(n=6, beta=1.0, kappa=2, replicas=6, sweeps=150, burn_in=20, thinning=2, seed=15, ladder=ladder)
        records = []
        for lockstep in (True, False):  # every stack in lockstep, then none
            monkeypatch.setattr(mc, "_lockstep", lambda *stack, on=lockstep: on)
            for workers in (1, 2):
                records.append(mc.estimate_tail(epsilon=(0.25, 0.5), workers=workers, **spec))
        assert all(r == records[0] for r in records)

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
        assert res.stderr == 0.0 and res.quad_error == 0.0  # the general path: a grid of zeros, each weight 0

    def test_matches_exact_at_small_n(self):
        g = core.CouplingMatrix.from_seed(6, 21)
        res = mc.free_energy_ti(g, 3, 1.0, 9, "balanced", "centered", seed=2, sweeps=1500, burn_in=300)
        target = exact.log_partition(g, 1.0, 3, "balanced", "centered").free_energy
        assert abs(res.value - target) <= 3 * res.stderr + res.quad_error + 1e-3

    @pytest.mark.parametrize("n, kappa, sector", [(9, 3, "balanced"), (12, 4, "balanced"), (6, 2, "all")])
    def test_records_independent_of_lockstep(self, n, kappa, sector, monkeypatch):
        g = core.CouplingMatrix.from_seed(n, 22)
        ladders, start = [], mc.TemperingLadder.start

        def keep(*args, **kwargs):
            ladders.append(start(*args, **kwargs))
            return ladders[-1]

        monkeypatch.setattr(mc.TemperingLadder, "start", keep)
        runs = []
        for lockstep in (True, False):  # the grid's ladder in one stack, then rung by rung
            monkeypatch.setattr(mc, "_lockstep", lambda *stack, on=lockstep: on)
            runs.append(mc.free_energy_ti(g, kappa, 1.5, 13, sector, seed=4, sweeps=230, burn_in=20))
        a, b = runs
        assert (a.value, a.stderr, a.quad_error, a.flagged, a.swap_rates) == (
            b.value, b.stderr, b.quad_error, b.flagged, b.swap_rates)
        assert len(a.swap_rates) == 12 and 0.0 < min(a.swap_rates)
        for name in ("grid", "energy_means", "energy_stderrs"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        TestKernelsMatchReference.assert_same_ladders(ladders[:1], ladders[1:])
        assert ladders[0].swap_attempts.tolist() == [250] * 12

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
            mc.run_sweeps(chain, g, mc.AUDIT_INTERVAL)
        assert chain.sweeps == mc.AUDIT_INTERVAL  # caught by the first audit, not before

    def test_energy_audit_catches_corruption_in_lockstep(self, monkeypatch):
        gs = [core.CouplingMatrix.from_seed(4, 4, r) for r in range(3)]
        for on in (True, False):  # in lockstep, then row by row
            force_lockstep(monkeypatch, on)
            chains = [mc.ChainState.start(g, 2, 0.5, "all", seed=1, chain_id=r) for r, g in enumerate(gs)]
            chains[1].energy += 1.0  # simulate drift in one chain of the stack
            with pytest.raises(RuntimeError, match="drifted"):
                mc._run_stack(chains, [], gs, 0, mc.AUDIT_INTERVAL, 1, energies)  # one block, ended by the audits
            assert [c.sweeps for c in chains] == [mc.AUDIT_INTERVAL] * 2 + [mc.AUDIT_INTERVAL - 1]

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
        mc.run_sweeps(ladder, g, 11)
        path = str(tmp_path / "ladder.json")
        mc.save_checkpoint(ladder, path)
        restored = mc.load_ladder(path)
        mc.run_sweeps(ladder, g, 1)
        mc.run_sweeps(restored, g, 1)
        for a, b in zip(ladder.rungs, restored.rungs):
            assert np.array_equal(a.colors, b.colors)
            assert a.energy == b.energy
        assert np.array_equal(ladder.swap_accepts, restored.swap_accepts)

    @pytest.mark.parametrize("count", [0, -1])
    def test_run_sweeps_needs_a_sweep(self, count, tmp_path):
        # a count below 1 used to return silently
        g = core.CouplingMatrix.from_seed(4, 8)
        for state in (mc.ChainState.start(g, 2, 0.5, "all", seed=1),
                      mc.TemperingLadder.start(g, 2, [0.3, 0.9], "all", seed=3)):
            before, after = tmp_path / "before.json", tmp_path / "after.json"
            mc.save_checkpoint(state, str(before))
            with pytest.raises(ValueError, match="sweeps >= 1"):
                mc.run_sweeps(state, g, count)
            mc.save_checkpoint(state, str(after))
            assert after.read_text() == before.read_text()  # refused before any draw

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
        # a fractional sweep count used to load and switch off the energy audit
        pytest.param("chain", {"sweeps": 1.5}, "sweeps must be a nonnegative integer", id="sweeps-fraction"),
        # used to raise TypeError
        pytest.param("chain", {"sweeps": "7"}, "sweeps must be a nonnegative integer", id="sweeps-string"),
        pytest.param("chain", {"sweeps": True}, "sweeps must be a nonnegative integer", id="sweeps-bool"),
        pytest.param("chain", {"sweeps": -1}, "sweeps must be a nonnegative integer", id="sweeps-negative"),
        # used to load as [1, 1, 3, 3, 2]: the int64 cast truncated it
        pytest.param("chain", {"colors": [1.5, 1, 3, 3, 2]}, "colors must be integers", id="colors-fraction"),
        # short counters used to raise IndexError only at the ladder's first step
        pytest.param("ladder", {"swap_attempts": [4]}, "needs 2 swap counters", id="attempts-short"),
        pytest.param("ladder", {"swap_accepts": [3, 2, 0]}, "needs 2 swap counters", id="accepts-long"),
        # used to load as [4, 4] and [3, 3]: the int64 cast truncated them
        pytest.param("ladder", {"swap_attempts": [4.5, 4]}, "0 <= accepts <= attempts", id="attempts-fraction"),
        pytest.param("ladder", {"swap_accepts": [3.9, 3]}, "0 <= accepts <= attempts", id="accepts-fraction"),
        # used to load, and to report a negative or above-one swap rate
        pytest.param("ladder", {"swap_accepts": [-1, 3]}, "0 <= accepts <= attempts", id="accepts-negative"),
        pytest.param("ladder", {"swap_attempts": [-4, 4]}, "0 <= accepts <= attempts", id="attempts-negative"),
        pytest.param("ladder", {"swap_accepts": [5, 3]}, "0 <= accepts <= attempts", id="accepts-above-attempts"),
        # a top rung unlike the others used to load; a balanced one ended in IndexError in the swap sweep
        pytest.param("top-rung", {"sector": "balanced", "colors": [1, 2, 1, 2]}, "must share",
                     id="top-rung-balanced"),
        pytest.param("top-rung", {"kappa": 3}, "must share", id="top-rung-kappa-3"),
        pytest.param("top-rung", {"colors": [2, 1, 2]}, "must share", id="top-rung-n-3"),
        # used to load; a run's draw blocks end at the first rung's audits, so the top one's were skipped
        pytest.param("top-rung", {"sweeps": 5}, "must share", id="top-rung-sweeps"),
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
        state, sweeps = mc.TemperingLadder.start(g, 2, [0.2, 0.6, 1.0], "all", seed=3, ladder_id=2), 4
    elif name == "chain-all":
        g = core.CouplingMatrix.from_seed(5, 2)
        state, sweeps = mc.ChainState.start(g, 3, 0.7, "all", seed=2, chain_id=1), 7
    else:
        g = core.CouplingMatrix.from_seed(6, 4)
        # past the first audit, so the saved energy is a running sum on an audited one
        state, sweeps = mc.ChainState.start(g, 3, 1.1, "balanced", seed=4, chain_id=0), mc.AUDIT_INTERVAL + 3
    mc.run_sweeps(state, g, sweeps)
    return state, lambda state: mc.run_sweeps(state, g, 1)


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
