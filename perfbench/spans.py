"""Outside-in layer spans over the public functions of ``pottsglass``.

:func:`install` replaces selected public functions with wrappers that time
each call and read work counts from its arguments and result, never from
program internals.  A wrapper is installed in every module namespace that
holds the original function under the same name (``exact`` and
``montecarlo`` import ``config_array`` and ``batch_energies_raw`` by name
from ``core``), and ``CouplingMatrix.from_seed`` is re-wrapped as a
classmethod.

Each layer's time is self time: the span's duration minus the durations of
the wrapped calls made inside it.  Time spent in functions that are not
wrapped lands in the nearest wrapped caller, so the self times of all layers
add up to the time spent inside ``cli.main``.  Spans are aggregated per layer
in memory; nothing is written while the jobs run.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

import numpy as np

# Public engines of ``exact`` whose self time is the ``exact.engines`` layer.
EXACT_ENGINES = (
    "log_partition",
    "quenched_free_energy",
    "second_moment_ratio",
    "uncentered_ratio",
    "shell_histogram",
    "gauge_pair_check",
    "magnetization_moment_exact",
    "ldp_log_probability",
    "log_overlap_law",
)


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


class Tracer:
    """Per-layer self time and work counts for one process."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.size_s = defaultdict(float)  # sweep self time per system size
        self.sector_keys = set()
        self.missing = []
        self._stack = []  # one child-time accumulator per open span

    def wrap(self, fn, layer, after=None, before=None):
        """Return ``fn`` timed as ``layer``.

        ``before(args, kwargs)`` runs outside the span and its value reaches
        ``after(token, args, kwargs, result, self_s)``, which records counts.
        """
        stack = self._stack
        self_s = self.self_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = before(args, kwargs) if before else None
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                own = elapsed - children[0]
                self_s[layer] += own
            if after:
                after(token, args, kwargs, result, own)
            return result

        return wrapper

    # -- count readers ----------------------------------------------------

    def _count(self, name, value=1):
        self.counts[name] += value

    def _disorder(self, token, args, kwargs, result, own):
        self._count("core.disorder_draw.calls")

    def _enumerate(self, token, args, kwargs, result, own):
        n, kappa = _arg(args, kwargs, 0, "n"), _arg(args, kwargs, 1, "kappa")
        sector = _arg(args, kwargs, 2, "constraint", "all")
        if not isinstance(sector, (str, type(None))):
            sector = tuple(np.asarray(getattr(sector, "counts", sector)).tolist())
        self.sector_keys.add((int(n), int(kappa), sector))
        self._count("core.enumerate.calls")
        self._count("core.enumerate.states", int(len(result)))

    def _energy_kernel(self, token, args, kwargs, result, own):
        m, n = np.shape(_arg(args, kwargs, 0, "colors"))
        self._count("core.energy_kernel.states", m)
        # The mask matmul multiplies an (m, n*n) float64 mask by n*n couplings.
        self._count("core.energy_kernel.flops_computed", 2 * m * n * n)
        self._count("core.energy_kernel.bytes_computed", 8 * m * n * n)

    def _logsumexp(self, token, args, kwargs, result, own):
        self._count("exact.logsumexp.calls")
        self._count("exact.logsumexp.elems", int(np.size(_arg(args, kwargs, 0, "a"))))

    def _admissible(self, token, args, kwargs, result, own):
        self._count("exact.admissible.tables", int(len(result)))

    def _exponent_gap(self, token, args, kwargs, result, own):
        self._count("rate.exponent_gap.iterations", int(result.iterations))

    def _calls(self, name):
        return lambda token, args, kwargs, result, own: self._count(name)

    def _sweep(self, kind):
        def after(token, args, kwargs, result, own):
            n = int(_arg(args, kwargs, 0, "state").n)
            self._count(f"montecarlo.{kind}.proposals", n)
            self._count(f"montecarlo.{kind}.n{n}.proposals", n)
            self.size_s[f"montecarlo.{kind}.n{n}.s"] += own
        return after

    @staticmethod
    def _ladder_counters(args, kwargs):
        ladder = _arg(args, kwargs, 0, "ladder")
        return int(ladder.swap_attempts.sum()), int(ladder.swap_accepts.sum())

    def _tempering(self, token, args, kwargs, result, own):
        attempts, accepts = self._ladder_counters(args, kwargs)
        self._count("montecarlo.tempering.steps")
        self._count("montecarlo.tempering.swap_attempts", attempts - token[0])
        self._count("montecarlo.tempering.swap_accepts", accepts - token[1])

    def _render(self, token, args, kwargs, result, own):
        self._count("cli.render.bytes", len(result.encode()))

    # -- installation -----------------------------------------------------

    def install(self, modules):
        """Wrap the layer functions in every module namespace of ``modules``."""
        core, exact, rate, mc, cli = (modules[k] for k in ("core", "exact", "rate", "montecarlo", "cli"))
        targets = [  # (module, function, layer, count reader)
            (core, "config_array", "core.enumerate", self._enumerate),
            (core, "batch_energies_raw", "core.energy_kernel", self._energy_kernel),
            (exact, "logsumexp", "exact.logsumexp", self._logsumexp),
            (exact, "admissible_array", "exact.admissible", self._admissible),
            *((exact, name, "exact.engines", None) for name in EXACT_ENGINES),
            (rate, "exponent_gap", "rate.exponent_gap", self._exponent_gap),
            (rate, "margin_fit", "rate.margin_fit", self._calls("rate.margin_fit.calls")),
            (rate, "dense_grid_minimum", "rate.dense_grid", None),
            (rate, "local_expansion_check", "rate.local_expansion_check",
             self._calls("rate.local_expansion_check.calls")),
            (mc, "metropolis_sweep", "montecarlo.metropolis", self._sweep("metropolis")),
            (mc, "swap_sweep", "montecarlo.swap", self._sweep("swap")),
            (mc, "tempering_step", "montecarlo.tempering", self._tempering),
            (mc, "estimate_tail", "montecarlo.estimators", None),
            (mc, "free_energy_ti", "montecarlo.estimators", None),
            (cli, "rows_for_spec", "cli.handler", None),
            (cli, "render_output", "cli.render", self._render),
            (cli, "main", "cli.main", None),
        ]
        for module, name, layer, after in targets:
            original = getattr(module, name, None)
            if original is None:
                self.missing.append(f"{module.__name__}.{name}")
                continue
            before = self._ladder_counters if name == "tempering_step" else None
            wrapped = self.wrap(original, layer, after, before)
            for mod in modules.values():
                if getattr(mod, name, None) is original:
                    setattr(mod, name, wrapped)
        handlers = getattr(cli, "_HANDLERS", None)
        if handlers is None:
            self.missing.append("pottsglass.cli._HANDLERS")
        else:
            for command, fn in handlers.items():
                handlers[command] = self.wrap(fn, "cli.handler")
        matrix = getattr(core, "CouplingMatrix", None)
        if matrix is None or not hasattr(matrix, "from_seed"):
            self.missing.append("pottsglass.core.CouplingMatrix.from_seed")
        else:
            draw = matrix.__dict__["from_seed"].__func__
            matrix.from_seed = classmethod(self.wrap(draw, "core.disorder_draw", self._disorder))
        return self

    # -- reporting --------------------------------------------------------

    def layer_values(self) -> dict:
        """Flat per-layer values of this process: self times and counts."""
        out = {f"{layer}.s": s for layer, s in self.self_s.items()}
        out["trace.self_s"] = sum(self.self_s.values())
        out.update(self.size_s)
        out.update(self.counts)
        out["core.enumerate.distinct_sectors"] = len(self.sector_keys)
        return out
