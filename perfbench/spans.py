"""Spans around basslab's public functions, installed from outside the package.

``install(tracer)`` replaces each traced function by a wrapper in every
loaded ``basslab`` module that holds a reference to it. Because calls inside
the package look names up in their module's globals, calls the package makes
to itself are captured too: ``run_event_driven`` calling
``curve_from_times``, or ``cli`` calling ``f_circle``.

Spans nest. A span's self time is its duration minus the time of the spans
it encloses, so every second lands in exactly one span, the innermost one.
Spans of one group (for example all circle solvers) add up by self time, so
a group that calls itself is not counted twice.
"""
from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self._stack: list[list[float]] = []   # per open span: [time spent in child spans]
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: defaultdict[str, float] = defaultdict(float)

    def span(self, group: str, fn, on_return=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._stack.pop()
                self.self_s[group] += dt - frame[0]
                self.calls[group] += 1
                if self._stack:
                    self._stack[-1][0] += dt
            if on_return is not None:
                on_return(self.counts, out, args, kwargs)
            return out
        return wrapper

    def counter(self, key: str, fn):
        """Count calls without a span: for small functions called many times,
        whose time stays in the caller's span."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_network(counts, net, _args, _kwargs):
    counts["network.nodes"] += net.n
    counts["network.edges"] += len(net.edges)
    counts["network.dense_mb"] += net.n * net.n * 8 / 2**20


def _count_event(counts, _out, args, kwargs):
    net = _arg(args, kwargs, 0, "net")
    config = args[1] if len(args) > 1 else kwargs.get("config")
    if config is None:
        from basslab.simulator import SimConfig
        config = SimConfig()
    counts["simulator.trial_nodes"] += config.trials * net.n


def _count_coupled(counts, report, args, kwargs):
    net = _arg(args, kwargs, 0, "net_a")
    counts["simulator.coupled_cells"] += report["trials"] * report["steps"] * net.n * 2


def _count_master(counts, _out, args, kwargs):
    counts["oracle.calls"] += 1
    counts["oracle.states"] += 2 ** _arg(args, kwargs, 0, "net").n


def _count_route(counts, out, _args, _kwargs):
    counts[f"analytic.route.{out[1]}"] += 1


def _count_bytes(counts, _out, args, kwargs):
    target = _arg(args, kwargs, 0, "path_or_file")
    if isinstance(target, (str, os.PathLike)):
        counts["curves.bytes_written"] += os.path.getsize(target)


# (module, function, span group, hook reading the call's result)
SPANS = (
    ("network", "build_circle", "network.build", _count_network),
    ("network", "build_line", "network.build", _count_network),
    ("network", "build_grid", "network.build", _count_network),
    ("network", "build_hybrid_circle_ray", "network.build", _count_network),
    ("simulator", "run_event_driven", "simulator.event", _count_event),
    ("simulator", "curve_from_times", "simulator.aggregate", None),
    ("simulator", "run_coupled", "simulator.coupled", _count_coupled),
    ("oracle", "build_generator", "oracle.generator", None),
    ("oracle", "solve_master", "oracle.solve", _count_master),
    ("oracle", "exact_f", "oracle.solve", None),
    ("oracle", "survival", "oracle.solve", None),
    ("analytic", "f_circle", "analytic.circle", None),
    ("analytic", "survival_circle", "analytic.circle", _count_route),
    ("analytic", "f_line_one_sided", "analytic.line", None),
    ("analytic", "f_line_two_sided", "analytic.line", None),
    ("analytic", "pair_survival_two_sided_line", "analytic.line", None),
    ("analytic", "f_hybrid", "analytic.hybrid", None),
    ("analytic", "alpha_diag", "analytic.diag", None),
    ("analytic", "beta_diag", "analytic.diag", None),
    ("analytic", "gamma_diag", "analytic.diag", None),
    ("analytic", "nu_diag", "analytic.diag", None),
    ("analytic", "psi_diag", "analytic.diag", None),
    ("principles", "figure_plan", "principles.indifference", None),
    ("principles", "verify_indifference", "principles.indifference", None),
    ("principles", "dominance_pairs", "principles.dominance", None),
    ("principles", "oracle_dominance_report", "principles.dominance", None),
    ("curves", "write_curve_csv", "curves.write", _count_bytes),
    ("cli", "main", "cli", None),
)
# (module, attribute, count key): counted, not timed
COUNTERS = (
    ("principles", "classify_edge", "principles.classify_calls"),
    ("analytic", "solve_ivp", "analytic.ode_calls"),   # every ODE solve in the analytic layer
)


def _rebind(original, wrapper, modules) -> None:
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)


def install(tracer: Tracer) -> None:
    import basslab

    package = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "basslab" or name.startswith("basslab."))]
    for module, attr, group, hook in SPANS:
        mod = getattr(basslab, module)
        original = getattr(mod, attr)
        _rebind(original, tracer.span(group, original, hook), package)
    for module, attr, key in COUNTERS:
        mod = getattr(basslab, module)
        # solve_ivp is scipy's: rebind it only where this layer looks it up
        _rebind(getattr(mod, attr), tracer.counter(key, getattr(mod, attr)), [mod])
