"""The benchmark's workloads: the operations one repeat runs, in order.

An op is either a CLI call (argv handed to ``basslab.cli.main`` with an
``--out`` path appended) or a library call. A library call returns
``(t, f, per_node)`` and the worker saves it as ``<name>.npy``. Library
calls reach the package through module attributes at call time, so spans
that the tracer installs by rebinding those attributes see them.

Only the simulator and ``verify`` take a seed; ``exact_scale`` runs
deterministic solvers, so its inputs are the same for every seed.

``warmup_ops`` is a smaller run of the same code paths. The worker runs it
once before the timed repeats, so one-off costs (the first call into each
module, first use of the allocator's pages) stay out of the timed repeats.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

P = 0.01          # intrinsic rate used by every workload (the CLI default)
Q = 0.1           # influence rate (the CLI default)
Q_LARGE = 0.45    # q/p = 45: the closed form's coefficients cancel badly here
# just off the q = 2p resonance, outside the 1e-9 degeneracy tolerance
Q_RESONANT = 2 * P * (1 + 2e-9)
HYBRID_RAY = 30
# fig12 at half its default 4000 trials: still many trials on small graphs,
# and a repeat takes about 9 s, so two warm repeats fit in a run
LATTICE_TRIALS = 2000

WORKLOADS = ("sim_lattice", "sim_torus_large", "exact_scale", "verify_all")


@dataclass(frozen=True)
class Op:
    name: str
    argv: tuple[str, ...] | None = None       # CLI op; "--out <out>" is appended
    out: str | None = None                    # CLI output path, relative to the repeat dir
    call: Callable | None = None              # library op: call(basslab) -> (t, f, per_node)
    params: tuple = ()                        # (M, q, kind) of an exact_scale op, for its check


def _exact(build):
    def call(b):
        t = b.analytic.default_time_grid(P, Q)
        curve = b.oracle.exact_f(build(b), t)
        return curve.t, curve.f, curve.per_node
    return call


def _line(sided: str, q: float, M: int):
    def call(b):
        t = b.analytic.default_time_grid(P, q)
        fn = b.analytic.f_line_one_sided if sided == "one" else b.analytic.f_line_two_sided
        per_node, f, _source = fn(t, P, q, M)
        return t, f, per_node
    return call


def _cli(name: str, argv: str, out: str | None = None, params: tuple = ()) -> Op:
    return Op(name=name, argv=tuple(argv.split()), out=out or f"{name}.csv", params=params)


def ops(workload: str, seed: int) -> list[Op]:
    if workload == "sim_lattice":
        return [_cli("fig12", f"simulate --preset fig12 --trials {LATTICE_TRIALS} --seed {seed}", out="fig12")]
    if workload == "sim_torus_large":
        return [
            _cli(f"torus32_{sided}",
                 f"simulate --topology grid -D 2 --side 32 --periodic --sided {sided} "
                 f"--trials 200 --seed {seed}")
            for sided in ("one", "two")
        ]
    if workload == "exact_scale":
        out = [
            _cli("line_two_60", "analytic --topology line --sided two -M 60", params=(60, Q, "two")),
            _cli("line_one_60", "analytic --topology line --sided one -M 60", params=(60, Q, "one")),
            _cli("hybrid_60", f"analytic --topology hybrid -M 60 --ray {HYBRID_RAY}",
                 params=(60, Q, "hybrid")),
            Op("exact_line_two_16", call=_exact(lambda b: b.network.build_line(16, P, Q, sided="two")),
               params=(16, Q, "two")),
            Op("exact_torus_4x4", call=_exact(lambda b: b.network.build_grid(2, 4, P, Q, periodic=True)),
               params=(16, Q, "torus")),
            Op("exact_circle_18", call=_exact(lambda b: b.network.build_circle(18, P, Q)),
               params=(18, Q, "circle")),
        ]
        for M in (8, 12, 16):
            for tag, q in (("large", Q_LARGE), ("resonant", Q_RESONANT)):
                out.append(_cli(f"sweep_circle_{M}_{tag}",
                                f"analytic --topology circle -M {M} -q {q!r}",
                                params=(M, q, "circle")))
        for q in (Q, Q_LARGE):
            for sided in ("one", "two"):
                out.append(Op(f"sweep_line_{sided}_16_q{q}", call=_line(sided, q, 16),
                              params=(16, q, sided)))
        return out
    if workload == "verify_all":
        return [_cli("verify", f"verify --suite all --seed {seed}", out="verify.json")]
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


def warmup_ops(workload: str, seed: int) -> list[Op]:
    if workload == "sim_lattice":
        return [_cli("fig12", f"simulate --preset fig12 --trials 20 --seed {seed}", out="fig12")]
    if workload == "sim_torus_large":
        return [Op(op.name, argv=(*op.argv, "--trials", "2"), out=op.out)
                for op in ops(workload, seed)]
    if workload == "exact_scale":
        return [
            _cli("line_two", "analytic --topology line --sided two -M 12"),
            _cli("line_one", "analytic --topology line --sided one -M 12"),
            _cli("hybrid", "analytic --topology hybrid -M 12 --ray 6"),
            Op("exact_line_two", call=_exact(lambda b: b.network.build_line(8, P, Q, sided="two"))),
            Op("exact_torus", call=_exact(lambda b: b.network.build_grid(2, 3, P, Q, periodic=True))),
            Op("exact_circle", call=_exact(lambda b: b.network.build_circle(8, P, Q))),
            *(op for op in ops(workload, seed) if op.name.startswith("sweep_")),
        ]
    if workload == "verify_all":
        return [_cli("verify", f"verify --suite all --trials 100 --seed {seed}", out="verify.json")]
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
