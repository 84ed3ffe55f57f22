"""Command-line interface.

Three subcommands:

* analytic  - exact adoption curves to CSV;
* simulate  - Monte Carlo curves to CSV (single runs or named presets);
* verify    - structural verification suites, JSON report, exit code 0 iff
              everything passed.

Flags can also come from a JSON config file (--config); a key set both in
the file and on the command line with different values is an error unless
--override is given, in which case the command line wins. Reruns with the
same inputs and seed produce byte-identical outputs. BASSLAB_THREADS caps
the number of worker processes used for independent runs inside one
command.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .analytic import (
    alpha_diag,
    beta_diag,
    default_time_grid,
    f_circle,
    f_hybrid,
    f_line_one_sided,
    f_line_two_sided,
    gamma_diag,
    nu_from_node_survivals,
    psi_diag,
)
from .curves import AdoptionCurve, write_curve_csv
from .network import Network, build_circle, build_grid, build_hybrid_circle_ray, build_line
from .principles import (
    FIGURE_PLAN_NAMES,
    PlanCase,
    dominance_pairs,
    figure_plan,
    oracle_dominance_report,
    verify_indifference,
)
from .simulator import (
    DEFAULT_GRID_POINTS,
    DEFAULT_TRIALS,
    SimConfig,
    curve_from_times,
    run_coupled,
    run_discrete,
    run_event_driven,
)

SIMULATE_PRESETS = ("fig5", "fig11", "fig12")
SUITES = ("indifference", "appendix", "dominance", "all")

@dataclass
class RunSpec:
    command: str
    topology: str = "circle"
    sided: str = "one"
    M: int = 6
    D: int = 2
    side: int = 6
    p: float = 0.01
    q: float = 0.1
    periodic: bool = False
    ray: int = 3
    trials: int = DEFAULT_TRIALS
    seed: int = 0
    scheme: str = "event"
    dt: float | None = None
    t_max: float | None = None
    grid: int = DEFAULT_GRID_POINTS
    out: str | None = None
    suite: str = "all"
    preset: str | None = None
    per_node: bool = False


# the RunSpec fields each command accepts, from the command line or --config
_COMMON_KEYS = ("p", "q", "t_max", "out")
_TOPOLOGY_KEYS = ("topology", "sided", "M", "D", "side", "periodic", "ray", "grid")
_RUN_KEYS = ("trials", "seed", "dt", "preset")
DEFAULTS = {
    command: {f.name: f.default for f in fields(RunSpec) if f.name in keys}
    for command, keys in (
        ("analytic", _COMMON_KEYS + _TOPOLOGY_KEYS),
        ("simulate", _COMMON_KEYS + _TOPOLOGY_KEYS + _RUN_KEYS + ("scheme", "per_node")),
        ("verify", _COMMON_KEYS + _RUN_KEYS + ("suite",)),
    )
}


_FIELD_TYPES = typing.get_type_hints(RunSpec)
_TYPE_NAMES = {bool: "true or false", int: "an integer", float: "a number", str: "a string"}


def _config_value(key: str, value):
    """A --config value checked against its flag's type; a JSON integer
    passes for a number flag and becomes a float, as on the command line."""
    kinds = typing.get_args(_FIELD_TYPES[key]) or (_FIELD_TYPES[key],)
    if value is None and type(None) in kinds:
        return value
    kind = kinds[0]
    accepted = (int, float) if kind is float else kind
    # bool is an int subclass: true/false pass only for switches
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted):
        raise SystemExit(f"--config value for {key!r} must be {_TYPE_NAMES[kind]}, got {value!r}")
    return float(value) if kind is float else value


class _JSONEncoder(json.JSONEncoder):
    def default(self, o):
        if isinstance(o, np.ndarray):
            return o.tolist()
        if isinstance(o, (np.floating, np.integer)):
            return o.item()
        return super().default(o)


def _worker_count(n_tasks: int) -> int:
    env = os.environ.get("BASSLAB_THREADS", "")
    try:
        cap = int(env) if env else 1
    except ValueError:
        raise SystemExit(f"BASSLAB_THREADS must be an integer, got {env!r}")
    return max(1, min(n_tasks, cap))


def _run_tasks(tasks: list[tuple[str, functools.partial]]) -> dict:
    """Run (name, thunk) pairs, possibly in worker processes; results keyed
    by name so output order never depends on scheduling."""
    workers = _worker_count(len(tasks))
    if workers == 1:
        return {name: fn() for name, fn in tasks}
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [(name, pool.submit(fn)) for name, fn in tasks]
        return {name: fut.result() for name, fut in futures}


def _time_grid(spec: RunSpec) -> np.ndarray:
    if spec.grid < 2:
        raise SystemExit("--grid must be at least 2 points")
    if spec.t_max is not None:
        return np.linspace(0.0, spec.t_max, spec.grid)
    return default_time_grid(spec.p, spec.q, points=spec.grid)


def _build_network(spec: RunSpec) -> Network:
    if spec.topology == "circle":
        return build_circle(spec.M, spec.p, spec.q, sided=spec.sided)
    if spec.topology == "line":
        return build_line(spec.M, spec.p, spec.q, sided=spec.sided)
    if spec.topology == "grid":
        return build_grid(spec.D, spec.side, spec.p, spec.q, sided=spec.sided, periodic=spec.periodic)
    if spec.topology == "hybrid":
        if not 1 <= spec.ray < spec.M:
            raise SystemExit("--ray must be in 1..M-1 for the hybrid topology")
        return build_hybrid_circle_ray(spec.M - spec.ray, spec.ray, spec.p, spec.q)
    raise SystemExit(f"unknown topology {spec.topology!r}")


def _write_csv(curve: AdoptionCurve, out: str | None) -> None:
    if out is None:
        write_curve_csv(sys.stdout, curve)
    else:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        write_curve_csv(out, curve)


# ---------------------------------------------------------------------------
# analytic


def cmd_analytic(spec: RunSpec) -> int:
    t = _time_grid(spec)
    if spec.topology == "circle":
        f, source = f_circle(t, spec.p, spec.q, spec.M)
        curve = AdoptionCurve(t=t, f=f, source=source)
    elif spec.topology == "line":
        if spec.sided == "one":
            per_node, f, source = f_line_one_sided(t, spec.p, spec.q, spec.M)
        else:
            per_node, f, source = f_line_two_sided(t, spec.p, spec.q, spec.M)
        curve = AdoptionCurve(t=t, f=f, source=source, per_node=per_node)
    elif spec.topology == "hybrid":
        if not 1 <= spec.ray < spec.M:
            raise SystemExit("--ray must be in 1..M-1 for the hybrid topology")
        per_node, f, source = f_hybrid(t, spec.p, spec.q, spec.M - spec.ray, spec.ray)
        curve = AdoptionCurve(t=t, f=f, source=source, per_node=per_node)
    else:
        raise SystemExit(
            f"no analytic curve for topology {spec.topology!r}; use `simulate` instead"
        )
    _write_csv(curve, spec.out)
    return 0


# ---------------------------------------------------------------------------
# simulate


def _simulate_network(net: Network, t: np.ndarray, spec: RunSpec) -> AdoptionCurve:
    if spec.scheme not in ("event", "discrete"):
        raise SystemExit(f"unknown scheme {spec.scheme!r}")
    config = SimConfig(trials=spec.trials, base_seed=spec.seed, dt=spec.dt, t_max=float(t[-1]))
    if spec.scheme == "event":
        return run_event_driven(net, config, t_grid=t)
    return curve_from_times(run_discrete(net, config), t)


def _drop_per_node(curve: AdoptionCurve, per_node: bool) -> AdoptionCurve:
    if per_node or curve.per_node is None:
        return curve
    return AdoptionCurve(t=curve.t, f=curve.f, source=curve.source, stderr=curve.stderr)


def _preset_runs(spec: RunSpec) -> list[tuple[str, Network]]:
    if spec.preset == "fig5":
        M, p, q = 6, spec.p, spec.q
        return [
            ("circle_one", build_circle(M, p, q, sided="one")),
            ("circle_two", build_circle(M, p, q, sided="two")),
            ("line_one", build_line(M, p, q, sided="one")),
            ("line_two", build_line(M, p, q, sided="two")),
        ]
    if spec.preset in ("fig11", "fig12"):
        D = 2 if spec.preset == "fig11" else 3
        p, q, side = spec.p, spec.q, 6
        return [
            ("torus_one", build_grid(D, side, p, q, sided="one", periodic=True)),
            ("torus_two", build_grid(D, side, p, q, sided="two", periodic=True)),
            ("box_one", build_grid(D, side, p, q, sided="one", periodic=False)),
            ("box_two", build_grid(D, side, p, q, sided="two", periodic=False)),
        ]
    raise SystemExit(f"unknown preset {spec.preset!r}; known: {', '.join(SIMULATE_PRESETS)}")


def cmd_simulate(spec: RunSpec) -> int:
    t = _time_grid(spec)
    if spec.preset is None:
        net = _build_network(spec)
        curve = _simulate_network(net, t, spec)
        _write_csv(_drop_per_node(curve, spec.per_node), spec.out)
        return 0
    runs = _preset_runs(spec)
    tasks = [
        (name, functools.partial(_simulate_network, net, t, spec)) for name, net in runs
    ]
    results = _run_tasks(tasks)
    out_dir = Path(spec.out) if spec.out is not None else Path(".")
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {"command": "simulate", "preset": spec.preset, "trials": spec.trials,
                "seed": spec.seed, "files": []}
    for name, _net in runs:  # fixed order, independent of scheduling
        path = out_dir / f"{spec.preset}_{name}.csv"
        write_curve_csv(path, _drop_per_node(results[name], spec.per_node))
        manifest["files"].append(str(path))
    with open(out_dir / f"{spec.preset}_manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, cls=_JSONEncoder)
        fh.write("\n")
    return 0


# ---------------------------------------------------------------------------
# verify


def _verify_case(case: PlanCase, t_grid: np.ndarray) -> dict:
    report = verify_indifference(case.network, case.plan, t_grid=t_grid)
    report = {"name": case.name, "label": case.label, "note": case.note, **report}
    # survival series stay out of the report files; gaps summarize them
    for key in ("t", "survival_before", "survival_after"):
        report.pop(key)
    return report


def _suite_indifference(spec: RunSpec) -> dict:
    t_grid = np.linspace(0.0, 30.0, 31)
    cases: list[PlanCase] = []
    for name in FIGURE_PLAN_NAMES:
        cases.extend(figure_plan(name, p=spec.p, q=spec.q))
    tasks = [
        (f"{c.name}:{c.label}", functools.partial(_verify_case, c, t_grid)) for c in cases
    ]
    results = _run_tasks(tasks)
    reports = [results[f"{c.name}:{c.label}"] for c in cases]
    return {"suite": "indifference", "cases": reports,
            "passed": all(r["passed"] for r in reports)}


def _diag_entry(kind: str, k: int, M: int, vals: np.ndarray) -> dict:
    m = float(np.min(vals))
    return {"diagnostic": kind, "k": k, "M": M, "min_value": m, "passed": m > 0}


def _appendix_entry(kind: str, k: int, M: int, p: float, q: float, t: np.ndarray) -> dict:
    if kind == "alpha":
        vals = alpha_diag(t, p, q, k)
    elif kind == "beta":
        vals = beta_diag(t, p, q, k, M)
    elif kind == "gamma":
        vals = gamma_diag(t, p, q, k, M)
    else:
        vals = psi_diag(t, p, q, k, M)
    return _diag_entry(kind, k, M, vals)


def _nu_entries(M: int, p: float, q: float, t: np.ndarray) -> list[dict]:
    """nu(t, k, M) for k = 1..M, as nu_diag gives it, from one solve of
    each line."""
    per_one, _, _ = f_line_one_sided(t, p, q, M)
    per_two, _, _ = f_line_two_sided(t, p, q, M)
    return [
        _diag_entry("nu", k, M, nu_from_node_survivals(1.0 - per_one, 1.0 - per_two, k))
        for k in range(1, M + 1)
    ]


def _suite_appendix(spec: RunSpec) -> dict:
    p, q = spec.p, spec.q
    t = np.linspace(1.5, 30.0, 20)
    jobs: list[tuple[str, int, int]] = []
    jobs += [("alpha", k, 0) for k in range(1, 10)]
    jobs += [("beta", k, M) for M in range(2, 10) for k in range(1, M)]
    jobs += [("gamma", k, M) for M in range(3, 10) for k in range(1, M - 1)]
    jobs += [("nu", k, M) for M in range(2, 10) for k in range(1, M + 1)]
    jobs += [("psi", k, M) for M in range(3, 10) for k in range(2, (M + 1) // 2 + 1)]
    tasks = [
        (f"{kind}:{k}:{M}", functools.partial(_appendix_entry, kind, k, M, p, q, t))
        for kind, k, M in jobs
        if kind != "nu"
    ]
    nu_sizes = sorted({M for kind, _, M in jobs if kind == "nu"})
    tasks += [(f"nu:{M}", functools.partial(_nu_entries, M, p, q, t)) for M in nu_sizes]
    results = _run_tasks(tasks)
    entries = [
        results[f"nu:{M}"][k - 1] if kind == "nu" else results[f"{kind}:{k}:{M}"]
        for kind, k, M in jobs
    ]
    return {"suite": "appendix", "t_min": 1.5, "t_max": 30.0, "points": 20,
            "cases": entries, "passed": all(e["passed"] for e in entries)}


def _dominance_entry(name: str, lo: Network, hi: Network, spec: RunSpec) -> dict:
    report = run_coupled(
        lo, hi, SimConfig(trials=spec.trials, base_seed=spec.seed, dt=spec.dt,
                          t_max=spec.t_max if spec.t_max is not None else 30.0)
    )
    report.pop("times_a")
    report.pop("times_b")
    return {"pair": name, **report, "passed": report["verdict"] == "pass"}


def _suite_dominance(spec: RunSpec) -> dict:
    mono = oracle_dominance_report(spec.p, spec.q)
    pairs = dominance_pairs(spec.p, spec.q)
    tasks = [
        (name, functools.partial(_dominance_entry, name, lo, hi, spec))
        for name, lo, hi in pairs
    ]
    results = _run_tasks(tasks)
    coupled = [results[name] for name, _lo, _hi in pairs]
    passed = all(m["passed"] for m in mono) and all(c["passed"] for c in coupled)
    return {"suite": "dominance", "monotonicity": mono, "coupling": coupled, "passed": passed}


def _entry_line(entry: dict) -> str:
    label = (entry.get("label") or entry.get("pair") or entry.get("name")
             or f"{entry.get('diagnostic')}(k={entry.get('k')}, M={entry.get('M')})")
    if "max_gap" in entry:
        detail = f"max_gap={entry['max_gap']:.3e}"
    elif "min_value" in entry:
        detail = f"min={entry['min_value']:.3e}"
    elif "violation_count" in entry:
        detail = f"violations={entry['violation_count']}"
    else:
        detail = ""
    return f"  [FAIL] {label:28s} {detail}"


def _write_summary(report: dict) -> None:
    """Pass counts per suite (or preset) and every failing entry, to stderr."""
    for section in report.get("suites", [report]):
        entries = [e for key in ("cases", "monotonicity", "coupling") for e in section.get(key, [])]
        name = section.get("suite") or section["preset"]
        print(f"{name}: {sum(e['passed'] for e in entries)}/{len(entries)} checks passed",
              file=sys.stderr)
        for e in entries:
            if not e["passed"]:
                print(_entry_line(e), file=sys.stderr)


def cmd_verify(spec: RunSpec) -> int:
    if spec.preset is not None:
        if spec.preset not in FIGURE_PLAN_NAMES:
            raise SystemExit(
                f"unknown verify preset {spec.preset!r}; known: {', '.join(FIGURE_PLAN_NAMES)}"
            )
        t_grid = np.linspace(0.0, 30.0, 31)
        cases = figure_plan(spec.preset, p=spec.p, q=spec.q)
        reports = [_verify_case(c, t_grid) for c in cases]
        report = {"command": "verify", "preset": spec.preset, "cases": reports,
                  "passed": all(r["passed"] for r in reports)}
    else:
        suite_names = ("indifference", "appendix", "dominance") if spec.suite == "all" else (spec.suite,)
        suites = []
        for name in suite_names:
            if name == "indifference":
                suites.append(_suite_indifference(spec))
            elif name == "appendix":
                suites.append(_suite_appendix(spec))
            elif name == "dominance":
                suites.append(_suite_dominance(spec))
            else:
                raise SystemExit(f"unknown suite {name!r}; known: {', '.join(SUITES)}")
        report = {"command": "verify", "suites": suites,
                  "passed": all(s["passed"] for s in suites)}
    _write_summary(report)
    text = json.dumps(report, indent=2, cls=_JSONEncoder) + "\n"
    if spec.out is None:
        sys.stdout.write(text)
    else:
        Path(spec.out).parent.mkdir(parents=True, exist_ok=True)
        with open(spec.out, "w") as fh:
            fh.write(text)
    return 0 if report["passed"] else 1


# ---------------------------------------------------------------------------
# argument plumbing


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", default=argparse.SUPPRESS,
                     help="JSON file of flag values; command line conflicts require --override")
    sub.add_argument("--override", action="store_true", default=argparse.SUPPRESS,
                     help="let command-line flags win over conflicting --config values")
    sub.add_argument("--out", default=argparse.SUPPRESS, help="output path (CSV or JSON)")
    sub.add_argument("-p", type=float, default=argparse.SUPPRESS, help="intrinsic adoption rate")
    sub.add_argument("-q", type=float, default=argparse.SUPPRESS, help="total internal influence rate")
    sub.add_argument("--t-max", dest="t_max", type=float, default=argparse.SUPPRESS,
                     help="time horizon (default: time for the 1D limit curve to reach 0.99)")


def _add_topology_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--topology", choices=("circle", "line", "grid", "hybrid"),
                     default=argparse.SUPPRESS)
    sub.add_argument("--sided", choices=("one", "two"), default=argparse.SUPPRESS)
    sub.add_argument("-M", dest="M", type=int, default=argparse.SUPPRESS,
                     help="node count (circle/line) or total nodes (hybrid)")
    sub.add_argument("-D", dest="D", type=int, default=argparse.SUPPRESS, help="grid dimension")
    sub.add_argument("--side", type=int, default=argparse.SUPPRESS, help="grid side length")
    sub.add_argument("--periodic", action="store_true", default=argparse.SUPPRESS,
                     help="wrap the grid into a torus")
    sub.add_argument("--ray", type=int, default=argparse.SUPPRESS,
                     help="ray length of the hybrid topology (circle part is M-ray)")
    sub.add_argument("--grid", type=int, default=argparse.SUPPRESS,
                     help="number of time grid points")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="basslab",
        description="Bass diffusion on networks: exact curves, simulation, verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    a = sub.add_parser("analytic", help="exact adoption curve to CSV")
    _add_common_flags(a)
    _add_topology_flags(a)

    s = sub.add_parser("simulate", help="Monte Carlo adoption curve to CSV")
    _add_common_flags(s)
    _add_topology_flags(s)
    s.add_argument("--trials", type=int, default=argparse.SUPPRESS)
    s.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    s.add_argument("--scheme", choices=("event", "discrete"), default=argparse.SUPPRESS)
    s.add_argument("--dt", type=float, default=argparse.SUPPRESS,
                   help="discrete scheme step size")
    s.add_argument("--preset", choices=SIMULATE_PRESETS, default=argparse.SUPPRESS,
                   help="named multi-curve run; writes CSVs plus a manifest")
    s.add_argument("--per-node", dest="per_node", action="store_true", default=argparse.SUPPRESS,
                   help="include per-node adoption frequencies as CSV columns")

    v = sub.add_parser("verify", help="verification suites; JSON report; exit 0 iff pass")
    _add_common_flags(v)
    v.add_argument("--suite", choices=SUITES, default=argparse.SUPPRESS)
    v.add_argument("--preset", choices=FIGURE_PLAN_NAMES, default=argparse.SUPPRESS,
                   help="verify a single named transform plan")
    v.add_argument("--trials", type=int, default=argparse.SUPPRESS)
    v.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    v.add_argument("--dt", type=float, default=argparse.SUPPRESS)
    return parser


def _merge_spec(ns: argparse.Namespace) -> RunSpec:
    explicit = dict(vars(ns))
    command = explicit.pop("command")
    config_path = explicit.pop("config", None)
    override = explicit.pop("override", False)
    merged = dict(DEFAULTS[command])
    if config_path is not None:
        try:
            with open(config_path) as fh:
                loaded = json.load(fh)
        except (OSError, ValueError) as exc:  # missing file or malformed JSON
            raise SystemExit(f"basslab: error: cannot read --config {config_path}: {exc}") from None
        if not isinstance(loaded, dict):
            raise SystemExit("--config must contain a JSON object of flag values")
        unknown = sorted(set(loaded) - set(merged))
        if unknown:
            raise SystemExit(f"--config keys not valid for `{command}`: {', '.join(unknown)}")
        loaded = {k: _config_value(k, v) for k, v in loaded.items()}
        conflicts = sorted(
            k for k in loaded if k in explicit and explicit[k] != loaded[k]
        )
        if conflicts and not override:
            raise SystemExit(
                "flag/config conflict for: " + ", ".join(conflicts) + " (pass --override to let flags win)"
            )
        merged.update(loaded)
    merged.update(explicit)
    return RunSpec(command=command, **merged)


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        spec = _merge_spec(ns)
        if spec.command == "analytic":
            return cmd_analytic(spec)
        if spec.command == "simulate":
            return cmd_simulate(spec)
        return cmd_verify(spec)
    except ValueError as exc:  # bad input the library rejected: one line, no traceback
        raise SystemExit(f"basslab: error: {exc}") from None


if __name__ == "__main__":
    sys.exit(main())
