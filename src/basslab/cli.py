"""Command-line interface.

Three subcommands:

* analytic  - exact adoption curves to CSV;
* simulate  - Monte Carlo curves to CSV (single runs or named presets);
* verify    - structural verification suites, JSON report, exit code 0 iff
              everything passed.

Each setting is declared once, in SETTINGS: its flag, type, default,
choices and help, the commands that take it and the runs that read it. The
subcommand parsers, DEFAULTS, the checks on --config values and the refusal
of a key the chosen run does not read all come from that table.

Flags can also come from a JSON config file (--config); a key set both in
the file and on the command line with different values is an error unless
--override is given, in which case the command line wins. Reruns with the
same inputs and seed produce byte-identical outputs.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .analytic import (
    DEFAULT_GRID_POINTS,
    _circle_survivals,
    _two_sided_lines,
    alpha_diag,
    beta_diag,
    default_time_grid,
    f_circle,
    f_hybrid,
    f_line_one_sided,
    f_line_two_sided,
    gamma_diag,
    nu_diag,
    psi_diag,
)
from .curves import AdoptionCurve, _check_t_max, write_curve_csv
from .network import Network, build_circle, build_grid, build_hybrid_circle_ray, build_line
from .oracle import exact_f
from .principles import (
    FIGURE_PLAN_NAMES,
    VERIFY_GRID,
    VERIFY_T_MAX,
    VERIFY_TOL,
    dominance_pairs,
    figure_plan,
    oracle_dominance_report,
    verify_indifference,
)
from .simulator import (
    DEFAULT_TRIALS,
    SimConfig,
    _fraction_stats,
    curve_from_times,
    event_trajectories,
    node_frequencies,
    run_coupled,
    run_event_driven,
)

COMMANDS = {
    "analytic": "exact adoption curve to CSV",
    "simulate": "Monte Carlo adoption curve to CSV",
    "verify": "verification suites; JSON report; exit 0 iff pass",
}
TOPOLOGIES = ("circle", "line", "grid", "hybrid")
SIMULATE_PRESETS = ("fig5", "fig11", "fig12")
SUITES = ("indifference", "appendix", "dominance", "sidedness", "all")

# The runs a key can be read by: a single run per topology (analytic or
# simulate), "simulate preset", "verify preset" and each verify suite.
_CURVE_RUNS = TOPOLOGIES + ("simulate preset",)
_COUPLED_SUITES = ("dominance", "all")
_EVERY_RUN = _CURVE_RUNS + ("verify preset",) + SUITES


@dataclass(frozen=True)
class Setting:
    key: str  # the --config key and the parsed spec's attribute
    flag: str
    kind: type  # bool for a switch
    default: object  # None: the key may also be null in --config
    help: str
    commands: tuple[str, ...]  # the subcommands that take the flag
    reads: tuple[str, ...]  # the runs that read it; given to another run, it is refused
    choices: tuple[str, ...] | None = None


_ALL = tuple(COMMANDS)
_CURVE_COMMANDS = ("analytic", "simulate")
SETTINGS = (
    Setting("out", "--out", str, None, "output path (CSV or JSON)", _ALL, _EVERY_RUN),
    Setting("p", "-p", float, 0.01, "intrinsic adoption rate", _ALL, _EVERY_RUN),
    Setting("q", "-q", float, 0.1, "total internal influence rate", _ALL, _EVERY_RUN),
    Setting("t_max", "--t-max", float, None, "time horizon (default: time for the 1D limit curve "
            f"to reach 0.99; {VERIFY_T_MAX:g} for verify)", _ALL, _CURVE_RUNS + _COUPLED_SUITES),
    Setting("topology", "--topology", str, "circle", "network topology",
            _CURVE_COMMANDS, TOPOLOGIES, choices=TOPOLOGIES),
    Setting("sided", "--sided", str, "one",
            "influence from one neighbour per axis direction (weight q) or both (q/2 each)",
            _CURVE_COMMANDS, ("circle", "line", "grid"), choices=("one", "two")),
    Setting("M", "-M", int, 6, "node count (circle/line) or total nodes (hybrid)",
            _CURVE_COMMANDS, ("circle", "line", "hybrid")),
    Setting("ray", "--ray", int, 3, "ray length of the hybrid topology (circle part is M-ray)",
            _CURVE_COMMANDS, ("hybrid",)),
    Setting("grid", "--grid", int, DEFAULT_GRID_POINTS, "number of time grid points",
            _CURVE_COMMANDS, _CURVE_RUNS),
    Setting("D", "-D", int, 2, "grid dimension", ("simulate",), ("grid",)),
    Setting("side", "--side", int, 6, "grid side length", ("simulate",), ("grid",)),
    Setting("periodic", "--periodic", bool, False, "wrap the grid into a torus",
            ("simulate",), ("grid",)),
    Setting("trials", "--trials", int, DEFAULT_TRIALS, "Monte Carlo trials",
            ("simulate", "verify"), _CURVE_RUNS + _COUPLED_SUITES),
    Setting("seed", "--seed", int, 0, "base random seed",
            ("simulate", "verify"), _CURVE_RUNS + _COUPLED_SUITES),
    Setting("preset", "--preset", str, None, "named multi-curve run; writes CSVs plus a manifest",
            ("simulate",), _CURVE_RUNS, choices=SIMULATE_PRESETS),
    Setting("per_node", "--per-node", bool, False,
            "include per-node adoption frequencies as CSV columns", ("simulate",), _CURVE_RUNS),
    Setting("suite", "--suite", str, "all", "verification suite",
            ("verify",), SUITES, choices=SUITES),
    Setting("preset", "--preset", str, None, "verify a single named transform plan",
            ("verify",), ("verify preset",), choices=FIGURE_PLAN_NAMES),
)


def _settings(command: str) -> dict[str, Setting]:
    return {s.key: s for s in SETTINGS if command in s.commands}


DEFAULTS = {
    command: {key: s.default for key, s in _settings(command).items()} for command in COMMANDS
}
_TYPE_NAMES = {bool: "true or false", int: "an integer", float: "a number", str: "a string"}


def _config_value(s: Setting, value):
    """A --config value checked as its flag is, for type and choices; a JSON
    integer passes for a number flag and becomes a float, as on the command
    line."""
    if value is None and s.default is None:
        return value
    accepted = (int, float) if s.kind is float else s.kind
    # bool is an int subclass: true/false pass only for switches
    if isinstance(value, bool) != (s.kind is bool) or not isinstance(value, accepted):
        raise ValueError(
            f"--config value for {s.key!r} must be {_TYPE_NAMES[s.kind]}, got {value!r}"
        )
    if s.choices is not None and value not in s.choices:
        raise ValueError(
            f"--config value for {s.key!r} must be one of {', '.join(s.choices)}, got {value!r}"
        )
    return float(value) if s.kind is float else value


def _time_grid(spec: argparse.Namespace) -> np.ndarray:
    if spec.grid < 2:
        raise ValueError("--grid must be at least 2 points")
    if spec.t_max is not None:
        _check_t_max(spec.t_max)
        return np.linspace(0.0, spec.t_max, spec.grid)
    return default_time_grid(spec.p, spec.q, points=spec.grid)


def _hybrid_sizes(spec: argparse.Namespace) -> tuple[int, int]:
    """The hybrid topology's circle and ray node counts."""
    if not 1 <= spec.ray < spec.M:
        raise ValueError("--ray must be in 1..M-1 for the hybrid topology")
    return spec.M - spec.ray, spec.ray


def _build_network(spec: argparse.Namespace) -> Network:
    if spec.topology == "circle":
        return build_circle(spec.M, spec.p, spec.q, sided=spec.sided)
    if spec.topology == "line":
        return build_line(spec.M, spec.p, spec.q, sided=spec.sided)
    if spec.topology == "grid":
        return build_grid(spec.D, spec.side, spec.p, spec.q, sided=spec.sided, periodic=spec.periodic)
    return build_hybrid_circle_ray(*_hybrid_sizes(spec), spec.p, spec.q)


def _write_csv(curve: AdoptionCurve, out: str | None) -> None:
    if out is None:
        write_curve_csv(sys.stdout, curve)
    else:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        write_curve_csv(out, curve)


# ---------------------------------------------------------------------------
# analytic


def cmd_analytic(spec: argparse.Namespace) -> int:
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
        per_node, f, source = f_hybrid(t, spec.p, spec.q, *_hybrid_sizes(spec))
        curve = AdoptionCurve(t=t, f=f, source=source, per_node=per_node)
    else:
        raise ValueError(
            f"no analytic curve for topology {spec.topology!r}; use `simulate` instead"
        )
    _write_csv(curve, spec.out)
    return 0


# ---------------------------------------------------------------------------
# simulate


def _simulate_network(net: Network, t: np.ndarray, spec: argparse.Namespace) -> AdoptionCurve:
    config = SimConfig(trials=spec.trials, base_seed=spec.seed)
    if not spec.per_node:
        return run_event_driven(net, config, t_grid=t)
    # a time past the grid's end counts as none, so the sampler stops there
    times = event_trajectories(net, replace(config, t_max=t[-1]))
    return replace(curve_from_times(times, t), per_node=node_frequencies(times, t))


def _preset_runs(spec: argparse.Namespace) -> list[tuple[str, Network]]:
    if spec.preset == "fig5":
        M, p, q = 6, spec.p, spec.q
        return [
            ("circle_one", build_circle(M, p, q, sided="one")),
            ("circle_two", build_circle(M, p, q, sided="two")),
            ("line_one", build_line(M, p, q, sided="one")),
            ("line_two", build_line(M, p, q, sided="two")),
        ]
    D = 2 if spec.preset == "fig11" else 3
    p, q, side = spec.p, spec.q, 6
    return [
        ("torus_one", build_grid(D, side, p, q, sided="one", periodic=True)),
        ("torus_two", build_grid(D, side, p, q, sided="two", periodic=True)),
        ("box_one", build_grid(D, side, p, q, sided="one", periodic=False)),
        ("box_two", build_grid(D, side, p, q, sided="two", periodic=False)),
    ]


def cmd_simulate(spec: argparse.Namespace) -> int:
    t = _time_grid(spec)
    if spec.preset is None:
        net = _build_network(spec)
        _write_csv(_simulate_network(net, t, spec), spec.out)
        return 0
    curves = [(name, _simulate_network(net, t, spec)) for name, net in _preset_runs(spec)]
    out_dir = Path(spec.out) if spec.out is not None else Path(".")
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {"command": "simulate", "preset": spec.preset, "trials": spec.trials,
                "seed": spec.seed, "files": []}
    for name, curve in curves:
        path = out_dir / f"{spec.preset}_{name}.csv"
        write_curve_csv(path, curve)
        manifest["files"].append(str(path))
    with open(out_dir / f"{spec.preset}_manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return 0


# ---------------------------------------------------------------------------
# verify


def _indifference_reports(names: tuple[str, ...], spec: argparse.Namespace) -> list[dict]:
    """One report per transform plan of each named figure, on the verify
    grid (a point at each whole time up to VERIFY_T_MAX). The plans share
    their solves: fig7 and fig15 start from the same network and omega."""
    reports, solved = [], {}
    for name in names:
        for case in figure_plan(name, p=spec.p, q=spec.q):
            report = verify_indifference(case.network, case.plan, _solved=solved)
            reports.append({"name": case.name, "label": case.label, "note": case.note, **report})
    return reports


def _suite_indifference(spec: argparse.Namespace) -> dict:
    reports = _indifference_reports(FIGURE_PLAN_NAMES, spec)
    return {"suite": "indifference", "cases": reports,
            "passed": all(r["passed"] for r in reports)}


def _diag_entry(kind: str, k: int, M: int, vals: np.ndarray) -> dict:
    m = float(np.min(vals))
    return {"diagnostic": kind, "k": k, "M": M, "min_value": m, "passed": m > 0}


def _suite_appendix(spec: argparse.Namespace) -> dict:
    """Positivity of alpha..psi at M <= 9, from three ODE solves. beta,
    gamma, psi and the one-sided line of nu read every S_k off two S_1
    tables, at q and q/2; alpha reads every k off one solve of its
    difference system. The q/2 table and the two-sided lines of nu, every
    M = 2..9, come from one joint solve."""
    p, q = spec.p, spec.q
    t = np.linspace(1.5, VERIFY_T_MAX, 20)
    s1 = _circle_survivals(t, p, q, 9)
    s1_half, lines = _two_sided_lines(t, p, q, range(2, 10))
    entries = [_diag_entry("alpha", k, 0, row)
               for k, row in enumerate(alpha_diag(t, p, q, 9), start=1)]
    entries += [_diag_entry("beta", k, M, beta_diag(t, p, k, M, s1, s1_half))
                for M in range(2, 10) for k in range(1, M)]
    entries += [_diag_entry("gamma", k, M, gamma_diag(t, p, k, M, s1))
                for M in range(3, 10) for k in range(1, M - 1)]
    entries += [_diag_entry("nu", k, M, nu_diag(s1[:M], s_two, k))
                for M, s_two in zip(range(2, 10), lines) for k in range(1, M + 1)]
    entries += [_diag_entry("psi", k, M, psi_diag(t, p, k, M, s1, s1_half))
                for M in range(3, 10) for k in range(2, (M + 1) // 2 + 1)]
    return {"suite": "appendix", "t_min": 1.5, "t_max": VERIFY_T_MAX, "points": 20,
            "cases": entries, "passed": all(e["passed"] for e in entries)}


def _suite_dominance(spec: argparse.Namespace) -> dict:
    mono = oracle_dominance_report(spec.p, spec.q)
    t_max = VERIFY_T_MAX if spec.t_max is None else spec.t_max
    config = SimConfig(trials=spec.trials, base_seed=spec.seed, t_max=t_max)
    coupled = []
    for name, lo, hi in dominance_pairs(spec.p, spec.q):
        report = run_coupled(lo, hi, config)
        for key in ("steps", "times_a", "times_b"):
            report.pop(key)
        coupled.append({"pair": name, **report, "passed": report["verdict"] == "pass"})
    passed = all(m["passed"] for m in mono) and all(c["passed"] for c in coupled)
    return {"suite": "dominance", "monotonicity": mono, "coupling": coupled, "passed": passed}


# The sidedness suite's coupled runs: trials, and one seed per grid kind, so
# that the torus and box estimates are independent.
SIDEDNESS_TRIALS = 4000
SIDEDNESS_SEEDS = {"torus": 7, "box": 8}
SIDEDNESS_SIGMAS = 5.0


def _sidedness_gap(lo: Network, hi: Network) -> np.ndarray:
    """Exact f(hi) - f(lo) on the verify grid."""
    return exact_f(hi, VERIFY_GRID).f - exact_f(lo, VERIFY_GRID).f


def _suite_sidedness(spec: argparse.Namespace) -> dict:
    """The paper's sidedness claims: on a line two-sided influence is
    strictly faster than one-sided, on a circle the two are the same law,
    and on a torus the gap is far smaller than on the box of the same
    side. Exact on the line, the circle and the 3x3 and 4x4 grids; on the
    6x6 and 6x6x6 grids each of torus and box is one coupled run of its
    one- and two-sided networks on shared clocks, and the box gap must
    exceed the torus gap by SIDEDNESS_SIGMAS paired standard errors."""
    p, q, t = spec.p, spec.q, VERIFY_GRID
    gap = f_line_two_sided(t, p, q, 6)[1] - f_line_one_sided(t, p, q, 6)[1]
    cases = [{"name": "line_6", "method": "analytic", "min_gap": gap[1:].min(),
              "max_gap": gap.max(), "passed": bool(gap[1:].min() > VERIFY_TOL)}]
    gap = _sidedness_gap(build_circle(6, p, q, sided="one"), build_circle(6, p, q, sided="two"))
    cases.append({"name": "circle_6", "method": "oracle", "min_gap": gap.min(),
                  "max_gap": gap.max(), "passed": bool(np.abs(gap).max() <= VERIFY_TOL)})
    for side in (3, 4):
        torus, box = (
            _sidedness_gap(build_grid(2, side, p, q, sided="one", periodic=periodic),
                           build_grid(2, side, p, q, sided="two", periodic=periodic))
            for periodic in (True, False)
        )
        cases.append({"name": f"torus_{side}x{side}", "method": "oracle",
                      "torus_min_gap": torus.min(), "torus_max_gap": torus.max(),
                      "box_max_gap": box.max(),
                      "passed": bool(torus.min() >= -VERIFY_TOL and torus.max() < box.max())})
    for D in (2, 3):
        row = {"name": f"grid_{D}d_6", "method": "coupled", "trials": SIDEDNESS_TRIALS}
        for kind, periodic in (("torus", True), ("box", False)):
            config = SimConfig(trials=SIDEDNESS_TRIALS, base_seed=SIDEDNESS_SEEDS[kind],
                               t_max=VERIFY_T_MAX)
            report = run_coupled(build_grid(D, 6, p, q, sided="one", periodic=periodic),
                                 build_grid(D, 6, p, q, sided="two", periodic=periodic), config)
            mean, stderr = _fraction_stats(report["times_b"], t, base=report["times_a"])
            k = int(np.argmax(mean))
            row |= {f"{kind}_seed": config.base_seed, f"{kind}_max_gap": mean[k],
                    f"{kind}_stderr": stderr[k]}
        z = (row["box_max_gap"] - row["torus_max_gap"]) / np.hypot(row["box_stderr"],
                                                                   row["torus_stderr"])
        cases.append({**row, "z": z, "passed": bool(z > SIDEDNESS_SIGMAS)})
    return {"suite": "sidedness", "t_max": VERIFY_T_MAX, "points": t.size,
            "cases": cases, "passed": all(c["passed"] for c in cases)}


_SUITE_RUNS = {"indifference": _suite_indifference, "appendix": _suite_appendix,
               "dominance": _suite_dominance, "sidedness": _suite_sidedness}


def _entry_line(entry: dict) -> str:
    label = (entry.get("label") or entry.get("pair") or entry.get("name")
             or f"{entry.get('diagnostic')}(k={entry.get('k')}, M={entry.get('M')})")
    if "max_gap" in entry:
        detail = f"max_gap={entry['max_gap']:.3e}"
    elif "min_value" in entry:
        detail = f"min={entry['min_value']:.3e}"
    elif "violation_count" in entry:
        detail = f"violations={entry['violation_count']}"
    elif "z" in entry:
        detail = f"z={entry['z']:.1f}"
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


def cmd_verify(spec: argparse.Namespace) -> int:
    if spec.q == 0:  # every case is built from edges of weight q
        raise ValueError(f"-q must be positive for verify, got {spec.q}")
    if spec.preset is not None:
        reports = _indifference_reports((spec.preset,), spec)
        report = {"command": "verify", "preset": spec.preset, "cases": reports,
                  "passed": all(r["passed"] for r in reports)}
    else:
        # sidedness is left out of all: its coupled runs cost seconds
        names = ("indifference", "appendix", "dominance") if spec.suite == "all" else (spec.suite,)
        suites = [_SUITE_RUNS[name](spec) for name in names]
        report = {"command": "verify", "suites": suites,
                  "passed": all(s["passed"] for s in suites)}
    _write_summary(report)
    text = json.dumps(report, indent=2) + "\n"
    if spec.out is None:
        sys.stdout.write(text)
    else:
        Path(spec.out).parent.mkdir(parents=True, exist_ok=True)
        with open(spec.out, "w") as fh:
            fh.write(text)
    return 0 if report["passed"] else 1


# ---------------------------------------------------------------------------
# argument plumbing


def build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False: a prefix of a flag (--side for --sided) is refused,
    # not read as that flag
    parser = argparse.ArgumentParser(
        prog="basslab",
        description="Bass diffusion on networks: exact curves, simulation, verification",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, text in COMMANDS.items():
        cmd = sub.add_parser(command, help=text, allow_abbrev=False)
        cmd.add_argument("--config", default=argparse.SUPPRESS,
                         help="JSON file of flag values; command line conflicts require --override")
        cmd.add_argument("--override", action="store_true", default=argparse.SUPPRESS,
                         help="let command-line flags win over conflicting --config values")
        for s in _settings(command).values():
            if s.kind is bool:
                kind = {"action": "store_true"}
            else:
                kind = {"type": s.kind, "choices": s.choices}
            cmd.add_argument(s.flag, dest=s.key, default=argparse.SUPPRESS, help=s.help, **kind)
    return parser


def _read_config(path: str, command: str) -> dict:
    try:
        with open(path) as fh:
            loaded = json.load(fh)
    except (OSError, ValueError) as exc:  # missing file or malformed JSON
        raise ValueError(f"cannot read --config {path}: {exc}") from None
    if not isinstance(loaded, dict):
        raise ValueError("--config must contain a JSON object of flag values")
    settings = _settings(command)
    unknown = sorted(set(loaded) - set(settings))
    if unknown:
        raise ValueError(f"--config keys not valid for `{command}`: {', '.join(unknown)}")
    return {k: _config_value(settings[k], v) for k, v in loaded.items()}


def _merge_spec(ns: argparse.Namespace) -> argparse.Namespace:
    explicit = dict(vars(ns))
    command = explicit.pop("command")
    config_path = explicit.pop("config", None)
    override = explicit.pop("override", False)
    loaded = {} if config_path is None else _read_config(config_path, command)
    conflicts = sorted(k for k in loaded if k in explicit and explicit[k] != loaded[k])
    if conflicts and not override:
        raise ValueError(
            "flag/config conflict for: " + ", ".join(conflicts) + " (pass --override to let flags win)"
        )
    spec = argparse.Namespace(command=command, **{**DEFAULTS[command], **loaded, **explicit})
    _refuse_unread(spec, set(explicit) | set(loaded))
    return spec


def _refuse_unread(spec: argparse.Namespace, given: set[str]) -> None:
    """Stop when a key given for the chosen run is one that run does not
    read."""
    if spec.command == "verify" and spec.preset is not None:
        name, run = f"verify --preset {spec.preset}", "verify preset"
    elif spec.command == "verify":
        name, run = f"verify --suite {spec.suite}", spec.suite
    elif spec.command == "simulate" and spec.preset is not None:
        name, run = f"simulate --preset {spec.preset}", "simulate preset"
    else:
        name, run = f"{spec.command} --topology {spec.topology}", spec.topology
    settings = _settings(spec.command)
    unread = sorted(key for key in given if run not in settings[key].reads)
    if unread:
        raise ValueError(f"`{name}` does not read {', '.join(unread)}")


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        spec = _merge_spec(ns)
        if spec.command == "analytic":
            return cmd_analytic(spec)
        if spec.command == "simulate":
            return cmd_simulate(spec)
        return cmd_verify(spec)
    except ValueError as exc:  # bad input: one line, no traceback, exit status 1
        raise SystemExit(f"basslab: error: {exc}") from None
    except MemoryError as exc:  # an array too large to allocate, e.g. from --trials
        raise SystemExit(f"basslab: error: out of memory: {exc}") from None
    except RuntimeError as exc:  # an internal check failed, e.g. probability conservation
        raise SystemExit(f"basslab: error: internal check failed: {exc}") from None
    except OSError as exc:  # an --out that cannot be written, e.g. a directory
        raise SystemExit(f"basslab: error: {exc}") from None


if __name__ == "__main__":
    sys.exit(main())
