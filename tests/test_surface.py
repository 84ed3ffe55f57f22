"""The public surface, held as literals: a name exported or a field added
to a public object has to be added here too, on purpose. The objects that
hold arrays compare by identity, as the code compares them. Every exported
name is reached by a command, by the README's quick start or by the
benchmark harness."""
import dataclasses
import inspect
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import basslab
import basslab.cli as cli
from basslab import AdoptionCurve, Network, SimConfig
from basslab.network import build_circle
from basslab.oracle import _symmetries

ROOT = Path(__file__).resolve().parents[1]

PUBLIC_NAMES = [
    "AdoptionCurve", "Dominance", "EdgeClassification", "MasterSolution", "Network",
    "PlanCase", "SimConfig", "TransformPlan", "add_edges", "alpha_diag", "beta_diag",
    "build_circle", "build_grid", "build_hybrid_circle_ray", "build_line", "classify_edge",
    "curve_from_times", "default_time_grid", "dominance_pairs", "dominates",
    "event_trajectories", "exact_f", "exact_marginals", "f_circle", "f_hybrid",
    "f_line_one_sided", "f_line_two_sided", "f_one_dim_limit", "figure_plan", "gamma_diag",
    "node_frequencies", "nu_diag", "oracle_dominance_report", "pair_survival_two_sided_line",
    "psi_diag", "remove_edges", "run_coupled", "run_event_driven", "solve_master", "survival",
    "survival_circle", "verify_indifference", "weakly_dominates", "write_curve_csv",
]

# one run of each kind a command makes, at small trial counts
COMMAND_RUNS = [
    ["analytic", "--topology", "circle"],
    ["analytic", "--topology", "line", "--sided", "one"],
    ["analytic", "--topology", "line", "--sided", "two"],
    ["analytic", "--topology", "hybrid"],
    ["simulate", "--topology", "grid", "--trials", "20"],
    ["simulate", "--topology", "circle", "--per-node", "--trials", "20"],
    ["simulate", "--preset", "fig5", "--trials", "20"],
    ["verify", "--preset", "fig3"],
    ["verify", "--suite", "all", "--trials", "20"],
    ["verify", "--suite", "sidedness"],
]


def run_quick_start():
    """Run the code block of the README's "Library quick start" section."""
    section = (ROOT / "README.md").read_text().split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README quick start", "exec"), {})


def test_one_version_number():
    # read with a regex: requires-python is >= 3.10, which has no tomllib
    text = (ROOT / "pyproject.toml").read_text()
    assert re.findall(r'^version = "(.*)"$', text, flags=re.M) == [basslab.__version__]


def test_exported_names():
    assert basslab.__all__ == PUBLIC_NAMES
    assert all(hasattr(basslab, name) for name in basslab.__all__)


def test_readme_quick_start_runs():
    run_quick_start()


def test_every_public_name_is_reached(tmp_path):
    # a function is reached when its code runs; a class when code of its
    # own runs (its __init__, say) or a call returns one of its instances
    ran, returned = set(), set()

    def profile(frame, event, arg):
        if event == "call":
            ran.add(frame.f_code)
        elif event == "return":
            returned.add(type(arg))

    sys.setprofile(profile)
    try:
        for k, argv in enumerate(COMMAND_RUNS):
            assert cli.main([*argv, "--out", str(tmp_path / f"run{k}")]) == 0, argv
        run_quick_start()
    finally:
        sys.setprofile(None)

    def reached(obj):
        if inspect.isclass(obj):
            return obj in returned or any(getattr(v, "__code__", None) in ran
                                          for v in vars(obj).values())
        return obj.__code__ in ran

    perfbench = "\n".join(path.read_text() for path in sorted((ROOT / "perfbench").glob("*.py")))
    unreached = [name for name in basslab.__all__ if not reached(getattr(basslab, name))
                 and not re.search(rf"\b{name}\b", perfbench)]
    assert unreached == []


@pytest.mark.parametrize("cls, fields", [
    (SimConfig, ["trials", "base_seed", "t_max"]),
    (AdoptionCurve, ["t", "f", "source", "per_node", "stderr"]),
    (Network, ["n", "p", "edges"]),
], ids=["SimConfig", "AdoptionCurve", "Network"])
def test_fields(cls, fields):
    assert [f.name for f in dataclasses.fields(cls)] == fields


T = np.linspace(0.0, 1.0, 3)


@pytest.mark.parametrize("make", [
    lambda: build_circle(3, 0.01, 0.1),
    lambda: AdoptionCurve(t=T, f=np.array([0.0, 0.1, 0.2]), source="ode"),
    lambda: _symmetries(build_circle(3, 0.01, 0.1)),
], ids=["Network", "AdoptionCurve", "_Symmetry"])
def test_array_objects_compare_and_hash_by_identity(make):
    a, b = make(), make()
    assert a == a and a != b
    assert len({a, b, a}) == 2 and b not in {a}
