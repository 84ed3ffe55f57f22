"""The public surface, held as literals: a name exported or a field added
to a public object has to be added here too, on purpose. The objects that
hold arrays compare by identity, as the code compares them."""
import dataclasses

import numpy as np
import pytest

import basslab
from basslab import AdoptionCurve, CircleCoefficients, Network, SimConfig
from basslab.analytic import circle_coefficients
from basslab.network import build_circle
from basslab.oracle import _symmetries

PUBLIC_NAMES = [
    "AdoptionCurve", "CircleCoefficients", "DegenerateParameters", "Dominance",
    "EdgeClassification", "MasterSolution", "Network", "PlanCase", "SimConfig",
    "TransformPlan", "add_edges", "alpha_diag", "apply_transform", "beta_diag",
    "build_circle", "build_grid", "build_hybrid_circle_ray", "build_line",
    "circle_coefficients", "classify_edge", "corollary_monotonicity_suite",
    "curve_from_times", "default_time_grid", "dominance_pairs", "dominates",
    "event_trajectories", "exact_f", "exact_marginals", "f_circle", "f_hybrid",
    "f_line_one_sided", "f_line_two_sided", "f_one_dim_limit", "figure_plan", "gamma_diag",
    "node_frequencies", "non_influential_edges", "nu_diag", "nu_from_node_survivals",
    "oracle_dominance_report", "pair_survival_two_sided_line", "psi_diag", "read_curve_csv",
    "remove_edges", "run_coupled", "run_event_driven", "solve_master", "survival",
    "survival_circle", "survival_circle_closed_form", "verify_indifference",
    "weakly_dominates", "write_curve_csv",
]


def test_exported_names():
    assert basslab.__all__ == PUBLIC_NAMES
    assert all(hasattr(basslab, name) for name in basslab.__all__)


@pytest.mark.parametrize("cls, fields", [
    (SimConfig, ["trials", "base_seed", "t_max", "block_size"]),
    (AdoptionCurve, ["t", "f", "source", "per_node", "stderr"]),
    (Network, ["n", "p", "edges"]),
    (CircleCoefficients, ["M", "p", "q", "A", "B"]),
], ids=["SimConfig", "AdoptionCurve", "Network", "CircleCoefficients"])
def test_fields(cls, fields):
    assert [f.name for f in dataclasses.fields(cls)] == fields


T = np.linspace(0.0, 1.0, 3)


@pytest.mark.parametrize("make", [
    lambda: build_circle(3, 0.01, 0.1),
    lambda: AdoptionCurve(t=T, f=np.array([0.0, 0.1, 0.2]), source="ode"),
    lambda: circle_coefficients(0.01, 0.1, 3),
    lambda: _symmetries(build_circle(3, 0.01, 0.1)),
], ids=["Network", "AdoptionCurve", "CircleCoefficients", "_Symmetry"])
def test_array_objects_compare_and_hash_by_identity(make):
    a, b = make(), make()
    assert a == a and a != b
    assert len({a, b, a}) == 2 and b not in {a}
