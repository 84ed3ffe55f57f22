"""Discrete Bass diffusion on directed weighted networks.

Exact adoption curves for 1D structures (circles, lines, circle-with-ray),
a full master-equation oracle for small networks, exact event-driven
simulation and an exact coupled dominance check, and structural
verification of edge-indifference and parameter-monotonicity principles.
"""
from .analytic import (
    alpha_diag,
    beta_diag,
    default_time_grid,
    f_circle,
    f_hybrid,
    f_line_one_sided,
    f_line_two_sided,
    f_one_dim_limit,
    gamma_diag,
    nu_diag,
    pair_survival_two_sided_line,
    psi_diag,
    survival_circle,
)
from .curves import AdoptionCurve, write_curve_csv
from .network import (
    Dominance,
    Network,
    add_edges,
    build_circle,
    build_grid,
    build_hybrid_circle_ray,
    build_line,
    dominates,
    remove_edges,
    weakly_dominates,
)
from .oracle import (
    MasterSolution,
    exact_f,
    exact_marginals,
    solve_master,
    survival,
)
from .principles import (
    EdgeClassification,
    PlanCase,
    TransformPlan,
    classify_edge,
    dominance_pairs,
    figure_plan,
    oracle_dominance_report,
    verify_indifference,
)
from .simulator import (
    SimConfig,
    curve_from_times,
    event_trajectories,
    node_frequencies,
    run_coupled,
    run_event_driven,
)

__version__ = "0.26.0"

__all__ = [
    "AdoptionCurve",
    "Dominance",
    "EdgeClassification",
    "MasterSolution",
    "Network",
    "PlanCase",
    "SimConfig",
    "TransformPlan",
    "add_edges",
    "alpha_diag",
    "beta_diag",
    "build_circle",
    "build_grid",
    "build_hybrid_circle_ray",
    "build_line",
    "classify_edge",
    "curve_from_times",
    "default_time_grid",
    "dominance_pairs",
    "dominates",
    "event_trajectories",
    "exact_f",
    "exact_marginals",
    "f_circle",
    "f_hybrid",
    "f_line_one_sided",
    "f_line_two_sided",
    "f_one_dim_limit",
    "figure_plan",
    "gamma_diag",
    "node_frequencies",
    "nu_diag",
    "oracle_dominance_report",
    "pair_survival_two_sided_line",
    "psi_diag",
    "remove_edges",
    "run_coupled",
    "run_event_driven",
    "solve_master",
    "survival",
    "survival_circle",
    "verify_indifference",
    "weakly_dominates",
    "write_curve_csv",
]
