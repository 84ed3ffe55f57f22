"""End-to-end checks tying the independent computation routes together.

Every test here compares at least two implementations that share no code
path (closed form vs master equation, quadrature vs ODE, Monte Carlo vs
exact), so a pass certifies the whole stack rather than one module.
"""
import time

import numpy as np
import pytest

from basslab.analytic import (
    _circle_survivals,
    alpha_diag,
    beta_diag,
    f_circle,
    f_hybrid,
    f_line_one_sided,
    f_line_two_sided,
    gamma_diag,
    nu_diag,
    psi_diag,
)
from basslab.network import (
    build_circle,
    build_grid,
    build_hybrid_circle_ray,
    build_line,
)
from basslab.oracle import exact_f, solve_master
from basslab.principles import dominance_pairs, figure_plan, verify_indifference
from basslab.simulator import SimConfig, run_coupled, run_event_driven
from conftest import a_j_quadrature, hierarchy_survivals, shift_identity_residual

P, Q = 0.01, 0.1
GRID_200 = np.linspace(0.0, 30.0, 200)
GRID_61 = np.linspace(0.0, 30.0, 61)


@pytest.mark.parametrize("p,q", [(0.01, 0.1), (0.05, 0.3), (0.1, 0.45)])
def test_oracle_matches_circle_curve(p, q):
    for M in range(1, 9):
        net = build_circle(M, p, q, sided="one")
        oracle = exact_f(net, GRID_200).f
        analytic, _source = f_circle(GRID_200, p, q, M)
        assert np.max(np.abs(oracle - analytic)) <= 1e-8, (p, q, M)


def test_circle_distribution_ignores_sidedness():
    for M in range(2, 9):
        one = exact_f(build_circle(M, P, Q, sided="one"), GRID_200)
        two = exact_f(build_circle(M, P, Q, sided="two"), GRID_200)
        assert np.max(np.abs(one.f - two.f)) <= 1e-10, M
        h_one = hierarchy_survivals(GRID_200, P, Q, M, sided="one")
        h_two = hierarchy_survivals(GRID_200, P, Q, M, sided="two")
        assert np.max(np.abs(h_one - h_two)) <= 1e-10, M


def test_line_curves_match_oracle():
    for M in range(2, 9):
        ref_one = solve_master(build_line(M, P, Q, sided="one"), GRID_200).marginals()
        per_one, _, _ = f_line_one_sided(GRID_200, P, Q, M)
        assert np.max(np.abs(per_one - ref_one)) <= 1e-8, M

        ref_two = solve_master(build_line(M, P, Q, sided="two"), GRID_200).marginals()
        per_two, _, _ = f_line_two_sided(GRID_200, P, Q, M)
        assert np.max(np.abs(per_two - ref_two)) <= 1e-6, M


def test_interior_quadrature_matches_ode_route():
    M = 6
    t = np.linspace(0.0, 30.0, 31)
    per_node, _, _ = f_line_two_sided(t, P, Q, M)
    for j in range(2, M):
        u_ode = 1.0 - per_node[j - 1]
        a_ode = (u_ode * np.exp((P + Q) * t) - 1.0) * 2.0 / Q
        a_quad = a_j_quadrature(t, P, Q, M, j)
        # relative on the growing amplitude, absolute on the probability
        assert np.all(np.abs(a_ode - a_quad) <= 1e-6 * (1.0 + np.abs(a_quad))), j
        u_quad = (1.0 + 0.5 * Q * a_quad) * np.exp(-(P + Q) * t)
        assert np.max(np.abs(u_ode - u_quad)) <= 1e-6, j


def test_hybrid_curve_matches_oracle():
    net = build_hybrid_circle_ray(4, 3, P, Q)
    oracle = exact_f(net, GRID_200)
    per_node, f, _ = f_hybrid(GRID_200, P, Q, 4, 3)
    assert np.max(np.abs(oracle.per_node - per_node)) <= 1e-8
    assert np.max(np.abs(oracle.f - f)) <= 1e-8


def test_two_sided_line_strictly_beats_one_sided_everywhere():
    positive = GRID_61 > 0
    for M in range(2, 11):
        f_one = solve_master(build_line(M, P, Q, sided="one"), GRID_61).marginals().mean(axis=0)
        f_two = solve_master(build_line(M, P, Q, sided="two"), GRID_61).marginals().mean(axis=0)
        f_circ = solve_master(build_circle(M, P, Q, sided="one"), GRID_61).marginals().mean(axis=0)
        assert np.all((f_two - f_one)[positive] > 0), M
        assert np.all((f_circ - f_two)[positive] > 0), M


def test_large_line_end_effects_and_center_ordering():
    start = time.monotonic()
    M = 12
    t = np.array([0.0, 10.0])
    s_one = 1.0 - solve_master(build_line(M, P, Q, sided="one"), t).marginals()
    s_two = 1.0 - solve_master(build_line(M, P, Q, sided="two"), t).marginals()
    # the first node only benefits from the second direction, the last node
    # only loses by the split
    assert s_two[0, -1] < s_one[0, -1]
    assert s_two[M - 1, -1] > s_one[M - 1, -1]
    for k in range(1, M + 1):
        nu = nu_diag(s_one, s_two, k)
        assert nu[-1] > 0, k
    assert time.monotonic() - start < 60.0


def test_diagnostic_series_positive_with_oracle_pairs():
    t = np.linspace(1.5, 30.0, 20)
    s1, s1_half = _circle_survivals(t, P, Q, 9), _circle_survivals(t, P, Q / 2, 9)
    for k, row in enumerate(alpha_diag(t, P, Q, 9), start=1):
        assert np.all(row > 0), ("alpha", k)
    for M in range(2, 10):
        for k in range(1, M):
            assert np.all(beta_diag(t, P, k, M, s1, s1_half) > 0), ("beta", k, M)
    for M in range(3, 10):
        for k in range(1, M - 1):
            assert np.all(gamma_diag(t, P, k, M, s1) > 0), ("gamma", k, M)
    # psi from references that share no code with psi_diag: S_2 from the
    # hierarchy solve and the pair survivals from the master equation
    s2 = {m: hierarchy_survivals(t, P, Q, m)[1] for m in range(2, 9)}
    for M in range(3, 10):
        sol = solve_master(build_line(M, P, Q, sided="two"), t)
        for k in range(2, (M + 1) // 2 + 1):
            psi = (s2[k] + s2[M - k + 1]
                   - sol.survival([k - 2, k - 1]) - sol.survival([k - 1, k]))
            assert np.all(psi > 0), ("psi", k, M)
            gap = np.max(np.abs(psi_diag(t, P, k, M, s1, s1_half) - psi))
            assert gap <= 1e-10, ("psi", k, M, gap)


def test_block_shift_identities_hold():
    for M in range(2, 11):
        for k in range(2, M + 1):
            resid = shift_identity_residual(GRID_61, P, Q, k, M, sided="one")
            assert np.max(resid) <= 1e-8, ("one", k, M)
    for M in range(3, 11):
        for k in range(3, M + 1):
            resid = shift_identity_residual(GRID_61, P, Q, k, M, sided="two")
            assert np.max(resid) <= 1e-8, ("two", k, M)


def test_coupled_runs_never_break_dominance():
    cfg = SimConfig(trials=4000, base_seed=0, t_max=30.0)
    for name, lo, hi in dominance_pairs(P, Q):
        report = run_coupled(lo, hi, cfg)
        assert report["applicable"], name
        assert report["violation_count"] == 0, name
        assert report["verdict"] == "pass", name


def test_transform_plans_preserve_survival():
    n_cases = 0
    for name in ("fig3", "fig4", "fig6", "fig7", "fig8", "fig13", "fig14", "fig15"):
        for case in figure_plan(name, p=P, q=Q):
            assert case.network.n <= 10, case.name
            report = verify_indifference(case.network, case.plan)
            assert report["passed"], (case.name, case.label, report["max_gap"])
            assert report["max_gap"] <= 1e-10
            n_cases += 1
    assert n_cases == 9


def test_event_simulation_tracks_exact_curve():
    start = time.monotonic()
    net = build_circle(6, P, Q, sided="one")
    curve = run_event_driven(net, SimConfig(trials=4000, base_seed=11), t_grid=GRID_61)
    analytic, _ = f_circle(GRID_61, P, Q, 6)
    sup_gap = np.max(np.abs(curve.f - analytic))
    assert sup_gap <= 3 * np.max(curve.stderr)
    assert time.monotonic() - start < 10.0


def test_grid_sidedness_matters_on_the_box():
    # the torus half of the paper's claim is checked exactly by
    # test_exact_torus_sidedness_gap_is_small_but_real and on shared clocks
    # by `verify --suite sidedness`; independent runs lack the power to see
    # its 1e-3 gap
    cfg = {"trials": 4000}
    seeds = {"box_one": 303, "box_two": 404}
    for D in (2, 3):
        box_one = run_event_driven(
            build_grid(D, 6, P, Q, sided="one", periodic=False),
            SimConfig(base_seed=seeds["box_one"], **cfg), t_grid=GRID_61,
        )
        box_two = run_event_driven(
            build_grid(D, 6, P, Q, sided="two", periodic=False),
            SimConfig(base_seed=seeds["box_two"], **cfg), t_grid=GRID_61,
        )
        box_gap = box_two.f - box_one.f
        k = int(np.argmax(box_gap))
        assert box_gap[k] > 2 * (box_one.stderr[k] + box_two.stderr[k]), D


@pytest.mark.parametrize("side", (3, 4))
def test_exact_torus_sidedness_gap_is_small_but_real(side):
    # the circle's indifference to sidedness does not carry over to the
    # torus: two-sided is faster there too, by 1.43e-3 (3x3) and 2.08e-3
    # (4x4) at most, against 9.49e-2 and 7.74e-2 on the boxes
    t = np.linspace(0.0, 60.0, 61)
    gaps = {}
    for periodic in (True, False):
        one = exact_f(build_grid(2, side, P, Q, sided="one", periodic=periodic), t).f
        two = exact_f(build_grid(2, side, P, Q, sided="two", periodic=periodic), t).f
        gaps[periodic] = two - one
    torus, box = gaps[True], gaps[False]
    assert np.all(torus >= 0)
    assert torus.max() > 1e-3
    assert box.max() > torus.max()
