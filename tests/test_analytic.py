import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from scipy.special import gammaln, xlogy

from basslab import analytic
from basslab.analytic import (
    CLOSED_FORM_MAX_M,
    MAX_DECAY_SPAN,
    _block_survival,
    _circle_survivals,
    _closed_form,
    _two_sided_lines,
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
from basslab.network import (
    build_circle,
    build_grid,
    build_hybrid_circle_ray,
    build_line,
)
from basslab.oracle import exact_f, solve_master
from conftest import (
    brentq_horizon,
    f_line_two_sided_quadrature,
    hierarchy_survivals,
    line_two_sided_single_solve,
    shift_identity_residual,
    survival_interpolant,
)

T_GRID = np.linspace(0.0, 30.0, 61)


def hierarchy_expm_rows(times, p, q, M, step, dps=60):
    """[S_1(t;M), ..., S_M(t;M)] for each t in times, a multiple of step,
    from one 60-digit matrix exponential E = exp(L step) of the hierarchy
    and its powers E^(t/step); written independently of the library's
    recursion and ODE routes."""
    with mp.workdps(dps):
        L = mp.zeros(M, M)
        for m in range(1, M + 1):
            if m < M:
                L[m - 1, m - 1] = -(m * p + q)
                L[m - 1, m] = q
            else:
                L[m - 1, m - 1] = -M * p
        E = mp.expm(L * mp.mpf(step))
        out = []
        for t in times:
            n = round(t / step)
            assert n >= 1 and abs(n * step - t) < 1e-12, (t, step)
            P = E**n
            out.append([float(sum(P[k, j] for j in range(M))) for k in range(M)])
        return out


def hierarchy_expm_survival(t, p, q, M, k=1, dps=60):
    """S_k(t;M) by 60-digit matrix exponential of the hierarchy."""
    return hierarchy_expm_rows([t], p, q, M, t, dps)[0][k - 1]


def alpha_tau_integral(t, p, q, j, dps=40):
    """alpha(t,j) = e^{-(p+q)t} q^j/(j-1)! int_0^tau (tau-s)^{j-1} ps (1-ps)^{-1-q/p} ds,
    tau = (1 - e^{-pt})/p, by mpmath quadrature at dps digits: the chain
    of alpha_diag solved in tau, with no matrix and no step."""
    with mp.workdps(dps):
        t, p, q = mp.mpf(t), mp.mpf(p), mp.mpf(q)
        tau = -mp.expm1(-p * t) / p
        integrand = lambda s: (tau - s) ** (j - 1) * p * s * (1 - p * s) ** (-1 - q / p)
        integral = mp.quad(integrand, [0, tau])
        return mp.exp(-(p + q) * t) * q**j / mp.factorial(j - 1) * integral


def closed_form(t, p, q, M):
    """survival_circle on t, required to take the exponent sum."""
    S, source = survival_circle(np.atleast_1d(t), p, q, M)
    assert source == "closed_form"
    return S


class TestClosedForm:
    def test_two_block_value_from_first_principles(self):
        # S(t;2) solves S' = -(p+q)S + q e^{-2pt}, S(0)=1; at p=.1, q=.3, t=1
        # the explicit solution is 1.5 e^{-0.2} - 0.5 e^{-0.4}.
        expected = 1.5 * math.exp(-0.2) - 0.5 * math.exp(-0.4)
        got = closed_form(1.0, 0.1, 0.3, 2)[0]
        assert got == pytest.approx(expected, abs=1e-15)
        assert got == pytest.approx(0.8929361065991531, abs=1e-15)

    @pytest.mark.parametrize("p,q", [(0.01, 0.1), (0.1, 0.45), (0.3, 2.0)])
    @pytest.mark.parametrize("M", [1, 2, 3, 5, 8, 10])
    def test_coefficients_sum_to_one(self, p, q, M):
        # at t = 0 every exponential is 1, so the exponent sum reads
        # sum_k A_k + B. At M = 8 and 10 these rates fail the rounding bound
        # and the router takes the recursion, which starts at 1.
        S, source = survival_circle(np.zeros(1), p, q, M)
        assert source == ("closed_form" if M <= 5 else "ode")
        assert abs(S[0] - 1.0) < 1e-10

    @pytest.mark.parametrize("p,q,M", [(0.01, 0.1, 4), (0.1, 0.45, 8), (0.05, 0.3, 5)])
    def test_matches_ode_hierarchy(self, p, q, M):
        # M = 8 at q/p = 4.5 fails the rounding bound: the router's recursion
        closed, _ = survival_circle(T_GRID, p, q, M)
        ode = hierarchy_survivals(T_GRID, p, q, M)[0]
        assert np.max(np.abs(closed - ode)) < 1e-9

    @pytest.mark.parametrize("M", [1, 3, 6])
    def test_matches_high_precision_expm(self, M):
        p, q = 0.07, 0.23
        for t in (0.5, 3.0, 12.0):
            ref = hierarchy_expm_survival(t, p, q, M)
            assert closed_form(t, p, q, M)[0] == pytest.approx(ref, abs=1e-13)

    def test_single_node_is_pure_spontaneous(self):
        S = closed_form(T_GRID, 0.1, 0.45, 1)
        assert np.allclose(S, np.exp(-0.1 * T_GRID), rtol=1e-15, atol=0)

    def test_zero_q_is_pure_spontaneous(self):
        S = closed_form(T_GRID, 0.1, 0.0, 5)
        assert np.allclose(S, np.exp(-0.1 * T_GRID), rtol=1e-12, atol=1e-15)

    def test_monotone_decreasing_from_one(self):
        S = closed_form(T_GRID, 0.05, 0.4, 6)
        assert S[0] == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(S) < 0)
        assert np.all((S >= 0) & (S <= 1 + 1e-12))


class TestDegeneracyRouting:
    def test_detection(self):
        # q = 6p enters at M >= 7; the exponent sum is refused at a resonance
        assert _closed_form(T_GRID, 0.05, 0.3, 7) is None
        assert _closed_form(T_GRID, 0.05, 0.3, 6) is not None
        assert _closed_form(T_GRID, 0.1, 0.2, 3) is None
        assert _closed_form(T_GRID, 0.1, 0.25, 3) is not None

    def test_auto_reroutes_to_ode(self):
        S, source = survival_circle(T_GRID, 0.05, 0.3, 7)
        assert source == "ode"
        S6, source6 = survival_circle(T_GRID, 0.05, 0.3, 6)
        assert source6 == "closed_form"
        # the degenerate solve still nests between neighbouring sizes
        # (survival shrinks as the circle grows)
        S8, _ = survival_circle(T_GRID, 0.05, 0.3, 8)
        assert np.all(S[1:] < S6[1:]) and np.all(S8[1:] < S[1:])

    def test_degenerate_ode_matches_expm(self):
        ref = hierarchy_expm_survival(5.0, 0.05, 0.3, 7)
        S, _ = survival_circle(np.array([5.0]), 0.05, 0.3, 7)
        assert S[0] == pytest.approx(ref, abs=1e-10)

    def test_size_cap(self):
        assert _closed_form(T_GRID, 0.1, 0.01, CLOSED_FORM_MAX_M) is not None
        assert _closed_form(T_GRID, 0.1, 0.01, CLOSED_FORM_MAX_M + 1) is None
        S, source = survival_circle(T_GRID, 0.01, 0.1, CLOSED_FORM_MAX_M + 1)
        assert source == "ode"

    def test_parameter_validation(self):
        # after M's type: the grid, then p and q, then M's value
        with pytest.raises(ValueError, match="time grid"):
            survival_circle(-T_GRID, 0.0, 0.1, 0)
        with pytest.raises(ValueError, match="positive"):
            survival_circle(T_GRID, 0.0, 0.1, 0)
        with pytest.raises(ValueError, match="non-negative"):
            survival_circle(T_GRID, 0.1, -0.1, 0)
        with pytest.raises(ValueError, match="^M must be positive, got 0"):
            survival_circle(T_GRID, 0.1, 0.1, 0)
        with pytest.raises(ValueError, match="M"):
            _circle_survivals(T_GRID, 0.1, 0.1, 0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rates_are_rejected(self, bad):
        # the grid first: unchecked, it returns at once, where an ODE solve
        # on a non-finite rate may never end
        for solve in (lambda p, q: default_time_grid(p, q),
                      lambda p, q: survival_circle(T_GRID, p, q, 6),
                      lambda p, q: f_line_two_sided(T_GRID, p, q, 4)):
            with pytest.raises(ValueError, match="p must be positive and finite"):
                solve(bad, 0.1)
            with pytest.raises(ValueError, match="q must be non-negative and finite"):
                solve(0.01, bad)


class TestHierarchyOde:
    def test_sided_assemblies_are_bitwise_identical(self):
        # 2 boundary feeds at q/2 produce the same matrix as 1 at q, so the
        # integrations agree exactly, not just to tolerance
        one = hierarchy_survivals(T_GRID, 0.03, 0.26, 6, sided="one")
        two = hierarchy_survivals(T_GRID, 0.03, 0.26, 6, sided="two")
        assert np.array_equal(one, two)

    def test_block_rows_are_ordered(self):
        # a larger block is harder to keep entirely susceptible
        h = hierarchy_survivals(T_GRID, 0.02, 0.2, 5)
        for k in range(1, 5):
            assert np.all(h[k][1:] < h[k - 1][1:])

    def test_interpolant_agrees_with_grid_solve(self):
        p, q, M = 0.04, 0.31, 6
        f1 = survival_interpolant(p, q, M, 30.0)
        f2 = survival_interpolant(p, q, M, 30.0, k=3)
        h = hierarchy_survivals(T_GRID, p, q, M)
        assert np.max(np.abs(f1(T_GRID) - h[0])) < 1e-9
        assert np.max(np.abs(f2(T_GRID) - h[2])) < 1e-9

    @pytest.mark.parametrize("half_table", [
        lambda t, p, q: _circle_survivals(t, p, q / 2, 9),
        lambda t, p, q: _two_sided_lines(t, p, q, range(2, 10))[0],
    ], ids=["circle_recursion", "two_sided_lines"])
    def test_tables_match_high_precision_hierarchy(self, half_table):
        # every S_k(t;m), k <= m <= 9, that the appendix suite reads off the
        # S_1 tables at q and q/2, and its worst-conditioned entry: psi(5,9)
        # at the suite's first grid point, where psi is ~1e-7 of terms ~1.
        # The suite takes its q/2 table from the joint two-sided line solve.
        p, q = 0.01, 0.1
        t = np.array([1.5, 10.0, 30.0])
        tables = {q: _circle_survivals(t, p, q, 9), q / 2: half_table(t, p, q)}
        rows = {}
        for rate, s1 in tables.items():
            for m in range(1, 10):
                rows[rate, m] = hierarchy_expm_rows(t, p, rate, m, step=0.5)
                for k in range(1, m + 1):
                    got = _block_survival(s1, t, p, k, m)
                    for i, ti in enumerate(t):
                        assert got[i] == pytest.approx(rows[rate, m][i][k - 1], rel=1e-10), (rate, k, m, ti)
        k, M = 5, 9
        ref = (rows[q, k][0][1] + rows[q, M - k + 1][0][1]
               - rows[q / 2, k - 1][0][0] * rows[q / 2, M - k + 1][0][0]
               - rows[q / 2, k][0][0] * rows[q / 2, M - k][0][0])
        got = psi_diag(t, p, k, M, tables[q], tables[q / 2])[0]
        assert got == pytest.approx(ref, rel=1e-5)


class TestOneDimLimit:
    def test_frozen_value(self):
        p, q, t = 0.01, 0.1, 10.0
        expected = 1.0 - math.exp(-(p + q) * t + (q / p) * (1.0 - math.exp(-p * t)))
        got = f_one_dim_limit(t, p, q)[0]
        assert got == pytest.approx(expected, abs=1e-16)
        assert got == pytest.approx(0.13789152947530314, abs=1e-15)

    def test_large_circle_converges_to_limit(self):
        f200, source = f_circle(T_GRID, 0.01, 0.1, 200)
        assert source == "ode"
        assert np.max(np.abs(f200 - f_one_dim_limit(T_GRID, 0.01, 0.1))) < 1e-12

    @pytest.mark.parametrize("ratio", (10, 45))
    @pytest.mark.parametrize("M", (2, 6, 30, 200, 1000, 5000))
    def test_lines_and_circle_are_ordered_below_the_limit(self, M, ratio):
        # f_line_one < f_line_two is the paper's main theorem; the
        # two-sided circle is the two-sided line plus the wrap edges, and
        # has the circle's curve. The tail bound: with tau = (1 - e^{-pt})/p
        # and S_1(t;m) = e^{-(p+q)t} v_m, the recursion reads
        # dv_m/dtau = q v_{m-1}, v_1 = e^{qt}, so v_m - e^{q tau} is the
        # (m-1)-fold tau-integral of q^{m-1} (e^{qt} - e^{q tau}), which lies
        # in [0, e^{qt}]; hence 0 <= S_1(t;m) - S_inf <= e^{-pt} (q tau)^{m-1}/(m-1)!.
        # tol is the recursion's own error: f_circle sat 5.9e-12 above the
        # limit at M = 1000, q/p = 10, and the rows and f_circle at most
        # 6.7e-12 above it at M = 5000.
        tol = 1e-11
        p = 0.01
        q = ratio * p
        t = default_time_grid(p, q)
        past_zero = t > 0
        rows, f_one, _ = f_line_one_sided(t, p, q, M)
        f_two = f_line_two_sided(t, p, q, M)[1]
        f_circ = f_circle(t, p, q, M)[0]
        f_inf = f_one_dim_limit(t, p, q)
        assert np.all(f_one[past_zero] < f_two[past_zero])
        assert np.all(f_two <= f_circ + tol)
        tau = -np.expm1(-p * t) / p
        m = np.arange(1, M + 1)[:, None]  # row j of the one-sided line is the j-circle
        bound = np.exp(-p * t) * np.exp(xlogy(m - 1, q * tau) - gammaln(m))
        for f, b in ((rows, bound), (f_circ, bound[-1])):  # f_circ <= f_inf closes the chain
            assert np.all(f <= f_inf + tol)
            assert np.all(f_inf - f <= b + tol)

    def test_circle_fraction_increases_with_size(self):
        # strict only from t ~ 2: at M = 7 the early-time gap scales like
        # (qt)^6/6! and drops beneath the coefficient round-off (~1e-12 at
        # q/p = 10) near t = 0.5
        prev = f_circle(T_GRID, 0.01, 0.1, 1)[0]
        late = T_GRID >= 2.0
        for M in range(2, 8):
            cur, _ = f_circle(T_GRID, 0.01, 0.1, M)
            gap = cur - prev
            assert np.all(gap > -2e-12)
            assert np.all(gap[late] > 0)
            prev = cur


class TestLines:
    def test_one_sided_nodes_are_growing_circles(self):
        p, q, M = 0.02, 0.18, 6
        per_node, f, source = f_line_one_sided(T_GRID, p, q, M)
        assert source == "ode"
        exact = exact_f(build_line(M, p, q, sided="one"), T_GRID).per_node
        for j in range(1, M + 1):
            fj, _ = f_circle(T_GRID, p, q, j)
            assert np.max(np.abs(per_node[j - 1] - fj)) <= 1e-10
            assert np.max(np.abs(per_node[j - 1] - exact[j - 1])) <= 1e-10
        assert np.allclose(f, per_node.mean(axis=0), atol=0)

    @pytest.mark.parametrize("M", [200, 1000])
    def test_long_one_sided_rows_match_oracle_circles(self, M):
        # the propagator's error does not grow with the table's size: DOP853
        # ran 1.35e-10 (M = 200) and 4.3e-10 (M = 1000) off here
        p, q = 0.01, 0.1
        t = default_time_grid(p, q)
        per_node, _, _ = f_line_one_sided(t, p, q, M)
        for m in range(1, 11):
            ref = exact_f(build_circle(m, p, q), t).f
            assert np.max(np.abs(per_node[m - 1] - ref)) <= 1e-12, m

    def test_one_sided_matches_oracle(self):
        net = build_line(5, 0.05, 0.3, sided="one")
        t = np.linspace(0.0, 20.0, 21)
        per_node, f, _ = f_line_one_sided(t, 0.05, 0.3, 5)
        ref = solve_master(net, t).marginals()
        assert np.max(np.abs(per_node - ref)) < 1e-8

    def test_two_sided_single_node(self):
        per_node, f, _ = f_line_two_sided(T_GRID, 0.1, 0.4, 1)
        assert per_node.shape == (1, T_GRID.size)
        assert np.allclose(per_node[0], 1.0 - np.exp(-0.1 * T_GRID), atol=1e-12)

    def test_single_node_reports_the_route_of_its_circle(self):
        # a one-node line is the half-rate 1-circle, which the closed form
        # gives; the line once reported "ode" for it
        p, q = 0.01, 0.1
        *_, source = f_line_two_sided(T_GRID, p, q, 1)
        _, circle_source = survival_circle(T_GRID, p, q / 2, 1)
        assert source == circle_source == "closed_form"

    def test_two_sided_boundary_is_half_rate_circle(self):
        p, q, M = 0.03, 0.27, 5
        per_node, _, _ = f_line_two_sided(T_GRID, p, q, M)
        boundary, _ = f_circle(T_GRID, p, q / 2, M)
        assert np.max(np.abs(per_node[0] - boundary)) < 1e-9
        assert np.max(np.abs(per_node[M - 1] - boundary)) < 1e-9

    def test_two_nodes_have_no_interior(self):
        per_node, _, _ = f_line_two_sided(T_GRID, 0.03, 0.27, 2)
        assert np.array_equal(per_node[0], per_node[1])

    @pytest.mark.parametrize("ratio", [10, 45])
    @pytest.mark.parametrize("M", [2, 3, 7, 60])
    def test_single_size_is_the_single_line_solve_bit_for_bit(self, M, ratio):
        p = 0.01
        q = ratio * p
        t = default_time_grid(p, q)
        per_node, _, _ = f_line_two_sided(t, p, q, M)
        assert np.array_equal(per_node, 1.0 - line_two_sided_single_solve(t, p, q, M))

    def test_joint_lines_match_quadrature_and_their_single_solves(self):
        # the appendix suite's grid and sizes, in one solve
        p, q = 0.01, 0.1
        t = np.linspace(1.5, 30.0, 20)
        s1_half, lines = _two_sided_lines(t, p, q, range(2, 10))
        assert s1_half.shape == (9, t.size)
        assert [s.shape for s in lines] == [(M, t.size) for M in range(2, 10)]
        for M, s in zip(range(2, 10), lines):
            quad, _, _ = f_line_two_sided_quadrature(t, p, q, M)
            assert np.max(np.abs((1.0 - s) - quad)) < 1e-8, M
            assert np.max(np.abs(s - line_two_sided_single_solve(t, p, q, M))) < 1e-10, M

    def test_joint_lines_need_sizes_of_two_or_more(self):
        for sizes in ((), (1, 3), (0,)):
            with pytest.raises(ValueError, match="sizes must be >= 2"):
                _two_sided_lines(T_GRID, 0.01, 0.1, sizes)

    def test_reflection_symmetry(self):
        # mirrored interior nodes assemble commuted copies of the same
        # floating-point expressions; only the BLAS reductions inside the
        # stepper can split them, and then by at most a few ulp
        per_node, _, _ = f_line_two_sided(T_GRID, 0.02, 0.21, 7)
        assert np.array_equal(per_node[0], per_node[6])
        for j in range(1, 3):
            assert np.max(np.abs(per_node[j] - per_node[6 - j])) < 1e-14

    def test_two_sided_matches_oracle(self):
        net = build_line(5, 0.05, 0.3, sided="two")
        t = np.linspace(0.0, 20.0, 21)
        per_node, _, _ = f_line_two_sided(t, 0.05, 0.3, 5)
        ref = solve_master(net, t).marginals()
        assert np.max(np.abs(per_node - ref)) < 1e-8

    def test_two_sided_matches_oracle_to_rounding(self):
        # DOP853 ran 7.9e-12 off here
        p, q, M = 0.01, 0.1, 16
        t = default_time_grid(p, q)
        per_node, _, _ = f_line_two_sided(t, p, q, M)
        ref = exact_f(build_line(M, p, q, sided="two"), t).per_node
        assert np.max(np.abs(per_node - ref)) <= 1e-13

    def test_coarse_grid_is_stepped_exactly(self):
        # (p+q) times each interval is 7 to 14: the propagator splits each
        # into steps of at most one decay time (one step each ran 6.5e-12 off)
        p, q, M = 0.05, 0.3, 8
        t = np.array([0.0, 20.0, 40.0, 80.0])
        for solve, sided in ((f_line_one_sided, "one"), (f_line_two_sided, "two")):
            per_node, _, _ = solve(t, p, q, M)
            ref = exact_f(build_line(M, p, q, sided=sided), t).per_node
            assert np.max(np.abs(per_node - ref)) <= 1e-14, sided

    def test_long_two_sided_line_memory_follows_its_output(self):
        # the per-node output of M = 2000 is 3.2 MB on the default grid; the
        # propagator's peak measured 9.6 MB (DOP853's 13.8 MB): the table,
        # the interior and the stacked line, with a chunk of step tables
        p, q, M = 0.01, 0.1, 2000
        t = default_time_grid(p, q)
        f_line_two_sided(t[:3], p, q, 8)  # first-call allocations stay out of the count
        tracemalloc.start()
        try:
            per_node, _, _ = f_line_two_sided(t, p, q, M)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * per_node.nbytes

    def test_pair_survival_matches_oracle(self):
        p, q, M = 0.05, 0.3, 6
        net = build_line(M, p, q, sided="two")
        t = np.linspace(0.0, 20.0, 11)
        sol = solve_master(net, t)
        s1_half = _circle_survivals(t, p, q / 2, M)
        for j in range(2, M + 1):
            pair = pair_survival_two_sided_line(s1_half, M, j)
            ref = sol.survival([j - 2, j - 1])
            assert np.max(np.abs(pair - ref)) < 1e-10

    def test_pair_survival_bounds(self):
        s1_half = _circle_survivals(T_GRID, 0.05, 0.15, 5)
        with pytest.raises(ValueError, match="j must be in 2..6"):
            pair_survival_two_sided_line(s1_half, 6, 1)
        with pytest.raises(ValueError, match="j must be in 2..6"):
            pair_survival_two_sided_line(s1_half, 6, 7)
        with pytest.raises(ValueError, match="sizes up to 6; the table has 5"):
            pair_survival_two_sided_line(s1_half, 7, 2)

    def test_quadrature_route_matches_ode_route(self):
        p, q, M = 0.04, 0.22, 5
        t = np.linspace(0.0, 25.0, 11)
        pn_ode, f_ode, _ = f_line_two_sided(t, p, q, M)
        pn_quad, f_quad, source = f_line_two_sided_quadrature(t, p, q, M)
        assert source == "quadrature"
        assert np.max(np.abs(pn_ode - pn_quad)) < 1e-8
        assert np.max(np.abs(f_ode - f_quad)) < 1e-8

    def test_two_sided_beats_one_sided_in_aggregate(self):
        _, f_one, _ = f_line_one_sided(T_GRID, 0.01, 0.1, 6)
        _, f_two, _ = f_line_two_sided(T_GRID, 0.01, 0.1, 6)
        assert np.all(f_two[1:] > f_one[1:])


class TestHybrid:
    def test_per_node_structure(self):
        p, q, C, K = 0.02, 0.19, 4, 3
        per_node, f, source = f_hybrid(T_GRID, p, q, C, K)
        assert source == "ode"
        assert per_node.shape == (C + K, T_GRID.size)
        exact = exact_f(build_hybrid_circle_ray(C, K, p, q), T_GRID).per_node
        fC, _ = f_circle(T_GRID, p, q, C)
        for j in range(C):
            assert np.array_equal(per_node[j], per_node[0])
            assert np.max(np.abs(per_node[j] - fC)) <= 1e-10
        for k in range(1, K + 1):
            fk, _ = f_circle(T_GRID, p, q, C + k)
            assert np.max(np.abs(per_node[C + k - 1] - fk)) <= 1e-10
        assert np.max(np.abs(per_node - exact)) <= 1e-10
        assert np.allclose(f, per_node.mean(axis=0), atol=0)

    def test_matches_oracle(self):
        from basslab.network import build_hybrid_circle_ray

        net = build_hybrid_circle_ray(3, 2, 0.05, 0.3)
        t = np.linspace(0.0, 20.0, 11)
        per_node, _, _ = f_hybrid(t, 0.05, 0.3, 3, 2)
        ref = solve_master(net, t).marginals()
        assert np.max(np.abs(per_node - ref)) < 1e-8

    def test_size_validation(self):
        with pytest.raises(ValueError):
            f_hybrid(T_GRID, 0.02, 0.19, 0, 3)
        with pytest.raises(ValueError):
            f_hybrid(T_GRID, 0.02, 0.19, 3, 0)


class TestShiftIdentities:
    def test_one_sided_small_cases(self):
        for k, M in ((2, 4), (3, 5), (5, 5)):
            resid = shift_identity_residual(T_GRID, 0.03, 0.24, k, M, sided="one")
            assert np.max(resid) < 1e-9

    def test_two_sided_small_cases(self):
        for k, M in ((3, 5), (4, 6), (6, 6)):
            resid = shift_identity_residual(T_GRID, 0.03, 0.24, k, M, sided="two")
            assert np.max(resid) < 1e-9


class TestDiagnostics:
    def test_alpha_positive(self):
        t = T_GRID[1:]
        for k in range(1, 10):
            assert np.all(alpha_diag(t, 0.01, 0.1, k) > 0)

    def test_alpha_small_k_is_plain_difference(self):
        S1, _ = survival_circle(T_GRID, 0.05, 0.3, 1)
        S2, _ = survival_circle(T_GRID, 0.05, 0.3, 2)
        assert np.max(np.abs(alpha_diag(T_GRID, 0.05, 0.3, 1)[0] - (S1 - S2))) < 1e-10

    @pytest.mark.parametrize("k", [8, 9])
    def test_alpha_deep_tail_matches_high_precision(self, k):
        # this regime destroys the naive subtraction (true value below the
        # round-off of either survival); the direct integration must hold
        for t in (5.0, 10.0, 20.0):
            ref = hierarchy_expm_survival(t, 0.01, 0.1, k) - hierarchy_expm_survival(
                t, 0.01, 0.1, k + 1
            )
            got = alpha_diag(np.array([t]), 0.01, 0.1, k)[-1, 0]
            assert got == pytest.approx(ref, rel=1e-8)

    @pytest.mark.parametrize("q", [0.1, 0.001])
    def test_alpha_rows_match_the_tau_integral(self, q):
        # the appendix suite's grid; DOP853 ran 1e-7 off in relative terms
        # on alpha_9(1.5). At q = 0.001, alpha_9(1.5) is 1.5e-34: a chain
        # from 0 has no floor, so no term may be dropped by an absolute bound
        p = 0.01
        t = np.linspace(1.5, 30.0, 20)
        table = alpha_diag(t, p, q, 9)
        for j in (1, 5, 9):
            ref = np.array([float(alpha_tau_integral(ti, p, q, j)) for ti in t])
            assert np.max(np.abs(table[j - 1] / ref - 1.0)) <= 1e-14, j

    def test_alpha_table_rows_are_the_single_solves(self):
        # the appendix suite's grid: one k = 9 solve gives every row
        t = np.linspace(1.5, 30.0, 20)
        table = alpha_diag(t, 0.01, 0.1, 9)
        assert table.shape == (9, t.size) and np.all(table > 0)
        for k in range(1, 10):
            np.testing.assert_allclose(table[k - 1], alpha_diag(t, 0.01, 0.1, k)[-1], rtol=1e-7)

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            alpha_diag(T_GRID, 0.01, 0.1, 0)

    def test_beta_positive(self):
        t = T_GRID[1:]
        s1, s1_half = _circle_survivals(t, 0.01, 0.1, 5), _circle_survivals(t, 0.01, 0.05, 5)
        for k, M in ((1, 2), (1, 5), (3, 5), (4, 5)):
            assert np.all(beta_diag(t, 0.01, k, M, s1, s1_half) > 0)

    def test_beta_bounds(self):
        s1 = _circle_survivals(T_GRID, 0.01, 0.1, 5)
        with pytest.raises(ValueError):
            beta_diag(T_GRID, 0.01, 5, 5, s1, s1)

    def test_gamma_positive(self):
        t = T_GRID[1:]
        s1 = _circle_survivals(t, 0.01, 0.1, 5)
        for k, M in ((1, 3), (2, 5), (3, 5)):
            assert np.all(gamma_diag(t, 0.01, k, M, s1) > 0)

    def test_gamma_bounds(self):
        s1 = _circle_survivals(T_GRID, 0.01, 0.1, 5)
        with pytest.raises(ValueError):
            gamma_diag(T_GRID, 0.01, 4, 5, s1)

    def test_table_must_cover_the_circle_size(self):
        s1 = _circle_survivals(T_GRID, 0.01, 0.1, 4)
        with pytest.raises(ValueError, match="sizes up to 5"):
            gamma_diag(T_GRID, 0.01, 1, 5, s1)

    def test_nu_outermost_identity(self):
        # for the outermost node pair the definition collapses to
        # e^{-pt} + S(t;q,M) - 2 S(t;q/2,M)
        p, q, M = 0.02, 0.23, 6
        Sq, _ = survival_circle(T_GRID, p, q, M)
        Sh, _ = survival_circle(T_GRID, p, q / 2, M)
        expected = np.exp(-p * T_GRID) + Sq - 2 * Sh
        s_one = _circle_survivals(T_GRID, p, q, M)
        _, (s_two,) = _two_sided_lines(T_GRID, p, q, (M,))
        assert np.max(np.abs(nu_diag(s_one, s_two, 1) - expected)) < 1e-10

    def test_nu_positive_all_k(self):
        t = T_GRID[1:]
        s_one = _circle_survivals(t, 0.01, 0.1, 6)
        _, (s_two,) = _two_sided_lines(t, 0.01, 0.1, (6,))
        for k in range(1, 7):
            assert np.all(nu_diag(s_one, s_two, k) > 0)

    def test_nu_from_survivals_validation(self):
        s = np.ones((4, 3))
        with pytest.raises(ValueError, match="equal shapes"):
            nu_diag(s, np.ones((5, 3)), 1)
        with pytest.raises(ValueError, match="k must be in 1..4"):
            nu_diag(s, s, 5)

    def test_psi_positive(self):
        t = T_GRID[1:]
        s1, s1_half = _circle_survivals(t, 0.01, 0.1, 8), _circle_survivals(t, 0.01, 0.05, 8)
        for k, M in ((2, 3), (2, 6), (3, 5), (4, 8)):
            assert np.all(psi_diag(t, 0.01, k, M, s1, s1_half) > 0)

    def test_psi_bounds(self):
        s1 = _circle_survivals(T_GRID, 0.01, 0.1, 6)
        with pytest.raises(ValueError):
            psi_diag(T_GRID, 0.01, 1, 6, s1, s1)
        with pytest.raises(ValueError):
            psi_diag(T_GRID, 0.01, 4, 6, s1, s1)


class TestDecaySpan:
    @pytest.mark.parametrize("solve", [
        lambda t, p, q: _circle_survivals(t, p, q, 6),
        lambda t, p, q: f_line_two_sided(t, p, q, 6),
        lambda t, p, q: alpha_diag(t, p, q, 3),
    ], ids=["circle", "two-sided-line", "alpha"])
    def test_solve_past_the_bound_is_refused(self, solve):
        p, q = 1e-14, 0.1
        t = np.linspace(0.0, 1.01 * MAX_DECAY_SPAN / (p + q), 3)
        with pytest.raises(ValueError, match=r"\(p\+q\)\*t_max = 1\.01e\+04 is past"):
            solve(t, p, q)

    def test_solve_at_the_bound_runs(self):
        p, q = 0.01, 0.1
        t = np.linspace(0.0, MAX_DECAY_SPAN / (p + q), 50)
        S = _circle_survivals(t, p, q, 6)[-1]
        assert np.max(np.abs(S - closed_form(t, p, q, 6))) < 1e-10

    def test_automatic_route_at_tiny_p_is_refused(self):
        # q/p = 1e13 fails the closed form's rounding bound; the default
        # grid's horizon is 9.6e7
        with pytest.raises(ValueError, match="past"):
            f_circle(default_time_grid(1e-14, 0.1), 1e-14, 0.1, 6)


_S1 = np.ones((4, T_GRID.size))  # an S_1 table; the size is refused before it is read

# (case, call, the argument the refusal names)
NON_INTEGER_SIZES = [
    ("f_circle-closed-form", lambda: f_circle(T_GRID, 0.01, 0.1, 6.0), "M"),
    ("f_circle-ode", lambda: f_circle(T_GRID, 0.01, 0.1, float(CLOSED_FORM_MAX_M + 1)), "M"),
    ("default_time_grid", lambda: default_time_grid(0.01, 0.1, 200.0), "points"),
    ("f_line_one_sided", lambda: f_line_one_sided(T_GRID, 0.01, 0.1, 6.0), "M"),
    ("f_line_two_sided", lambda: f_line_two_sided(T_GRID, 0.01, 0.1, 2.5), "M"),
    ("f_line_two_sided-one-node", lambda: f_line_two_sided(T_GRID, 0.01, 0.1, 1.0), "M"),
    ("f_hybrid-circle", lambda: f_hybrid(T_GRID, 0.01, 0.1, 2.5, 2), "circle_size"),
    ("f_hybrid-ray", lambda: f_hybrid(T_GRID, 0.01, 0.1, 2, "2"), "ray_size"),
    ("alpha_diag", lambda: alpha_diag(T_GRID, 0.01, 0.1, 2.5), "k"),
    ("beta_diag", lambda: beta_diag(T_GRID, 0.01, 1.0, 4, _S1, _S1), "k"),
    ("gamma_diag", lambda: gamma_diag(T_GRID, 0.01, 1, 4.0, _S1), "M"),
    ("nu_diag", lambda: nu_diag(_S1, _S1, 1.0), "k"),
    ("pair_survival_two_sided_line", lambda: pair_survival_two_sided_line(_S1, 4, 2.0), "j"),
    ("psi_diag", lambda: psi_diag(T_GRID, 0.01, 2, 4.0, _S1, _S1), "M"),
    ("build_circle", lambda: build_circle(6.0, 0.01, 0.1), "M"),
    ("build_line", lambda: build_line(6.0, 0.01, 0.1, sided="two"), "M"),
    ("build_grid-D", lambda: build_grid(2.0, 3, 0.01, 0.1), "D"),
    ("build_grid-side", lambda: build_grid(2, 3.0, 0.01, 0.1), "side"),
    ("build_hybrid_circle_ray-circle", lambda: build_hybrid_circle_ray(2.5, 2, 0.01, 0.1), "circle_size"),
    ("build_hybrid_circle_ray-ray", lambda: build_hybrid_circle_ray(2, 2.5, 0.01, 0.1), "ray_size"),
]


@pytest.mark.parametrize("call, name", [(call, name) for _, call, name in NON_INTEGER_SIZES],
                         ids=[case for case, _, _ in NON_INTEGER_SIZES])
def test_non_integer_size_is_refused(monkeypatch, call, name):
    # the two-sided line once took 2.5 nodes for 2, and the other sizes
    # ended in a TypeError of Python or numpy
    monkeypatch.setattr(analytic, "_propagate", lambda *args, **kwargs: pytest.fail("solved"))
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
        call()


def test_numpy_integer_sizes_pass():
    t = np.linspace(0.0, 30.0, 7)
    for solve in (f_line_one_sided, f_line_two_sided):
        assert np.array_equal(solve(t, 0.01, 0.1, np.int64(5))[0], solve(t, 0.01, 0.1, 5)[0])
    assert np.array_equal(f_hybrid(t, 0.01, 0.1, np.int32(3), np.int64(2))[0],
                          f_hybrid(t, 0.01, 0.1, 3, 2)[0])
    assert np.array_equal(alpha_diag(t, 0.01, 0.1, np.int64(3)), alpha_diag(t, 0.01, 0.1, 3))
    assert build_circle(np.int64(6), 0.01, 0.1).edges == build_circle(6, 0.01, 0.1).edges


class TestTimeGrid:
    def test_reaches_requested_coverage(self):
        g = default_time_grid(0.01, 0.1, points=100)
        assert g.size == 100 and g[0] == 0.0
        assert f_one_dim_limit(g[-1], 0.01, 0.1)[0] == pytest.approx(0.99, abs=1e-9)

    @pytest.mark.parametrize("p", [1e-3, 1e-2, 1e-1, 1.0])
    def test_horizon_matches_brentq(self, p):
        eps = np.finfo(float).eps
        qs = [0.0, *np.logspace(-3, 1, 9), 45 * p, 2 * p * (1 + 2e-9)]  # q/p = 45; resonant q
        for q in qs:
            T = default_time_grid(p, q)[-1]
            ref = brentq_horizon(p, q)
            assert abs(T - ref) <= 2e-12 + 4 * eps * ref, q

    @pytest.mark.parametrize("p", [1e-3, 0.01, 0.37, 1.0])
    def test_zero_q_horizon_is_exact(self, p):
        assert default_time_grid(p, 0.0)[-1] == -math.log1p(-0.99) / p

    def test_horizon_past_cap_is_an_error(self):
        with pytest.raises(ValueError, match="past 1e12"):
            default_time_grid(1e-12, 0.0)
