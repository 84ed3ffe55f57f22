import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import basslab.principles as principles
from basslab.network import Network, build_circle, build_line, weakly_dominates
from basslab.oracle import survival
from basslab.principles import (
    FIGURE_PLAN_NAMES,
    TransformPlan,
    _apply_with_records,
    classify_edge,
    dominance_pairs,
    figure_plan,
    oracle_dominance_report,
    verify_indifference,
)

T = np.linspace(0.0, 30.0, 16)


def non_influential(net, omega):
    """The edges of net that are non-influential for omega."""
    return {(i, j) for i, j, _w in net.edges if not classify_edge(net, omega, (i, j)).influential}


def transformed(net, plan):
    """The network the plan leaves."""
    return _apply_with_records(net, plan)[0]


def case_graph():
    """Six nodes, omega = {0}; exercises every classification outcome."""
    edges = ((0, 1, 0.1), (2, 3, 0.1), (3, 4, 0.1), (5, 2, 0.1), (2, 5, 0.1), (5, 0, 0.1))
    return Network(n=6, p=np.full(6, 0.01), edges=edges)


class TestClassification:
    def test_source_inside_omega(self):
        cls = classify_edge(case_graph(), [0], (0, 1))
        assert not cls.influential and cls.case == 1

    def test_target_cannot_reach_omega(self):
        net = case_graph()
        for edge in ((2, 3), (3, 4)):
            cls = classify_edge(net, [0], edge)
            assert not cls.influential and cls.case == 2

    def test_all_paths_pass_through_source(self):
        cls = classify_edge(case_graph(), [0], (5, 2))
        assert not cls.influential and cls.case == 3

    def test_influential_edges(self):
        net = case_graph()
        for edge in ((2, 5), (5, 0)):
            cls = classify_edge(net, [0], edge)
            assert cls.influential and cls.case is None

    def test_two_sided_line_upstream_edges(self):
        # watching the right end: every left-going edge is a case-3 echo,
        # except the one leaving the watched node itself
        net = build_line(6, 0.01, 0.1, sided="two")
        omega = [5]
        for i in range(4):
            cls = classify_edge(net, omega, (i + 1, i))
            assert not cls.influential and cls.case == 3
        cls = classify_edge(net, omega, (5, 4))
        assert not cls.influential and cls.case == 1
        for i in range(5):
            assert classify_edge(net, omega, (i, i + 1)).influential

    def test_one_sided_line_downstream_edges(self):
        net = build_line(5, 0.01, 0.1, sided="one")
        assert classify_edge(net, [2], (2, 3)).case == 1
        assert classify_edge(net, [2], (3, 4)).case == 2
        assert classify_edge(net, [2], (0, 1)).influential

    def test_missing_edge_raises(self):
        with pytest.raises(ValueError, match="not present"):
            classify_edge(case_graph(), [0], (1, 0))

    def test_empty_omega_raises(self):
        with pytest.raises(ValueError):
            classify_edge(case_graph(), [], (0, 1))

    def test_non_influential_listing(self):
        net = build_line(6, 0.01, 0.1, sided="two")
        assert non_influential(net, [5]) == {(i + 1, i) for i in range(5)}

    def test_to_dict(self):
        d = classify_edge(case_graph(), [0], (5, 2)).to_dict()
        assert d == {
            "edge": [5, 2],
            "influential": False,
            "case": 3,
            "reason": "every path from target to the observed set passes through source",
        }


class TestTransforms:
    def test_plan_requires_omega(self):
        with pytest.raises(ValueError, match="omega"):
            TransformPlan(omega=())

    def test_empty_plan_is_identity(self):
        net = build_circle(4, 0.01, 0.1)
        assert transformed(net, TransformPlan(omega=(0,))) is net

    def test_safe_removal_applies(self):
        net = build_line(4, 0.01, 0.1, sided="one")
        out = transformed(net, TransformPlan(omega=(1,), removals=((1, 2),)))
        assert not out.has_edge(1, 2)
        assert len(out.edges) == 2

    def test_verify_flags_influential_removal(self):
        net = build_line(4, 0.01, 0.1, sided="one")
        plan = TransformPlan(omega=(3,), removals=((0, 1),))
        report = verify_indifference(net, plan, t_grid=T)
        assert not report["passed"]
        assert not report["all_non_influential"]
        assert report["max_gap"] > 1e-6

    def test_whole_network_omega_reduces_to_intrinsic_rates(self):
        # with every node watched, each edge source lies in omega, so the
        # whole edge set can be deleted and survival is pure e^{-sum(p) t}
        net = build_circle(4, 0.03, 0.4)
        plan = TransformPlan(
            omega=tuple(range(4)), removals=tuple((i, j) for i, j, _ in net.edges)
        )
        report = verify_indifference(net, plan, t_grid=T)
        assert report["passed"]
        assert report["max_gap"] <= 1e-10
        after = survival(transformed(net, plan), plan.omega, T)
        assert np.max(np.abs(after - np.exp(-0.12 * T))) < 1e-10


class TestFigurePlans:
    @pytest.mark.parametrize("name", ["fig3", "fig6", "fig7"])
    def test_preset_passes(self, name):
        for case in figure_plan(name):
            report = verify_indifference(case.network, case.plan, t_grid=T)
            assert report["passed"], case.label

    def test_pair_split_disconnects_the_line(self):
        (case,) = figure_plan("fig8")
        out = transformed(case.network, case.plan)
        # the two halves may only be bridged by edges leaving the watched
        # pair itself; those cannot affect what the pair experiences
        left = {0, 1, 2}
        for i, j, _w in out.edges:
            if (i in left) != (j in left):
                assert i in case.plan.omega, (i, j)
        report = verify_indifference(case.network, case.plan, t_grid=T)
        assert report["passed"]
        # and the pair survival factorizes into two half-rate circles
        from basslab.analytic import survival_circle

        s3, _ = survival_circle(T, 0.01, 0.05, 3)
        s5, _ = survival_circle(T, 0.01, 0.05, 5)
        assert np.max(np.abs(survival(out, case.plan.omega, T) - s3 * s5)) < 1e-10

    def test_names_are_exhaustive(self):
        for name in FIGURE_PLAN_NAMES:
            assert figure_plan(name)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown plan"):
            figure_plan("fig99")

    def test_unexpected_argument(self):
        with pytest.raises(TypeError):
            figure_plan("fig3", M=6)


p_small = st.floats(0.01, 0.5, allow_nan=False)
w_small = st.floats(0.05, 0.5, allow_nan=False)


@st.composite
def small_networks(draw, max_nodes=5):
    n = draw(st.integers(2, max_nodes))
    p = np.array([draw(p_small) for _ in range(n)])
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=1, max_size=8))
    edges = tuple((i, j, draw(w_small)) for i, j in chosen)
    return Network(n=n, p=p, edges=edges)


class TestStructuralInvariance:
    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_classification_commutes_with_relabeling(self, data):
        net = data.draw(small_networks())
        perm = data.draw(st.permutations(range(net.n)))
        omega = data.draw(
            st.lists(st.integers(0, net.n - 1), unique=True, min_size=1, max_size=net.n)
        )
        relabeled = Network(
            n=net.n,
            p=np.array([net.p[perm.index(j)] for j in range(net.n)]),
            edges=tuple((perm[i], perm[j], w) for i, j, w in net.edges),
        )
        for i, j, _w in net.edges:
            a = classify_edge(net, omega, (i, j))
            b = classify_edge(relabeled, [perm[x] for x in omega], (perm[i], perm[j]))
            assert a.influential == b.influential
            assert a.case == b.case

    @given(st.data())
    @settings(max_examples=20, deadline=None)
    def test_batch_removal_preserves_survival(self, data):
        net = data.draw(small_networks())
        omega = data.draw(
            st.lists(st.integers(0, net.n - 1), unique=True, min_size=1, max_size=net.n)
        )
        plan = TransformPlan(omega=tuple(omega), removals=tuple(sorted(non_influential(net, omega))))
        t = np.linspace(0.0, 20.0, 9)
        report = verify_indifference(net, plan, t_grid=t)
        assert report["all_non_influential"]
        assert report["max_gap"] <= 1e-10


class TestDominanceCorollaries:
    def test_pairs_are_ordered(self):
        for name, lo, hi in dominance_pairs():
            assert weakly_dominates(lo, hi), name

    def test_oracle_report_passes(self):
        report = oracle_dominance_report(t_grid=np.linspace(0.0, 30.0, 11))
        assert len(report) == 5
        for entry in report:
            assert entry["passed"], entry["name"]
            assert entry["max_order_violation"] <= 1e-10

    def test_oracle_report_solves_each_network_once(self, monkeypatch):
        # the one-sided circle is one object in four pairs: 7 distinct
        # networks in 10 slots. Copying every slot's network solves all 10,
        # and the report must not change.
        t = np.linspace(0.0, 30.0, 11)
        solved = []
        exact = principles.exact_marginals

        def counted(net, t_grid):
            solved.append(net)
            return exact(net, t_grid)

        monkeypatch.setattr(principles, "exact_marginals", counted)
        shared = oracle_dominance_report(t_grid=t)
        assert len(solved) == 7
        pairs = principles.dominance_pairs
        monkeypatch.setattr(principles, "dominance_pairs", lambda p, q: [
            (name, copy.copy(lo), copy.copy(hi)) for name, lo, hi in pairs(p, q)])
        solved.clear()
        assert oracle_dominance_report(t_grid=t) == shared
        assert len(solved) == 10


class TestCouplingConsistency:
    def test_verdicts_match_the_partial_order(self):
        from basslab.simulator import SimConfig, run_coupled

        cfg = SimConfig(trials=200, base_seed=31, t_max=15.0)
        for name, lo, hi in dominance_pairs():
            rep = run_coupled(lo, hi, cfg)
            assert rep["verdict"] == "pass", name
