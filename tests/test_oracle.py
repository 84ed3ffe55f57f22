import logging
import re
import tracemalloc
import warnings
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest

from basslab import oracle
from basslab.analytic import (
    f_circle,
    f_hybrid,
    f_line_one_sided,
    f_line_two_sided,
    pair_survival_two_sided_line,
)
from basslab.network import (
    Network,
    build_circle,
    build_grid,
    build_hybrid_circle_ray,
    build_line,
    remove_edges,
)
from basslab.oracle import (
    HARD_CAP,
    MasterSolution,
    _marginals,
    _poisson_terms,
    _image,
    _lumped_marginals,
    _orbits,
    _poisson_weights,
    _symmetries,
    _uniformized,
    build_generator,
    exact_f,
    exact_marginals,
    solve_master,
    survival,
)
from conftest import dense_weights, independent_survival, two_node_chain_survival

T = np.linspace(0.0, 20.0, 21)


def _bits(M):
    """bits[A, j] = 1 iff node j is in adopter set A."""
    return ((np.arange(1 << M)[:, None] >> np.arange(M)) & 1).astype(float)


def _dense_rate_generator(net):
    """Generator assembled from rate[A, j] = p_j + sum_{i in A} W[i, j]."""
    M = net.n
    bits = _bits(M)
    rate = (net.p[None, :] + bits @ dense_weights(net)) * (1 - bits)
    states = np.arange(1 << M)
    Q = np.zeros((1 << M, 1 << M))
    for j in range(M):
        src = states[bits[:, j] == 0]
        Q[src | (1 << j), src] = rate[src, j]
    Q[states, states] = -rate.sum(axis=1)
    return Q


class TestSmallExactCases:
    def test_single_node(self):
        net = Network(n=1, p=np.array([0.17]), edges=())
        marg = exact_marginals(net, T)
        assert np.max(np.abs(marg[0] - (1.0 - np.exp(-0.17 * T)))) < 1e-10

    def test_initial_state_is_point_mass_on_empty_set(self):
        sol = solve_master(build_circle(3, 0.1, 0.3), np.array([0.0, 1.0]))
        assert sol.t[0] == 0.0
        assert sol.probs[0, 0] == pytest.approx(1.0, abs=1e-12)  # the empty set
        assert sol.probs[0, 1] == pytest.approx(0.0, abs=1e-12)  # {0}

    def test_edgeless_network_factorizes(self):
        p = np.array([0.05, 0.11, 0.23, 0.4])
        net = Network(n=4, p=p, edges=())
        sol = solve_master(net, T)
        for nodes in ([0], [1, 3], [0, 1, 2, 3]):
            ref = independent_survival(T, p, nodes)
            assert np.max(np.abs(sol.survival(nodes) - ref)) < 1e-10

    def test_two_node_chain_matches_conditioning_formula(self):
        p1, p2, w = 0.08, 0.05, 0.31
        net = Network(n=2, p=np.array([p1, p2]), edges=((0, 1, w),))
        sol = solve_master(net, T)
        assert np.max(np.abs(sol.survival([0]) - np.exp(-p1 * T))) < 1e-10
        ref = two_node_chain_survival(T, p1, p2, w)
        assert np.max(np.abs(sol.survival([1]) - ref)) < 1e-10

    def test_circle_sidedness_is_invisible_in_distribution(self):
        one = solve_master(build_circle(4, 0.05, 0.3, sided="one"), T)
        two = solve_master(build_circle(4, 0.05, 0.3, sided="two"), T)
        f1 = one.marginals().mean(axis=0)
        f2 = two.marginals().mean(axis=0)
        assert np.max(np.abs(f1 - f2)) < 1e-10


class TestSurvival:
    def test_whole_network_set(self):
        # only spontaneous adoption can break an all-susceptible network
        M, p = 4, 0.07
        net = build_circle(M, p, 0.4)
        assert np.max(np.abs(survival(net, range(M), T) - np.exp(-M * p * T))) < 1e-11

    def test_singleton_complements_marginal(self):
        net = build_line(4, 0.05, 0.3, sided="two")
        sol = solve_master(net, T)
        marg = sol.marginals()
        for j in range(4):
            assert np.max(np.abs(sol.survival([j]) - (1.0 - marg[j]))) < 1e-12

    def test_adjacent_pair_on_two_sided_line_factorizes(self):
        p, q, M = 0.05, 0.3, 5
        sol = solve_master(build_line(M, p, q, sided="two"), T)
        for j in range(2, M + 1):
            ref = pair_survival_two_sided_line(T, p, q, M, j)
            assert np.max(np.abs(sol.survival([j - 2, j - 1]) - ref)) < 1e-10

    def test_set_monotone_in_omega(self):
        net = build_circle(5, 0.05, 0.3)
        sol = solve_master(net, T)
        small = sol.survival([1, 2])
        big = sol.survival([1, 2, 4])
        assert np.all(big[1:] < small[1:])

    def test_node_validation(self):
        sol = solve_master(build_circle(3, 0.1, 0.3), T)
        with pytest.raises(ValueError):
            sol.survival([])
        with pytest.raises(ValueError):
            sol.survival([3])


class TestAgainstAnalytic:
    def test_circle_curve(self):
        net = build_circle(6, 0.05, 0.3)
        curve = exact_f(net, T)
        assert curve.source == "oracle"
        assert curve.f[0] == 0.0
        ref, _ = f_circle(T, 0.05, 0.3, 6)
        assert np.max(np.abs(curve.f - ref)) < 1e-8
        assert curve.per_node.shape == (6, T.size)
        assert np.max(np.abs(curve.per_node - ref)) < 1e-8

    def test_hybrid_curve(self):
        net = build_hybrid_circle_ray(3, 2, 0.05, 0.3)
        curve = exact_f(net, T)
        fC, _ = f_circle(T, 0.05, 0.3, 3)
        f4, _ = f_circle(T, 0.05, 0.3, 4)
        f5, _ = f_circle(T, 0.05, 0.3, 5)
        ref = np.vstack([fC, fC, fC, f4, f5])
        assert np.max(np.abs(curve.per_node - ref)) < 1e-8


class TestStructure:
    def test_conservation(self):
        sol = solve_master(build_circle(6, 0.05, 0.3), T)
        assert sol.conservation_defect() < 1e-12

    def test_marginals_monotone(self):
        sol = solve_master(build_line(5, 0.05, 0.3, sided="two"), T)
        assert np.all(np.diff(sol.marginals(), axis=1) > -1e-10)

    def test_generator_only_adds_nodes(self):
        # every off-diagonal transition goes from a set to a strict superset
        # obtained by adding exactly one node
        net = build_line(4, 0.05, 0.3, sided="two")
        Q = build_generator(net).tocoo()
        off = Q.row != Q.col
        rows, cols = Q.row[off], Q.col[off]
        assert np.all((rows & cols) == cols)
        popcount = np.vectorize(lambda x: bin(x).count("1"))
        assert np.all(popcount(rows) == popcount(cols) + 1)
        assert np.all(Q.data[off] > 0)

    def test_generator_matches_dense_rate_construction(self):
        # the reference builds every rate from the dense weight matrix
        rng = np.random.default_rng(3)
        edges = tuple(
            (int(i), int(j), float(rng.uniform(0.1, 0.9)))
            for i in range(6) for j in range(6) if i != j and rng.random() < 0.4
        )
        for net in (
            build_grid(2, 3, 0.05, 0.3, periodic=True, sided="two"),
            Network(n=6, p=rng.uniform(0.0, 0.2, 6), edges=edges),
        ):
            Q = build_generator(net)
            assert Q.has_sorted_indices
            assert np.max(np.abs(Q.toarray() - _dense_rate_generator(net))) < 1e-15

    def test_generator_columns_sum_to_zero(self):
        Q = build_generator(build_circle(5, 0.05, 0.3))
        colsum = np.asarray(Q.sum(axis=0)).ravel()
        assert np.max(np.abs(colsum)) < 1e-12

    def test_size_cap(self):
        net = Network(n=HARD_CAP + 1, p=np.full(HARD_CAP + 1, 0.1), edges=())
        with pytest.raises(ValueError, match="capped"):
            solve_master(net, T)

    def test_grid_validation(self):
        net = build_circle(3, 0.1, 0.3)
        with pytest.raises(ValueError):
            solve_master(net, np.array([-1.0, 0.0]))
        with pytest.raises(ValueError):
            solve_master(net, np.array([0.0, 2.0, 1.0]))
        with pytest.raises(ValueError):
            solve_master(net, np.zeros(0))


class TestMonotonicityInStructure:
    def test_line_survives_longer_than_circle(self):
        # the circle is the line plus one edge, so every set survives at
        # least as long on the line
        p, q, M = 0.05, 0.3, 5
        line = solve_master(build_line(M, p, q, sided="one"), T)
        circ = solve_master(build_circle(M, p, q, sided="one"), T)
        rng = np.random.default_rng(7)
        for _ in range(8):
            size = rng.integers(1, M + 1)
            nodes = rng.choice(M, size=size, replace=False)
            s_line = line.survival(nodes)
            s_circ = circ.survival(nodes)
            assert np.all(s_circ <= s_line + 1e-11)

    def test_survival_strictly_decreases_in_q(self):
        lo = solve_master(build_circle(4, 0.05, 0.2), T)
        hi = solve_master(build_circle(4, 0.05, 0.4), T)
        assert np.all(hi.survival([0, 1])[1:] < lo.survival([0, 1])[1:])


class TestContainers:
    def test_solution_shape_validation(self):
        net = build_circle(3, 0.1, 0.3)
        with pytest.raises(ValueError, match="shape"):
            MasterSolution(network=net, t=T, probs=np.zeros((T.size, 4)))


class TestUniformization:
    def test_silent_network_stays_empty_without_warnings(self):
        # p = 0 everywhere: nobody ever adopts. Edgeless, every outflow is 0
        # (Lambda = 0); with edges, Lambda > 0 but the empty set still never
        # leaves.
        silent = Network(n=3, p=np.zeros(3), edges=())
        ring = Network(n=3, p=np.zeros(3), edges=((0, 1, 0.3), (1, 2, 0.3), (2, 0, 0.3)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for net in (silent, ring):
                curve = exact_f(net, T)
                assert np.all(curve.f == 0.0)
                assert np.all(curve.per_node == 0.0)
                assert np.max(np.abs(survival(net, [0, 2], T) - 1.0)) < 1e-14

    def test_grid_shapes(self):
        net = build_line(4, 0.05, 0.3, sided="two")
        ref = exact_marginals(net, np.array([0.0, 0.5, 1.0, 2.0]))
        repeated = exact_marginals(net, np.array([0.0, 1.0, 1.0, 2.0, 2.0]))
        assert np.max(np.abs(repeated - ref[:, [0, 2, 2, 3, 3]])) < 1e-15
        late = exact_f(net, np.array([0.5, 1.0, 2.0]))
        assert np.max(np.abs(late.per_node - ref[:, 1:])) < 1e-15
        assert late.f[0] > 0
        origin = exact_f(net, np.array([0.0]))
        assert origin.f.tolist() == [0.0] and np.all(origin.per_node == 0.0)
        assert survival(net, [1], [0.0]).tolist() == [1.0]

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_times_are_refused(self, bad):
        net = build_line(4, 0.05, 0.3, sided="two")
        t = np.array([0.0, 1.0, bad])
        for solve in (lambda: exact_f(net, t), lambda: survival(net, [1], t),
                      lambda: solve_master(net, t)):
            with pytest.raises(ValueError, match="t_grid must hold only finite times"):
                solve()

    def test_folded_marginals_match_bit_table(self):
        v = np.random.default_rng(5).random(1 << 7)
        assert np.max(np.abs(_marginals(v) - v @ _bits(7))) < 1e-13

    def test_curve_matches_full_distribution(self):
        net = build_hybrid_circle_ray(3, 2, 0.05, 0.3)
        curve = exact_f(net, T)
        full = solve_master(net, T)
        assert np.max(np.abs(curve.per_node - full.marginals())) <= 1e-14
        assert np.max(np.abs(survival(net, [0, 4], T) - full.survival([0, 4]))) <= 1e-14

    def test_poisson_weights_hold_their_mass_at_large_means(self):
        # e^{-m} underflows in linear space past m = 745, and the plain log
        # form -m + n log m - lgamma(n+1) loses 6e-11 of the mass at 44,000
        means = np.array([0.0, 1e-3, 1.0, 100.0, 1000.0, 44000.0])
        W = _poisson_weights(means, 0, _poisson_terms(44000.0))
        assert np.all(W >= 0)
        assert W[0].tolist() == [1.0] + [0.0] * (W.shape[1] - 1)
        assert np.max(np.abs(W.sum(axis=1) - 1.0)) < 1e-13
        assert np.argmax(W[4]) in (999, 1000)
        assert np.array_equal(_poisson_weights(means, 40, 72), W[:, 40:72])
        for m, n in ((0.5, 0), (0.5, 3), (30.0, 16), (1000.0, 1000), (1000.0, 1150), (44000.0, 44500)):
            with mp.workdps(40):
                ref = float(mp.exp(n * mp.log(m) - m - mp.loggamma(n + 1)))
            got = _poisson_weights(np.array([m]), n, n + 1)[0, 0]
            assert abs(got - ref) <= 1e-12 * ref

    def test_truncated_tail_fails_conservation(self, monkeypatch):
        monkeypatch.setattr(oracle, "POISSON_TAIL", 1e-3)
        with pytest.raises(RuntimeError, match="conservation"):
            exact_f(build_circle(4, 0.05, 0.3), T)

    def test_each_solve_logs_its_statistics(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="basslab.oracle"):
            exact_f(Network(n=1, p=np.array([0.17]), edges=()), T)
        (record,) = caplog.records
        assert record.name == "basslab.oracle"
        msg = record.getMessage()
        assert "2 states" in msg and "Lambda 0.17" in msg
        assert "terms" in msg and "conservation defect" in msg

    def test_curves_do_not_hold_the_distribution(self):
        M, t = 14, np.linspace(0.0, 60.0, 200)
        net = build_circle(M, 0.01, 0.1)
        exact_f(net, t[:2])  # first-call allocations stay out of the count
        tracemalloc.start()
        try:
            exact_f(net, t)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < t.size * 2**M * 8 / 4

    def test_sweep_stops_once_the_chain_has_absorbed(self, caplog):
        # Lambda t_max = 22 * 2000 asks for 45,755 terms; the chain is
        # absorbed in the all-adopted set after a couple of hundred
        t = np.linspace(0.0, 2000.0, 200)
        with caplog.at_level(logging.DEBUG, logger="basslab.oracle"):
            curve = exact_f(build_circle(4, 1.0, 10.0), t)
        ref, _ = f_circle(t, 1.0, 10.0, 4)
        assert np.max(np.abs(curve.f - ref)) <= 1e-12
        terms = re.search(r"(\d+) of (\d+) terms", caplog.records[-1].getMessage())
        used, planned = int(terms[1]), int(terms[2])
        assert planned == 45755
        assert used < 500

    def test_full_distribution_memory_follows_the_grid_not_the_terms(self):
        # a long horizon needs hundreds of terms; only two times are kept
        M, t = 10, np.array([0.0, 300.0])
        net = build_circle(M, 0.05, 0.3)
        solve_master(net, t[:1])
        tracemalloc.start()
        try:
            sol = solve_master(net, t)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sol.conservation_defect() < 1e-12
        assert peak < 100 * 2**M * 8


def _unlumped_marginals(net, t):
    """The sweep over all 2^M adopter sets, whatever the network's symmetry."""
    return _uniformized(build_generator(net), t, _marginals, net.n, "unlumped").T


def _is_symmetry(net, g):
    """Whether the node map g sends p and every weighted edge onto themselves."""
    W = dense_weights(net)
    return np.array_equal(net.p[g], net.p) and np.array_equal(W[np.ix_(g, g)], W)


# network, then the group order, orbit count and node class count the finder
# must report; the orbit counts are Burnside's for the group (necklaces and
# bracelets on circles)
LUMPED = {
    "torus3_one": (build_grid(2, 3, 0.01, 0.1, sided="one"), 18, 44, 1),
    "torus3_two": (build_grid(2, 3, 0.01, 0.1, sided="two"), 72, 26, 1),
    "torus4_one": (build_grid(2, 4, 0.01, 0.1, sided="one"), 32, 2209, 1),
    "torus4_two": (build_grid(2, 4, 0.01, 0.1, sided="two"), 128, 805, 1),
    "box3_one": (build_grid(2, 3, 0.01, 0.1, sided="one", periodic=False), 2, 288, 6),
    "box3_two": (build_grid(2, 3, 0.01, 0.1, sided="two", periodic=False), 8, 102, 3),
    "box4_one": (build_grid(2, 4, 0.01, 0.1, sided="one", periodic=False), 2, 33280, 10),
    "box4_two": (build_grid(2, 4, 0.01, 0.1, sided="two", periodic=False), 8, 8548, 3),
    "torus2x2x2": (build_grid(3, 2, 0.01, 0.1, sided="two"), 48, 22, 1),
    "circle5": (build_circle(5, 0.01, 0.1), 5, 8, 1),
    "circle12": (build_circle(12, 0.01, 0.1), 12, 352, 1),
    "circle18": (build_circle(18, 0.01, 0.1), 18, 14602, 1),
    "circle5_two": (build_circle(5, 0.01, 0.1, sided="two"), 10, 8, 1),
    "circle12_two": (build_circle(12, 0.01, 0.1, sided="two"), 24, 224, 1),
    "circle18_two": (build_circle(18, 0.01, 0.1, sided="two"), 36, 7685, 1),
    "line5_two": (build_line(5, 0.01, 0.1, sided="two"), 2, 20, 3),
    "line16_two": (build_line(16, 0.01, 0.1, sided="two"), 2, 32896, 8),
}


class TestLumping:
    T60 = np.linspace(0.0, 60.0, 61)

    @pytest.mark.parametrize("name", LUMPED)
    def test_lumped_route_matches_translations_and_the_full_sweep(self, name):
        net, order, n_orbits, n_classes = LUMPED[name]
        sym = _symmetries(net)
        assert sym is not None
        assert (sym.order, _orbits(net.n, sym)[0].size, sym.node_class.max() + 1) == (
            order, n_orbits, n_classes)
        assert all(_is_symmetry(net, g) for g in sym.cosets)
        lumped = exact_marginals(net, self.T60)
        assert np.max(np.abs(lumped - _unlumped_marginals(net, self.T60))) <= 1e-13
        if name.startswith(("torus", "circle")):
            # the shifts alone, the group the oracle lumped by before it
            # read reflections and axis permutations
            assert sym.shift_axes == tuple(range(len(sym.shape)))
            shifts = replace(sym, cosets=sym.cosets[:1], order=net.n,
                             node_class=np.zeros(net.n, dtype=int))
            assert np.max(np.abs(lumped - _lumped_marginals(net, self.T60, shifts))) <= 1e-13
        else:
            assert sym.shift_axes == ()

    def _perturbed(self):
        """(network, order of the group that still holds, its node classes)."""
        torus = build_grid(2, 4, 0.01, 0.1, sided="two")
        circle = build_circle(12, 0.01, 0.1)
        two = build_circle(12, 0.01, 0.1, sided="two")
        p = circle.p.copy()
        p[5] = 0.02

        def heavier(net, pairs):
            return replace(net, edges=tuple(
                (i, j, 0.2 if (i, j) in pairs else w) for i, j, w in net.edges))

        box = build_grid(2, 3, 0.01, 0.1, periodic=False)
        return [
            # the reflection of the first axis about row 0 fixes the edge 0 -> 1
            (remove_edges(torus, [torus.edges[0][:2]]), 2, 12),
            # the point group of the torus about node 5
            (replace(torus, p=np.where(np.arange(16) == 5, 0.02, 0.01)), 8, 6),
            (replace(circle, p=p), 1, None),
            (heavier(circle, {(0, 1)}), 1, None),
            # x -> 10 - x fixes node 5 of the two-sided circle
            (replace(two, p=p), 2, 7),
            (heavier(two, {(0, 1)}), 1, None),
            (heavier(two, {(0, 1), (1, 0)}), 2, 6),
            # a one-sided box keeps its axis swap
            (box, 2, 6),
        ]

    def test_perturbed_networks_keep_only_the_symmetries_that_hold(self):
        for net, order, n_classes in self._perturbed():
            sym = _symmetries(net)
            if order == 1:
                assert sym is None
            else:
                assert (sym.order, sym.node_class.max() + 1, sym.shift_axes) == (order, n_classes, ())
                assert all(_is_symmetry(net, g) for g in sym.cosets)
            got = exact_marginals(net, self.T60)
            assert np.max(np.abs(got - _unlumped_marginals(net, self.T60))) <= 1e-13

    def test_group_is_read_from_the_rates(self):
        assert _symmetries(build_circle(16, 0.01, 0.1)).shape == (16,)
        assert _symmetries(build_grid(2, 4, 0.01, 0.1)).shape == (4, 4)
        assert _symmetries(build_grid(3, 2, 0.01, 0.1, sided="two")).shape == (2, 2, 2)
        assert _symmetries(build_line(16, 0.01, 0.1)) is None
        assert _symmetries(Network(n=1, p=np.array([0.1]), edges=())) is None

    def test_image_maps_every_node_of_the_set(self):
        rng = np.random.default_rng(11)
        M = 20
        g = rng.permutation(M)
        sets = rng.integers(0, 1 << M, 500).astype(np.int32)
        ref = [sum(1 << int(g[i]) for i in range(M) if a >> i & 1) for a in sets.tolist()]
        assert _image(sets, g).tolist() == ref

    def test_each_solve_names_its_route(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="basslab.oracle"):
            exact_f(build_grid(2, 4, 0.01, 0.1), self.T60)
            exact_f(build_line(16, 0.01, 0.1, sided="two"), self.T60)
            exact_f(build_line(5, 0.01, 0.1), self.T60)
            survival(build_circle(4, 0.01, 0.1), [0], self.T60)
        torus, line, one, surv = (r.getMessage() for r in caplog.records)
        assert "lumped by 32 symmetries of (4, 4): 2209 orbits of 65536 states, 1 node class;" in torus
        assert "lumped by 2 symmetries of (16,): 32896 orbits of 65536 states, 8 node classes" in line
        assert "unlumped: no symmetry, 32 states" in one
        assert "unlumped: set survival, 16 states" in surv

    def test_size_cap_holds_for_the_lumped_route(self):
        net = build_circle(HARD_CAP + 1, 0.01, 0.1)
        with pytest.raises(ValueError, match="capped"):
            exact_f(net, self.T60)

    @pytest.mark.parametrize("sided", ("one", "two"))
    def test_orbit_labelling_streams(self, sided):
        # the images of every state under the M translations alone, held at
        # once, would take M * 2^M * 4 bytes as int32
        M = 18
        net = build_circle(M, 0.01, 0.1, sided=sided)
        exact_f(net, self.T60[:2])
        tracemalloc.start()
        try:
            exact_f(net, self.T60)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < M * 2**M * 4


# q/p at which the exponent sum cancels badly (45), just off the q = 2p
# resonance, and a moderate ratio
RATIOS = (4.5, 45.0, 2 * (1 + 1e-9))


@pytest.mark.parametrize("M", (5, 8, 12, 16))
@pytest.mark.parametrize("ratio", RATIOS)
@pytest.mark.parametrize("topology", ("circle", "line_one", "line_two", "hybrid"))
def test_analytic_routes_agree_with_master_equation(topology, ratio, M):
    p = 0.01
    q = ratio * p
    t = np.linspace(0.0, 2.0 / (p + q) + 100.0, 41)
    if topology == "circle":
        fc, _ = f_circle(t, p, q, M)
        per_node = np.tile(fc, (M, 1))
        net = build_circle(M, p, q)
    elif topology == "hybrid":
        C = M // 2
        per_node, _, _ = f_hybrid(t, p, q, C, M - C)
        net = build_hybrid_circle_ray(C, M - C, p, q)
    else:
        sided = topology[-3:]
        fn = f_line_one_sided if sided == "one" else f_line_two_sided
        per_node, _, _ = fn(t, p, q, M)
        net = build_line(M, p, q, sided=sided)
    assert np.all((per_node > -1e-12) & (per_node < 1 + 1e-12))
    assert np.max(np.abs(per_node - exact_f(net, t).per_node)) <= 1e-10


def test_two_sided_line_memory_is_linear_in_size():
    # 2M-2 states and no matrix; a dense block-diagonal hierarchy over every
    # size up to M = 60 would take 27 MB by itself
    t = np.linspace(0.0, 300.0, 200)
    f_line_two_sided(t, 0.01, 0.1, 5)
    tracemalloc.start()
    try:
        f_line_two_sided(t, 0.01, 0.1, 60)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20
