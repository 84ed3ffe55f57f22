import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from basslab.network import (
    Dominance,
    Network,
    add_edges,
    build_circle,
    build_grid,
    build_hybrid_circle_ray,
    build_line,
    dominates,
    remove_edges,
    validate_node_set,
    weakly_dominates,
)
from conftest import dense_weights


def edge_set(net):
    return {(i, j): w for i, j, w in net.edges}


def grid_reference(D, side, q, sided, periodic):
    """Edge weights of the grid, one neighbor of one node at a time, with
    coincident pairs summed in the order they are met."""
    w = q / D if sided == "one" else q / (2 * D)
    shape = (side,) * D
    out = {}
    for c in itertools.product(range(side), repeat=D):
        for d in range(D):
            for delta in (-1, +1) if sided == "two" else (-1,):
                nb = list(c)
                nb[d] += delta
                if not periodic and not 0 <= nb[d] < side:
                    continue
                nb[d] %= side
                pair = int(np.ravel_multi_index(nb, shape)), int(np.ravel_multi_index(c, shape))
                if q > 0 and pair[0] != pair[1]:
                    out[pair] = out.get(pair, 0.0) + w
    return out


class TestValidation:
    def test_rejects_self_edge(self):
        with pytest.raises(ValueError, match="self-edge"):
            Network(n=2, p=np.array([0.1, 0.1]), edges=((0, 0, 1.0),))

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError, match="duplicate"):
            Network(n=2, p=np.array([0.1, 0.1]), edges=((0, 1, 1.0), (0, 1, 2.0)))

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError, match="weight"):
            Network(n=2, p=np.array([0.1, 0.1]), edges=((0, 1, 0.0),))

    @pytest.mark.parametrize("w", [np.nan, np.inf])
    def test_rejects_non_finite_weight(self, w):
        with pytest.raises(ValueError, match="weights must be positive and finite"):
            Network(n=2, p=np.array([0.1, 0.1]), edges=((0, 1, w),))

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(ValueError, match="out of range"):
            Network(n=2, p=np.array([0.1, 0.1]), edges=((0, 2, 1.0),))

    def test_rejects_negative_rate(self):
        with pytest.raises(ValueError, match="non-negative"):
            Network(n=1, p=np.array([-0.1]), edges=())

    @pytest.mark.parametrize("p", [np.nan, np.inf])
    def test_rejects_non_finite_rate(self, p):
        with pytest.raises(ValueError, match="non-negative and finite"):
            Network(n=1, p=np.array([p]), edges=())

    @pytest.mark.parametrize("build", [
        lambda p, q: build_circle(4, p, q),
        lambda p, q: build_line(4, p, q),
        lambda p, q: build_grid(2, 3, p, q),
        lambda p, q: build_hybrid_circle_ray(3, 2, p, q),
    ], ids=["circle", "line", "grid", "hybrid"])
    @pytest.mark.parametrize("p, q, message", [
        (np.nan, 0.1, "p must be positive and finite"),
        (np.inf, 0.1, "p must be positive and finite"),
        (0.01, np.nan, "q must be non-negative and finite"),
        (0.01, np.inf, "q must be non-negative and finite"),
    ])
    def test_builders_reject_non_finite_rates(self, build, p, q, message):
        with pytest.raises(ValueError, match=message):
            build(p, q)

    def test_rejects_bad_node_count(self):
        with pytest.raises(ValueError):
            Network(n=0, p=np.zeros(0), edges=())

    def test_edges_are_sorted(self):
        net = Network(n=3, p=np.full(3, 0.1), edges=((2, 0, 1.0), (0, 1, 1.0)))
        assert net.edges == ((0, 1, 1.0), (2, 0, 1.0))

    def test_arrays_hold_the_sorted_edges(self):
        triples = ((2, 0, 0.5), (0, 2, 1.5), (0, 1, 1.0), (3, 1, 2.0))
        net = Network(n=4, p=np.full(4, 0.1), edges=triples)
        assert net.src.dtype == net.dst.dtype == np.int32
        assert net.src.tolist() == [0, 0, 2, 3]
        assert net.dst.tolist() == [1, 2, 0, 1]
        assert net.w.tolist() == [1.0, 1.5, 0.5, 2.0]
        assert net.indptr.tolist() == [0, 2, 2, 3, 4]
        assert [tuple(map(type, e)) for e in net.edges] == [(int, int, float)] * 4
        from_array = Network(n=4, p=np.full(4, 0.1), edges=np.array(triples))
        assert from_array.edges == net.edges
        with pytest.raises(ValueError, match="triples"):
            Network(n=4, p=np.full(4, 0.1), edges=((0, 1), (1, 2), (2, 3)))


class TestBuilders:
    def test_circle_one_sided_edges(self):
        net = build_circle(5, 0.01, 0.1, sided="one")
        assert edge_set(net) == {((j - 1) % 5, j): 0.1 for j in range(5)}
        assert np.all(net.p == 0.01)

    def test_circle_two_sided_halves_the_weight(self):
        net = build_circle(5, 0.01, 0.1, sided="two")
        expected = {}
        for j in range(5):
            expected[((j - 1) % 5, j)] = 0.05
            expected[((j + 1) % 5, j)] = 0.05
        assert edge_set(net) == expected

    def test_two_node_two_sided_circle_merges_parallel_edges(self):
        # both q/2 influences i -> j coincide, so each direction carries q
        net = build_circle(2, 0.01, 0.1, sided="two")
        assert edge_set(net) == {(0, 1): 0.1, (1, 0): 0.1}

    def test_single_node_circle_has_no_edges(self):
        assert build_circle(1, 0.01, 0.1, sided="one").edges == ()
        assert build_circle(1, 0.01, 0.1, sided="two").edges == ()

    def test_line_one_sided_edges(self):
        net = build_line(4, 0.01, 0.1, sided="one")
        assert edge_set(net) == {(0, 1): 0.1, (1, 2): 0.1, (2, 3): 0.1}

    def test_line_two_sided_edges(self):
        net = build_line(3, 0.01, 0.1, sided="two")
        assert edge_set(net) == {
            (0, 1): 0.05, (1, 0): 0.05, (1, 2): 0.05, (2, 1): 0.05,
        }

    def test_q_zero_builds_edgeless_networks(self):
        for build in (build_circle, build_line):
            assert build(4, 0.01, 0.0, sided="two").edges == ()

    def test_bad_sided_rejected(self):
        with pytest.raises(ValueError, match="sided"):
            build_circle(4, 0.01, 0.1, sided="both")

    def test_grid_d1_equals_circle_and_line(self):
        for sided in ("one", "two"):
            ring = build_grid(1, 6, 0.01, 0.1, sided=sided, periodic=True)
            assert edge_set(ring) == edge_set(build_circle(6, 0.01, 0.1, sided=sided))
            seg = build_grid(1, 6, 0.01, 0.1, sided=sided, periodic=False)
            assert edge_set(seg) == edge_set(build_line(6, 0.01, 0.1, sided=sided))

    def test_torus_in_weight_is_q(self):
        # every node's total incoming weight is exactly q on the torus
        for D, sided in ((2, "one"), (2, "two"), (3, "two")):
            net = build_grid(D, 4, 0.01, 0.12, sided=sided, periodic=True)
            in_w = dense_weights(net).sum(axis=0)
            assert np.allclose(in_w, 0.12, atol=1e-15)

    def test_box_corner_in_weight(self):
        # box corner keeps per-edge weights; missing neighbors just drop out
        net = build_grid(2, 3, 0.01, 0.1, sided="two", periodic=False)
        w = dense_weights(net)
        # corner (0,0) = node 0 has in-edges from nodes 1 and 3 at q/(2D)
        assert w[1, 0] == pytest.approx(0.025)
        assert w[3, 0] == pytest.approx(0.025)
        assert np.count_nonzero(net.dst == 0) == 2

    def test_hybrid_edges(self):
        net = build_hybrid_circle_ray(4, 3, 0.01, 0.1)
        assert edge_set(net) == {
            (0, 1): 0.1, (1, 2): 0.1, (2, 3): 0.1, (3, 0): 0.1,
            (3, 4): 0.1, (4, 5): 0.1, (5, 6): 0.1,
        }

    def test_hybrid_degenerate_circle_has_no_self_loop(self):
        net = build_hybrid_circle_ray(1, 1, 0.01, 0.1)
        assert net.n == 2
        assert net.edges == ((0, 1, 0.1),)

    def test_grid_matches_neighbor_by_neighbor_reference(self):
        for D, side in ((1, 1), (1, 2), (1, 5), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3)):
            for sided, periodic, q in itertools.product(("one", "two"), (True, False), (0.0, 0.3)):
                net = build_grid(D, side, 0.01, q, sided=sided, periodic=periodic)
                assert edge_set(net) == grid_reference(D, side, q, sided, periodic)

    def test_builders_are_deterministic(self):
        a = build_grid(2, 5, 0.02, 0.3, sided="two", periodic=False)
        b = build_grid(2, 5, 0.02, 0.3, sided="two", periodic=False)
        assert a.edges == b.edges and np.array_equal(a.p, b.p)


class TestDominance:
    def test_equal(self):
        a = build_circle(4, 0.01, 0.1)
        b = build_circle(4, 0.01, 0.1)
        assert dominates(a, b) is Dominance.EQUAL
        assert weakly_dominates(a, b)

    def test_subgraph_precedes(self):
        line = build_line(5, 0.01, 0.1)
        circle = build_circle(5, 0.01, 0.1)
        assert dominates(line, circle) is Dominance.A_PRECEDES_B
        assert dominates(circle, line) is Dominance.B_PRECEDES_A
        assert weakly_dominates(line, circle)
        assert not weakly_dominates(circle, line)

    def test_incomparable(self):
        one = build_circle(4, 0.01, 0.1, sided="one")
        two = build_circle(4, 0.01, 0.1, sided="two")
        assert dominates(one, two) is Dominance.INCOMPARABLE

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="node counts"):
            dominates(build_circle(3, 0.01, 0.1), build_circle(4, 0.01, 0.1))


p_values = st.floats(0.001, 2.0, allow_nan=False)
w_values = st.floats(0.01, 3.0, allow_nan=False)


@st.composite
def networks(draw, max_nodes=6):
    n = draw(st.integers(1, max_nodes))
    p = np.array([draw(p_values) for _ in range(n)])
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    edges = tuple((i, j, draw(w_values)) for i, j in chosen)
    return Network(n=n, p=p, edges=edges)


@st.composite
def scaled_up(draw, net):
    """A network componentwise >= net: scale p and weights, maybe add edges."""
    fp = draw(st.floats(1.0, 3.0))
    fw = draw(st.floats(1.0, 3.0))
    edges = [(i, j, w * fw) for i, j, w in net.edges]
    present = {(i, j) for i, j, _ in net.edges}
    missing = [(i, j) for i in range(net.n) for j in range(net.n) if i != j and (i, j) not in present]
    for i, j in draw(st.lists(st.sampled_from(missing), unique=True, max_size=3)) if missing else []:
        edges.append((i, j, draw(w_values)))
    return Network(n=net.n, p=net.p * fp, edges=tuple(edges))


class TestDominanceIsPartialOrder:
    @given(networks())
    @settings(max_examples=50, deadline=None)
    def test_reflexive(self, net):
        assert dominates(net, net) is Dominance.EQUAL

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_antisymmetric(self, data):
        a = data.draw(networks())
        b = data.draw(scaled_up(a))
        if weakly_dominates(a, b) and weakly_dominates(b, a):
            assert dominates(a, b) is Dominance.EQUAL

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_transitive_on_chains(self, data):
        a = data.draw(networks())
        b = data.draw(scaled_up(a))
        c = data.draw(scaled_up(b))
        assert weakly_dominates(a, b)
        assert weakly_dominates(b, c)
        assert weakly_dominates(a, c)

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_verdicts_are_mirror_images(self, data):
        a = data.draw(networks())
        b = data.draw(networks(max_nodes=a.n))
        if b.n != a.n:
            b = Network(n=a.n, p=np.resize(b.p, a.n), edges=())
        forward, backward = dominates(a, b), dominates(b, a)
        mirror = {
            Dominance.EQUAL: Dominance.EQUAL,
            Dominance.INCOMPARABLE: Dominance.INCOMPARABLE,
            Dominance.A_PRECEDES_B: Dominance.B_PRECEDES_A,
            Dominance.B_PRECEDES_A: Dominance.A_PRECEDES_B,
        }
        assert backward is mirror[forward]

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_agrees_with_dense_comparison(self, data):
        a = data.draw(networks())
        b = data.draw(scaled_up(a))
        if b.edges and data.draw(st.booleans()):  # an edge only in a: incomparable or reversed
            b = remove_edges(b, [data.draw(st.sampled_from(b.edges))[:2]])
        for x, y in ((a, b), (b, a), (a, a)):
            u = np.concatenate([x.p, dense_weights(x).ravel()])
            v = np.concatenate([y.p, dense_weights(y).ravel()])
            verdict = {
                (True, True): Dominance.EQUAL,
                (True, False): Dominance.A_PRECEDES_B,
                (False, True): Dominance.B_PRECEDES_A,
                (False, False): Dominance.INCOMPARABLE,
            }[bool(np.all(u <= v)), bool(np.all(v <= u))]
            assert dominates(x, y) is verdict


class TestSerialization:
    def test_json_fields(self):
        net = build_circle(3, 0.01, 0.1)
        doc = json.loads(net.to_json())
        assert doc["nodes"] == 3
        assert doc["p"] == [0.01, 0.01, 0.01]
        assert doc["edges"] == [[0, 1, 0.1], [1, 2, 0.1], [2, 0, 0.1]]
        assert doc["tag"] == "circle_one_sided"

    @given(networks())
    @settings(max_examples=50, deadline=None)
    def test_round_trip(self, net):
        back = Network.from_json(net.to_json())
        assert back.n == net.n
        assert np.array_equal(back.p, net.p)
        assert back.edges == net.edges
        assert back.tag == net.tag


class TestEdgeSurgery:
    def test_remove_missing_edge_raises(self):
        with pytest.raises(ValueError, match="not present"):
            remove_edges(build_circle(4, 0.01, 0.1), [(0, 2)])

    def test_add_existing_edge_raises(self):
        with pytest.raises(ValueError, match="already present"):
            add_edges(build_circle(4, 0.01, 0.1), [(0, 1, 0.2)])

    @given(networks())
    @settings(max_examples=50, deadline=None)
    def test_has_edge_matches_the_edge_set(self, net):
        present = set(edge_set(net))
        for i in range(-1, net.n + 1):
            for j in range(-1, net.n + 1):
                assert net.has_edge(i, j) is ((i, j) in present)

    def test_remove_then_add_round_trip(self):
        net = build_circle(4, 0.01, 0.1)
        stripped = remove_edges(net, [(0, 1)])
        assert not stripped.has_edge(0, 1)
        assert len(stripped.edges) == 3
        back = add_edges(stripped, [(0, 1, 0.1)])
        assert edge_set(back) == edge_set(net)

    def test_validate_node_set(self):
        net = build_circle(4, 0.01, 0.1)
        assert validate_node_set(net, [3, 1, 1]) == (1, 3)
        with pytest.raises(ValueError):
            validate_node_set(net, [])
        with pytest.raises(ValueError):
            validate_node_set(net, [4])
