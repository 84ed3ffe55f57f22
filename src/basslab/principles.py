"""Structural principles: which edges can change without changing what a
set of nodes experiences, and which parameter changes can only help.

An edge a -> b is non-influential with respect to a node set Omega when any
of three structural conditions holds:

1. a is in Omega (a node's own adoption state never feeds back into the
   probability that Omega stays untouched);
2. no directed path leads from b to Omega;
3. every directed path from b to Omega passes through a.

Deleting or inserting non-influential edges leaves the non-adoption
probability of Omega exactly invariant. The transform plans below exercise
that invariance: each reduces a structured network to a smaller equivalent
one whose survival curve is known in closed form.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from . import network as net_mod
from .curves import _check_time_grid
from .network import Network, add_edges, build_circle, build_hybrid_circle_ray, build_line, dominates, remove_edges
from .oracle import exact_marginals, survival

VERIFY_TOL = 1e-10
# verify's horizon, and its grid: a point at each whole time up to it
VERIFY_T_MAX = 30.0
VERIFY_GRID = np.linspace(0.0, VERIFY_T_MAX, int(VERIFY_T_MAX) + 1)
VERIFY_GRID.flags.writeable = False
# node count of the circles and lines in dominance_pairs
DOMINANCE_M = 6

FIGURE_PLAN_NAMES = ("fig3", "fig4", "fig6", "fig7", "fig8", "fig13", "fig14", "fig15")


@dataclass(frozen=True)
class EdgeClassification:
    edge: tuple[int, int]
    influential: bool
    case: int | None
    reason: str

    def to_dict(self) -> dict:
        return {
            "edge": list(self.edge),
            "influential": self.influential,
            "case": self.case,
            "reason": self.reason,
        }


def _reaches(net: Network, start: int, targets: frozenset[int], blocked: int | None) -> bool:
    """True if a directed path start -> ... -> some target exists that never
    enters `blocked`. Membership counts as the empty path."""
    if start == blocked:
        return False
    if start in targets:
        return True
    seen = {start}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for v in net.dst[net.indptr[u] : net.indptr[u + 1]].tolist():
            if v == blocked or v in seen:
                continue
            if v in targets:
                return True
            seen.add(v)
            queue.append(v)
    return False


def classify_edge(net: Network, omega, edge: tuple[int, int]) -> EdgeClassification:
    """Classify an existing edge a -> b against the node set omega."""
    a, b = int(edge[0]), int(edge[1])
    if not net.has_edge(a, b):
        raise ValueError(f"edge {a}->{b} not present")
    om = frozenset(net_mod.validate_node_set(net, omega))
    if a in om:
        return EdgeClassification((a, b), False, 1, "source in the observed set")
    if not _reaches(net, b, om, blocked=None):
        return EdgeClassification((a, b), False, 2, "no path from target to the observed set")
    if not _reaches(net, b, om, blocked=a):
        return EdgeClassification(
            (a, b), False, 3, "every path from target to the observed set passes through source"
        )
    return EdgeClassification((a, b), True, None, "carries influence to the observed set")


@dataclass(frozen=True)
class TransformPlan:
    """Edge deletions then insertions to apply against a fixed observed set.

    Removals are classified in the starting network (deleting edges can
    only remove paths, so a safe batch stays safe); each addition is
    classified in the network that already contains it and the earlier
    additions.
    """

    omega: tuple[int, ...]
    removals: tuple[tuple[int, int], ...] = ()
    additions: tuple[tuple[int, int, float], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "omega", tuple(int(j) for j in self.omega))
        object.__setattr__(self, "removals", tuple((int(i), int(j)) for i, j in self.removals))
        object.__setattr__(
            self, "additions", tuple((int(i), int(j), float(w)) for i, j, w in self.additions)
        )
        if not self.omega:
            raise ValueError("omega must be non-empty")


def _apply_with_records(net: Network, plan: TransformPlan):
    """The plan's network and the classification of every edge it touches."""
    records: list[EdgeClassification] = []
    for e in plan.removals:
        records.append(classify_edge(net, plan.omega, e))
    cur = remove_edges(net, plan.removals) if plan.removals else net
    for i, j, w in plan.additions:
        cur = add_edges(cur, [(i, j, w)])
        records.append(classify_edge(cur, plan.omega, (i, j)))
    return cur, records


def verify_indifference(net: Network, plan: TransformPlan, t_grid=VERIFY_GRID) -> dict:
    """Check that the plan leaves Prob(omega untouched) invariant, by exact
    master-equation solves of both networks."""
    t_grid = _check_time_grid(t_grid)
    transformed, records = _apply_with_records(net, plan)
    before = survival(net, plan.omega, t_grid)
    after = survival(transformed, plan.omega, t_grid)
    max_gap = float(np.max(np.abs(before - after)))
    all_safe = all(not r.influential for r in records)
    return {
        "omega": list(plan.omega),
        "n_removed": len(plan.removals),
        "n_added": len(plan.additions),
        "classifications": [r.to_dict() for r in records],
        "all_non_influential": all_safe,
        "max_gap": max_gap,
        "tol": VERIFY_TOL,
        "passed": bool(all_safe and max_gap <= VERIFY_TOL),
        "network_before": net.to_dict(),
        "network_after": transformed.to_dict(),
    }


# ---------------------------------------------------------------------------
# Preset transform scenarios


@dataclass(frozen=True)
class PlanCase:
    name: str
    label: str
    network: Network
    plan: TransformPlan
    note: str


def figure_plan(name: str, p: float = 0.01, q: float = 0.1) -> list[PlanCase]:
    """Named preset transform scenarios; each returns one or two cases of
    (network, plan) ready for verify_indifference. Node ids are 0-based."""
    M = 8  # node count of the circles and lines
    if name == "fig3":
        k, s = 3, 1
        net = build_circle(M, p, q, sided="one")
        omega = tuple((s + i) % M for i in range(k))
        removals = tuple(((s + i) % M, (s + i + 1) % M) for i in range(k - 1))
        additions = ((s % M, (s + k) % M, q),)
        plan = TransformPlan(omega=omega, removals=removals, additions=additions)
        note = (
            f"block of {k} on the one-sided {M}-circle reduces to {k - 1} isolated nodes "
            f"plus a {M - k + 1}-circle"
        )
        return [PlanCase(name, "circle_block_shift", net, plan, note)]

    if name == "fig4":
        k, s = 4, 1
        net = build_circle(M, p, q, sided="two")
        omega = tuple((s + i) % M for i in range(k))
        removals = []
        for i in range(k - 1):
            a, b = (s + i) % M, (s + i + 1) % M
            removals += [(a, b), (b, a)]
        first, last = s % M, (s + k - 1) % M
        additions = ((first, last, q / 2), (last, first, q / 2))
        plan = TransformPlan(omega=omega, removals=tuple(removals), additions=additions)
        note = (
            f"block of {k} on the two-sided {M}-circle reduces to {k - 2} isolated nodes "
            f"plus an adjacent pair on a {M - k + 2}-circle"
        )
        return [PlanCase(name, "two_sided_circle_block_shift", net, plan, note)]

    if name == "fig6":
        j = 4
        net = build_line(M, p, q, sided="one")
        plan = TransformPlan(omega=(j,), removals=((j, j + 1),), additions=((j, 0, q),))
        note = f"node {j} of the one-sided line closes into a {j + 1}-circle"
        return [PlanCase(name, "line_node_to_circle", net, plan, note)]

    if name == "fig7":
        net = build_line(M, p, q, sided="two")
        removals = tuple((i + 1, i) for i in range(M - 1))
        plan = TransformPlan(omega=(M - 1,), removals=removals, additions=((M - 1, 0, q / 2),))
        note = f"last node of the two-sided line closes into a half-rate {M}-circle"
        return [PlanCase(name, "last_node_to_half_rate_circle", net, plan, note)]

    if name == "fig8":
        j = 3  # omega = {j-1, j}
        net = build_line(M, p, q, sided="two")
        removals = [(i, i + 1) for i in range(j - 1, M - 1)]  # right-going from omega onward
        removals += [(i + 1, i) for i in range(j - 1)]  # left-going up to omega
        additions = ((j - 1, 0, q / 2), (j, M - 1, q / 2))
        plan = TransformPlan(omega=(j - 1, j), removals=tuple(removals), additions=additions)
        note = (
            f"adjacent interior pair of the two-sided line splits into independent "
            f"half-rate circles of sizes {j} and {M - j}"
        )
        return [PlanCase(name, "interior_pair_to_independent_circles", net, plan, note)]

    if name == "fig13":
        C, K, k = 4, 3, 2  # circle size, ray size, 1-based position along the ray
        net = build_hybrid_circle_ray(C, K, p, q)
        node = C + k - 1
        removals = ((C - 1, 0), (node, node + 1))
        plan = TransformPlan(omega=(node,), removals=removals, additions=((node, 0, q),))
        note = f"ray node {k} of the circle-with-ray closes into a {C + k}-circle"
        return [PlanCase(name, "ray_node_to_circle", net, plan, note)]

    if name == "fig14":
        one = build_line(M, p, q, sided="one")
        plan_one = TransformPlan(
            omega=(0,), removals=tuple((i, i + 1) for i in range(M - 1)), additions=()
        )
        two = build_line(M, p, q, sided="two")
        plan_two = TransformPlan(
            omega=(0,), removals=tuple((i, i + 1) for i in range(M - 1)), additions=()
        )
        return [
            PlanCase(name, "first_node_isolated", one, plan_one,
                     "first node of the one-sided line keeps only its intrinsic rate"),
            PlanCase(name, "first_node_half_rate_chain", two, plan_two,
                     "first node of the two-sided line ends a half-rate one-sided chain"),
        ]

    if name == "fig15":
        net = build_line(M, p, q, sided="two")
        removals = tuple((i + 1, i) for i in range(M - 1))
        plan = TransformPlan(omega=(M - 1,), removals=removals, additions=())
        note = f"last node of the two-sided line ends a half-rate one-sided {M}-line"
        return [PlanCase(name, "last_node_half_rate_line", net, plan, note)]

    raise ValueError(f"unknown plan name {name!r}; known: {', '.join(FIGURE_PLAN_NAMES)}")


# ---------------------------------------------------------------------------
# Dominance corollaries


def dominance_pairs(p: float = 0.01, q: float = 0.1) -> list[tuple[str, Network, Network]]:
    """Strictly ordered network pairs (A below B) used by the monotonicity
    checks, on DOMINANCE_M nodes. The one-sided circle is one object,
    shared by four pairs."""
    M = DOMINANCE_M
    circle = build_circle(M, p, q, sided="one")
    chord = add_edges(circle, [(0, M // 2, q)])
    heavier = add_edges(remove_edges(circle, [(0, 1)]), [(0, 1, 2 * q)])
    p_vec = np.full(M, p)
    p_vec[2] = 2 * p
    larger_p = replace(circle, p=p_vec)
    return [
        ("line_within_circle_one_sided", build_line(M, p, q, sided="one"), circle),
        ("line_within_circle_two_sided",
         build_line(M, p, q, sided="two"), build_circle(M, p, q, sided="two")),
        ("extra_chord", circle, chord),
        ("heavier_edge", circle, heavier),
        ("larger_intrinsic_rate", circle, larger_p),
    ]


def oracle_dominance_report(p: float = 0.01, q: float = 0.1, t_grid=VERIFY_GRID) -> list[dict]:
    """Exact check that componentwise-larger parameters give pointwise
    larger per-node adoption probabilities (strictly, past t=0). Each
    distinct network object of dominance_pairs is solved once."""
    t_grid = _check_time_grid(t_grid)
    pairs = dominance_pairs(p, q)
    marginals = {}
    for _, lo, hi in pairs:
        for net in (lo, hi):
            if id(net) not in marginals:
                marginals[id(net)] = exact_marginals(net, t_grid)
    out = []
    for name, lo, hi in pairs:
        relation = dominates(lo, hi)
        m_lo, m_hi = marginals[id(lo)], marginals[id(hi)]
        worst = float(np.max(m_lo - m_hi))
        strict_gap = float(np.max(m_hi - m_lo))
        out.append(
            {
                "name": name,
                "relation": relation.value,
                "max_order_violation": worst,
                "max_strict_gap": strict_gap,
                "tol": VERIFY_TOL,
                "passed": bool(worst <= VERIFY_TOL and strict_gap > VERIFY_TOL),
            }
        )
    return out
