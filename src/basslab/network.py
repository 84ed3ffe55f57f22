"""Directed weighted networks for Bass diffusion.

Nodes carry an external adoption rate p_j; a directed edge (i, j, w) adds
hazard w to node j once node i has adopted. Builders produce the canonical
1D/lattice topologies with the homogeneous q/k_D weight rule. Node indices
are 0-based throughout the library; only the CLI and CSV headers use 1-based
labels.
"""
from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

Edge = tuple[int, int, float]


class Dominance(enum.Enum):
    """Outcome of the componentwise parameter comparison of two networks.

    A non-equal comparable pair always has at least one strict component,
    so the reachable verdicts are the strict ones plus EQUAL and
    INCOMPARABLE. A weakly dominates B iff the verdict is EQUAL or
    A_PRECEDES_B.
    """

    EQUAL = "equal"
    A_PRECEDES_B = "A<B"
    B_PRECEDES_A = "B<A"
    INCOMPARABLE = "incomparable"


@dataclass(frozen=True)
class Network:
    """Immutable directed weighted network.

    edges are kept as a tuple sorted by (source, target); at most one edge
    per ordered pair, weights strictly positive, no self-edges.
    """

    n: int
    p: np.ndarray
    edges: tuple[Edge, ...]
    tag: str = "general"
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise ValueError(f"node count must be positive, got {self.n}")
        p = np.asarray(self.p, dtype=float)
        if p.shape != (self.n,):
            raise ValueError(f"p must have shape ({self.n},), got {p.shape}")
        if np.any(p < 0):
            raise ValueError("external rates must be non-negative")
        object.__setattr__(self, "p", p)
        edges = tuple(sorted((int(i), int(j), float(w)) for i, j, w in self.edges))
        seen: set[tuple[int, int]] = set()
        for i, j, w in edges:
            if i == j:
                raise ValueError(f"self-edge {i}->{j} is not allowed")
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValueError(f"edge {i}->{j} is out of range for n={self.n}")
            if (i, j) in seen:
                raise ValueError(f"duplicate edge {i}->{j}")
            if not w > 0:
                raise ValueError(f"edge {i}->{j} has non-positive weight {w}")
            seen.add((i, j))
        object.__setattr__(self, "edges", edges)

    @cached_property
    def weight_matrix(self) -> np.ndarray:
        """Dense (n, n) matrix W with W[i, j] = weight of edge i->j (0 if absent)."""
        W = np.zeros((self.n, self.n))
        for i, j, w in self.edges:
            W[i, j] = w
        return W

    @cached_property
    def out_neighbors(self) -> tuple[tuple[int, ...], ...]:
        out: list[list[int]] = [[] for _ in range(self.n)]
        for i, j, _ in self.edges:
            out[i].append(j)
        return tuple(tuple(v) for v in out)

    def has_edge(self, i: int, j: int) -> bool:
        return any((a, b) == (i, j) for a, b, _ in self.edges)

    def in_degree(self, j: int) -> int:
        return sum(1 for _, b, _ in self.edges if b == j)

    def to_json(self) -> str:
        doc = {
            "nodes": self.n,
            "p": [float(x) for x in self.p],
            "edges": [[i, j, w] for i, j, w in self.edges],
            "tag": self.tag,
        }
        if self.meta:
            doc["meta"] = self.meta
        return json.dumps(doc)

    @staticmethod
    def from_json(text: str) -> "Network":
        doc = json.loads(text)
        return Network(
            n=int(doc["nodes"]),
            p=np.asarray(doc["p"], dtype=float),
            edges=tuple((int(i), int(j), float(w)) for i, j, w in doc["edges"]),
            tag=doc.get("tag", "general"),
            meta=doc.get("meta", {}),
        )


def _merge_edges(raw: Iterable[tuple[int, int, float]]) -> tuple[Edge, ...]:
    # Coincident directed pairs accumulate weight (e.g. the two q/2
    # influences between the two nodes of a two-sided circle with M=2).
    acc: dict[tuple[int, int], float] = {}
    for i, j, w in raw:
        if i == j:
            continue  # wraparound onto itself: no self-influence
        acc[(i, j)] = acc.get((i, j), 0.0) + w
    return tuple((i, j, w) for (i, j), w in sorted(acc.items()))


def _check_rates(M: int, p: float, q: float) -> None:
    if M <= 0:
        raise ValueError(f"M must be positive, got {M}")
    if p <= 0:
        raise ValueError(f"p must be positive, got {p}")
    if q < 0:
        raise ValueError(f"q must be non-negative, got {q}")


def _sided_ok(sided: str) -> str:
    if sided not in ("one", "two"):
        raise ValueError(f"sided must be 'one' or 'two', got {sided!r}")
    return sided


def build_circle(M: int, p: float, q: float, sided: str = "one") -> Network:
    """Circle of M nodes; one-sided: edge (j-1)->j weight q; two-sided adds
    both neighbors at q/2 each."""
    _check_rates(M, p, q)
    _sided_ok(sided)
    raw: list[tuple[int, int, float]] = []
    if q > 0 and M >= 2:
        for j in range(M):
            raw.append(((j - 1) % M, j, q if sided == "one" else q / 2))
            if sided == "two":
                raw.append(((j + 1) % M, j, q / 2))
    return Network(
        n=M,
        p=np.full(M, float(p)),
        edges=_merge_edges(raw),
        tag=f"circle_{sided}_sided",
        meta={"p": p, "q": q, "sided": sided},
    )


def build_line(M: int, p: float, q: float, sided: str = "one") -> Network:
    """Line of M nodes (missing neighbors act as permanent non-adopters)."""
    _check_rates(M, p, q)
    _sided_ok(sided)
    raw: list[tuple[int, int, float]] = []
    if q > 0:
        for j in range(M):
            if j - 1 >= 0:
                raw.append((j - 1, j, q if sided == "one" else q / 2))
            if sided == "two" and j + 1 < M:
                raw.append((j + 1, j, q / 2))
    return Network(
        n=M,
        p=np.full(M, float(p)),
        edges=_merge_edges(raw),
        tag=f"line_{sided}_sided",
        meta={"p": p, "q": q, "sided": sided},
    )


def build_grid(
    D: int,
    side: int,
    p: float,
    q: float,
    sided: str = "one",
    periodic: bool = True,
) -> Network:
    """D-dimensional Cartesian grid with side^D nodes.

    One-sided: one incoming edge per coordinate (weight q/D) from the left
    neighbor; two-sided: both neighbors at q/(2D). periodic wraps
    coordinates; otherwise out-of-box neighbors are omitted with weights
    unchanged.
    """
    if D < 1:
        raise ValueError(f"D must be >= 1, got {D}")
    _check_rates(side, p, q)
    _sided_ok(sided)
    M = side**D
    shape = (side,) * D
    w = q / D if sided == "one" else q / (2 * D)
    raw: list[tuple[int, int, float]] = []
    if q > 0:
        coords = np.indices(shape).reshape(D, M)
        for d in range(D):
            deltas = (-1, +1) if sided == "two" else (-1,)
            for delta in deltas:
                nb = coords.copy()
                nb[d] = nb[d] + delta
                if periodic:
                    nb[d] %= side
                    valid = np.ones(M, dtype=bool)
                else:
                    valid = (nb[d] >= 0) & (nb[d] < side)
                    nb[d] = np.clip(nb[d], 0, side - 1)
                src = np.ravel_multi_index(nb, shape)
                dst = np.arange(M)
                for s, t in zip(src[valid], dst[valid]):
                    raw.append((int(s), int(t), w))
    return Network(
        n=M,
        p=np.full(M, float(p)),
        edges=_merge_edges(raw),
        tag="torus" if periodic else "box",
        meta={"D": D, "side": side, "p": p, "q": q, "sided": sided, "periodic": periodic},
    )


def build_hybrid_circle_ray(circle_size: int, ray_size: int, p: float, q: float) -> Network:
    """One-sided circle of circle_size nodes from which a one-sided ray of
    ray_size nodes issues (all weights q). Circle nodes are 0..C-1, ray nodes
    C..C+K-1; the ray issues from circle node C-1."""
    if circle_size < 1 or ray_size < 1:
        raise ValueError("circle_size and ray_size must be >= 1")
    _check_rates(circle_size + ray_size, p, q)
    C, K = circle_size, ray_size
    raw: list[tuple[int, int, float]] = []
    if q > 0:
        for j in range(C):
            raw.append(((j - 1) % C, j, q))
        raw.append((C - 1, C, q))
        for k in range(1, K):
            raw.append((C + k - 1, C + k, q))
    return Network(
        n=C + K,
        p=np.full(C + K, float(p)),
        edges=_merge_edges(raw),
        tag="hybrid_circle_ray",
        meta={"circle_size": C, "ray_size": K, "p": p, "q": q},
    )


def dominates(A: Network, B: Network) -> Dominance:
    """Componentwise comparison of all p_j and q_{i,j} (absent edge = 0)."""
    if A.n != B.n:
        raise ValueError(f"node counts differ: {A.n} vs {B.n}")
    a = np.concatenate([A.p, A.weight_matrix.ravel()])
    b = np.concatenate([B.p, B.weight_matrix.ravel()])
    le_ab = bool(np.all(a <= b))
    le_ba = bool(np.all(b <= a))
    if le_ab and le_ba:
        return Dominance.EQUAL
    if le_ab:
        return Dominance.A_PRECEDES_B
    if le_ba:
        return Dominance.B_PRECEDES_A
    return Dominance.INCOMPARABLE


def weakly_dominates(A: Network, B: Network) -> bool:
    """True iff A ⪯ B (all parameters of A are <= those of B)."""
    return dominates(A, B) in (Dominance.EQUAL, Dominance.A_PRECEDES_B)


def validate_node_set(net: Network, omega: Iterable[int]) -> tuple[int, ...]:
    """Normalize a node set: sorted, unique, non-empty, in range."""
    nodes = sorted(set(int(v) for v in omega))
    if not nodes:
        raise ValueError("node set must be non-empty")
    if nodes[0] < 0 or nodes[-1] >= net.n:
        raise ValueError(f"node set {nodes} out of range for n={net.n}")
    return tuple(nodes)


def remove_edges(net: Network, pairs: Sequence[tuple[int, int]]) -> Network:
    gone = set((int(i), int(j)) for i, j in pairs)
    for i, j in gone:
        if not net.has_edge(i, j):
            raise ValueError(f"edge {i}->{j} not present")
    kept = tuple(e for e in net.edges if (e[0], e[1]) not in gone)
    return Network(n=net.n, p=net.p, edges=kept, tag="general", meta=dict(net.meta))


def add_edges(net: Network, new: Sequence[Edge]) -> Network:
    for i, j, w in new:
        if net.has_edge(int(i), int(j)):
            raise ValueError(f"edge {i}->{j} already present")
    return Network(
        n=net.n,
        p=net.p,
        edges=net.edges + tuple((int(i), int(j), float(w)) for i, j, w in new),
        tag="general",
        meta=dict(net.meta),
    )
