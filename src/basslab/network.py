"""Directed weighted networks for Bass diffusion.

Nodes carry an external adoption rate p_j; a directed edge (i, j, w) adds
hazard w to node j once node i has adopted. Builders produce the canonical
1D/lattice topologies with the homogeneous q/k_D weight rule. Node indices
are 0-based throughout the library; only the CLI and CSV headers use 1-based
labels.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
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


class _EdgeTriples:
    """`Network.edges`: (int, int, float) triples sorted by (source, target),
    built from the arrays on first read. The constructor's value is held as
    given until `__post_init__` turns it into the arrays."""

    def __get__(self, net, owner=None):
        if net is None:
            raise AttributeError("edges")  # the field has no default
        if "edges" not in net.__dict__:
            net.__dict__["edges"] = tuple(zip(net.src.tolist(), net.dst.tolist(), net.w.tolist()))
        return net.__dict__["edges"]

    def __set__(self, net, value) -> None:
        net.__dict__["edges"] = value


@dataclass(frozen=True, eq=False)
class Network:
    """Immutable directed weighted network.

    `edges` is given as (i, j, w) triples or an (E, 3) array and stored as
    arrays sorted by (source, target): int32 `src` and `dst`, float `w`,
    and the CSR row pointer `indptr` over sources, so node i's out-edges
    are the slots indptr[i]:indptr[i + 1]. At most one edge per ordered
    pair, weights strictly positive, no self-edges.
    """

    n: int
    p: np.ndarray
    edges: tuple[Edge, ...] = _EdgeTriples()

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise ValueError(f"node count must be positive, got {self.n}")
        p = np.asarray(self.p, dtype=float)
        if p.shape != (self.n,):
            raise ValueError(f"p must have shape ({self.n},), got {p.shape}")
        if not np.all((p >= 0) & np.isfinite(p)):
            raise ValueError("external rates must be non-negative and finite")
        object.__setattr__(self, "p", p)
        edges = np.asarray(self.__dict__.pop("edges"), dtype=float)
        if edges.size and (edges.ndim != 2 or edges.shape[1] != 3):
            raise ValueError(f"edges must be (i, j, w) triples, got shape {edges.shape}")
        edges = edges.reshape(-1, 3)
        src, dst, w = edges[np.lexsort((edges[:, 1], edges[:, 0]))].T
        src, dst = src.astype(np.int64), dst.astype(np.int64)  # truncated, as int() does

        def reject(bad: np.ndarray, message: str) -> None:
            if bad.any():
                k = int(np.argmax(bad))
                raise ValueError(message.format(i=src[k], j=dst[k], w=float(w[k]), n=self.n))

        reject(src == dst, "self-edge {i}->{j} is not allowed")
        reject((np.minimum(src, dst) < 0) | (np.maximum(src, dst) >= self.n),
               "edge {i}->{j} is out of range for n={n}")
        reject(np.diff(src * self.n + dst) == 0, "duplicate edge {i}->{j}")
        reject(~((w > 0) & np.isfinite(w)),
               "edge {i}->{j} has weight {w}; weights must be positive and finite")
        indptr = np.zeros(self.n + 1, dtype=np.int32)
        np.cumsum(np.bincount(src, minlength=self.n), out=indptr[1:])
        object.__setattr__(self, "src", src.astype(np.int32))
        object.__setattr__(self, "dst", dst.astype(np.int32))
        object.__setattr__(self, "w", w.copy())  # a column of the sorted edges
        object.__setattr__(self, "indptr", indptr)

    def has_edge(self, i: int, j: int) -> bool:
        if not 0 <= i < self.n:
            return False
        row = self.dst[self.indptr[i] : self.indptr[i + 1]]
        k = int(np.searchsorted(row, j))
        return bool(k < row.size and row[k] == j)

    def to_dict(self) -> dict:
        """The network as plain JSON types; `from_dict` reads it back."""
        return {"nodes": self.n, "p": self.p.tolist(), "edges": [list(e) for e in self.edges]}

    @staticmethod
    def from_dict(doc: dict) -> "Network":
        return Network(n=int(doc["nodes"]), p=doc["p"], edges=doc["edges"])


def _keys(net: Network) -> np.ndarray:
    """src * n + dst of every edge, ascending."""
    return net.src.astype(np.int64) * net.n + net.dst


def _edge_array(net: Network) -> np.ndarray:
    return np.column_stack((net.src, net.dst, net.w))


def _merge_edges(n: int, src: np.ndarray, dst: np.ndarray, w: float) -> np.ndarray:
    """(E, 3) edges of weight w from (src, dst) pairs. Coincident pairs
    accumulate weight (e.g. the two q/2 influences between the two nodes of
    a two-sided circle with M=2); self-pairs (wraparound onto itself) and
    zero weights are dropped."""
    keep = (src != dst) & (w > 0)
    keys, slot = np.unique(src[keep].astype(np.int64) * n + dst[keep], return_inverse=True)
    total = np.bincount(slot, weights=np.full(slot.size, w), minlength=keys.size)
    return np.column_stack((keys // n, keys % n, total))


def _check_pq(p: float, q: float) -> None:
    # NaN fails every comparison, so each check passes only finite values
    # in range
    if not (p > 0 and math.isfinite(p)):
        raise ValueError(f"p must be positive and finite, got {p}")
    if not (q >= 0 and math.isfinite(q)):
        raise ValueError(f"q must be non-negative and finite, got {q}")


def _check_sizes(**sizes) -> None:
    """Refuse a node count or index that is not an integer, naming it;
    numpy integers pass, as SimConfig's trials do."""
    for name, value in sizes.items():
        if not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_rates(M: int, p: float, q: float) -> None:
    if M <= 0:
        raise ValueError(f"M must be positive, got {M}")
    _check_pq(p, q)


def _sided_ok(sided: str) -> None:
    if sided not in ("one", "two"):
        raise ValueError(f"sided must be 'one' or 'two', got {sided!r}")


def _lattice(D: int, side: int, p: float, q: float, sided: str, periodic: bool) -> Network:
    """The D-dimensional grid of side^D nodes in C order: one in-edge per
    coordinate from the left neighbor at q/D (one-sided), or both neighbors
    at q/(2D) (two-sided). periodic wraps coordinates; otherwise out-of-box
    neighbors are omitted with weights unchanged."""
    _check_rates(side, p, q)
    _sided_ok(sided)
    M = side**D
    shape = (side,) * D
    coords = np.indices(shape).reshape(D, M)
    src, dst = [], []
    for d in range(D):
        for delta in (-1, +1) if sided == "two" else (-1,):
            nb = coords.copy()
            nb[d] += delta
            valid = np.full(M, True) if periodic else (nb[d] >= 0) & (nb[d] < side)
            src.append(np.ravel_multi_index(nb[:, valid], shape, mode="wrap"))
            dst.append(np.flatnonzero(valid))
    w = q / D if sided == "one" else q / (2 * D)
    return Network(n=M, p=np.full(M, float(p)),
                   edges=_merge_edges(M, np.concatenate(src), np.concatenate(dst), w))


def build_circle(M: int, p: float, q: float, sided: str = "one") -> Network:
    """Circle of M nodes; one-sided: edge (j-1)->j weight q; two-sided adds
    both neighbors at q/2 each."""
    _check_sizes(M=M)
    return _lattice(1, M, p, q, sided, periodic=True)


def build_line(M: int, p: float, q: float, sided: str = "one") -> Network:
    """Line of M nodes (missing neighbors act as permanent non-adopters)."""
    _check_sizes(M=M)
    return _lattice(1, M, p, q, sided, periodic=False)


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
    _check_sizes(D=D, side=side)
    if D < 1:
        raise ValueError(f"D must be >= 1, got {D}")
    return _lattice(D, side, p, q, sided, periodic)


def build_hybrid_circle_ray(circle_size: int, ray_size: int, p: float, q: float) -> Network:
    """One-sided circle of circle_size nodes from which a one-sided ray of
    ray_size nodes issues (all weights q). Circle nodes are 0..C-1, ray nodes
    C..C+K-1; the ray issues from circle node C-1."""
    _check_sizes(circle_size=circle_size, ray_size=ray_size)
    if circle_size < 1 or ray_size < 1:
        raise ValueError("circle_size and ray_size must be >= 1")
    _check_rates(circle_size + ray_size, p, q)
    C, K = circle_size, ray_size
    circle, ray = np.arange(C), np.arange(K)
    return Network(
        n=C + K,
        p=np.full(C + K, float(p)),
        edges=_merge_edges(C + K, np.concatenate(((circle - 1) % C, C - 1 + ray)),
                           np.concatenate((circle, C + ray)), q),
    )


def dominates(A: Network, B: Network) -> Dominance:
    """Componentwise comparison of all p_j and q_{i,j} (absent edge = 0),
    over the union of the two edge sets."""
    if A.n != B.n:
        raise ValueError(f"node counts differ: {A.n} vs {B.n}")
    key_a, key_b = _keys(A), _keys(B)
    keys = np.union1d(key_a, key_b)
    a = np.concatenate([A.p, np.zeros(keys.size)])
    b = np.concatenate([B.p, np.zeros(keys.size)])
    a[A.n + np.searchsorted(keys, key_a)] = A.w
    b[B.n + np.searchsorted(keys, key_b)] = B.w
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
    kept = ~np.isin(_keys(net), [i * net.n + j for i, j in gone])
    return Network(n=net.n, p=net.p, edges=_edge_array(net)[kept])


def add_edges(net: Network, new: Sequence[Edge]) -> Network:
    for i, j, w in new:
        if net.has_edge(int(i), int(j)):
            raise ValueError(f"edge {i}->{j} already present")
    return Network(
        n=net.n,
        p=net.p,
        edges=np.concatenate([_edge_array(net), np.asarray(new, dtype=float).reshape(-1, 3)]),
    )
