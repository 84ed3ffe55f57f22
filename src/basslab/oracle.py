"""Exact distribution of the adoption process by uniformization of the
master equation over all 2^M adopter sets.

State A is the bitmask of current adopters. From A, each non-adopter j
flips independently at rate p_j + sum_{i in A} W[i, j], so the generator Q
is sparse: 2^M states, at most M off-diagonal entries per column, and
every transition adds one node.

With Lambda the largest outflow of any state, P = I + Q/Lambda is a
stochastic matrix with non-negative entries, and

    P(t) = sum_n Pois(n; Lambda t) v_n,   v_{n+1} = P v_n,   v_0 = e_{empty set}

(Jensen 1953; Grassmann 1977). One sweep of sparse mat-vecs from the empty
set serves every grid time at once: each v_n is reduced to the requested
functionals (marginals, set survivals, or the whole vector) as soon as it
is formed, and each grid point is the Poisson-weighted sum of those
reductions. Every term is non-negative, so nothing cancels. The Poisson
weights are formed in log space, so a large Lambda t cannot underflow them.
The sweep runs until the Poisson tail at the last grid time is below
POISSON_TAIL, about Lambda t_max + 8.3 sqrt(Lambda t_max) terms, or until
the chain has absorbed: once the mass outside zero-outflow states is below
POISSON_TAIL, the weight of the terms left goes to the last vector. The
observed total mass at every grid time is checked against 1, which also
catches a truncated tail.

Cost is O(terms * nnz), with nnz = 2^M (M/2 + 1) generator entries.
Curves (marginals, set survivals) need O(M 2^M) memory, for the generator
and a few state vectors; only solve_master, which returns the whole
distribution, holds a (T, 2^M) array. Hard cap M = 20.

exact_marginals (and exact_f) lump the chain by the largest group of grid
maps that sends p and every weighted edge onto itself (Kemeny & Snell
1960; Buchholz 1994). The grids are the layouts (side,)*D with
side^D = M, and a map is x -> sigma(x) + s, sigma an axis permutation with
reflections: that finds the translations and axis swap of a one-sided
torus, the whole hyperoctahedral group of a two-sided one, the dihedral
group of a two-sided circle and the reflection of a two-sided line. The
generator commutes with the group, so the chain on orbits of adopter sets
is exact, and every node of a node class C (a node orbit) has the marginal
E|A & C|/|C|. The sweep then costs O(terms * orbits * M/2): the two-sided
16-node line has 32,896 orbits of 65,536 states (0.14 s on a 200-point
grid, against 0.21 s unlumped), the circle M = 18 has 14,602 one-sided
(0.07 s, against 0.7 s) and 7,685 two-sided, and the 4x4 torus 2,209
one-sided and 805 two-sided. Labelling the orbits takes a few int32 arrays
of 2^M.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .curves import AdoptionCurve
from .network import Network, validate_node_set

if TYPE_CHECKING:
    from scipy import sparse

HARD_CAP = 20

CONSERVATION_TOL = 1e-12
# Right-tail mass of the Poisson weights the sweep may leave out.
POISSON_TAIL = 1e-15
# Sweep steps whose reductions are held before they are weighted and
# folded into the grid values.
_BLOCK = 32

_HALF_LOG_2PI = 0.5 * math.log(2 * math.pi)
_log = logging.getLogger(__name__)


class MasterSolution:
    """Distribution over adopter sets on a time grid.

    probs[n, A] = Prob(adopter set = A at t[n]), A a bitmask over nodes
    0..M-1 (bit j set means node j has adopted).
    """

    def __init__(self, network: Network, t: np.ndarray, probs: np.ndarray):
        self.network = network
        self.t = np.asarray(t, dtype=float)
        self.probs = np.asarray(probs, dtype=float)
        if self.probs.shape != (self.t.size, 1 << network.n):
            raise ValueError("probs must have shape (len(t), 2^M)")

    def marginals(self) -> np.ndarray:
        """Per-node adoption probabilities, shape (M, T)."""
        return np.array([_marginals(P) for P in self.probs]).T

    def survival(self, nodes) -> np.ndarray:
        """Prob(no node of the set has adopted) on the grid."""
        return self.probs @ _survival_masks(self.network, [nodes])[0]

    def conservation_defect(self) -> float:
        return float(np.max(np.abs(self.probs.sum(axis=1) - 1.0)))


def _check_size(M: int) -> None:
    if M > HARD_CAP:
        raise ValueError(f"exact oracle capped at {HARD_CAP} nodes, got {M}")


def _rates(net: Network, j: int, src: np.ndarray) -> np.ndarray:
    """Adoption rate of node j from each adopter set in src (j not in it),
    summing j's in-edges in ascending source order."""
    into = net.dst == j
    rate = np.full(src.size, float(net.p[j]))
    for i, w in zip(net.src[into].tolist(), net.w[into].tolist()):
        rate += w * ((src >> i) & 1)
    return rate


def build_generator(net: Network) -> sparse.csr_matrix:
    """Sparse generator Q with dP/dt = Q P, Q[to, from] = rate.

    Built straight into CSR, one row per destination set B: the entries
    from B - {j} for each j in B (j descending, so columns ascend), then
    the diagonal -outflow(B), stored even where it is zero. Nothing of
    size 2^M x M is formed.
    """
    from scipy import sparse

    M = net.n
    _check_size(M)
    n_states = 1 << M
    states = np.arange(n_states, dtype=np.int32)
    row_len = np.ones(n_states, dtype=np.int32)
    for j in range(M):
        row_len += (states >> j) & 1
    indptr = np.zeros(n_states + 1, dtype=np.int32)
    np.cumsum(row_len, out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=np.int32)
    data = np.empty(indptr[-1])
    fill = indptr[:-1].copy()  # next free slot of each row
    outflow = np.zeros(n_states)
    # in a (-1, 2, 2^j) view of the states, bit j is the middle index
    without = (slice(None), 0, slice(None))
    for j in reversed(range(M)):
        src = states.reshape(-1, 2, 1 << j)[without].ravel()
        rate = _rates(net, j, src)
        outflow.reshape(-1, 2, 1 << j)[without] += rate.reshape(-1, 1 << j)
        dst = src | (1 << j)
        slot = fill[dst]
        indices[slot] = src
        data[slot] = rate
        fill[dst] += 1
    indices[fill] = states
    data[fill] = -outflow
    return sparse.csr_matrix((data, indices, indptr), shape=(n_states, n_states))


@dataclass(frozen=True, eq=False)
class _Symmetry:
    """A group H of node permutations that maps p and every weighted edge
    onto themselves, laid out on the grid `shape` (nodes in C order, as
    build_grid numbers them): every shift along the axes `shift_axes`,
    composed with the node maps in `cosets`, one per coset of those
    shifts, identity first. cosets[c, i] is the image of node i. The node
    classes are the orbits of H on nodes."""

    shape: tuple[int, ...]
    shift_axes: tuple[int, ...]
    cosets: np.ndarray
    order: int
    node_class: np.ndarray


def _grid_maps(shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Every map x -> sigma(x) + s (mod side) of the grid `shape` onto
    itself, sigma an axis permutation with reflections c -> side - 1 - c,
    as rows of node images, and the shift s of each row. Row 0 is the
    identity, and the first side^D rows are the shifts alone, s in C
    order."""
    from itertools import permutations, product

    D, side = len(shape), shape[0]
    n = side**D
    coords = np.indices(shape).reshape(D, n)
    perms = np.array(list(permutations(range(D))))
    # at side 2 a reflection is the shift by 1
    flips = np.array(list(product((False, True), repeat=D)) if side > 2 else [[False] * D])
    c = coords[perms]  # (sigma, axis, node), before reflections
    c = np.where(flips[:, None, :, None], side - 1 - c, c).reshape(-1, D, 1, n)
    place = side ** np.arange(D - 1, -1, -1)[:, None, None]
    maps = ((c + coords[:, :, None]) % side * place).sum(axis=1)  # (sigma, s, node)
    return maps.reshape(-1, n), np.tile(coords.T, (len(c), 1))


def _symmetries(net: Network) -> _Symmetry | None:
    """The largest group of grid maps that sends p and every weighted edge
    onto themselves, over the layouts (side,)*D with side**D == n and
    side >= 2, the first layout winning a tie; None when no layout has a
    map but the identity."""
    n = net.n
    W = np.zeros((n, n))
    W[net.src, net.dst] = net.w
    best = None
    for D in range(1, n.bit_length()):
        side = round(n ** (1.0 / D))
        if side < 2 or side**D != n:
            continue
        shape = (side,) * D
        maps, shifts = _grid_maps(shape)
        # a node map is one-to-one on node pairs: when every edge lands on
        # an edge of its own weight, the edge set maps onto itself
        keep = (net.p[maps] == net.p).all(axis=1)
        keep &= (W[maps[:, net.src], maps[:, net.dst]] == net.w).all(axis=1)
        order = int(keep.sum())
        if order <= (1 if best is None else best.order):
            continue
        axes = tuple(d for d in range(D) if keep[side ** (D - 1 - d)])  # the shift by e_d
        rep = keep & ~shifts[:, list(axes)].any(axis=1)
        _, node_class = np.unique(maps[keep].min(axis=0), return_inverse=True)
        best = _Symmetry(shape, axes, maps[rep], order, node_class)
    return best


def _image(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The set {g[i] : i in A} for each bitmask A in x, one lookup table
    per 7 nodes."""
    v = np.arange(128)[:, None]
    out = np.zeros_like(x)
    for lo in range(0, g.size, 7):
        to = g[lo : lo + 7]
        table = (((v >> np.arange(to.size)) & 1) << to).sum(axis=1).astype(x.dtype)
        out |= table[(x >> lo) & 127]
    return out


def _orbits(M: int, sym: _Symmetry) -> tuple[np.ndarray, np.ndarray]:
    """(reps, label) for the orbits of the group `sym` on adopter sets:
    reps holds each orbit's least set, ascending, and label[A] is the
    index in reps of A's orbit.

    The least image under the shifts is a running minimum, each image one
    masked bit-shift from the one before. The shifts are normal in the
    group, so the least shift image of g(A), for g a coset's map, depends
    only on A's least shift image: the minimum over the cosets is one
    table lookup per coset on the shift orbits' least sets. No
    (|G|, 2^M) array exists.
    """
    D, side = len(sym.shape), sym.shape[0]
    states = np.arange(1 << M, dtype=np.int32)
    least = states.copy()
    full = (1 << M) - 1

    def shift(x: np.ndarray, d: int) -> np.ndarray:
        # one step along axis d: within each block of side * stride bits,
        # bits move up by stride and the top stride bits wrap to the bottom
        stride = side ** (D - 1 - d)
        block = side * stride
        low = sum(1 << i for i in range(M) if i % block < block - stride)
        wrapped = x & (full ^ low)
        wrapped >>= block - stride
        moved = x & low
        moved <<= stride
        moved |= wrapped
        return moved

    def visit(x: np.ndarray, k: int) -> None:
        if k == len(sym.shift_axes):
            np.minimum(least, x, out=least)
            return
        for step in range(side):
            visit(x, k + 1)
            if step + 1 < side:
                x = shift(x, sym.shift_axes[k])

    visit(states, 0)
    if len(sym.cosets) > 1:
        is_rep = least == states
        shift_reps = states[is_rep]
        lowest = shift_reps.copy()
        for g in sym.cosets[1:]:
            np.minimum(lowest, least[_image(shift_reps, g)], out=lowest)
        least = lowest[np.cumsum(is_rep, dtype=np.int32)[least] - 1]
    is_rep = least == states
    number = np.cumsum(is_rep, dtype=np.int32) - 1
    return states[is_rep], number[least]


def _lumped_generator(net: Network, reps: np.ndarray, label: np.ndarray) -> sparse.csr_matrix:
    """Generator of the chain on orbits: the rates out of each orbit's
    representative, summed by destination orbit. The diagonal is stored
    even where it is zero.

    Filled as build_generator fills its rows, but by column: column o
    holds the moves out of orbit o, j ascending, then the diagonal. Its
    length, one more than the nodes free in reps[o], is known before any
    rate is formed. scipy's transpose to CSR keeps that order within each
    (destination, source) pair, so merged rates sum j ascending.
    """
    from scipy import sparse

    n = reps.size
    col_len = net.n + 1 - np.bitwise_count(reps).astype(np.int32)
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(col_len, out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=np.int32)
    data = np.empty(indptr[-1])
    fill = indptr[:-1].copy()  # next free slot of each column
    diagonal = np.zeros(n)
    for j in range(net.n):
        free = np.flatnonzero(((reps >> j) & 1) == 0)
        src = reps[free]
        rate = _rates(net, j, src)
        diagonal[free] -= rate
        slot = fill[free]
        indices[slot] = label[src | (1 << j)]
        data[slot] = rate
        fill[free] += 1
    indices[fill] = np.arange(n)
    data[fill] = diagonal
    Q = sparse.csc_matrix((data, indices, indptr), shape=(n, n)).tocsr()
    Q.sum_duplicates()
    return Q


def _check_grid(t_grid) -> np.ndarray:
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 1:
        raise ValueError("t_grid must be a non-empty 1D array")
    if not np.all(np.isfinite(t_grid)):
        raise ValueError("t_grid must hold only finite times")
    if t_grid[0] < 0 or np.any(np.diff(t_grid) < 0):
        raise ValueError("t_grid must ascend from a non-negative start")
    return t_grid


def _poisson_terms(top: float) -> int:
    """Number of terms n = 0..N-1 after which the right tail of Pois(top)
    is below POISSON_TAIL, from Bernstein's bound
    P(X >= m + x) <= exp(-x^2 / (2(m + x/3)))."""
    if top == 0.0:
        return 1
    L = -math.log(POISSON_TAIL)
    return int(top + L / 3 + math.sqrt(L * L / 9 + 2 * L * top)) + 1


def _stirling_error(k: np.ndarray) -> np.ndarray:
    """lgamma(k + 1) - ((k + 1/2) log k - k + log(2 pi)/2) for k >= 1:
    directly for small k, else from its asymptotic series."""
    out = np.empty(k.size)
    small = k <= 15
    out[small] = [
        math.lgamma(x + 1.0) - (x + 0.5) * math.log(x) + x - _HALF_LOG_2PI for x in k[small]
    ]
    big = k[~small]
    r = 1.0 / (big * big)
    out[~small] = (1 / 12 - r * (1 / 360 - r * (1 / 1260 - r * (1 / 1680 - r / 1188)))) / big
    return out


def _poisson_weights(means: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """W[i, n - lo] = Pois(n; means[i]) for lo <= n < hi.

    Formed in log space, in Loader's saddle-point form (2000)

        log Pois(n; m) = -(n log(n/m) - (n - m)) - log(2 pi n)/2 - stirling_error(n).

    Its terms stay small near the mode. The plain form
    -m + n log m - lgamma(n+1) subtracts numbers of size m log m; at
    m = 44,000 that put the weights' sum 6e-11 off 1.
    """
    n = np.arange(lo, hi, dtype=float)
    W = np.zeros((means.size, n.size))
    live = means > 0
    W[~live] = n == 0
    m = means[live, None]
    pos = n > 0
    k = n[pos]
    log_w = (k - m) - k * np.log1p((k - m) / m) - 0.5 * np.log(2 * np.pi * k) - _stirling_error(k)
    W[np.ix_(live, pos)] = np.exp(log_w)
    if lo == 0:
        W[live, 0] = np.exp(-means[live])
    return W


def _uniformized(Q: sparse.csr_matrix, t_grid, observe, width: int, route: str) -> np.ndarray:
    """Sum over n of Pois(n; Lambda t) observe(v_n) at every grid time t,
    shape (T, width), for the generator Q from the state with index 0;
    observe maps a state vector to `width` numbers and must be linear. The
    weights are formed one block of terms at a time, so a long horizon
    costs sweep steps but no (T, terms) array.

    Once the mass outside zero-outflow states is below POISSON_TAIL, every
    later v_n is within twice that mass of the current one, so the sweep
    stops and the Poisson weight of the terms left goes to that vector.

    Raises RuntimeError when the observed total mass is more than
    CONSERVATION_TOL off 1 at any grid time.
    """
    t_grid = _check_grid(t_grid)
    outflow = -Q.diagonal()
    lam = float(outflow.max())
    means = lam * t_grid
    n_terms = _poisson_terms(float(means.max()))
    if n_terms > 1:
        P = Q / lam
        P.setdiag((lam - outflow) / lam)  # >= 0: lam is the largest outflow
    moving = outflow > 0
    v = np.zeros(Q.shape[0])
    v[0] = 1.0
    out = np.zeros((t_grid.size, width))
    mass = np.zeros(t_grid.size)
    for lo in range(0, n_terms, _BLOCK):
        rows: list[np.ndarray] = []
        sums: list[float] = []
        for n in range(lo, min(lo + _BLOCK, n_terms)):
            if n:
                v = P @ v
            rows.append(observe(v))
            sums.append(v.sum())
        W = _poisson_weights(means, lo, lo + len(rows))
        out += W @ np.array(rows)
        mass += W @ np.array(sums)
        if n + 1 < n_terms and v[moving].sum() < POISSON_TAIL:
            from scipy.special import gammainc

            tail = gammainc(n + 1, means)  # Prob(Pois(mean) > n), formed apart from W
            out += tail[:, None] * rows[-1]
            mass += tail * sums[-1]
            break
    defect = float(np.max(np.abs(mass - 1.0)))
    _log.debug(
        "master equation %s; Lambda %.6g, %d of %d terms, conservation defect %.3e",
        route, lam, n + 1, n_terms, defect,
    )
    if defect > CONSERVATION_TOL:
        raise RuntimeError(f"probability conservation violated: defect {defect:.3e}")
    return out


def _marginals(v: np.ndarray) -> np.ndarray:
    """Prob(node j has adopted) for every j. The top bit's marginal is the
    upper half of v; folding the halves together drops that bit."""
    M = v.size.bit_length() - 1
    out = np.empty(M)
    for j in range(M - 1, -1, -1):
        half = v.size // 2
        out[j] = v[half:].sum()
        v = v[:half] + v[half:]
    return out


def _survival_masks(net: Network, omegas) -> np.ndarray:
    """Row k is 1 on the adopter sets that miss every node of omegas[k]."""
    states = np.arange(1 << net.n)
    masks = np.empty((len(omegas), states.size))
    for k, omega in enumerate(omegas):
        bitmask = sum(1 << j for j in validate_node_set(net, omega))
        masks[k] = (states & bitmask) == 0
    return masks


def solve_master(net: Network, t_grid) -> MasterSolution:
    """Whole distribution over adopter sets on the grid, from the
    all-susceptible state."""
    t_grid = _check_grid(t_grid)
    route = f"unlumped: whole distribution, {1 << net.n} states"
    probs = _uniformized(build_generator(net), t_grid, lambda v: v, 1 << net.n, route)
    return MasterSolution(network=net, t=t_grid, probs=probs)


def exact_marginals(net: Network, t_grid) -> np.ndarray:
    """Per-node adoption probabilities, shape (M, T).

    A network that a group of grid maps sends onto itself is solved on the
    orbits of its adopter sets (see `_lumped_marginals`).
    """
    _check_size(net.n)
    sym = _symmetries(net)
    if sym is None:
        route = f"unlumped: no symmetry, {1 << net.n} states"
        return _uniformized(build_generator(net), t_grid, _marginals, net.n, route).T
    return _lumped_marginals(net, t_grid, sym)


def _lumped_marginals(net: Network, t_grid, sym: _Symmetry) -> np.ndarray:
    """exact_marginals on the orbits of `sym`. The distribution from the
    empty set is invariant under the group, so every node j of a node
    class C has the marginal E|A & C| / |C|, a function of A's orbit."""
    reps, label = _orbits(net.n, sym)
    Q = _lumped_generator(net, reps, label)
    n_classes = int(sym.node_class.max()) + 1
    share = np.empty((n_classes, reps.size))  # |A & C| / |C| on each orbit
    for c in range(n_classes):
        members = np.flatnonzero(sym.node_class == c)
        mask = sum(1 << int(j) for j in members)
        share[c] = np.bitwise_count(reps & mask) / members.size
    route = (f"lumped by {sym.order} symmetries of {sym.shape}: {reps.size} orbits of "
             f"{1 << net.n} states, {n_classes} node class{'es' * (n_classes > 1)}")
    f = _uniformized(Q, t_grid, lambda v: share @ v, n_classes, route)
    return f.T[sym.node_class]


def exact_f(net: Network, t_grid) -> AdoptionCurve:
    """Expected adopter fraction on the grid, with per-node probabilities."""
    t_grid = _check_grid(t_grid)
    per_node = exact_marginals(net, t_grid)
    return AdoptionCurve(
        t=t_grid, f=per_node.mean(axis=0), source="oracle", per_node=per_node
    )


def survival(net: Network, omega, t_grid) -> np.ndarray:
    """Prob(no node of omega has adopted by t) on the grid."""
    masks = _survival_masks(net, [omega])
    route = f"unlumped: set survival, {1 << net.n} states"
    return _uniformized(build_generator(net), t_grid, lambda v: masks @ v, 1, route)[:, 0]
