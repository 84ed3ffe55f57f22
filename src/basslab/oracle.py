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

exact_marginals (and exact_f) lump the chain when a grid's translations
map the network onto itself, as on circles and tori (Kemeny & Snell 1960;
Buchholz 1994). The generator commutes with the translations, so the
chain on orbits of adopter sets is exact; the group is transitive on
nodes, so every marginal is E|A|/M. The sweep then costs
O(terms * orbits * M/2), with about 2^M / M orbits: 14,602 for the circle
M = 18 (0.06 s on a 200-point grid, against 0.7 s unlumped) and 4,156
for the 4x4 torus. Labelling the orbits takes a few int32 arrays of 2^M.
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


@dataclass(frozen=True)
class StateDistribution:
    """Probability vector over adopter sets (bitmask-indexed) at one time."""

    M: int
    time: float
    probabilities: np.ndarray

    def __post_init__(self) -> None:
        probs = np.asarray(self.probabilities, dtype=float)
        if probs.shape != (1 << self.M,):
            raise ValueError(f"need 2^{self.M} entries, got shape {probs.shape}")
        if float(probs.min()) < -CONSERVATION_TOL:
            raise ValueError(f"negative probability {probs.min():.3e}")
        defect = abs(float(probs.sum()) - 1.0)
        if defect > CONSERVATION_TOL:
            raise ValueError(f"probabilities sum to 1 {defect:.3e} off")
        object.__setattr__(self, "probabilities", probs)

    def prob(self, adopters) -> float:
        """Probability that the adopter set is exactly the given one."""
        mask = 0
        for j in adopters:
            mask |= 1 << j
        return float(self.probabilities[mask])


class MasterSolution:
    """Distribution over adopter sets on a time grid; acts as a sequence of
    per-time StateDistribution snapshots.

    probs[n, A] = Prob(adopter set = A at t[n]), A a bitmask over nodes
    0..M-1 (bit j set means node j has adopted).
    """

    def __init__(self, network: Network, t: np.ndarray, probs: np.ndarray):
        self.network = network
        self.t = np.asarray(t, dtype=float)
        self.probs = np.asarray(probs, dtype=float)
        if self.probs.shape != (self.t.size, 1 << network.n):
            raise ValueError("probs must have shape (len(t), 2^M)")

    @property
    def n_nodes(self) -> int:
        return self.network.n

    def __len__(self) -> int:
        return self.t.size

    def __getitem__(self, n: int) -> StateDistribution:
        return StateDistribution(
            M=self.n_nodes, time=float(self.t[n]), probabilities=self.probs[n]
        )

    def __iter__(self):
        return (self[n] for n in range(len(self)))

    def marginals(self) -> np.ndarray:
        """Per-node adoption probabilities, shape (M, T)."""
        return np.array([_marginals(P) for P in self.probs]).T

    def survival(self, nodes) -> np.ndarray:
        """Prob(no node of the set has adopted) on the grid."""
        return self.probs @ _survival_masks(self.network, [nodes])[0]

    def pair_survival(self, i: int, j: int) -> np.ndarray:
        return self.survival([i, j])

    def expected_fraction(self) -> np.ndarray:
        return self.marginals().mean(axis=0)

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


def _translation_shape(net: Network) -> tuple[int, ...] | None:
    """The first grid shape (side,)*D with side**D == n and side >= 2 whose
    one-step shift along every axis maps p and every weighted edge onto
    themselves, or None. Nodes are laid out in C order, as build_grid
    numbers them. Only p and the edges are read, never tag or meta."""
    n, src, dst, w = net.n, net.src, net.dst, net.w

    def invariant(image: np.ndarray) -> bool:
        if not np.array_equal(net.p[image], net.p):
            return False
        s, t = image[src], image[dst]
        order = np.lexsort((t, s))  # the edge arrays are sorted by (source, target)
        return (np.array_equal(s[order], src) and np.array_equal(t[order], dst)
                and np.array_equal(w[order], w))

    for D in range(1, n.bit_length()):
        side = round(n ** (1.0 / D))
        if side < 2 or side**D != n:
            continue
        shape = (side,) * D
        nodes = np.arange(n).reshape(shape)
        if all(invariant(np.roll(nodes, -1, axis=d).ravel()) for d in range(D)):
            return shape
    return None


def _orbits(M: int, shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """(reps, label) for the orbits of the translations of the grid `shape`
    on adopter sets: reps holds each orbit's least set, ascending, and
    label[A] is the index in reps of A's orbit.

    The least image is a running minimum over the group, each image one
    masked bit-shift from the one before, so no (|G|, 2^M) array exists.
    """
    D, side = len(shape), shape[0]
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

    def visit(x: np.ndarray, d: int) -> None:
        for k in range(side):
            if d + 1 < D:
                visit(x, d + 1)
            else:
                np.minimum(least, x, out=least)
            if k + 1 < side:
                x = shift(x, d)

    visit(states, 0)
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

    A network that a grid's translations map onto itself is solved on the
    orbits of its adopter sets, where E|A|/M is the marginal of every node.
    """
    _check_size(net.n)
    shape = _translation_shape(net)
    if shape is None:
        route = f"unlumped: no translation symmetry, {1 << net.n} states"
        return _uniformized(build_generator(net), t_grid, _marginals, net.n, route).T
    reps, label = _orbits(net.n, shape)
    Q = _lumped_generator(net, reps, label)
    size = (np.bitwise_count(reps) / net.n)[None, :]  # |A| / M on each orbit
    route = f"lumped by translations of {shape}: {reps.size} orbits of {1 << net.n} states"
    f = _uniformized(Q, t_grid, lambda v: size @ v, 1, route)
    return np.repeat(f.T, net.n, axis=0)


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
