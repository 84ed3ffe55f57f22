"""Stochastic simulation of the adoption process.

Every sampler returns adoption times as one (trials, M) array, inf for a
node that never adopted; `curve_from_times` turns such an array into a
Monte Carlo curve, and `node_frequencies` into per-node frequencies.

Curves come from one sampler, exact continuous-time sampling as
first-passage percolation. Hazards add, so each adoption time is a
shortest-path distance from a virtual source, with an Exp(1)/p_j edge into
every node and an Exp(1)/w_ij edge along every network edge. One Dijkstra
call on a block-diagonal graph solves a sub-block of B trials, B =
DIJKSTRA_NODES // nodes per trial (at least 1), so its heap and arrays stay
in cache, at O(trials * E * log(B * E)) cost for E = nodes + edges per
trial. Each call stops at a horizon: the grid's last point for a curve,
config.t_max for the raw times, and a time past it is inf.

`run_coupled` checks pathwise dominance on a pair of networks by the
standard monotone coupling of first-passage times (Lindvall, *Lectures on
the Coupling Method*, 1992): each trial draws its Exp(1) clocks once, over
the union of both networks' clocks, and each network divides the clocks it
has by its own rates. Both networks then go through the same Dijkstra
calls, so the coupling needs no time step; when A's rates are
componentwise <= B's, every clock is at least as short in B, and so is
every first-passage time.

Event-driven trials are partitioned into fixed-size blocks, each with its
own child stream of the base seed, and trial r of a block uses row r of the
block's draw, so results are reproducible for a given seed and a trial does
not depend on how many trials share its block. This stream is new in
basslab 0.2.0, where it replaced the step-by-step Gillespie loop:
event-driven curves and `simulate` CSVs for a given seed differ from 0.1.0,
and reruns with the same seed stay byte-identical. Coupled runs use the same
blocks and child streams.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import AdoptionCurve
from .network import Network, _check_t_max, _keys, weakly_dominates

TRIAL_BLOCK = 512
# graph nodes per Dijkstra call: small enough that its heap and arrays stay
# in cache
DIJKSTRA_NODES = 8192
DEFAULT_TRIALS = 4000
# violation lists are for diagnosis; cap them so a badly ordered pair
# cannot produce a gigabyte of report
VIOLATION_LIST_CAP = 100


@dataclass(frozen=True)
class SimConfig:
    trials: int = DEFAULT_TRIALS
    base_seed: int = 0
    t_max: float | None = None
    block_size: int = TRIAL_BLOCK

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.t_max is not None:
            _check_t_max(self.t_max)
        if self.block_size < 1:
            raise ValueError("block_size must be >= 1")


def _block_seeds(seed: int, n_blocks: int) -> list[np.random.SeedSequence]:
    return [np.random.SeedSequence((int(seed), b)) for b in range(n_blocks)]


def _graph(nets: list[Network], seeded: list[np.ndarray], R: int):
    """Block-diagonal graph of R trials, with its edge lengths left to fill:
    node 0 the virtual source, then each network's R*M nodes, trial r's
    node j at r*M + j. Returns the CSR graph and, per network, two (R, .)
    views of its data: the source's edges into the seeded nodes, and the
    network's edges in edge order."""
    from scipy.sparse import csr_matrix

    nodes_per_trial = sum(net.n for net in nets)
    n_src = sum(s.size for s in seeded)
    nnz = R * (n_src + sum(net.dst.size for net in nets))
    # CSR rows: the source's edges first, R*n_p per network, then each
    # network's node rows, trial r's with node ids offset by r*M and edge
    # slots by r*E
    indptr = np.empty(R * nodes_per_trial + 2, dtype=np.int32)
    indptr[0] = 0
    indptr[-1] = nnz
    indices = np.empty(nnz, dtype=np.int32)
    slots = []
    node, src_slot, edge_slot = 1, 0, R * n_src
    for net, s in zip(nets, seeded):
        M, n_p, E = net.n, s.size, net.dst.size
        first = node + M * np.arange(R, dtype=np.int32)  # graph id of trial r's node 0
        rows = indptr[node : node + R * M].reshape(R, M)
        rows[:] = net.indptr[:M]
        rows += (edge_slot + E * np.arange(R, dtype=np.int32))[:, None]
        src = slice(src_slot, src_slot + R * n_p)
        edge = slice(edge_slot, edge_slot + R * E)
        np.add(first[:, None], s, out=indices[src].reshape(R, n_p))
        np.add(first[:, None], net.dst, out=indices[edge].reshape(R, E))
        slots.append((src, edge, n_p, E))
        node, src_slot, edge_slot = node + R * M, src.stop, edge.stop
    graph = csr_matrix((np.empty(nnz), indices, indptr), shape=(R * nodes_per_trial + 1,) * 2)
    views = [(graph.data[src].reshape(R, n_p), graph.data[edge].reshape(R, E))
             for src, edge, n_p, E in slots]
    return graph, views


def _first_passage(
    nets: list[Network], columns: list[np.ndarray | slice], n_clocks: int, config: SimConfig,
    limit: float,
) -> list[np.ndarray]:
    """Exact continuous-time adoption times, one (trials, M) array per
    network of nets, as first-passage distances (see the module docstring),
    inf for a time past limit. Each trial draws n_clocks Exp(1) clocks, and
    columns[k] picks network k's: those of its nodes with p_j > 0 in node
    order, then those of its edges in edge order, each divided by its rate.
    An index array picks a copy; a slice, for a lone network, picks a view
    that the division overwrites, which saves copying the draw.

    Each RNG block's rows go to Dijkstra in sub-blocks of B =
    DIJKSTRA_NODES // nodes_per_trial trials (at least 1), each one
    block-diagonal graph (see `_graph`), so the heap stays in cache, at
    O(trials * E * log(B * E)) cost. Trials are disconnected components and
    a distance is the minimum of d(u) + w over settled predecessors, so the
    times do not depend on which trials share a call. Dijkstra keeps a
    distance <= limit and returns inf above it: a node within limit is
    reached only through nodes within limit, so the result is the unlimited
    one with every time past limit set to inf."""
    # imported here, not at module level, as every scipy import in the
    # package is: a command pays only for the parts of scipy it runs
    from scipy.sparse.csgraph import dijkstra

    seeded = [np.flatnonzero(net.p > 0).astype(np.int32) for net in nets]  # own clocks
    rates = [np.concatenate([net.p[s], net.w]) for net, s in zip(nets, seeded)]
    nodes_per_trial = sum(net.n for net in nets)
    R_max = min(config.block_size, config.trials)
    if R_max * n_clocks >= 2**31:
        raise ValueError(
            f"a block of {R_max} trials draws {R_max * n_clocks} clocks at once, "
            "16 GiB or more; lower block_size"
        )
    B = max(1, DIJKSTRA_NODES // nodes_per_trial)
    graphs = {}  # sub-block size -> _graph; at most three sizes per call
    all_times = [np.empty((config.trials, net.n)) for net in nets]
    n_blocks = -(-config.trials // config.block_size)
    done = 0
    for ss in _block_seeds(config.base_seed, n_blocks):
        R = min(config.block_size, config.trials - done)
        # row r holds trial r's clocks, so a trial's draws do not depend on
        # how many trials share its block
        clocks = np.random.default_rng(ss).standard_exponential((R, n_clocks))
        lengths = [clocks[:, col] for col in columns]
        del clocks
        for length, rate in zip(lengths, rates):
            length /= rate
        for lo in range(0, R, B):
            b = min(B, R - lo)
            if b not in graphs:
                graphs[b] = _graph(nets, seeded, b)
            graph, views = graphs[b]
            for (src, edge), length in zip(views, lengths):
                n_p = src.shape[1]
                src[:] = length[lo : lo + b, :n_p]
                edge[:] = length[lo : lo + b, n_p:]
            dist = dijkstra(graph, directed=True, indices=0, limit=limit)
            node = 1
            for net, times in zip(nets, all_times):
                times[done + lo : done + lo + b] = dist[node : node + b * net.n].reshape(b, net.n)
                node += b * net.n
        done += R
    return all_times


def _event_times(net: Network, config: SimConfig, limit: float) -> np.ndarray:
    """Exact continuous-time adoption times of net, shape (trials, M), inf
    past limit."""
    n_clocks = np.count_nonzero(net.p > 0) + net.dst.size
    return _first_passage([net], [slice(None)], n_clocks, config, limit)[0]


def _horizon(config: SimConfig) -> float:
    return np.inf if config.t_max is None else config.t_max


def _fraction_stats(
    times: np.ndarray, t_grid: np.ndarray, block: int = TRIAL_BLOCK, base: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Mean over trials, and its stderr, of each trial's adopter fraction on
    t_grid, from adoption times of shape (trials, M). With base, adoption
    times of the same shape on the same trials (a coupled run), of each
    trial's fraction minus base's, so the stderr is the paired one."""
    if not np.all(times > 0):
        raise ValueError(f"adoption times must be > 0, got minimum {np.min(times)}")
    trials, M = times.shape
    T = t_grid.size

    def fractions(x: np.ndarray) -> np.ndarray:
        # times <= t[i] iff i >= k; an inf (never adopted) time gets k = T
        k = np.searchsorted(t_grid, x, side="left")
        R = k.shape[0]
        per_trial = np.bincount(
            (k + (T + 1) * np.arange(R)[:, None]).ravel(), minlength=R * (T + 1)
        )
        return per_trial.reshape(R, T + 1).cumsum(axis=1)[:, :T] / M

    sum_f = np.zeros(T)
    sum_f2 = np.zeros(T)
    for lo in range(0, trials, block):
        frac = fractions(times[lo : lo + block])
        if base is not None:
            frac -= fractions(base[lo : lo + block])
        sum_f += frac.sum(axis=0)
        sum_f2 += (frac**2).sum(axis=0)
    mean = sum_f / trials
    if trials > 1:
        var = (sum_f2 - trials * mean**2) / (trials - 1)
        stderr = np.sqrt(np.maximum(var, 0.0) / trials)
    else:
        stderr = np.zeros_like(mean)
    return mean, stderr


def curve_from_times(times: np.ndarray, t_grid, block: int = TRIAL_BLOCK) -> AdoptionCurve:
    """Empirical mean adopter fraction, with stderr, from per-trial adoption
    times, shape (trials, M). Per-node frequencies come from
    `node_frequencies`; the curve carries none, since they cost (M, T)
    arrays that a large network's mean curve does not need.

    Adoption times must be > 0 (inf for a node that never adopts): nobody
    has adopted at t = 0.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    mean, stderr = _fraction_stats(times, t_grid, block)
    return AdoptionCurve(t=t_grid, f=mean, source="monte_carlo", stderr=stderr)


def node_frequencies(times: np.ndarray, t_grid) -> np.ndarray:
    """Per-node adoption frequencies, shape (M, T): entry (j, i) is the
    share of trials in which node j has adopted by t_grid[i]. times as for
    `curve_from_times`. The adoption counts of every block go into one
    (M, T + 1) float array, which the cumulative sum and the division
    overwrite."""
    t_grid = np.asarray(t_grid, dtype=float)
    trials, M = times.shape
    T = t_grid.size
    counts = np.zeros(M * (T + 1))
    for lo in range(0, trials, TRIAL_BLOCK):
        k = np.searchsorted(t_grid, times[lo : lo + TRIAL_BLOCK], side="left")
        k += (T + 1) * np.arange(M)
        counts += np.bincount(k.ravel(), minlength=M * (T + 1))
    counts = counts.reshape(M, T + 1)
    np.cumsum(counts, axis=1, out=counts)
    counts /= trials
    return counts[:, :T]


def run_event_driven(net: Network, config: SimConfig, t_grid) -> AdoptionCurve:
    """Exact continuous-time simulation; Monte Carlo curve on t_grid, with
    no per-node frequencies (see `curve_from_times`). The sampler stops at
    the horizon t_grid[-1], since the curve counts a later adoption as none;
    config.t_max is not read."""
    t_grid = np.asarray(t_grid, dtype=float)
    # a grid that is not strictly increasing has no horizon; the curve
    # refuses it, unless it holds NaN
    ordered = t_grid.ndim == 1 and t_grid.size > 0 and bool(np.all(np.diff(t_grid) > 0))
    times = _event_times(net, config, t_grid[-1] if ordered else np.inf)
    return curve_from_times(times, t_grid, block=config.block_size)


def event_trajectories(net: Network, config: SimConfig = SimConfig()) -> np.ndarray:
    """Per-trial adoption times, shape (trials, M), under the exact
    continuous-time scheme; times past config.t_max (if set) are inf."""
    return _event_times(net, config, _horizon(config))


def run_coupled(net_a: Network, net_b: Network, config: SimConfig = SimConfig()) -> dict:
    """Run both networks on shared first-passage clocks and check the
    pathwise ordering: every node adopts in B no later than in A.

    Each trial draws one Exp(1) clock per node with p_j > 0 in either
    network and one per edge of either; each network divides the clocks it
    has by its own rates. A clock a network lacks is not an edge of its
    graph, so nothing is divided by 0. If A's parameters
    are componentwise <= B's (the check is "not applicable" otherwise),
    every length in B is at most the one in A, since IEEE division is
    monotone, and so are path sums and the minimum over paths: the ordering
    then holds in every cell, exactly.

    A violation is a (trial, node) cell with time_a < time_b. The report
    counts them and lists the first VIOLATION_LIST_CAP in trial-then-node
    order, time_b None where B had not adopted by t_max. times_a/times_b
    are the two (trials, M) adoption-time arrays, inf past config.t_max;
    with t_max None nothing is clipped.
    steps is always 1, one exact pass; it stays only because the
    benchmark's cell counter (perfbench/spans.py) reads it.
    """
    if net_a.n != net_b.n:
        raise ValueError("coupled networks must have the same node count")
    applicable = weakly_dominates(net_a, net_b)
    seeded = np.flatnonzero((net_a.p > 0) | (net_b.p > 0))
    keys = np.union1d(_keys(net_a), _keys(net_b))
    columns = [
        np.concatenate([np.searchsorted(seeded, np.flatnonzero(net.p > 0)),
                        seeded.size + np.searchsorted(keys, _keys(net))])
        for net in (net_a, net_b)
    ]
    times_a, times_b = _first_passage(
        [net_a, net_b], columns, seeded.size + keys.size, config, _horizon(config)
    )
    trial, node = np.nonzero(times_a < times_b)  # ordered by trial, then node
    violations = [
        {"trial": int(r), "node": int(j), "time_a": float(times_a[r, j]),
         "time_b": float(times_b[r, j]) if np.isfinite(times_b[r, j]) else None}
        for r, j in zip(trial[:VIOLATION_LIST_CAP], node[:VIOLATION_LIST_CAP])
    ]
    if applicable:
        verdict = "pass" if trial.size == 0 else "fail"
    else:
        verdict = "not_applicable"
    return {
        "applicable": bool(applicable),
        "trials": config.trials,
        "steps": 1,
        "violations": violations,
        "violation_count": int(trial.size),
        "verdict": verdict,
        "mean_final_fraction_a": float(np.isfinite(times_a).mean()),
        "mean_final_fraction_b": float(np.isfinite(times_b).mean()),
        "times_a": times_a,
        "times_b": times_b,
    }
