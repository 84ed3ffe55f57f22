"""Stochastic simulation of the adoption process.

Every sampler returns adoption times as one (trials, M) array, inf for a
node that never adopted; `curve_from_times` turns such an array into a
Monte Carlo curve, and `node_frequencies` into per-node frequencies.

Curves come from one sampler, exact continuous-time sampling as
first-passage percolation. Hazards add, so each adoption time is a
shortest-path distance from a virtual source, with an Exp(1)/p_j edge into
every node and an Exp(1)/w_ij edge along every network edge. The distances
take one of two exact routes, with the same floats (see `_first_passage`):
an acyclic network (every one-sided line and box) is swept once per block
of trials in topological order (DAG-SHORTEST-PATHS, Cormen et al.,
*Introduction to Algorithms*, 24.2) when that pays, and every other network
goes to Dijkstra on a block-diagonal graph of a sub-block of trials. Both
stop at a horizon: the grid's last point for a curve, config.t_max for the
raw times, and a time past it is inf.

`run_coupled` checks pathwise dominance on a pair of networks by the
standard monotone coupling of first-passage times (Lindvall, *Lectures on
the Coupling Method*, 1992): each trial draws its Exp(1) clocks once, over
the union of both networks' clocks, and each network divides the clocks it
has by its own rates. Each network then takes its own route on those
clocks, so the coupling needs no time step; when A's rates are
componentwise <= B's, every clock is at least as short in B, and so is
every first-passage time.

Event-driven trials are partitioned into blocks of TRIAL_BLOCK, each with
its own child stream of the base seed, and trial r of a block uses row r of the
block's draw, so results are reproducible for a given seed and a trial does
not depend on how many trials share its block. Coupled runs use the same
blocks and child streams.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import AdoptionCurve, _check_t_max, _check_time_grid
from .network import Network, _keys, weakly_dominates

# trials per RNG block: block b draws from SeedSequence((seed, b)), so this
# fixes the random stream; the aggregation sums its counts per block too
TRIAL_BLOCK = 512
# graph nodes per Dijkstra call: small enough that its heap and arrays stay
# in cache
DIJKSTRA_NODES = 8192
# the time of one level of the acyclic sweep over that of one node or edge
# of one trial in Dijkstra. On 2 vCPUs a level of a one-sided line took
# 6-15 us and Dijkstra 150-270 ns per node or edge, and the sweep overtook
# Dijkstra on such lines at 16-24 trials per block, a ratio of 32-48; 64
# leans towards Dijkstra where the two are close
SWEEP_LEVEL_COST = 64
DEFAULT_TRIALS = 4000
# violation lists are for diagnosis; cap them so a badly ordered pair
# cannot produce a gigabyte of report
VIOLATION_LIST_CAP = 100


@dataclass(frozen=True)
class SimConfig:
    trials: int = DEFAULT_TRIALS
    base_seed: int = 0
    t_max: float | None = None

    def __post_init__(self):
        if not isinstance(self.trials, (int, np.integer)):
            raise ValueError(f"trials must be an integer, got {self.trials!r}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not isinstance(self.base_seed, (int, np.integer)) or self.base_seed < 0:
            raise ValueError(f"seed must be an integer >= 0, got {self.base_seed!r}")
        if self.t_max is not None:
            _check_t_max(self.t_max)


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


def _levels(net: Network, max_levels: int) -> list[list[int]] | None:
    """Topological levels of net's influence graph by Kahn's algorithm: level
    0 holds the nodes without in-edges, and level l the nodes whose last
    in-neighbour is on level l - 1. None for a cyclic graph, and as soon as
    a level past max_levels would be needed, so a graph the sweep would not
    pay for costs at most max_levels levels here."""
    indeg = np.bincount(net.dst, minlength=net.n)
    level = np.flatnonzero(indeg == 0).tolist()
    if not level:  # every circle, torus, hybrid and two-sided network
        return None
    indeg, indptr, dst = indeg.tolist(), net.indptr.tolist(), net.dst.tolist()
    levels = []
    while level:
        if len(levels) == max_levels:
            return None
        levels.append(level)
        level = []
        for u in levels[-1]:
            for v in dst[indptr[u] : indptr[u + 1]]:
                indeg[v] -= 1
                if not indeg[v]:
                    level.append(v)
    return levels if sum(map(len, levels)) == net.n else None


@dataclass(frozen=True)
class _Sweep:
    """Padded in-edge tables of an acyclic network of M nodes, renumbered in
    topological order: row pos[j] of the sweep's (M + 2, R) time array
    holds node j, row M the virtual source at time 0, and row M + 1 a
    dummy node at time inf. Each in-edge, the source's edge into a seeded
    node included, is a slot: `rows` holds its tail's row and `cols` its
    length's column in the network's clocks (its node clocks, then its
    edge clocks). A level's nodes are rows a:b and its slots lo:hi, the
    same number k per node; a node with fewer in-edges is padded with
    slots from the dummy node, which read column 0."""

    pos: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    levels: tuple[tuple[int, int, int, int], ...]  # (a, b, lo, hi) per level


def _sweep_plan(net: Network, seeded: np.ndarray, max_levels: int) -> _Sweep | None:
    """The sweep's tables of net, or None when its graph is cyclic, has
    more than max_levels levels or has no clock, so no column to read."""
    levels = _levels(net, max_levels)
    M, n_p, E = net.n, seeded.size, net.dst.size
    if levels is None or n_p + E == 0:
        return None
    pos = np.empty(M, dtype=np.intp)
    pos[np.concatenate(levels)] = np.arange(M)
    # every slot's head row, tail row and length column, grouped by head
    head = pos[np.concatenate([seeded, net.dst])]
    by_head = np.argsort(head, kind="stable")
    head = head[by_head]
    tail = np.concatenate([np.full(n_p, M), pos[net.src]])[by_head]
    indeg = np.bincount(head, minlength=M)
    size = np.array([len(level) for level in levels])
    first = np.cumsum(size) - size  # row of each level's first node
    width = np.maximum(np.maximum.reduceat(indeg, first), 1)  # k of each level
    hi = np.cumsum(size * width)
    lo = hi - size * width
    which = np.repeat(np.arange(len(levels)), size)  # level of each row
    # a row's first slot: its level's lo, then k per earlier row of the
    # level; a head's i-th in-edge takes the i-th slot from there
    start = lo[which] + (np.arange(M) - first[which]) * width[which]
    slot = start[head] + np.arange(head.size) - (np.cumsum(indeg) - indeg)[head]
    rows = np.full(hi[-1], M + 1, dtype=np.intp)
    cols = np.zeros(hi[-1], dtype=np.intp)
    rows[slot] = tail
    cols[slot] = by_head
    bounds = zip(first.tolist(), (first + size).tolist(), lo.tolist(), hi.tolist())
    return _Sweep(pos, rows, cols, tuple(bounds))


def _sweep(plan: _Sweep, length: np.ndarray, limit: float, out: np.ndarray) -> None:
    """Adoption times of R trials of an acyclic network into out, shape
    (R, M), from its (R, n_clocks) edge lengths: one gather-add-min over
    the trials per level, in topological order, its slots gathered from
    the lengths with no copy of them. Every tail of a level's slots is on
    an earlier level, the source or the dummy, so its time is final, and a
    node's time is the minimum of fl(d(u) + l_uv) over its in-edges, the
    same floats Dijkstra compares. A time past limit is then inf, as
    Dijkstra's limit makes it."""
    R = len(length)
    slots = length.T[plan.cols]
    times = np.empty((plan.pos.size + 2, R))
    times[-2] = 0.0
    times[-1] = np.inf
    for a, b, lo, hi in plan.levels:
        cand = slots[lo:hi]
        cand += times[plan.rows[lo:hi]]
        cand.reshape(b - a, -1, R).min(axis=1, out=times[a:b])
    out[:] = times[plan.pos].T
    if limit < np.inf:
        out[out > limit] = np.inf


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

    Each network takes one of two exact routes over the same lengths. An
    acyclic network (a one-sided line or box) sweeps its topological levels
    once per RNG block of R trials (see `_sweep`), when
    SWEEP_LEVEL_COST * levels <= R * (nodes + edges); the sweep's cost
    grows with levels, Dijkstra's with R * (nodes + edges). Every other
    network goes to Dijkstra: each RNG block's rows in sub-blocks of B =
    DIJKSTRA_NODES // nodes_per_trial trials (at least 1, at most R),
    nodes_per_trial over the networks that take it, so the heap stays in
    cache, at O(trials * E * log(B * E)) cost. One block-diagonal graph of
    B trials (see `_graph`) serves every sub-block; a short one of b trials
    gives the source's edges into the other B - b length inf, so Dijkstra
    reaches none of their nodes. Trials are disconnected components and a
    distance is the minimum of d(u) + w over settled predecessors, so the
    times do not depend on which trials share a call. Dijkstra keeps a
    distance <= limit and returns inf above it: a node within limit is
    reached only through nodes within limit, so the result is the
    unlimited one with every time past limit set to inf. Both routes thus
    give the same floats."""
    seeded = [np.flatnonzero(net.p > 0).astype(np.int32) for net in nets]  # own clocks
    rates = [np.concatenate([net.p[s], net.w]) for net, s in zip(nets, seeded)]
    R_max = min(TRIAL_BLOCK, config.trials)
    if R_max * n_clocks >= 2**31:
        raise ValueError(
            f"a block of {R_max} trials draws {R_max * n_clocks} clocks at once, "
            "16 GiB or more; use fewer trials or a smaller network"
        )
    plans = [_sweep_plan(net, s, R_max * (net.n + net.dst.size) // SWEEP_LEVEL_COST)
             for net, s in zip(nets, seeded)]
    heap = [k for k, plan in enumerate(plans) if plan is None]  # the networks Dijkstra solves
    if heap:
        # imported here, not at module level, as every scipy import in the
        # package is: a command pays only for the parts of scipy it runs
        from scipy.sparse.csgraph import dijkstra

        B = min(R_max, max(1, DIJKSTRA_NODES // sum(nets[k].n for k in heap)))
        graph, views = _graph([nets[k] for k in heap], [seeded[k] for k in heap], B)
    all_times = [np.empty((config.trials, net.n)) for net in nets]
    for block, done in enumerate(range(0, config.trials, TRIAL_BLOCK)):
        R = min(TRIAL_BLOCK, config.trials - done)
        # row r holds trial r's clocks, so a trial's draws do not depend on
        # how many trials share its block
        rng = np.random.default_rng(np.random.SeedSequence((int(config.base_seed), block)))
        clocks = rng.standard_exponential((R, n_clocks))
        lengths = [clocks[:, col] for col in columns]
        del clocks
        for length, rate in zip(lengths, rates):
            length /= rate
        for plan, length, times in zip(plans, lengths, all_times):
            if plan is not None:
                _sweep(plan, length, limit, times[done : done + R])
        for lo in range(0, R, B) if heap else ():
            b = min(B, R - lo)
            for (src, edge), k in zip(views, heap):
                n_p = src.shape[1]
                src[:b] = lengths[k][lo : lo + b, :n_p]
                src[b:] = np.inf
                edge[:b] = lengths[k][lo : lo + b, n_p:]
            dist = dijkstra(graph, directed=True, indices=0, limit=limit)
            node = 1
            for k in heap:
                M = nets[k].n
                all_times[k][done + lo : done + lo + b] = dist[node : node + b * M].reshape(b, M)
                node += B * M
    return all_times


def _event_times(net: Network, config: SimConfig, limit: float) -> np.ndarray:
    """Exact continuous-time adoption times of net, shape (trials, M), inf
    past limit."""
    n_clocks = np.count_nonzero(net.p > 0) + net.dst.size
    return _first_passage([net], [slice(None)], n_clocks, config, limit)[0]


def _horizon(config: SimConfig) -> float:
    return np.inf if config.t_max is None else config.t_max


def _fraction_stats(times: np.ndarray, t_grid: np.ndarray,
                    base: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Mean over trials, and its stderr, of each trial's adopter fraction on
    t_grid, from adoption times of shape (trials, M). With base, adoption
    times of the same shape on the same trials (a coupled run), of each
    trial's fraction minus base's, so the stderr is the paired one."""
    if not np.all(times > 0):
        raise ValueError(f"adoption times must be > 0, got minimum {np.min(times)}")
    trials, M = times.shape
    T = t_grid.size

    def fractions(x: np.ndarray) -> np.ndarray:
        # times <= t[i] iff i >= k; an inf (never adopted) time gets k = T.
        # A trial's counts do not depend on its nodes' order, and the search
        # is faster on sorted keys
        k = np.searchsorted(t_grid, np.sort(x, axis=1), side="left")
        R = k.shape[0]
        per_trial = np.bincount(
            (k + (T + 1) * np.arange(R)[:, None]).ravel(), minlength=R * (T + 1)
        )
        return per_trial.reshape(R, T + 1).cumsum(axis=1)[:, :T] / M

    sum_f = np.zeros(T)
    sum_f2 = np.zeros(T)
    for lo in range(0, trials, TRIAL_BLOCK):
        frac = fractions(times[lo : lo + TRIAL_BLOCK])
        if base is not None:
            frac -= fractions(base[lo : lo + TRIAL_BLOCK])
        sum_f += frac.sum(axis=0)
        sum_f2 += (frac**2).sum(axis=0)
    mean = sum_f / trials
    if trials > 1:
        var = (sum_f2 - trials * mean**2) / (trials - 1)
        stderr = np.sqrt(np.maximum(var, 0.0) / trials)
    else:
        stderr = np.zeros_like(mean)
    return mean, stderr


def curve_from_times(times: np.ndarray, t_grid) -> AdoptionCurve:
    """Empirical mean adopter fraction, with stderr, from per-trial adoption
    times, shape (trials, M), summed per block of TRIAL_BLOCK trials.
    Per-node frequencies come from `node_frequencies`; the curve carries
    none, since they cost (M, T) arrays that a large network's mean curve
    does not need.

    Adoption times must be > 0 (inf for a node that never adopts): nobody
    has adopted at t = 0.
    """
    t_grid = _check_time_grid(t_grid)
    mean, stderr = _fraction_stats(times, t_grid)
    return AdoptionCurve(t=t_grid, f=mean, source="monte_carlo", stderr=stderr)


def node_frequencies(times: np.ndarray, t_grid) -> np.ndarray:
    """Per-node adoption frequencies, shape (M, T): entry (j, i) is the
    share of trials in which node j has adopted by t_grid[i]. times as for
    `curve_from_times`. The adoption counts of every block go into one
    (M, T + 1) float array, which the cumulative sum and the division
    overwrite."""
    t_grid = _check_time_grid(t_grid)
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
    config.t_max is not read. The grid is checked by the rule the curve
    applies, before any sampling."""
    t_grid = _check_time_grid(t_grid)
    times = _event_times(net, config, t_grid[-1])
    return curve_from_times(times, t_grid)


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
