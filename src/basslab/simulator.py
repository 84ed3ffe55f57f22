"""Stochastic simulation of the adoption process.

Every sampler returns adoption times as one (trials, M) array, inf for a
node that never adopted; `curve_from_times` turns such an array into a
Monte Carlo curve, and `node_frequencies` into per-node frequencies.

Curves come from one sampler, exact continuous-time sampling as
first-passage percolation. Hazards add, so each adoption time is a
shortest-path distance from a virtual source, with an Exp(1)/p_j edge into
every node and an Exp(1)/w_ij edge along every network edge. Every network
takes one exact route to the distances (see `_first_passage`): label-
correcting shortest paths done as Gauss-Seidel sweeps over the two DAGs of
one node order (Bertsekas, *Network Optimization*, 1998, ch. 2; the "fast
sweeping" of Zhao, *Math. Comp.* 2005), forward and backward in turn until
a sweep changes nothing. That is the least fixed point of
d(v) = min fl(d(u) + l_uv), the floats Dijkstra returns. An acyclic network
(every one-sided line and box) has no backward DAG, and its one sweep in
topological order is DAG-SHORTEST-PATHS (Cormen et al., *Introduction to
Algorithms*, 24.2). Trials whose sweeps would cost more than Dijkstra go to
it, on a block-diagonal graph of a sub-block of trials. The times past a
horizon are inf: the grid's last point for a curve, config.t_max for the
raw times.

`run_coupled` checks pathwise dominance on a pair of networks by the
standard monotone coupling of first-passage times (Lindvall, *Lectures on
the Coupling Method*, 1992): each trial draws its Exp(1) clocks once, over
the union of both networks' clocks, and each network divides the clocks it
has by its own rates. Each network then runs the same kernel on those
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
# slot lengths per sweep sub-block: a sub-block gathers its trials' slot
# lengths once, 1 MB of them before the padding, and reads them in every
# sweep
SWEEP_SLOTS = 2**17
# the time of one level of a sweep over that of one node or edge of one
# trial in Dijkstra. On 2 vCPUs a level took 4-5 us on lines and on the
# two-sided 32x32 and 64x64 tori (sub-blocks of 512, 25 and 6 trials) and
# 8-14 us on the two-sided 6x6x6 torus (86 trials), and Dijkstra 50-135 ns
# per node or edge: ratios of about 40 on lines, 50-90 on those tori and
# 160-200 on the 6x6x6 torus. Near the top of that range, the sweeps that a
# budget cuts short cost at most about one Dijkstra solve of the same trials
SWEEP_LEVEL_COST = 192
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


def _graph(net: Network, seeded: np.ndarray, R: int):
    """Block-diagonal CSR graph of R trials of net, its edge lengths left to
    fill: node 0 the virtual source, trial r's node j at 1 + r*M + j. Its
    data holds the source's edges into the seeded nodes first, trial by
    trial, then each trial's edges in edge order."""
    from scipy.sparse import csr_matrix

    M, n_p, E = net.n, seeded.size, net.dst.size
    trial = np.arange(R, dtype=np.int32)[:, None]
    indptr = np.empty(R * M + 2, dtype=np.int32)
    indptr[0] = 0
    indptr[1:-1].reshape(R, M)[:] = R * n_p + E * trial + net.indptr[:M]
    indptr[-1] = R * (n_p + E)
    first = 1 + M * trial  # graph id of trial r's node 0
    indices = np.concatenate([(first + seeded).ravel(), (first + net.dst).ravel()])
    return csr_matrix((np.empty(indices.size), indices, indptr), shape=(R * M + 1,) * 2)


def _dijkstra(net: Network, seeded: np.ndarray, length: np.ndarray, limit: float) -> np.ndarray:
    """Adoption times, shape (R, M), of the R trials of length by Dijkstra
    in calls of B = DIJKSTRA_NODES // M trials (at least 1, at most R), so
    that the heap stays in cache. One graph of B trials (see `_graph`)
    serves every call, its lengths refilled; a short last call of c trials
    gives the source's edges into the other B - c length inf, so Dijkstra
    reaches none of their nodes. Trials are disconnected components, so a
    time does not depend on which trials share a call. Dijkstra keeps a
    distance <= limit and returns inf above it: a node within limit is
    reached only through nodes within limit, so this is the unlimited time
    with every time past limit set to inf."""
    # imported here, not at module level, as every scipy import in the
    # package is: a command pays only for the parts of scipy it runs
    from scipy.sparse.csgraph import dijkstra

    R, M, n_p = len(length), net.n, seeded.size
    B = min(R, max(1, DIJKSTRA_NODES // M))
    graph = _graph(net, seeded, B)
    src = graph.data[: B * n_p].reshape(B, n_p)
    edge = graph.data[B * n_p :].reshape(B, -1)
    out = np.empty((R, M))
    for lo in range(0, R, B):
        part = length[lo : lo + B]
        c = len(part)
        src[:c] = part[:, :n_p]
        src[c:] = np.inf
        edge[:c] = part[:, n_p:]
        dist = dijkstra(graph, directed=True, indices=0, limit=limit)
        out[lo : lo + c] = dist[1 : 1 + c * M].reshape(c, M)
    return out


def _levels(n: int, src: np.ndarray, dst: np.ndarray,
            max_levels: int) -> tuple[np.ndarray, np.ndarray]:
    """Topological levels of the graph of n nodes with edges src -> dst, src
    ascending, by Kahn's algorithm: level 0 holds the nodes without
    in-edges, and level l the nodes whose last in-neighbour is on level
    l - 1. Returns the nodes level by level and the number on each level.
    A cyclic graph leaves the nodes on a cycle, and those it feeds, out of
    every level. The search stops at max_levels + 1 levels, so a graph too
    deep for the sweep to pay costs no more than that here."""
    indeg = np.bincount(dst, minlength=n)
    level = np.flatnonzero(indeg == 0).tolist()
    order, counts = [], []
    if level:  # else no level: every circle, torus, hybrid and two-sided network
        indptr = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
        indeg, indptr, dst = indeg.tolist(), indptr.tolist(), dst.tolist()
    while level and len(counts) <= max_levels:
        order += level
        counts.append(len(level))
        last, level = level, []
        for u in last:
            for v in dst[indptr[u] : indptr[u + 1]]:
                indeg[v] -= 1
                if not indeg[v]:
                    level.append(v)
    return np.array(order, dtype=np.intp), np.array(counts, dtype=np.intp)


_Level = tuple[slice | np.ndarray, int, int, int]  # (heads, lo, hi, number of heads)


@dataclass(frozen=True)
class _Sweep:
    """Padded in-edge tables of a network of M nodes, one per DAG of its
    in-edges (see `_sweep_plan`). Row pos[j] of the sweep's (M + 2, b) time
    array holds node j, row M the virtual source at time 0, and row M + 1 a
    dummy node at time inf. Each in-edge, the source's edge into a seeded
    node included, is a slot: `rows` holds its tail's row and `cols` its
    length's column in the network's clocks (its node clocks, then its edge
    clocks). A level's heads are rows, a slice or an index array, and its
    slots lo:hi are k runs of one slot per head, in the heads' order; a
    head with fewer than k in-edges in the DAG is padded with slots from
    the dummy node, which read column 0.
    `sweeps` holds the levels of each DAG that has a slot, forward first.
    `least` counts the levels of the fewest sweeps that end on most
    trials: the one sweep of an acyclic network, and forward, backward and
    a forward sweep that changes nothing on a cyclic one. `trials` is the
    most trials a sub-block sweeps at once."""

    pos: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    sweeps: tuple[tuple[_Level, ...], ...]
    least: int
    trials: int


def _table(order: np.ndarray, counts: np.ndarray, head: np.ndarray, tail: np.ndarray,
           col: np.ndarray, M: int, offset: int) -> tuple[np.ndarray, np.ndarray, list[_Level]]:
    """Padded slot table of one DAG, from the rows of its heads level by
    level, the number of heads on each level, and each slot's head row,
    tail row and length column: the tail rows and columns of the padded
    slots, and each level's (heads, lo, hi, number of heads), its slots
    numbered from offset."""
    place = np.empty(M, dtype=np.intp)  # a head's place in order
    place[order] = np.arange(order.size)
    at = place[head]
    by_head = np.argsort(at, kind="stable")
    at = at[by_head]
    indeg = np.bincount(at, minlength=order.size)
    first = np.cumsum(counts) - counts  # place of each level's first head
    width = np.maximum.reduceat(indeg, first)  # k of each level
    hi = np.cumsum(counts * width)
    lo = hi - counts * width
    which = np.repeat(np.arange(counts.size), counts)[at]  # level of each slot's head
    # the i-th in-edges of a level's heads fill its i-th run of slots, in
    # the heads' order, so that k runs of equal length hold its slots
    i = np.arange(at.size) - (np.cumsum(indeg) - indeg)[at]
    slot = lo[which] + i * counts[which] + at - first[which]
    rows = np.full(hi[-1], M + 1, dtype=np.intp)
    cols = np.zeros(hi[-1], dtype=np.intp)
    rows[slot] = tail[by_head]
    cols[slot] = col[by_head]
    # a level whose rows ascend without a gap is a slice of the time array
    gap = np.concatenate([[0], np.cumsum(np.diff(order) != 1)])
    run = gap[first] == gap[first + counts - 1]
    table = []
    for a, n, r, row, start, end in zip(first.tolist(), counts.tolist(), run.tolist(),
                                        order[first].tolist(), (lo + offset).tolist(),
                                        (hi + offset).tolist()):
        table.append((slice(row, row + n) if r else order[a : a + n], start, end, n))
    return rows, cols, table


def _sweep_plan(net: Network, seeded: np.ndarray, R: int) -> _Sweep | None:
    """The sweep's tables of net for blocks of R trials, or None when even
    the fewest sweeps that can end (see `_Sweep`) would cost more than
    Dijkstra on a sub-block: SWEEP_LEVEL_COST * least > b * (nodes + edges).

    The nodes take one order: topological when the graph is acyclic, node
    index otherwise. A slot whose tail comes before its head in that order,
    the source's slots included, is in the forward DAG, and every other
    slot in the backward DAG; both are acyclic. A node with no slot in a DAG
    is no head of it, and a sweep of that DAG leaves its time alone. One
    sweep reads each slot once, so an acyclic network sweeps a whole block
    at a time; repeated sweeps keep their sub-block's slot lengths, so a
    cyclic network sweeps b = SWEEP_SLOTS // slots trials at a time (at
    least 1, at most R)."""
    M, n_p, size = net.n, seeded.size, net.n + net.dst.size
    order, counts = _levels(M, net.src, net.dst, R * size // SWEEP_LEVEL_COST)
    if counts.size > R * size // SWEEP_LEVEL_COST:
        return None
    acyclic = order.size == M
    b = R if acyclic else min(R, max(1, SWEEP_SLOTS // (n_p + net.dst.size)))
    max_levels = b * size // SWEEP_LEVEL_COST
    place = np.empty(M + 1, dtype=np.intp)  # each node's place in the order
    place[M] = -1  # the source comes first
    place[order if acyclic else np.arange(M)] = np.arange(M)
    head = np.concatenate([seeded, net.dst])
    tail = np.concatenate([np.full(n_p, M), net.src])
    forward = place[tail] < place[head]
    parts = [forward] if acyclic else [forward, ~forward]
    dags = []
    for part in parts:
        edge = part[n_p:]
        if not acyclic:
            order, counts = _levels(M, net.src[edge], net.dst[edge], max_levels)
        if counts.size > max_levels:
            return None
        # the DAG's heads level by level, less the levels that hold none
        keep = np.bincount(head[part], minlength=M)[order] > 0
        kept = np.bincount(np.repeat(np.arange(counts.size), counts)[keep],
                           minlength=counts.size)
        dags.append((order[keep], kept[kept > 0]))
    least = sum(c.size for _, c in dags) + (dags[0][1].size if len(dags) == 2 else 0)
    if least > max_levels:
        return None
    # rows: the forward DAG's heads level by level, then every other node
    fwd = dags[0][0]
    pos = np.empty(M, dtype=np.intp)
    rest = np.ones(M, dtype=bool)
    rest[fwd] = False
    pos[np.concatenate([fwd, np.flatnonzero(rest)])] = np.arange(M)
    row = np.append(pos, M)  # row of each node, then of the source
    rows, cols, sweeps = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)], []
    for part, (heads, counts) in zip(parts, dags):
        if heads.size:
            r, c, table = _table(pos[heads], counts, pos[head[part]], row[tail[part]],
                                 np.flatnonzero(part), M, sum(map(len, rows)))
            rows.append(r)
            cols.append(c)
            sweeps.append(tuple(table))
    return _Sweep(pos, np.concatenate(rows), np.concatenate(cols), tuple(sweeps), least, b)


def _sweep(levels: tuple[_Level, ...], rows: np.ndarray, slots: np.ndarray,
           times: np.ndarray) -> None:
    """One sweep of a DAG's levels over times, the (M + 2, b) time array of b
    trials, with slots the trials' slot lengths, one row per slot: for each
    level in turn, one gather-add-min over the trials, whose result
    min-updates the level's heads. Every tail of a level's slots is a head
    of an earlier level or no head of the DAG, so the sweep leaves each
    head's time at most fl(d(u) + l_uv) over its slots: the floats Dijkstra
    compares."""
    b = times.shape[1]
    # method calls and ufunc.reduce skip numpy's Python wrappers, about a
    # quarter of a level's time at a few trials per sub-block
    for heads, lo, hi, n in levels:
        cand = times.take(rows[lo:hi], axis=0)
        cand += slots[lo:hi]
        best = np.minimum.reduce(cand.reshape(-1, n, b)) if hi - lo > n else cand
        if isinstance(heads, slice):
            head = times[heads]
            np.minimum(head, best, out=head)
        else:
            times[heads] = np.minimum(times[heads], best, out=best)


def _solve(plan: _Sweep, length: np.ndarray, size: int, out: np.ndarray) -> np.ndarray:
    """Adoption times of the b trials of length, shape (b, n_clocks), into
    out, shape (b, M), by sweeps of the forward and the backward DAG in
    turn, from every time inf but the source's. Returns the mask of the
    trials whose times may not be final, which Dijkstra must solve.

    A sweep of a DAG leaves d(v) <= fl(d(u) + l) on every slot of it, and
    the start meets that on every backward slot, whose tails are all at
    inf. So when a sweep changes no time of a trial, every slot of that
    trial is met: its times are the least fixed point, the floats Dijkstra
    returns, and no later sweep changes them. An acyclic network has no
    backward DAG, and its one sweep is final. The sweeps stop when one
    changes nothing, or before one whose levels, at SWEEP_LEVEL_COST each,
    would take their cost past Dijkstra's on these trials, b * size."""
    b = len(length)
    times = np.full((out.shape[1] + 2, b), np.inf)
    times[-2] = 0.0
    changing = np.full(b, bool(plan.sweeps))
    budget = b * size // SWEEP_LEVEL_COST  # the levels that cost what Dijkstra does
    if plan.sweeps and plan.least <= budget:
        slots = length.T[plan.cols]
        if len(plan.sweeps) == 1:  # acyclic: its one sweep is final
            _sweep(plan.sweeps[0], plan.rows, slots, times)
            changing[:] = False
        swept, k = 0, 0
        while changing.any() and swept + len(plan.sweeps[k]) <= budget:
            swept += len(plan.sweeps[k])
            before = times.copy()
            _sweep(plan.sweeps[k], plan.rows, slots, times)
            changing = (times != before).any(axis=0)
            del before
            k = 1 - k
        # freed first, so that the gather below does not add to the peak
        del slots
    out[:] = times[plan.pos].T
    return changing


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

    Every network takes one exact route. Its sweep tables (see
    `_sweep_plan`) are built once per call. Each RNG block's trials are
    split evenly into sub-blocks of at most the plan's trials, and each
    sub-block is swept, forward and backward in turn, to its fixed point
    (see `_solve`). The trials still changing when the sweeps' cost,
    SWEEP_LEVEL_COST per level, would pass Dijkstra's, b * (nodes + edges)
    for b trials, go to Dijkstra (see `_dijkstra`). So does every trial of
    a network whose fewest sweeps would already cost more, such as a thin
    line at 1 trial. Both give the same floats, and a time past limit is
    then inf. The worst case is thus the budget plus one Dijkstra solve."""
    seeded = [np.flatnonzero(net.p > 0).astype(np.int32) for net in nets]  # own clocks
    rates = [np.concatenate([net.p[s], net.w]) for net, s in zip(nets, seeded)]
    R_max = min(TRIAL_BLOCK, config.trials)
    if R_max * n_clocks >= 2**31:
        raise ValueError(
            f"a block of {R_max} trials draws {R_max * n_clocks} clocks at once, "
            "16 GiB or more; use fewer trials or a smaller network"
        )
    plans = [_sweep_plan(net, s, R_max) for net, s in zip(nets, seeded)]
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
        for net, s, plan, length, times in zip(nets, seeded, plans, lengths, all_times):
            times = times[done : done + R]
            if plan is None:
                times[:] = _dijkstra(net, s, length, limit)
                continue
            b = -(-R // -(-R // plan.trials))  # even sub-blocks of at most plan.trials
            for lo in range(0, R, b):
                part, out = length[lo : lo + b], times[lo : lo + b]
                late = _solve(plan, part, net.n + net.dst.size, out)
                out[out > limit] = np.inf
                if late.any():
                    out[late] = _dijkstra(net, s, part[late], limit)
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
    graph, so nothing is divided by 0. Both networks then run the kernel of
    `_first_passage` on their own lengths, each with its own sweep tables
    and sub-blocks. Either way a time is the least fixed point of
    d(v) = min fl(d(u) + l_uv), the minimum over paths of the path's
    rounded sum, whether the sweeps reach it or a budget hands the trial to
    Dijkstra. If A's parameters are componentwise <= B's (the check is "not
    applicable" otherwise), every length in B is at most the one in A,
    since IEEE division is monotone, and so are the rounded path sums and
    their minimum: the ordering then holds in every cell, exactly.

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
