"""Stochastic simulation of the adoption process.

Every sampler returns adoption times as one (trials, M) array, inf for a
node that never adopted; `curve_from_times` turns such an array into a
Monte Carlo curve, and `node_frequencies` into per-node frequencies.

Curves come from one sampler, exact continuous-time sampling as
first-passage percolation. Hazards add, so each adoption time is a
shortest-path distance from a virtual source, with an Exp(1)/p_j edge into
every node and an Exp(1)/w_ij edge along every network edge. One Dijkstra
call on a block-diagonal graph solves a whole block of trials, at
O(trials * E * log(trials * E)) cost for E = nodes + edges per trial.

`run_coupled` checks pathwise dominance on a pair of networks by the
standard monotone coupling of first-passage times (Lindvall, *Lectures on
the Coupling Method*, 1992): each trial draws its Exp(1) clocks once, over
the union of both networks' clocks, and each network divides the clocks it
has by its own rates. Both networks then go through one Dijkstra call, so
the coupling needs no time step; when A's rates are componentwise <= B's,
every clock is at least as short in B, and so is every first-passage time.

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


def _first_passage(
    nets: list[Network], columns: list[np.ndarray | slice], n_clocks: int, config: SimConfig
) -> list[np.ndarray]:
    """Exact continuous-time adoption times, one (trials, M) array per
    network of nets, as first-passage distances (see the module docstring).
    Each trial draws n_clocks Exp(1) clocks, and columns[k] picks network
    k's: those of its nodes with p_j > 0 in node order, then those of its
    edges in edge order, each divided by its rate. An index array picks a
    copy; a slice, for a lone network, picks a view that the division
    overwrites, which saves copying the draw. A trial block is one
    block-diagonal graph: node 0 the virtual source, then each network's
    R*M nodes, trial r's node j at r*M + j."""
    # imported here, not at module level, as every scipy import in the
    # package is: a command pays only for the parts of scipy it runs
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    seeded = [np.flatnonzero(net.p > 0).astype(np.int32) for net in nets]  # own clocks
    rates = [np.concatenate([net.p[s], net.w]) for net, s in zip(nets, seeded)]
    n_lengths = sum(r.size for r in rates)
    n_nodes = sum(net.n for net in nets)
    R_max = min(config.block_size, config.trials)
    if R_max * max(n_lengths, n_nodes + 1) >= np.iinfo(np.int32).max:
        raise ValueError(
            f"a block of {R_max} trials on this network overflows the graph's int32 "
            "indices; lower block_size"
        )
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
        # CSR rows: the source's edges first, R*n_p per network, then each
        # network's node rows, trial r's with node ids offset by r*M and
        # edge slots by r*E
        nnz_src = R * sum(s.size for s in seeded)
        indptr = np.empty(R * n_nodes + 2, dtype=np.int32)
        indptr[0] = 0
        indptr[-1] = R * n_lengths
        indices = np.empty(R * n_lengths, dtype=np.int32)
        data = np.empty(R * n_lengths)
        node, src_slot, edge_slot = 1, 0, nnz_src
        for net, s, length in zip(nets, seeded, lengths):
            M, n_p, E = net.n, s.size, net.dst.size
            first = node + M * np.arange(R, dtype=np.int32)  # graph id of trial r's node 0
            rows = indptr[node : node + R * M].reshape(R, M)
            rows[:] = net.indptr[:M]
            rows += (edge_slot + E * np.arange(R, dtype=np.int32))[:, None]
            src = slice(src_slot, src_slot + R * n_p)
            edge = slice(edge_slot, edge_slot + R * E)
            np.add(first[:, None], s, out=indices[src].reshape(R, n_p))
            np.add(first[:, None], net.dst, out=indices[edge].reshape(R, E))
            data[src].reshape(R, n_p)[:] = length[:, :n_p]
            data[edge].reshape(R, E)[:] = length[:, n_p:]
            node, src_slot, edge_slot = node + R * M, src.stop, edge.stop
        del lengths, length  # freed before Dijkstra allocates its own work arrays
        graph = csr_matrix((data, indices, indptr), shape=(R * n_nodes + 1,) * 2)
        dist = dijkstra(graph, directed=True, indices=0)
        node = 1
        for net, times in zip(nets, all_times):
            times[done : done + R] = dist[node : node + R * net.n].reshape(R, net.n)
            node += R * net.n
        done += R
    return all_times


def _event_times(net: Network, config: SimConfig) -> np.ndarray:
    """Exact continuous-time adoption times of net, shape (trials, M)."""
    n_clocks = np.count_nonzero(net.p > 0) + net.dst.size
    return _first_passage([net], [slice(None)], n_clocks, config)[0]


def curve_from_times(times: np.ndarray, t_grid, block: int = TRIAL_BLOCK) -> AdoptionCurve:
    """Empirical mean adopter fraction, with stderr, from per-trial adoption
    times, shape (trials, M). Per-node frequencies come from
    `node_frequencies`; the curve carries none, since they cost (M, T)
    arrays that a large network's mean curve does not need.

    Adoption times must be > 0 (inf for a node that never adopts): nobody
    has adopted at t = 0.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if not np.all(times > 0):
        raise ValueError(f"adoption times must be > 0, got minimum {np.min(times)}")
    trials, M = times.shape
    T = t_grid.size
    sum_f = np.zeros(T)
    sum_f2 = np.zeros(T)
    for lo in range(0, trials, block):
        # times <= t[i] iff i >= k; an inf (never adopted) time gets k = T
        k = np.searchsorted(t_grid, times[lo : lo + block], side="left")
        R = k.shape[0]
        per_trial = np.bincount(
            (k + (T + 1) * np.arange(R)[:, None]).ravel(), minlength=R * (T + 1)
        )
        frac = per_trial.reshape(R, T + 1).cumsum(axis=1)[:, :T] / M
        sum_f += frac.sum(axis=0)
        sum_f2 += (frac**2).sum(axis=0)
    mean = sum_f / trials
    if trials > 1:
        var = (sum_f2 - trials * mean**2) / (trials - 1)
        stderr = np.sqrt(np.maximum(var, 0.0) / trials)
    else:
        stderr = np.zeros_like(mean)
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
    no per-node frequencies (see `curve_from_times`)."""
    return curve_from_times(_event_times(net, config), t_grid, block=config.block_size)


def _clip(times: np.ndarray, t_max: float | None) -> np.ndarray:
    if t_max is not None:
        times[times > t_max] = np.inf
    return times


def event_trajectories(net: Network, config: SimConfig = SimConfig()) -> np.ndarray:
    """Per-trial adoption times, shape (trials, M), under the exact
    continuous-time scheme; times past config.t_max (if set) are inf."""
    return _clip(_event_times(net, config), config.t_max)


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
    are the two (trials, M) adoption-time arrays, inf past config.t_max.
    steps is always 1, one exact pass; it stays only because the
    benchmark's cell counter (perfbench/spans.py) reads it.
    """
    if net_a.n != net_b.n:
        raise ValueError("coupled networks must have the same node count")
    if config.t_max is None:
        raise ValueError("run_coupled needs config.t_max")
    applicable = weakly_dominates(net_a, net_b)
    seeded = np.flatnonzero((net_a.p > 0) | (net_b.p > 0))
    keys = np.union1d(_keys(net_a), _keys(net_b))
    columns = [
        np.concatenate([np.searchsorted(seeded, np.flatnonzero(net.p > 0)),
                        seeded.size + np.searchsorted(keys, _keys(net))])
        for net in (net_a, net_b)
    ]
    times_a, times_b = (
        _clip(times, config.t_max)
        for times in _first_passage([net_a, net_b], columns, seeded.size + keys.size, config)
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
