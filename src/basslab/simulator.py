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

`run_coupled` checks pathwise dominance on a pair of networks with a
discrete kernel: synchronous updates with step dt, node j adopting in a
step iff its uniform draw is <= lambda_j * dt, with the hazards one sparse
product over the in-edges: O(trials * (M + E)) per step, no M x M matrix.
Both networks step against the same counter-based tape, so the pair is
coupled draw-for-draw, which is what makes the check exact; the coupling
report is read off the two arrays of adoption steps.

Event-driven trials are partitioned into fixed-size blocks, each with its
own child stream of the base seed, and trial r of a block uses row r of the
block's draw, so results are reproducible for a given seed and a trial does
not depend on how many trials share its block. This stream is new in
basslab 0.2.0, where it replaced the step-by-step Gillespie loop:
event-driven curves and `simulate` CSVs for a given seed differ from 0.1.0,
and reruns with the same seed stay byte-identical. Coupled draws are a
pure function of (base seed, step, trial, node), so a trial's path never
depends on how many trials run alongside it.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .curves import AdoptionCurve
from .network import Network, _check_t_max, weakly_dominates

TRIAL_BLOCK = 512
DEFAULT_TRIALS = 4000
# discrete-step targets: per-step adoption probability aimed at <= this
DEFAULT_STEP_PROB = 0.01
STEP_PROB_WARN = 0.1
# violation lists are for diagnosis; cap them so a badly ordered pair
# cannot produce a gigabyte of report
VIOLATION_LIST_CAP = 100
# a coupled run costs one step of both networks per dt; on 2 vCPUs a 6-node
# pair at 4000 trials took 5.7 s at this cap, about 0.57 ms a step. The
# dominance suite's default horizon of 30 takes at most 630 steps.
MAX_COUPLED_STEPS = 10_000


@dataclass(frozen=True)
class SimConfig:
    trials: int = DEFAULT_TRIALS
    base_seed: int = 0
    dt: float | None = None
    t_max: float | None = None
    block_size: int = TRIAL_BLOCK

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        # NaN fails every comparison, so this passes only finite values in range
        if self.dt is not None and not (self.dt > 0 and math.isfinite(self.dt)):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if self.t_max is not None:
            _check_t_max(self.t_max)
        if self.block_size < 1:
            raise ValueError("block_size must be >= 1")


class CouplingTape:
    """Counter-based uniform source: uniforms(step, shape) is a pure
    function of (seed, step), so replays and cross-network sharing are
    exact."""

    def __init__(self, seed: int):
        self.seed = int(seed)

    def uniforms(self, step: int, shape) -> np.ndarray:
        bits = np.random.Philox(key=self.seed, counter=[0, 0, int(step), 0])
        return np.random.Generator(bits).random(shape)


def max_total_rate(net: Network) -> float:
    """Largest possible adoption rate of any node: p_j plus its full
    in-weight."""
    return float(np.max(net.p + np.bincount(net.dst, weights=net.w, minlength=net.n)))


def validate_dt(net: Network, dt: float) -> None:
    lam = max_total_rate(net)
    if lam * dt > 1.0:
        raise ValueError(
            f"dt={dt} gives per-step probability {lam * dt:.3g} > 1 for the fastest node"
        )
    if lam * dt > STEP_PROB_WARN:
        warnings.warn(
            f"dt={dt} gives per-step probability {lam * dt:.3g}; discretization bias is O(dt)",
            stacklevel=2,
        )


def default_dt(net: Network) -> float:
    return DEFAULT_STEP_PROB / max_total_rate(net)


def _block_seeds(seed: int, n_blocks: int) -> list[np.random.SeedSequence]:
    return [np.random.SeedSequence((int(seed), b)) for b in range(n_blocks)]


def _event_times(net: Network, config: SimConfig) -> np.ndarray:
    """Exact continuous-time adoption times, shape (trials, M), as
    first-passage distances (see the module docstring). A trial block is one
    block-diagonal graph: node 0 the virtual source and trial r's node j at
    1 + r*M + j."""
    # imported here, not at module level, as every scipy import in the
    # package is: a command pays only for the parts of scipy it runs
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    M = net.n
    seeded = np.flatnonzero(net.p > 0).astype(np.int32)  # nodes with a clock of their own
    rates = np.concatenate([net.p[seeded], net.w])
    n_p, n_edges = seeded.size, net.dst.size
    n_clocks = n_p + n_edges
    R_max = min(config.block_size, config.trials)
    if R_max * max(n_clocks, M + 1) >= np.iinfo(np.int32).max:
        raise ValueError(
            f"a block of {R_max} trials on this network overflows the graph's int32 "
            "indices; lower block_size"
        )
    all_times = np.empty((config.trials, M))
    n_blocks = -(-config.trials // config.block_size)
    done = 0
    for ss in _block_seeds(config.base_seed, n_blocks):
        R = min(config.block_size, config.trials - done)
        # row r holds trial r's clocks, so a trial's draws do not depend on
        # how many trials share its block
        clocks = np.random.default_rng(ss).standard_exponential((R, n_clocks))
        clocks /= rates
        # CSR rows: the source's R*n_p edges first, then trial r's rows with
        # node ids offset by r*M and edge slots by r*n_edges
        first = 1 + M * np.arange(R, dtype=np.int32)  # graph id of trial r's node 0
        nnz_src = R * n_p
        indptr = np.empty(R * M + 2, dtype=np.int32)
        indptr[0] = 0
        rows = indptr[1:-1].reshape(R, M)
        rows[:] = net.indptr[:M]
        rows += (nnz_src + n_edges * np.arange(R, dtype=np.int32))[:, None]
        indptr[-1] = R * n_clocks
        indices = np.empty(R * n_clocks, dtype=np.int32)
        np.add(first[:, None], seeded, out=indices[:nnz_src].reshape(R, n_p))
        np.add(first[:, None], net.dst, out=indices[nnz_src:].reshape(R, n_edges))
        data = np.empty(R * n_clocks)
        data[:nnz_src].reshape(R, n_p)[:] = clocks[:, :n_p]
        data[nnz_src:].reshape(R, n_edges)[:] = clocks[:, n_p:]
        del clocks  # freed before Dijkstra allocates its own work arrays
        graph = csr_matrix((data, indices, indptr), shape=(R * M + 1, R * M + 1))
        dist = dijkstra(graph, directed=True, indices=0)
        all_times[done : done + R] = dist[1:].reshape(R, M)
        done += R
    return all_times


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


def event_trajectories(net: Network, config: SimConfig = SimConfig()) -> np.ndarray:
    """Per-trial adoption times, shape (trials, M), under the exact
    continuous-time scheme; times past config.t_max (if set) are inf."""
    times = _event_times(net, config)
    if config.t_max is not None:
        times[times > config.t_max] = np.inf
    return times


def _discrete_steps(
    nets: list[Network], config: SimConfig, tape, n_steps: int, dt: float
) -> list[np.ndarray]:
    """Step every network in nets (all with the same node count) against
    the same tape; for each, the step index at which each (trial, node)
    adopted, shape (trials, M), n_steps for never. Step k ends at time
    (k + 1) * dt."""
    from scipy.sparse import csr_matrix

    R, M = config.trials, nets[0].n
    # row j of W_in holds node j's in-edges, so W_in @ X is every node's
    # influence hazard with one column per trial; X is 1.0 for adopters
    w_in = [csr_matrix((net.w, (net.dst, net.src)), shape=(M, M)) for net in nets]
    adopted = [np.zeros((M, R)) for _ in nets]
    steps = [np.full((M, R), n_steps) for _ in nets]
    for step in range(n_steps):
        u = tape.uniforms(step, (R, M)).T
        for net, W, X, k in zip(nets, w_in, adopted, steps):
            rate = W @ X  # in place below: (p + W @ X) * dt, no temporaries
            rate += net.p[:, None]
            rate *= dt
            newly = (X == 0) & (u <= rate)
            k[newly] = step
            X[newly] = 1.0
    return [k.T for k in steps]


def _times(steps: np.ndarray, n_steps: int, dt: float) -> np.ndarray:
    return np.where(steps < n_steps, (steps + 1) * dt, np.inf)


def _violation_list(steps_a: np.ndarray, steps_b: np.ndarray) -> list[dict]:
    """The first VIOLATION_LIST_CAP (step, trial, node) cells, in that
    order, where A has adopted and B has not: steps_a <= step < steps_b."""
    trial, node = np.nonzero(steps_a < steps_b)  # ordered by trial, then node
    first, end = steps_a[trial, node], steps_b[trial, node]
    out: list[dict] = []
    step = 0
    while len(out) < VIOLATION_LIST_CAP:
        on = (first <= step) & (step < end)
        if not on.any():
            later = first[first > step]
            if later.size == 0:
                break
            step = int(later.min())
            continue
        for r, j in zip(trial[on][: VIOLATION_LIST_CAP - len(out)], node[on]):
            out.append({"trial": int(r), "step": step, "node": int(j)})
        step += 1
    return out


def run_coupled(net_a: Network, net_b: Network, config: SimConfig = SimConfig()) -> dict:
    """Simulate both networks against one shared tape and check the
    pathwise ordering: every adopter of A is an adopter of B at every step.
    A run of more than MAX_COUPLED_STEPS steps is refused before it starts.

    dt defaults from B, the faster network when the ordering applies. Only
    meaningful when A's parameters are componentwise <= B's ("not
    applicable" otherwise); the report counts every (trial, step, node)
    ordering violation and lists the first VIOLATION_LIST_CAP in that
    order, and zero is the expected outcome whenever the ordering applies.
    times_a/times_b are the two (trials, M) adoption-time arrays.
    """
    if net_a.n != net_b.n:
        raise ValueError("coupled networks must have the same node count")
    applicable = weakly_dominates(net_a, net_b)
    dt = config.dt if config.dt is not None else default_dt(net_b)
    validate_dt(net_b, dt)
    if config.t_max is None:
        raise ValueError("the discrete scheme needs config.t_max")
    n_steps = int(np.ceil(config.t_max / dt - 1e-12))
    if n_steps > MAX_COUPLED_STEPS:
        raise ValueError(
            f"a coupled run to t_max = {config.t_max:g} takes {n_steps} steps of dt = {dt:.3g}, "
            f"past the {MAX_COUPLED_STEPS} a coupled run takes; use a shorter horizon"
        )
    steps_a, steps_b = _discrete_steps(
        [net_a, net_b], config, CouplingTape(config.base_seed), n_steps, dt
    )
    # a cell violates the ordering in every step from A's adoption to B's
    violation_count = int(np.maximum(steps_b - steps_a, 0).sum())
    if applicable:
        verdict = "pass" if violation_count == 0 else "fail"
    else:
        verdict = "not_applicable"
    return {
        "applicable": bool(applicable),
        "trials": config.trials,
        "steps": n_steps,
        "dt": dt,
        "violations": _violation_list(steps_a, steps_b),
        "violation_count": violation_count,
        "verdict": verdict,
        "mean_final_fraction_a": float((steps_a < n_steps).mean()),
        "mean_final_fraction_b": float((steps_b < n_steps).mean()),
        "times_a": _times(steps_a, n_steps, dt),
        "times_b": _times(steps_b, n_steps, dt),
    }
