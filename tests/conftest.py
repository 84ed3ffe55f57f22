"""Shared hand-derived reference solutions used across test modules."""
import heapq
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq

from basslab import simulator
from basslab.analytic import _closed_form, _propagate, f_one_dim_limit, survival_circle
from basslab.curves import AdoptionCurve

SRC = str(Path(__file__).resolve().parents[1] / "src")

# DOP853 tolerances of the reference hierarchy solves
HIERARCHY_RTOL = 1e-11
HIERARCHY_ATOL = 1e-12


def fresh_python(args, cwd, timeout=120):
    """Run `python args` in a fresh interpreter that imports basslab from
    this checkout, capturing its text output."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=timeout)


def read_curve_csv(path):
    """Read back a curve the CLI wrote with write_curve_csv. The file holds no
    source, so the curve is tagged 'monte_carlo' when it has a stderr
    column and 'ode' otherwise."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    cols = {name: data[:, k] for k, name in enumerate(header)}
    node_names = [h for h in header if h.startswith("node_")]
    per_node = np.vstack([cols[h] for h in node_names]) if node_names else None
    stderr = cols.get("stderr")
    return AdoptionCurve(
        t=cols["t"],
        f=cols["f"],
        source="monte_carlo" if stderr is not None else "ode",
        per_node=per_node,
        stderr=stderr,
    )


def independent_survival(t, p_vec, nodes):
    """S_Omega(t) when the network has no edges: product of e^{-p_j t}."""
    total = sum(p_vec[j] for j in nodes)
    return np.exp(-total * np.asarray(t, dtype=float))


def two_node_chain_survival(t, p1, p2, w):
    """P(X_2(t) = 0) for the two-node network with the single edge 1 -> 2 of
    weight w, by conditioning on the adoption time of node 1 (requires
    p1 != w):

        P = e^{-p2 t} [ e^{-p1 t} + p1 e^{-w t} (1 - e^{-(p1-w) t}) / (p1 - w) ].
    """
    t = np.asarray(t, dtype=float)
    if abs(p1 - w) < 1e-12:
        raise ValueError("closed form needs p1 != w")
    waited = np.exp(-p1 * t)
    fired = p1 * np.exp(-w * t) * (1.0 - np.exp(-(p1 - w) * t)) / (p1 - w)
    return np.exp(-p2 * t) * (waited + fired)


def reference_first_passage(nets, cfg):
    """Adoption times of one network, or of a coupled pair on shared clocks,
    one trial at a time: trial r of block b, in blocks of
    simulator.TRIAL_BLOCK trials, reads row r of the Exp(1) draw
    standard_exponential((R, n_clocks)) of SeedSequence((base_seed, b)).
    Its columns are the node clocks of every node seeded in any of nets, in
    node order, then the edge clocks of every edge of any of nets, in
    (src, dst) order. Each network divides its own clocks by its own rates
    and runs a heap Dijkstra; times past cfg.t_max, when set, are inf.
    Returns one (trials, M) array per network."""
    M = nets[0].n
    seeded = [j for j in range(M) if any(net.p[j] > 0 for net in nets)]
    edges = sorted({(int(i), int(j)) for net in nets for i, j in zip(net.src, net.dst)})
    out = [np.empty((cfg.trials, M)) for _ in nets]
    done = 0
    for b in range(-(-cfg.trials // simulator.TRIAL_BLOCK)):
        R = min(simulator.TRIAL_BLOCK, cfg.trials - done)
        rng = np.random.default_rng(np.random.SeedSequence((cfg.base_seed, b)))
        for row in rng.standard_exponential((R, len(seeded) + len(edges))):
            node_clock = dict(zip(seeded, row))
            edge_clock = dict(zip(edges, row[len(seeded):]))
            for net, times in zip(nets, out):
                dist = [node_clock[j] / net.p[j] if net.p[j] > 0 else np.inf for j in range(M)]
                heap = [(d, j) for j, d in enumerate(dist) if d < np.inf]
                heapq.heapify(heap)
                settled = set()
                while heap:
                    d, i = heapq.heappop(heap)
                    if i in settled:
                        continue
                    settled.add(i)
                    for e in range(net.indptr[i], net.indptr[i + 1]):
                        j = int(net.dst[e])
                        cand = d + edge_clock[i, j] / net.w[e]
                        if cand < dist[j]:
                            dist[j] = cand
                            heapq.heappush(heap, (cand, j))
                times[done] = dist
            done += 1
    if cfg.t_max is not None:
        for times in out:
            times[times > cfg.t_max] = np.inf
    return out


def sort_and_search_stats(times, t_grid, base=None):
    """Mean and stderr of the adopter fraction on t_grid, or with base of
    the paired difference from base, by the aggregation of 0.20.0-0.25.0:
    each block's rows sorted, then binary-searched on the grid, and each
    trial's integer counts cumulated and divided by M."""
    trials, M = times.shape
    T = t_grid.size

    def fractions(x):
        k = np.searchsorted(t_grid, np.sort(x, axis=1), side="left")
        R = k.shape[0]
        per_trial = np.bincount((k + (T + 1) * np.arange(R)[:, None]).ravel(),
                                minlength=R * (T + 1))
        return per_trial.reshape(R, T + 1).cumsum(axis=1)[:, :T] / M

    sum_f, sum_f2 = np.zeros(T), np.zeros(T)
    for lo in range(0, trials, simulator.TRIAL_BLOCK):
        frac = fractions(times[lo : lo + simulator.TRIAL_BLOCK])
        if base is not None:
            frac -= fractions(base[lo : lo + simulator.TRIAL_BLOCK])
        sum_f += frac.sum(axis=0)
        sum_f2 += (frac**2).sum(axis=0)
    mean = sum_f / trials
    var = (sum_f2 - trials * mean**2) / (trials - 1)
    return mean, np.sqrt(np.maximum(var, 0.0) / trials)


def search_node_frequencies(times, t_grid):
    """Per-node adoption frequencies, shape (M, T), by the binary search of
    0.13.0-0.25.0 on each block's unsorted times."""
    trials, M = times.shape
    T = t_grid.size
    counts = np.zeros(M * (T + 1))
    for lo in range(0, trials, simulator.TRIAL_BLOCK):
        k = np.searchsorted(t_grid, times[lo : lo + simulator.TRIAL_BLOCK], side="left")
        counts += np.bincount((k + (T + 1) * np.arange(M)).ravel(), minlength=M * (T + 1))
    return (counts.reshape(M, T + 1).cumsum(axis=1) / trials)[:, :T]


def brentq_horizon(p, q):
    """T at which f_one_dim_limit reaches 0.99, by brentq on a bracket
    [T/2, T] found by doubling T from 1: the reference for the default
    grid's horizon. brentq stops within 2e-12 + 4 eps T of the root."""
    g = lambda T: float(f_one_dim_limit(T, p, q)[0]) - 0.99
    hi = 1.0
    while g(hi) < 0:
        hi *= 2.0
    return brentq(g, hi / 2 if g(hi / 2) < 0 else 1e-12, hi)


def dense_weights(net):
    """Dense (n, n) matrix W[i, j] = weight of edge i -> j, 0 if absent,
    read off the edge triples: the reference for the sparse readers."""
    W = np.zeros((net.n, net.n))
    for i, j, w in net.edges:
        W[i, j] = w
    return W


def _hierarchy_matrix(p, q, M, sided="one"):
    """Coefficient matrix of the S_k hierarchy of the M-circle, assembled
    from the sided edge weights: a block of k adjacent nodes is fed by 1
    outside neighbour at weight q (one-sided) or 2 at q/2 (two-sided)."""
    total = q if sided == "one" else 2 * (q / 2)
    L = np.zeros((M, M))
    for k in range(1, M):
        L[k - 1, k - 1] = -(k * p + total)
        L[k - 1, k] = total
    L[M - 1, M - 1] = -M * p
    return L


def hierarchy_survivals(t_grid, p, q, M, sided="one"):
    """S_k(t;M) for k = 1..M by DOP853 on the whole hierarchy, shape (M, T):
    one M-state solve per circle size, sharing nothing with the library's
    S_1 recursion."""
    t_grid = np.asarray(t_grid, dtype=float)
    L = _hierarchy_matrix(p, q, M, sided)
    sol = solve_ivp(lambda _t, y: L @ y, (0.0, float(t_grid[-1])), np.ones(M), t_eval=t_grid,
                    method="DOP853", rtol=HIERARCHY_RTOL, atol=HIERARCHY_ATOL)
    assert sol.success, sol.message
    return sol.y


def shift_identity_residual(t_grid, p, q, k, M, sided="one"):
    """|LHS - RHS| of the block-shift identity, from independent hierarchy
    solves of the two circle sizes.

    one-sided: S_k(t;M) = S_1(t;M-k+1) e^{-(k-1)pt}, 2 <= k <= M.
    two-sided: S_k(t;M) = S_2(t;M-k+2) e^{-(k-2)pt}, 3 <= k <= M.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    big = hierarchy_survivals(t_grid, p, q, M, sided)[k - 1]
    if sided == "one":
        small = hierarchy_survivals(t_grid, p, q, M - k + 1, sided)[0]
        return np.abs(big - small * np.exp(-(k - 1) * p * t_grid))
    small = hierarchy_survivals(t_grid, p, q, M - k + 2, sided)[1]
    return np.abs(big - small * np.exp(-(k - 2) * p * t_grid))


def survival_interpolant(p, q, M, t_max, k=1):
    """Evaluator for S_k(tau;M) at any tau in [0, t_max]: the closed form for
    k = 1 where the library trusts it, else the hierarchy's dense output."""
    if k == 1 and _closed_form(np.zeros(1), p, q, M) is not None:
        return lambda tau: _closed_form(np.atleast_1d(np.asarray(tau, dtype=float)), p, q, M)
    L = _hierarchy_matrix(p, q, M)
    sol = solve_ivp(lambda _t, y: L @ y, (0.0, float(t_max)), np.ones(M), dense_output=True,
                    method="DOP853", rtol=HIERARCHY_RTOL, atol=HIERARCHY_ATOL)
    assert sol.success, sol.message
    return lambda tau: sol.sol(np.atleast_1d(np.asarray(tau, dtype=float)))[k - 1]


def a_j_quadrature(t_points, p, q, M, j, epsabs=1e-12, epsrel=1e-10):
    """A_j(t) for interior node j of the two-sided line, by adaptive
    quadrature of e^{(p+q)tau} times the pair survivals, so that
    u_j = e^{-(p+q)t} (1 + (q/2) A_j(t)); independent of the library's
    coupled 2M-2 state solve."""
    t_points = np.atleast_1d(np.asarray(t_points, dtype=float))
    t_max = float(t_points[-1])
    S = {m: survival_interpolant(p, q / 2, m, t_max) for m in {j, M - j, j - 1, M - j + 1}}

    def integrand(tau):
        return float(np.exp((p + q) * tau)
                     * (S[j](tau)[0] * S[M - j](tau)[0] + S[j - 1](tau)[0] * S[M - j + 1](tau)[0]))

    out = np.zeros(t_points.size)
    acc = prev = 0.0
    for i, t in enumerate(t_points):
        if t > prev:
            seg, _err = quad(integrand, prev, float(t), epsabs=epsabs, epsrel=epsrel, limit=200)
            acc += seg
            prev = float(t)
        out[i] = acc
    return out


def f_line_two_sided_quadrature(t_grid, p, q, M):
    """Two-sided line (per_node, f, "quadrature"), with the interior nodes
    from a_j_quadrature and the ends as half-rate M-circles."""
    t_grid = np.asarray(t_grid, dtype=float)
    per_node = np.empty((M, t_grid.size))
    S_M, _ = survival_circle(t_grid, p, q / 2, M)
    per_node[0] = per_node[M - 1] = 1.0 - S_M
    for j in range(2, M):
        A = a_j_quadrature(t_grid, p, q, M, j)
        per_node[j - 1] = 1.0 - np.exp(-(p + q) * t_grid) * (1.0 + (q / 2) * A)
    return per_node, per_node.mean(axis=0), "quadrature"


def line_two_sided_single_solve(t_grid, p, q, M):
    """Per-node non-adoption probabilities (M, T) of the two-sided line,
    M >= 2, from a solve of that line alone: M half-rate survivals, then
    the M-2 interior unknowns, through the library's _propagate call.
    f_line_two_sided must match it bit for bit."""
    j = np.arange(2, M)  # 1-based interior node labels
    S, u = _propagate(np.asarray(t_grid, dtype=float), p, q, q / 2, M, lambda s: np.exp(-p * s),
                      1.0, "two-sided line", pairs=(j - 2, M - j, j - 1, M - j - 1))
    return np.vstack([S[M - 1], u, S[M - 1]])
