"""Exact and semi-analytic adoption curves for the 1D topologies.

The workhorse objects are the block-survival probabilities S_k(t;M): the
probability that k fixed adjacent circle nodes are all non-adopters at time
t. They satisfy a closed lower-bidiagonal linear ODE system

    S_k' = -(k p + q) S_k + q S_{k+1},   k = 1..M-1,
    S_M' = -M p S_M,

with S_k(0) = 1, and (away from the resonances q = jp) the closed form

    S_1(t;M) = sum_{k=1}^{M-1} A_{k,M} e^{-(kp+q)t} + B_M e^{-Mpt}.

The block-shift identity S_2(t;m) = e^{-pt} S_1(t;m-1) closes the first row
of the hierarchy into one recursion over circle sizes,

    u_m' = -(p+q) u_m + q e^{-pt} u_{m-1},   u_1 = e^{-pt},   u_m(0) = 1,

so one table of M rows gives S_1(t;m) for every m <= M, with no exponent
sums to cancel. It feeds the circle (where the closed form is not trusted),
the one-sided line (node j is a j-circle) and the hybrid (circle nodes are
C-circles, ray node k a (C+k)-circle). The two-sided line adds its M-2
interior non-adoption probabilities to the M half-rate survivals. Lines of
several sizes share one pass: the half-rate table up to the largest size
and every size's interior unknowns. The rows k >= 2 of the hierarchy are
read off the same table by the general shift
S_k(t;m) = e^{-(k-1)pt} S_1(t;m-k+1). Each appendix diagnostic has one
function: alpha_diag is the one table beyond the S_1 tables at q and q/2
(the q/2 table comes with the two-sided lines), and beta_diag, gamma_diag,
psi_diag, nu_diag and pair_survival_two_sided_line are algebra on them.

Every one of these tables comes from one exact propagator, _propagate: in
tau = (1 - e^{-pt})/p the recursion is a nilpotent chain, so each step is
a convolution with Poisson-type weights plus a Gauss-Legendre sum, all
terms >= 0 (an exponential integrator; uniformization in tau). It needs
numpy alone, so no curve or table of this module loads scipy: the default
grid's horizon is found by Newton's method on the closed-form
infinite-line fraction, with no scipy root finder.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from .curves import _check_time_grid
from .network import _check_counts, _check_pq, _check_sizes

# Degeneracy detection: the closed form excludes q = jp, j = 1..M-1.
DEGENERACY_TOL = 1e-9
# Coefficient recursion cancels catastrophically for large M; beyond this the
# S_1 recursion (exactly equivalent) is used.
CLOSED_FORM_MAX_M = 30
# Automatic routing takes the exponent sum only when its rounding bound
# eps * (sum_k |A_k| + |B|) is at most this; otherwise the S_1 recursion.
CLOSED_FORM_ROUNDING = 1e-12
# Largest (p+q)*t_max a solve takes. The propagator's steps are at most one
# decay time long, so this caps them at MAX_DECAY_SPAN plus the grid's points.
MAX_DECAY_SPAN = 1e4
# Gauss-Legendre nodes of the propagator's forcing and interior sums on one
# step of at most one decay time.
GAUSS_NODES = 8
# Tail bound of the propagator's Poisson-type sums. With x = q (tau(b) -
# tau(a)) <= 1 the largest over the steps, each step keeps the K terms
# k < K of sum_k x^k/k!, K the least with x^K/K! <= POISSON_TAIL. The states
# are <= 1 and a step contracts, so each step adds at most 2 * POISSON_TAIL
# (dropped convolution terms and dropped forcing rows) to the error. A chain
# from 0 keeps every term, since its rows have no floor.
POISSON_TAIL = 1e-18
# Steps whose filters, forcing and node tables are formed at once; bounds
# the propagator's memory at a few MB whatever the number of steps.
PROPAGATOR_CHUNK = 128
# Fraction of the infinite-line curve reached at the default grid's horizon,
# and the default grid's number of points.
GRID_COVERAGE = 0.99
DEFAULT_GRID_POINTS = 200


def _closed_form(t: np.ndarray, p: float, q: float, M: int) -> np.ndarray | None:
    """S_1(t;M) on the circle by the exponent sum, or None where the router
    must not take it: M past CLOSED_FORM_MAX_M, q within DEGENERACY_TOL of a
    resonance jp (j < M), where the coefficients are singular, or a rounding
    bound eps * (sum_k |A_k| + |B|) past CLOSED_FORM_ROUNDING. The
    coefficients grow like (q/p)^k / k!, so large q/p or a near-resonance
    fails the bound long before the cap. survival_circle checks t, p, q and
    M first."""
    tol = DEGENERACY_TOL * max(p, q)
    if M > CLOSED_FORM_MAX_M or any(abs(q - j * p) < tol for j in range(1, M)):
        return None
    # Forward recursion over sizes 2..M: each size's A vector comes from the
    # previous size's. A[k-1] multiplies e^{-(kp+q)t}, B multiplies e^{-Mpt}.
    A: list[float] = []
    B = 1.0
    for m in range(2, M + 1):
        denom = q - (m - 1) * p
        A = [1.0 + (q / p) * sum(A[k - 1] / k for k in range(1, m - 1)) - q * B / denom,
             *(-q * A[k - 2] / ((k - 1) * p) for k in range(2, m))]
        B = q * B / denom
    bound = np.finfo(float).eps * (float(np.abs(np.asarray(A)).sum()) + abs(B))
    if not bound <= CLOSED_FORM_ROUNDING:  # NaN fails too
        return None
    S = B * np.exp(-M * p * t)
    for k in range(1, M):
        S = S + A[k - 1] * np.exp(-(k * p + q) * t)
    return S


def solve_ivp(*args, **kwargs):
    """scipy.integrate.solve_ivp, imported at the call. No solve of this
    package calls it: the name stays because perfbench/spans.py counts ODE
    solves through it (ROADMAP item 6), and that count reads 0."""
    from scipy.integrate import solve_ivp

    return solve_ivp(*args, **kwargs)


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """GAUSS_NODES Gauss-Legendre nodes and weights on [0, 1]. numpy.polynomial
    is imported at the first solve, not with the package."""
    from numpy.polynomial.legendre import leggauss

    x, w = leggauss(GAUSS_NODES)
    return (1.0 + x) / 2, w / 2


def _powers(y: np.ndarray, K: int) -> np.ndarray:
    """y^k / k! for k = 0..K-1 along a new last axis; every term >= 0 for y >= 0."""
    out = np.empty((K, *y.shape))
    out[0] = 1.0
    for k in range(1, K):
        np.multiply(out[k - 1], y / k, out=out[k])
    return np.moveaxis(out, 0, -1)


def _propagate(t_grid: np.ndarray, p: float, q: float, r: float, rows: int, head, start: float,
               what: str, pairs=None):
    """The chain w_0 = head(t) and, for n = 1..rows-1,

        w_n' = -(p+r) w_n + r e^{-pt} w_{n-1},   w_n(0) = start,

    on a grid that passed _check_time_grid, stepped exactly: the table
    (rows, T) with row n = w_n. head must be >= 0 and start in [0, 1].

    With tau = (1 - e^{-pt})/p and w_n = e^{-(p+r)t} v_n the chain is
    dv_n/dtau = r v_{n-1}, so over a step [a, b] with x = r (tau(b) - tau(a))

        w_n(b) = e^{-(p+r)(b-a)} sum_{k<n} x^k/k! w_{n-k}(a)
               + int_a^b e^{-(p+r)(b-s)} r (r (tau(b)-tau(s)))^{n-1}/(n-1)! e^{-ps} head(s) ds:

    a convolution with Poisson-type weights, then a Gauss-Legendre sum.
    Every term is >= 0, and the weights sum to at most e^{-p(b-a)}, so a
    step contracts and rounding does not grow. Each grid interval is split
    so that (p+q)(b-a) <= 1, after a first step from 0 to t_grid[0]; the
    sums keep K terms (see POISSON_TAIL), or every term from start 0. A
    solve past MAX_DECAY_SPAN decay times is refused before any work.

    With pairs = (a, b, c, d), index arrays into the rows, it also steps
    the interior unknowns of two-sided lines,

        u' = -(p+q) u + (q/2) (w_a w_b + w_c w_d),   u(0) = 1,

    by a Duhamel sum over each step's Gauss nodes, where the table is
    evaluated as at b, and returns (table, interior (len(a), T)).

    What does not depend on the state (filters, forcing, node tables) is
    formed for PROPAGATOR_CHUNK steps at once; only the convolution
    recurrence runs step by step.
    """
    span = (p + q) * float(t_grid[-1])
    if not span <= MAX_DECAY_SPAN:  # NaN fails too
        raise ValueError(
            f"{what}: (p+q)*t_max = {span:.3g} is past the {MAX_DECAY_SPAN:.0e} "
            "an ODE solve takes; use a shorter horizon"
        )
    T = t_grid.size
    table = np.empty((rows, T))
    table[0] = head(t_grid)
    interior = None if pairs is None else np.empty((len(pairs[0]), T))
    n = rows - 1
    if n == 0:
        return table

    def dtau(x, y):  # tau(y) - tau(x) for y >= x, without cancellation
        return np.exp(-p * x) * -np.expm1(-p * (y - x)) / p

    # the steps [lo, hi]: grid interval i (the first from 0) in count[i] parts
    knots = np.concatenate([[0.0], t_grid])
    width = np.diff(knots)
    count = np.maximum(1, np.ceil((p + q) * width)).astype(np.int64)
    interval = np.repeat(np.arange(T), count)
    part = np.arange(interval.size) - np.repeat(np.cumsum(count) - count, count)
    size = (width / count)[interval]
    lo = knots[interval] + part * size
    last = part + 1 == count[interval]
    hi = np.where(last, knots[interval + 1], knots[interval] + (part + 1) * size)
    if start == 0:
        # rows from 0 have no floor (alpha_j grows like (qt)^j/j!), so an
        # absolute tail bound says nothing of them: keep every term
        K = n
    else:
        x_max = r * float(np.max(dtau(lo, hi)))
        K, term = 0, 1.0
        while term > POISSON_TAIL:
            K += 1
            term *= x_max / K
    kept = min(K, n)  # forcing rows past K drop out

    c, omega = _gauss_legendre()
    G = c.size
    # a step evaluates the table at its Gauss nodes (with pairs), then at b
    where = np.ones(1) if pairs is None else np.append(c, 1.0)
    at = np.empty((where.size, rows))  # column 0 is the head at the Gauss nodes
    chain = at[:, 1:]
    # the chain's state after K-1 zeros, and its window[k, m] = w_{m+1-k},
    # so that filter @ window is the convolution
    pad = np.zeros(K - 1 + n)
    pad[K - 1:] = start
    window = np.lib.stride_tricks.as_strided(pad[K - 1:], shape=(K, n),
                                             strides=(-pad.itemsize, pad.itemsize))
    if pairs is not None:
        # flat indices into at of w_a, w_b, w_c, w_d at each Gauss node
        gather = np.stack(pairs)[:, None, :] + rows * np.arange(G)[None, :, None]
        u = np.ones(gather.shape[2])
    column = 0
    for first in range(0, lo.size, PROPAGATOR_CHUNK):
        chunk = slice(first, first + PROPAGATOR_CHUNK)
        a, b = lo[chunk, None], hi[chunk, None]
        e = a + (b - a) * where
        e[:, -1] = b[:, 0]
        filt = np.exp(-(p + r) * (e - a))[..., None] * _powers(r * dtau(a, e), K)
        s = a[..., None] + (e - a)[..., None] * c  # forcing nodes on each [a, e]
        weight = (omega * (e - a)[..., None] * r * np.exp(-(p + r) * (e[..., None] - s))
                  * np.exp(-p * s) * head(s))
        forcing = (weight[..., None, :] @ _powers(r * dtau(s, e[..., None]), kept))[..., 0, :]
        if pairs is not None:
            head_e = head(e[:, :G])
            decay = np.exp(-(p + q) * (b - a))[:, 0]
            duhamel = omega * (b - a) * (q / 2) * np.exp(-(p + q) * (b - e[:, :G]))
        for k, done in enumerate(last[chunk].tolist()):
            np.matmul(filt[k], window, out=chain)
            chain[:, :kept] += forcing[k]
            pad[K - 1:] = chain[-1]
            if pairs is not None:
                at[:G, 0] = head_e[k]
                w = at.take(gather)
                u *= decay[k]
                u += duhamel[k] @ (w[0] * w[1] + w[2] * w[3])
            if done:
                table[1:, column] = chain[-1]
                if pairs is not None:
                    interior[:, column] = u
                column += 1
    return table if pairs is None else (table, interior)


def _circle_survivals(t_grid: np.ndarray, p: float, q: float, M: int) -> np.ndarray:
    """S_1(t;m) of the m-circle for every m = 1..M, shape (M, T): the chain
    u_1 = e^{-pt}, u_m' = -(p+q) u_m + q e^{-pt} u_{m-1}, u_m(0) = 1."""
    _check_counts(M=M)
    _check_pq(p, q)
    return _propagate(_check_time_grid(t_grid), p, q, q, M, lambda s: np.exp(-p * s), 1.0,
                      "circle recursion")


def survival_circle(t_grid, p: float, q: float, M: int):
    """S_1(t;M) with automatic routing: the exponent sum where _closed_form
    vouches for it, the S_1 recursion otherwise (near a resonance, at large
    q/p, or at large M).

    Returns (values, source) with source in {"closed_form", "ode"}.
    """
    _check_sizes(M=M)
    t_grid = _check_time_grid(t_grid)
    _check_pq(p, q)
    _check_counts(M=M)
    S = _closed_form(t_grid, p, q, M)
    if S is not None:
        return S, "closed_form"
    return _circle_survivals(t_grid, p, q, M)[M - 1], "ode"


def f_circle(t_grid, p: float, q: float, M: int):
    """Expected adopter fraction on the circle: 1 - S_1(t;M).

    Returns (values, source).
    """
    S, source = survival_circle(t_grid, p, q, M)
    return 1.0 - S, source


def f_one_dim_limit(t, p: float, q: float) -> np.ndarray:
    """Infinite-line / infinite-circle adoption fraction. A scalar t is a
    one-point grid."""
    t = _check_time_grid(np.atleast_1d(t))
    _check_pq(p, q)
    return 1.0 - np.exp(-(p + q) * t + (q / p) * (1.0 - np.exp(-p * t)))


def default_time_grid(p: float, q: float, points: int = DEFAULT_GRID_POINTS) -> np.ndarray:
    """Uniform grid on [0, T] with T chosen so the infinite-line fraction
    reaches GRID_COVERAGE at T.

    With x = pT and r = q/p, f_one_dim_limit(T) = GRID_COVERAGE is
    g(x) = x + r (x + expm1(-x)) = L, L = -log1p(-GRID_COVERAGE). g is
    increasing and convex and g(L) >= L, so Newton's method from x = L
    falls monotonically onto the root; it stops at the first iterate that
    does not decrease. At q = 0 it returns L/p.
    """
    _check_sizes(points=points)
    _check_pq(p, q)
    L = -math.log1p(-GRID_COVERAGE)
    r = q / p
    x = L
    while True:
        em1 = math.expm1(-x)
        step = ((x - L) + r * (x + em1)) / (1.0 - r * em1)
        if not x - step < x:
            break
        x -= step
    T = x / p
    if T > 1e12:
        raise ValueError(f"grid horizon T = {T:.3g} is past 1e12")
    return np.linspace(0.0, T, points)


# ---------------------------------------------------------------------------
# Lines


def f_line_one_sided(t_grid, p: float, q: float, M: int):
    """Per-node and aggregate adoption on the one-sided line.

    Node j (1-based) behaves exactly like a node of a j-circle, so one solve
    of the S_1 recursion gives every node.

    Returns (per_node (M,T), f (T,), source="ode").
    """
    per_node = 1.0 - _circle_survivals(t_grid, p, q, M)
    return per_node, per_node.mean(axis=0), "ode"


def _two_sided_lines(t_grid: np.ndarray, p: float, q: float, sizes) -> tuple[np.ndarray, list[np.ndarray]]:
    """The half-rate table S_1(t;p,q/2,m), m = 1..max(sizes), shape
    (max(sizes), T), and the per-node non-adoption probabilities of the
    two-sided line of every size M >= 2 in sizes, one (M, T) array each in
    the order of sizes, from one solve.

    The boundary nodes are half-rate M-circles; interior node j solves

        u_j' = -(p+q) u_j + (q/2) [S(j-1) S(M-j+1) + S(j) S(M-j)],

    fed by the pair survivals Prob(X_{j-1}=0, X_j=0) = S(j-1) S(M-j+1),
    products of half-rate circle survivals S(m). The propagator steps the
    max(sizes) survivals and, at the Gauss nodes of each step, the M-2
    interior unknowns of each size in turn, so no interpolation error
    enters. A single size M is the M survivals and M-2 unknowns of its line
    alone."""
    _check_pq(p, q)
    sizes = list(sizes)
    if not sizes or min(sizes) < 2:
        raise ValueError(f"two-sided line sizes must be >= 2, got {sizes}")
    N = max(sizes)
    # every interior node's 1-based label j and line size L, sizes in turn;
    # its two pair survivals are S(j-1) S(L-j+1) and S(j) S(L-j)
    j = np.concatenate([np.arange(2, M) for M in sizes])
    L = np.concatenate([np.full(M - 2, M) for M in sizes])

    S, u = _propagate(_check_time_grid(t_grid), p, q, q / 2, N, lambda s: np.exp(-p * s), 1.0,
                      "two-sided line", pairs=(j - 2, L - j, j - 1, L - j - 1))
    lines = []
    start = 0
    for M in sizes:
        lines.append(np.vstack([S[M - 1], u[start : start + M - 2], S[M - 1]]))
        start += M - 2
    return S, lines


def f_line_two_sided(t_grid, p: float, q: float, M: int):
    """Per-node and aggregate adoption on the two-sided line: its ends are
    half-rate M-circles and its interior nodes are driven by products of
    half-rate circle survivals, stepped with them in one pass (see
    _two_sided_lines). A single node is the half-rate 1-circle.

    Returns (per_node (M,T), f (T,), source): source "ode", or for M = 1
    the route survival_circle took.
    """
    _check_counts(M=M)
    _check_pq(p, q)
    if M == 1:
        S, source = survival_circle(t_grid, p, q / 2, 1)
        per_node = (1.0 - S)[None, :]
        return per_node, per_node.mean(axis=0), source
    _, (survivals,) = _two_sided_lines(t_grid, p, q, (M,))
    per_node = 1.0 - survivals
    return per_node, per_node.mean(axis=0), "ode"


# ---------------------------------------------------------------------------
# Hybrid circle + ray


def f_hybrid(t_grid, p: float, q: float, circle_size: int, ray_size: int):
    """Circle-with-ray curve: circle nodes follow the C-circle, the k-th ray
    node follows the (C+k)-circle; one solve of the S_1 recursion.

    Returns (per_node (C+K,T), f (T,), source="ode").
    """
    _check_counts(circle_size=circle_size, ray_size=ray_size)
    C, K = circle_size, ray_size
    f = 1.0 - _circle_survivals(t_grid, p, q, C + K)
    per_node = np.vstack([np.repeat(f[C - 1 : C], C, axis=0), f[C:]])
    return per_node, per_node.mean(axis=0), "ode"


# ---------------------------------------------------------------------------
# Diagnostic quantities


def alpha_diag(t_grid, p: float, q: float, k: int) -> np.ndarray:
    """alpha(t,j) = S_1(t;j) - S_1(t;j+1) for every j = 1..k, shape (k, T);
    positive for t > 0.

    For j beyond ~6 the plain subtraction cancels catastrophically (the
    true value decays like (qt)^j / j! at small t, below round-off of the
    two survivals), so the difference is stepped directly: combining the
    S_1 evolution with the block-shift identity gives the triangular system

        alpha_j' = -(p+q) alpha_j + q e^{-pt} alpha_{j-1},
        alpha_0  = 1 - e^{-pt},  alpha_j(0) = 0,

    the S_1 chain with head 1 - e^{-pt} and start 0: every term of its
    steps is >= 0, so nothing cancels. One pass gives every row.
    """
    _check_sizes(k=k)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    _check_pq(p, q)
    return _propagate(_check_time_grid(t_grid), p, q, q, k + 1, lambda s: -np.expm1(-p * s), 0.0,
                      "difference system")[1:]


def _block_survival(s1: np.ndarray, t_grid: np.ndarray, p: float, k: int, m: int) -> np.ndarray:
    """S_k(t;m) read off a table of S_1 rows (s1[m-1] = S_1(t;m), as
    _circle_survivals gives it) by the block-shift identity
    S_k(t;m) = e^{-(k-1)pt} S_1(t;m-k+1)."""
    if m > s1.shape[0]:
        raise ValueError(f"S_{k}(t;{m}) needs circle sizes up to {m}; the table has {s1.shape[0]}")
    return np.exp(-(k - 1) * p * t_grid) * s1[m - k]


def beta_diag(t_grid, p: float, k: int, M: int, s1: np.ndarray, s1_half: np.ndarray) -> np.ndarray:
    """beta(t,k,M) = [S_k - S_{k+1}](q/2) - [S_k - S_{k+1}](q); positive for
    t > 0, k = 1..M-1. s1 and s1_half are the S_1 tables at q and q/2 on
    t_grid, with at least M sizes."""
    _check_sizes(k=k, M=M)
    if not (M >= 2 and 1 <= k <= M - 1):
        raise ValueError(f"beta needs M >= 2 and 1 <= k <= M-1, got k={k}, M={M}")
    t_grid = _check_time_grid(t_grid)

    def drop(table: np.ndarray) -> np.ndarray:
        return _block_survival(table, t_grid, p, k, M) - _block_survival(table, t_grid, p, k + 1, M)

    return drop(s1_half) - drop(s1)


def gamma_diag(t_grid, p: float, k: int, M: int, s1: np.ndarray) -> np.ndarray:
    """gamma(t,k,M) = S_k - 2 S_{k+1} + S_{k+2}; positive for t > 0,
    k = 1..M-2. s1 is the S_1 table at q on t_grid, with at least M sizes."""
    _check_sizes(k=k, M=M)
    if not (M >= 3 and 1 <= k <= M - 2):
        raise ValueError(f"gamma needs M >= 3 and 1 <= k <= M-2, got k={k}, M={M}")
    t_grid = _check_time_grid(t_grid)
    S = [_block_survival(s1, t_grid, p, j, M) for j in (k, k + 1, k + 2)]
    return S[0] - 2 * S[1] + S[2]


def nu_diag(s_one: np.ndarray, s_two: np.ndarray, k: int) -> np.ndarray:
    """nu(t,k,M) from the per-node non-adoption probabilities of the one- and
    two-sided lines of M nodes (rows are nodes 1..M): the first is rows
    1..M of the S_1 table at q, the second a line of _two_sided_lines."""
    M = s_one.shape[0]
    if s_two.shape != s_one.shape:
        raise ValueError("survival arrays must have equal shapes")
    _check_sizes(k=k)
    if not 1 <= k <= M:
        raise ValueError(f"k must be in 1..{M}, got {k}")
    mirror = M - k + 1
    return (s_one[k - 1] + s_one[mirror - 1]) - (s_two[k - 1] + s_two[mirror - 1])


def pair_survival_two_sided_line(s1_half: np.ndarray, M: int, j: int) -> np.ndarray:
    """Prob(X_{j-1}=0, X_j=0) on the two-sided line of M nodes, j = 2..M:
    the product S(j-1) S(M-j+1) of two half-rate circle survivals, read off
    the S_1 table at q/2 (s1_half[m-1] = S_1(t;p,q/2,m))."""
    _check_sizes(M=M, j=j)
    if not 2 <= j <= M:
        raise ValueError(f"j must be in 2..{M}, got {j}")
    m = max(j - 1, M - j + 1)
    if m > s1_half.shape[0]:
        raise ValueError(f"the pair needs circle sizes up to {m}; the table has {s1_half.shape[0]}")
    return s1_half[j - 2] * s1_half[M - j]


def psi_diag(
    t_grid,
    p: float,
    k: int,
    M: int,
    s1: np.ndarray,
    s1_half: np.ndarray,
) -> np.ndarray:
    """psi(t,k,M) = S_2(t;q,k) + S_2(t;q,M-k+1)
    - Prob(X_{k-1}=0, X_k=0) - Prob(X_k=0, X_{k+1}=0) on the two-sided line;
    positive for t > 0, k >= 2, M >= 2k-1. s1 and s1_half are the S_1
    tables at q and q/2 on t_grid, with at least M-k+1 sizes. The S_2
    terms are read off s1 by the block shift, the pair probabilities come
    from pair_survival_two_sided_line on s1_half.
    """
    _check_sizes(k=k, M=M)
    if not (k >= 2 and M >= 2 * k - 1):
        raise ValueError(f"psi needs k >= 2 and M >= 2k-1, got k={k}, M={M}")
    t_grid = _check_time_grid(t_grid)
    s2_left = _block_survival(s1, t_grid, p, 2, k)
    s2_right = _block_survival(s1, t_grid, p, 2, M - k + 1)
    return (s2_left + s2_right - pair_survival_two_sided_line(s1_half, M, k)
            - pair_survival_two_sided_line(s1_half, M, k + 1))
