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

so one solve of M states gives S_1(t;m) for every m <= M, with no exponent
sums to cancel. It feeds the circle (where the closed form is not trusted),
the one-sided line (node j is a j-circle) and the hybrid (circle nodes are
C-circles, ray node k a (C+k)-circle). The two-sided line adds its M-2
interior non-adoption probabilities to the M half-rate survivals: 2M-2
states. Lines of several sizes share one solve: the half-rate recursion
up to the largest size and every size's interior unknowns. The rows
k >= 2 of the hierarchy are read off the same table by the general shift
S_k(t;m) = e^{-(k-1)pt} S_1(t;m-k+1). Each appendix diagnostic has one
function: alpha_diag is the one solve beyond the S_1 tables at q and q/2
(the q/2 table comes with the two-sided lines), and beta_diag, gamma_diag,
psi_diag, nu_diag and pair_survival_two_sided_line are algebra on them.

scipy.integrate is imported at the first ODE solve, through this module's
solve_ivp, so the closed form and default_time_grid run without it: the
default grid's horizon is found by Newton's method on the closed-form
infinite-line fraction, with no scipy root finder.
"""
from __future__ import annotations

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
# Adaptive Runge-Kutta relative tolerance of alpha's difference system. The
# global error runs several times rtol.
ODE_RTOL = 1e-11
# Tolerances of the S_1 recursion over circle sizes. Its M sizes are chained
# and DOP853's error norm is an RMS over all of them, so one size can drift
# well past rtol: at ODE_RTOL the one-sided line at q/p = 45 ran 2.6e-10 off
# the master equation (M = 16). At these, f_line_one_sided's rows 1-10 on
# the default grid at p = 0.01, q = 0.1 ran at most 1.03e-11 off the lumped
# oracle's m-circles at M = 16, 4.53e-11 at M = 60, 1.35e-10 at M = 200 and
# 4.34e-10 at M = 1000: the error grows with M (ROADMAP item 2).
RECURSION_RTOL = 1e-12
RECURSION_ATOL = 1e-13
# Largest (p+q)*t_max an ODE solve takes. DOP853's steps are bounded by its
# stability region, so the work grows with the decay rate times the
# horizon: at 1e4 the two-sided line of 200 nodes takes about 1.4 s and
# the 6-circle at q/p = 1e13 about 0.6 s, at 1e5 about 12 s and 5 s.
MAX_DECAY_SPAN = 1e4
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
    """scipy.integrate.solve_ivp, imported at the first solve: importing
    scipy.integrate (which loads scipy.optimize) takes about 0.5 s, which
    a command that never integrates need not pay."""
    from scipy.integrate import solve_ivp

    return solve_ivp(*args, **kwargs)


def _integrate(rhs, t_grid, y0: np.ndarray, what: str, rate: float,
               rtol: float = RECURSION_RTOL, atol: float = RECURSION_ATOL) -> np.ndarray:
    """DOP853 solution of y' = rhs(t, y), y(0) = y0, on t_grid: shape
    (len(y0), T). rate is the system's largest decay rate; a bad grid, or
    a solve past MAX_DECAY_SPAN decay times, is refused before it starts."""
    t_grid = _check_time_grid(t_grid)
    span = rate * float(t_grid[-1])
    if not span <= MAX_DECAY_SPAN:  # NaN fails too
        raise ValueError(
            f"{what}: (p+q)*t_max = {span:.3g} is past the {MAX_DECAY_SPAN:.0e} "
            "an ODE solve takes; use a shorter horizon"
        )
    sol = solve_ivp(
        rhs,
        (0.0, float(t_grid[-1])) if t_grid[-1] > 0 else (0.0, 1.0),
        y0,
        t_eval=t_grid,
        method="DOP853",
        rtol=rtol,
        atol=atol,
    )
    if not sol.success:
        raise RuntimeError(f"{what} integration failed: {sol.message}")
    return sol.y


def _survival_rates(t: float, u: np.ndarray, p: float, q: float) -> np.ndarray:
    """u' for u_m = S_1(t;m), m = 1..len(u): the recursion over circle sizes."""
    du = -(p + q) * u
    du[0] = -p * u[0]
    du[1:] += q * np.exp(-p * t) * u[:-1]
    return du


def _circle_survivals(t_grid: np.ndarray, p: float, q: float, M: int) -> np.ndarray:
    """S_1(t;m) of the m-circle for every m = 1..M, shape (M, T), from one
    solve of the recursion."""
    _check_counts(M=M)
    _check_pq(p, q)
    return _integrate(lambda t, u: _survival_rates(t, u, p, q), t_grid, np.ones(M),
                      "circle recursion", p + q)


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
    products of half-rate circle survivals S(m). The max(sizes) survivals
    (the S_1 recursion) come first, then the M-2 interior unknowns of each
    size in turn, all integrated as one system, so no interpolation error
    enters. A single size M is the 2M-2 states of its line alone."""
    _check_pq(p, q)
    sizes = list(sizes)
    if not sizes or min(sizes) < 2:
        raise ValueError(f"two-sided line sizes must be >= 2, got {sizes}")
    N = max(sizes)
    h = q / 2
    # every interior node's 1-based label j and line size L, sizes in turn,
    # and the S indices of its two pair survivals
    j = np.concatenate([np.arange(2, M) for M in sizes])
    L = np.concatenate([np.full(M - 2, M) for M in sizes])
    a, b, c, d = j - 2, L - j, j - 1, L - j - 1

    def rhs(t, y):
        S, u = y[:N], y[N:]
        du = -(p + q) * u + h * (S[a] * S[b] + S[c] * S[d])
        return np.concatenate([_survival_rates(t, S, p, h), du])

    y = _integrate(rhs, t_grid, np.ones(N + j.size), "two-sided line", p + q)
    lines = []
    start = N
    for M in sizes:
        lines.append(np.vstack([y[M - 1], y[start : start + M - 2], y[M - 1]]))
        start += M - 2
    return y[:N], lines


def f_line_two_sided(t_grid, p: float, q: float, M: int):
    """Per-node and aggregate adoption on the two-sided line: its ends are
    half-rate M-circles and its interior nodes are driven by products of
    half-rate circle survivals, integrated with them as one system of
    2M-2 states (see _two_sided_lines). A single node is the half-rate
    1-circle.

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
    two survivals), so the difference is integrated directly: combining the
    S_1 evolution with the block-shift identity gives the triangular system

        alpha_j' = -(p+q) alpha_j + q e^{-pt} alpha_{j-1},
        alpha_0  = 1 - e^{-pt},  alpha_j(0) = 0,

    which is positivity-preserving and carries no cancellation. One solve
    gives every row.
    """
    _check_sizes(k=k)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    _check_pq(p, q)

    def rhs(t, a):
        d = -(p + q) * a
        drive = q * np.exp(-p * t)
        d[0] += drive * (1.0 - np.exp(-p * t))
        d[1:] += drive * a[:-1]
        return d

    return _integrate(rhs, t_grid, np.zeros(k), "difference system", p + q, ODE_RTOL, 1e-18)


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
