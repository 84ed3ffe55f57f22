import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from basslab import simulator
from basslab.analytic import default_time_grid
from basslab.curves import _check_time_grid
from basslab.network import (
    Network,
    build_circle,
    build_grid,
    build_hybrid_circle_ray,
    build_line,
    dominates,
    _merge_edges,
)
from basslab.oracle import exact_f
from basslab.principles import VERIFY_GRID, dominance_pairs
from basslab.simulator import (
    TRIAL_BLOCK,
    VIOLATION_LIST_CAP,
    SimConfig,
    curve_from_times,
    event_trajectories,
    node_frequencies,
    run_coupled,
    run_event_driven,
)
from conftest import (
    reference_first_passage,
    search_node_frequencies,
    sort_and_search_stats,
    two_node_chain_survival,
)


def _awkward_times(t, trials, M):
    """Adoption times with ties on grid points, never-adopted (inf) nodes
    and, for a block of 16, a partial last block."""
    rng = np.random.default_rng(4)
    times = rng.exponential(3.0, size=(trials, M))
    times[rng.random(times.shape) < 0.15] = np.inf
    ties = rng.random(times.shape) < 0.1
    times[ties] = t[rng.integers(1, t.size, size=times.shape)][ties]
    return times


def _boolean_blocked_curve(times, t, block):
    """Reference aggregator: the (R, M, T) hit array, block by block."""
    trials, M = times.shape
    sum_f, sum_f2, node_counts = np.zeros(t.size), np.zeros(t.size), np.zeros((M, t.size))
    for lo in range(0, trials, block):
        hit = times[lo : lo + block, :, None] <= t[None, None, :]
        frac = hit.sum(axis=1) / M
        sum_f += frac.sum(axis=0)
        sum_f2 += (frac**2).sum(axis=0)
        node_counts += hit.sum(axis=0)
    mean = sum_f / trials
    var = (sum_f2 - trials * mean**2) / (trials - 1)
    return mean, np.sqrt(np.maximum(var, 0.0) / trials), node_counts / trials


def _crossed_pair():
    """Neither network above the other: each seeds nodes and has edges the
    other lacks; A's nodes 3 and 4 and B's node 1 can never adopt."""
    a = Network(5, np.array([0.1, 0.0, 0.2, 0.0, 0.0]),
                [(0, 1, 0.5), (1, 2, 0.3), (3, 4, 0.4)])
    b = Network(5, np.array([0.0, 0.0, 0.2, 0.3, 0.0]),
                [(1, 2, 0.6), (2, 3, 0.2), (4, 0, 0.7), (3, 4, 0.1)])
    return a, b


def _silent_net():
    """Nodes 1 and 3 are silent (p = 0) but reachable; node 5 is silent
    with no in-edges, so it never adopts."""
    return Network(6, np.array([0.1, 0.0, 0.2, 0.0, 0.15, 0.0]),
                   [(0, 1, 0.5), (1, 2, 0.3), (2, 3, 0.4), (3, 1, 0.2), (4, 3, 0.6), (5, 4, 0.3)])


def _acyclic_silent_net():
    """_silent_net without its cycle: node 1 is silent and reachable, and
    node 5 is silent with no in-edges, so its row of the sweep is all
    padding."""
    return Network(6, np.array([0.1, 0.0, 0.2, 0.0, 0.15, 0.0]),
                   [(0, 1, 0.5), (1, 2, 0.3), (2, 3, 0.4), (4, 3, 0.6), (5, 4, 0.3)])


def _backward_line(M, p, q):
    """A one-sided line whose influence runs from node j + 1 to node j, so
    its topological order is the reverse of its node ids."""
    return Network(M, np.full(M, p), [(j + 1, j, q) for j in range(M - 1)])


def _count_routes(monkeypatch):
    """Count the sampler's sweeps from here on; returns a function that
    names the route they took."""
    sweeps = []
    sweep = simulator._sweep

    def counted(*args):
        sweeps.append(1)
        return sweep(*args)

    monkeypatch.setattr(simulator, "_sweep", counted)
    return lambda: "sweep" if sweeps else "none"


def _attained_time(times):
    """A finite adoption time the run reaches: a horizon exactly at it keeps
    that time and cuts the later ones."""
    finite = np.sort(times[np.isfinite(times)])
    return float(finite[finite.size // 2])


def _scaled(net, factor):
    return Network(net.n, net.p * factor, np.column_stack([net.src, net.dst, net.w * factor]))


class TestSimConfig:
    def test_defaults(self):
        cfg = SimConfig()
        assert cfg.trials == 4000 and cfg.t_max is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"trials": 0},
            {"t_max": -1.0},
            {"t_max": float("nan")},
            {"t_max": float("inf")},
            {"t_max": 0.0},
            {"trials": 2.5},
            {"trials": "3"},
            {"base_seed": -1},
            {"base_seed": 1.5},
            {"base_seed": np.int64(-2)},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SimConfig(**kwargs)

    def test_numpy_integers_are_accepted(self):
        cfg = SimConfig(trials=np.int64(7), base_seed=np.uint32(3))
        assert event_trajectories(build_circle(3, 0.1, 0.4), cfg).shape == (7, 3)


class TestEventDriven:
    def test_deterministic_for_fixed_seed(self):
        net = build_circle(4, 0.05, 0.3)
        t = np.linspace(0, 10, 11)
        cfg = SimConfig(trials=300, base_seed=9)
        a = run_event_driven(net, cfg, t_grid=t)
        b = run_event_driven(net, cfg, t_grid=t)
        assert np.array_equal(a.f, b.f)
        assert np.array_equal(a.stderr, b.stderr)
        assert a.per_node is None and b.per_node is None  # node_frequencies gives them
        c = run_event_driven(net, SimConfig(trials=300, base_seed=10), t_grid=t)
        assert not np.array_equal(a.f, c.f)

    def test_leading_block_independent_of_trial_count(self, monkeypatch):
        monkeypatch.setattr(simulator, "TRIAL_BLOCK", 8)
        net = build_circle(3, 0.1, 0.4)
        short = SimConfig(trials=16, base_seed=5, t_max=10.0)
        long = SimConfig(trials=24, base_seed=5, t_max=10.0)
        assert np.array_equal(event_trajectories(net, short), event_trajectories(net, long)[:16])

    def test_trials_do_not_depend_on_block_mates(self):
        # trial r's clocks are row r of its block's draw, so adding trials
        # to a block leaves the earlier trials untouched
        net = build_line(5, 0.1, 0.4, sided="two")
        few = event_trajectories(net, SimConfig(trials=10, base_seed=8))
        more = event_trajectories(net, SimConfig(trials=13, base_seed=8))
        assert np.array_equal(few, more[:10])

    def test_two_node_chain_matches_conditioning_formula(self):
        p1, p2, w = 0.3, 0.05, 0.8
        net = Network(n=2, p=np.array([p1, p2]), edges=((0, 1, w),))
        t = np.linspace(0, 10, 21)
        n = 4000
        per_node = node_frequencies(event_trajectories(net, SimConfig(trials=n, base_seed=31)), t)
        exact = np.vstack([1 - np.exp(-p1 * t), 1 - two_node_chain_survival(t, p1, p2, w)])
        sigma = np.sqrt(exact * (1 - exact) / n)[:, 1:]
        z = (per_node - exact)[:, 1:] / sigma
        assert np.max(np.abs(z)) <= 4

    def test_box_with_silent_node_matches_master_equation(self):
        # the centre node has p = 0: it adopts only through its neighbours,
        # so the source has no edge to it
        grid = build_grid(2, 3, 0.05, 0.4, sided="two", periodic=False)
        p = grid.p.copy()
        p[4] = 0.0
        net = Network(n=grid.n, p=p, edges=grid.edges)
        t = np.linspace(0, 20, 21)
        curve = run_event_driven(net, SimConfig(trials=4000, base_seed=37), t_grid=t)
        exact = exact_f(net, t)
        z = (curve.f - exact.f)[1:] / curve.stderr[1:]
        assert np.max(np.abs(z)) <= 4

    def test_edgeless_matches_independent_exact_curve(self):
        p = np.array([0.05, 0.12, 0.3, 0.7])
        net = Network(n=4, p=p, edges=())
        t = np.linspace(0, 10, 21)
        curve = run_event_driven(net, SimConfig(trials=4000, base_seed=1), t_grid=t)
        exact = (1 - np.exp(-p[:, None] * t[None, :])).mean(axis=0)
        gap = np.abs(curve.f - exact)[1:]
        assert np.all(gap <= 3 * curve.stderr[1:])

    def test_single_node_mean_adoption_time(self):
        net = Network(n=1, p=np.array([0.5]), edges=())
        cfg = SimConfig(trials=4000, base_seed=1)
        times = event_trajectories(net, cfg)[:, 0]
        se = times.std(ddof=1) / np.sqrt(times.size)
        assert abs(times.mean() - 2.0) < 3 * se

    def test_unreachable_nodes_stay_susceptible(self):
        # p = 0 and no incoming edges: the trial freezes once node 0 is done
        net = Network(n=2, p=np.array([0.5, 0.0]), edges=())
        times = event_trajectories(net, SimConfig(trials=50, base_seed=3))
        assert times.shape == (50, 2)
        assert np.all(np.isfinite(times[:, 0]))
        assert np.all(np.isinf(times[:, 1]))
        # no clock at all, alone or beside a network that has some; at 40
        # trials an acyclic network of 2 nodes would pass the sweep's rule
        silent = Network(n=2, p=np.zeros(2), edges=())
        assert np.all(np.isinf(event_trajectories(silent, SimConfig(trials=40))))
        rep = run_coupled(silent, net, SimConfig(trials=40))
        assert np.all(np.isinf(rep["times_a"])) and np.all(np.isfinite(rep["times_b"][:, 0]))

    def test_horizon_truncates_to_inf(self):
        net = Network(n=1, p=np.array([0.5]), edges=())
        times = event_trajectories(net, SimConfig(trials=200, base_seed=3, t_max=1.0))[:, 0]
        finite = times[np.isfinite(times)]
        assert 0 < finite.size < 200
        assert max(finite) <= 1.0

    # SWEEP_SLOTS 54 gives the silent network's 9 slots sub-blocks of 6
    # trials, and 160 the 4x4 torus's 80 slots sub-blocks of 2; TRIAL_BLOCK
    # 16 then splits 6 + 6 + 4 and 8 x 2, and 45 trials leave a last RNG
    # block of 13, split 5 + 5 + 3 and 6 x 2 + 1. None keeps the module's
    # value: 25 trials of the 32x32 torus per sub-block, so 20 trials in
    # blocks of 16 and 4. An acyclic network sweeps a whole block at once.
    # TestSweepRoute checks the sweeps on more networks.
    @pytest.mark.parametrize("net, sweep_slots, trials, trial_block", [
        (_silent_net(), 54, 45, 16),
        (build_grid(2, 4, 0.05, 0.3, sided="two", periodic=True), 160, 45, 16),
        (build_line(6, 0.05, 0.3, sided="one"), None, 45, 512),
        (build_grid(2, 32, 0.01, 0.1, sided="two", periodic=True), None, 20, 16),
        (build_grid(3, 3, 0.05, 0.3, sided="one", periodic=False), None, 45, 16),
        (_backward_line(7, 0.05, 0.3), None, 45, 512),
        (_acyclic_silent_net(), None, 45, 512),
    ], ids=["silent", "torus4", "line", "torus32", "box3", "backward-line", "acyclic-silent"])
    @pytest.mark.parametrize("horizon", ["none", "attained", "early"])
    def test_sampler_matches_reference_bit_for_bit(
        self, monkeypatch, net, sweep_slots, trials, trial_block, horizon
    ):
        if sweep_slots is not None:
            monkeypatch.setattr(simulator, "SWEEP_SLOTS", sweep_slots)
        monkeypatch.setattr(simulator, "TRIAL_BLOCK", trial_block)
        cfg = SimConfig(trials=trials, base_seed=21)
        (free,) = reference_first_passage([net], cfg)
        t_max = {"none": None, "attained": _attained_time(free), "early": 0.5}[horizon]
        cfg = SimConfig(trials=trials, base_seed=21, t_max=t_max)
        (ref,) = reference_first_passage([net], cfg)
        taken = _count_routes(monkeypatch)
        assert np.array_equal(event_trajectories(net, cfg), ref)
        assert taken() == "sweep"
        if t_max is not None:  # the horizon cuts some times and keeps others
            assert np.isinf(free).sum() < np.isinf(ref).sum() < ref.size
        if horizon == "attained":
            assert np.any(ref == t_max)

    @pytest.mark.parametrize("t", [np.linspace(0, 4, 9), np.array([3.0])],
                             ids=["short", "one-point"])
    def test_curve_of_times_cut_at_the_grid_end_is_unchanged(self, t):
        # the sampler stops at t[-1], and every later time lands past the
        # grid as inf does
        net = build_circle(5, 0.1, 0.3)
        cfg = SimConfig(trials=300, base_seed=2)
        want = curve_from_times(event_trajectories(net, cfg), t)
        got = run_event_driven(net, cfg, t_grid=t)
        assert np.array_equal(got.f, want.f)
        assert np.array_equal(got.stderr, want.stderr)

    @pytest.mark.parametrize("t", [np.array([0.0, 1.0, np.nan]), np.array([0.0, 1.0, np.inf]),
                                   np.array([0.0, 2.0, 1.0])],
                             ids=["nan-end", "inf-end", "descending"])
    def test_grid_the_curve_refuses_is_refused_before_sampling(self, monkeypatch, t):
        # such a grid has no horizon at which the sampler could stop
        monkeypatch.setattr(simulator, "_event_times", lambda *args: pytest.fail("sampled"))
        with pytest.raises(ValueError, match="time grid"):
            run_event_driven(build_circle(5, 0.1, 0.3), SimConfig(trials=300, base_seed=2),
                             t_grid=t)

    def test_oversized_block_is_refused_before_any_work(self, monkeypatch):
        monkeypatch.setattr(simulator, "TRIAL_BLOCK", 2**30)
        net = build_circle(4, 0.05, 0.3)
        cfg = SimConfig(trials=2**30, t_max=1.0)
        with pytest.raises(ValueError, match="16 GiB or more; use fewer trials or a smaller network"):
            event_trajectories(net, cfg)

    def test_circle_sidedness_is_statistically_invisible(self):
        t = np.linspace(0, 30, 16)
        one = run_event_driven(
            build_circle(6, 0.05, 0.3, sided="one"), SimConfig(trials=3000, base_seed=42), t_grid=t
        )
        two = run_event_driven(
            build_circle(6, 0.05, 0.3, sided="two"), SimConfig(trials=3000, base_seed=542), t_grid=t
        )
        gap = np.abs(one.f - two.f)[1:]
        assert np.all(gap <= 3 * (one.stderr + two.stderr)[1:])

    def test_two_sided_line_clearly_beats_one_sided(self):
        t = np.linspace(0, 30, 16)
        one = run_event_driven(
            build_line(6, 0.05, 0.3, sided="one"), SimConfig(trials=3000, base_seed=51), t_grid=t
        )
        two = run_event_driven(
            build_line(6, 0.05, 0.3, sided="two"), SimConfig(trials=3000, base_seed=551), t_grid=t
        )
        mid = t.size // 2
        gap = two.f[mid] - one.f[mid]
        assert gap > 2 * (one.stderr[mid] + two.stderr[mid])


class TestCurveAssembly:
    def test_blocked_accumulation_matches_direct(self, monkeypatch):
        rng = np.random.default_rng(0)
        times = rng.exponential(2.0, size=(97, 5))
        t = np.linspace(0, 6, 7)
        monkeypatch.setattr(simulator, "TRIAL_BLOCK", 8)
        a = curve_from_times(times, t)
        monkeypatch.setattr(simulator, "TRIAL_BLOCK", 1000)
        b = curve_from_times(times, t)
        assert np.allclose(a.f, b.f, atol=1e-14)
        assert np.allclose(a.stderr, b.stderr, atol=1e-14)
        hit = (times[:, :, None] <= t[None, None, :]).mean(axis=(0, 1))
        assert np.allclose(a.f, hit, atol=1e-14)

    def test_binned_counts_equal_direct_formula_exactly(self, monkeypatch):
        # M = 8 keeps every per-trial fraction a binary fraction, so the
        # blocked sums are exact and equality is the contract
        monkeypatch.setattr(simulator, "TRIAL_BLOCK", 16)
        t = np.linspace(0.0, 6.0, 13)
        times = _awkward_times(t, 101, 8)
        curve = curve_from_times(times, t)
        hit = times[:, :, None] <= t
        n = times.shape[0]
        f = hit.mean(axis=(0, 1))
        frac = hit.mean(axis=1)
        var = ((frac**2).sum(axis=0) - n * f**2) / (n - 1)
        assert np.array_equal(curve.f, f)
        assert np.array_equal(curve.stderr, np.sqrt(np.maximum(var, 0.0) / n))
        assert np.array_equal(node_frequencies(times, t), hit.mean(axis=0))

    def test_binned_counts_match_boolean_accumulation_bytewise(self, monkeypatch):
        # any M: the same per-trial counts summed in the same order as the
        # (R, M, T) boolean accumulation give the same bytes
        monkeypatch.setattr(simulator, "TRIAL_BLOCK", 16)
        t = np.linspace(0.0, 6.0, 13)
        times = _awkward_times(t, 101, 5)
        curve = curve_from_times(times, t)
        f, stderr, per_node = _boolean_blocked_curve(times, t, block=16)
        assert np.array_equal(curve.f, f)
        assert np.array_equal(curve.stderr, stderr)
        assert np.array_equal(node_frequencies(times, t), per_node)

    def test_mean_curve_builds_no_per_node_arrays(self):
        # one (M, T) float array is 15 MB here, and up to 0.11.0, when the
        # curve carried per-node frequencies, the peak was 63 MB
        rng = np.random.default_rng(0)
        times = rng.exponential(50.0, size=(20, 10_000))
        t = np.linspace(0.0, 300.0, 200)
        tracemalloc.start()
        try:
            curve = curve_from_times(times, t)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert curve.per_node is None
        assert peak < 3 * times.nbytes  # 4.6 MB

    def test_node_frequencies_equal_the_per_block_cumsum_exactly(self):
        # the formula up to 0.12.0: each block's int64 counts cumulated,
        # cut to T columns and added to a float total; more trials than
        # TRIAL_BLOCK, so the blocks' counts are summed too
        t = np.linspace(0.0, 6.0, 13)
        times = _awkward_times(t, 1100, 7)
        trials, M = times.shape
        T = t.size
        total = np.zeros((M, T))
        for lo in range(0, trials, TRIAL_BLOCK):
            k = np.searchsorted(t, times[lo : lo + TRIAL_BLOCK], side="left")
            per_node = np.bincount((k + (T + 1) * np.arange(M)).ravel(), minlength=M * (T + 1))
            total += per_node.reshape(M, T + 1).cumsum(axis=1)[:, :T]
        assert np.array_equal(node_frequencies(times, t), total / trials)

    def test_node_frequencies_hold_one_count_array(self):
        # the accumulator and one block's bincount, each (M, T + 1); up to
        # 0.12.0 the cumsum and the float total made it about three
        rng = np.random.default_rng(0)
        times = rng.exponential(50.0, size=(20, 4000))
        t = np.linspace(0.0, 300.0, 200)
        tracemalloc.start()
        try:
            node_frequencies(times, t)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.2 * times.shape[1] * (t.size + 1) * 8

    def test_single_trial_has_zero_stderr(self):
        curve = curve_from_times(np.array([[1.0, 2.0]]), np.linspace(0, 3, 4))
        assert np.all(curve.stderr == 0)

    def test_time_zero_adopter_is_rejected_by_name(self):
        # node_frequencies once read [[0, nan], [-1, 2]] as frequency 1.0 at
        # t = 0, with the NaN never adopted
        for aggregate in (curve_from_times, node_frequencies):
            for times in ([[0.0, 2.0]], [[1.0, np.nan]], [[0.0, np.nan], [-1.0, 2.0]]):
                with pytest.raises(ValueError, match="adoption times must be > 0"):
                    aggregate(np.array(times), np.linspace(0, 3, 4))


@st.composite
def time_grids(draw):
    """Grids of 1 to 300 points that `_check_time_grid` accepts: linspace
    from 0 or from t_0 > 0, geomspace, gaps drawn from 1e-12 to 1e3, a
    coarse uniform grid with a run of points packed into a sliver of it,
    so that one guess bucket holds many, and subnormal steps from 0, a span
    so small that buckets per unit time overflow."""
    T = draw(st.integers(1, 300))
    kind = draw(st.sampled_from(["linspace", "geomspace", "gaps", "crowded", "subnormal"]))
    t0 = draw(st.sampled_from([0.0, 1.5]) | st.floats(1e-9, 1e3))
    span = draw(st.floats(1e-6, 1e6))
    if kind == "linspace":
        t = np.linspace(t0, t0 + span, T)
    elif kind == "geomspace":
        start = draw(st.floats(1e-9, 1e3))
        t = np.geomspace(start, start * draw(st.floats(1.5, 1e9)), T)
    elif kind == "gaps":
        exponents = draw(st.lists(st.floats(-12.0, 3.0), min_size=T - 1, max_size=T - 1))
        t = t0 + np.concatenate([[0.0], np.cumsum(10.0 ** np.array(exponents))])
    elif kind == "subnormal":
        t = np.arange(T) * 5e-324
    else:
        coarse = draw(st.integers(1, T))
        at, width = draw(st.floats(0.0, 1.0)), draw(st.floats(1e-12, 1e-2))
        t = t0 + span * np.concatenate([np.linspace(0.0, 1.0, coarse),
                                        at + width * np.linspace(0.0, 1.0, T - coarse)])
    return _check_time_grid(np.unique(t))


class TestGridIndex:
    """`simulator._grid_index` is np.searchsorted(side="left") on every grid
    and key, and the aggregation built on it is the sort-and-search one of
    0.20.0-0.25.0, bit for bit."""

    @given(time_grids(), st.lists(st.floats(0.0, 2.0), max_size=200))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_equals_searchsorted(self, t, fractions):
        tiny = np.finfo(float).tiny
        keys = np.concatenate([
            t, np.nextafter(t, -np.inf), np.nextafter(t, np.inf),
            [0.0, np.inf, 5e-324, tiny / 3, tiny, t[0] / 2, t[0] * (1 - 1e-16),
             t[-1] * (1 + 1e-15), 2 * t[-1] + 1, 1e300],
            t[0] + (t[-1] - t[0]) * np.array(fractions),  # up to a span past t_end
        ])
        got = simulator._grid_index(t, keys)
        assert got.dtype == np.intp
        assert np.array_equal(got, np.searchsorted(t, keys, side="left"))
        assert np.array_equal(simulator._grid_index(t, keys[::-1].reshape(-1, 1))[::-1, 0],
                              np.searchsorted(t, keys, side="left"))

    @pytest.mark.parametrize("kind, one, two", [
        ("torus", build_grid(3, 6, 0.01, 0.1, sided="one", periodic=True),
         build_grid(3, 6, 0.01, 0.1, sided="two", periodic=True)),
        ("box", build_grid(3, 6, 0.01, 0.1, sided="one", periodic=False),
         build_grid(3, 6, 0.01, 0.1, sided="two", periodic=False)),
        ("torus32", build_grid(2, 32, 0.01, 0.1, sided="one", periodic=True),
         build_grid(2, 32, 0.01, 0.1, sided="two", periodic=True)),
    ])
    @pytest.mark.parametrize("grid", ["default", "verify"])
    def test_aggregation_equals_sort_and_search(self, kind, one, two, grid):
        # the fig12 networks over two RNG blocks, the last one partial, and
        # a 32x32 torus; on shared clocks, as the sidedness suite pairs them
        t = default_time_grid(0.01, 0.1) if grid == "default" else VERIFY_GRID
        trials = 200 if kind == "torus32" else 700
        report = run_coupled(one, two, SimConfig(trials=trials, base_seed=9, t_max=t[-1]))
        times_a, times_b = report["times_a"], report["times_b"]
        for times in (times_a, times_b):
            mean, stderr = sort_and_search_stats(times, t)
            curve = curve_from_times(times, t)
            assert np.array_equal(curve.f, mean)
            assert np.array_equal(curve.stderr, stderr)
            assert np.array_equal(node_frequencies(times, t), search_node_frequencies(times, t))
        paired = simulator._fraction_stats(times_b, t, base=times_a)
        want = sort_and_search_stats(times_b, t, base=times_a)
        assert np.array_equal(paired[0], want[0])
        assert np.array_equal(paired[1], want[1])


class TestCoupled:
    def test_self_coupling_is_the_event_sampler(self, monkeypatch):
        # both sides draw the clocks event_trajectories draws, in its blocks
        monkeypatch.setattr(simulator, "TRIAL_BLOCK", 64)
        net = build_circle(4, 0.05, 0.3)
        cfg = SimConfig(trials=200, base_seed=17, t_max=10.0)
        rep = run_coupled(net, net, cfg)
        assert rep["applicable"] and rep["verdict"] == "pass"
        assert rep["violation_count"] == 0 and rep["violations"] == []
        assert rep["times_a"].shape == (200, 4)
        assert np.array_equal(rep["times_a"], rep["times_b"])
        assert np.array_equal(rep["times_a"], event_trajectories(net, cfg))

    def test_report_has_one_pass_and_no_step_size(self):
        net = build_circle(3, 0.1, 0.4)
        rep = run_coupled(net, net, SimConfig(trials=5, t_max=5.0))
        assert rep["steps"] == 1 and "dt" not in rep
        assert list(rep) == ["applicable", "trials", "steps", "violations", "violation_count",
                             "verdict", "mean_final_fraction_a", "mean_final_fraction_b",
                             "times_a", "times_b"]

    @pytest.mark.parametrize("name, lo, hi", dominance_pairs(),
                             ids=[name for name, _, _ in dominance_pairs()])
    def test_dominance_pairs_order_every_cell(self, name, lo, hi):
        # a horizon no clock reaches: nothing is clipped, and the ordering
        # holds on the raw first-passage times
        rep = run_coupled(lo, hi, SimConfig(trials=2000, base_seed=3, t_max=1e9))
        assert np.all(np.isfinite(rep["times_a"]))
        assert np.all(rep["times_b"] <= rep["times_a"])
        assert np.any(rep["times_b"] < rep["times_a"])
        assert rep["verdict"] == "pass" and rep["violation_count"] == 0

    @pytest.mark.parametrize("net", [
        build_circle(5, 0.05, 0.3, sided="two"),
        build_line(6, 0.02, 0.4, sided="one"),
        build_grid(2, 3, 0.01, 0.1, sided="two", periodic=True),
        build_hybrid_circle_ray(3, 2, 0.05, 0.2),
    ], ids=["circle", "line", "torus", "hybrid"])
    def test_doubled_rates_halve_every_time_exactly(self, net):
        # halving is exact in binary, so it commutes with each division, sum
        # and minimum: on shared clocks B = 2A runs in exactly half A's time
        rep = run_coupled(net, _scaled(net, 2.0), SimConfig(trials=300, base_seed=8, t_max=1e9))
        assert np.all(np.isfinite(rep["times_a"]))
        assert np.array_equal(rep["times_b"], rep["times_a"] / 2)
        assert rep["verdict"] == "pass"

    @pytest.mark.parametrize("case, trials, trial_block, t_max", [
        ("dominated", 300, 128, 40.0),
        ("reversed", 300, 128, 20.0),
        ("crossed", 200, 64, 30.0),
        ("short-horizon", 150, 512, 3.0),
        ("one-trial-blocks", 20, 1, 30.0),
        ("box-sides", 300, 128, 40.0),
    ])
    def test_report_matches_reference(self, monkeypatch, case, trials, trial_block, t_max):
        monkeypatch.setattr(simulator, "TRIAL_BLOCK", trial_block)
        _, lo, hi = dominance_pairs()[2]
        net_a, net_b = {
            "dominated": (lo, hi),
            "reversed": (hi, lo),
            "crossed": _crossed_pair(),
            "short-horizon": (build_circle(4, 0.05, 0.3, sided="one"),
                              build_circle(4, 0.05, 0.3, sided="two")),
            "one-trial-blocks": (lo, hi),
            # both boxes sweep: the one-sided box once, the two-sided box
            # until a sweep changes nothing
            "box-sides": (build_grid(3, 3, 0.05, 0.3, sided="one", periodic=False),
                          build_grid(3, 3, 0.05, 0.3, sided="two", periodic=False)),
        }[case]
        cfg = SimConfig(trials=trials, base_seed=13, t_max=t_max)
        rep = run_coupled(net_a, net_b, cfg)
        ref_a, ref_b = reference_first_passage([net_a, net_b], cfg)
        assert np.array_equal(rep["times_a"], ref_a)
        assert np.array_equal(rep["times_b"], ref_b)
        late = ref_a < ref_b
        assert rep["violation_count"] == np.count_nonzero(late)
        assert rep["mean_final_fraction_a"] == np.isfinite(ref_a).mean()
        assert rep["mean_final_fraction_b"] == np.isfinite(ref_b).mean()

    @pytest.mark.parametrize("horizon", ["none", "attained", "early"])
    def test_shared_clock_times_match_reference_across_sub_blocks(self, monkeypatch, horizon):
        # each network sweeps its own sub-blocks. SWEEP_SLOTS 54 gives the
        # silent pair's 9 slots sub-blocks of 6 trials, so blocks of 16
        # split 6 + 6 + 4, and 45 trials leave a last RNG block of 13. Box
        # pair: the one-sided box sweeps whole blocks, the two-sided box's
        # 135 slots one trial at a time.
        monkeypatch.setattr(simulator, "SWEEP_SLOTS", 54)
        monkeypatch.setattr(simulator, "TRIAL_BLOCK", 16)
        pairs = [(_silent_net(), _scaled(_silent_net(), 1.5)),
                 (build_grid(3, 3, 0.05, 0.3, sided="one", periodic=False),
                  build_grid(3, 3, 0.05, 0.3, sided="two", periodic=False))]
        for net_a, net_b in pairs:
            cfg = SimConfig(trials=45, base_seed=4)
            free_a, _ = reference_first_passage([net_a, net_b], cfg)
            t_max = {"none": None, "attained": _attained_time(free_a), "early": 2.0}[horizon]
            cfg = SimConfig(trials=45, base_seed=4, t_max=t_max)
            rep = run_coupled(net_a, net_b, cfg)
            ref_a, ref_b = reference_first_passage([net_a, net_b], cfg)
            assert np.array_equal(rep["times_a"], ref_a)
            assert np.array_equal(rep["times_b"], ref_b)
            if t_max is not None:  # the horizon cuts some times and keeps others
                assert np.isinf(free_a).sum() < np.isinf(ref_a).sum() < ref_a.size
            if horizon == "attained":
                assert np.any(ref_a == t_max)

    def test_clocks_a_network_lacks_divide_nothing(self):
        # a node clock whose p_j is 0, or an edge clock whose edge is absent,
        # in one network is never divided by that network's zero rate
        net_a, net_b = _crossed_pair()
        cfg = SimConfig(trials=100, base_seed=2, t_max=1e9)
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            rep = run_coupled(net_a, net_b, cfg)
        assert np.all(np.isinf(rep["times_a"][:, 3:]))
        assert np.all(np.isfinite(rep["times_a"][:, :3]))
        assert np.all(np.isinf(rep["times_b"][:, 1]))
        assert np.all(np.isfinite(rep["times_b"][:, [0, 2, 3, 4]]))
        assert not rep["applicable"]

    def test_trials_do_not_depend_on_trial_count(self, monkeypatch):
        monkeypatch.setattr(simulator, "TRIAL_BLOCK", 64)
        _, lo, hi = dominance_pairs()[0]
        short = run_coupled(lo, hi, SimConfig(trials=100, base_seed=6, t_max=30.0))
        long = run_coupled(lo, hi, SimConfig(trials=200, base_seed=6, t_max=30.0))
        assert np.array_equal(short["times_a"], long["times_a"][:100])
        assert np.array_equal(short["times_b"], long["times_b"][:100])

    def test_horizon_only_clips_the_unclipped_times(self):
        _, lo, hi = dominance_pairs()[3]
        far = run_coupled(lo, hi, SimConfig(trials=400, base_seed=10, t_max=1e9))
        near = run_coupled(lo, hi, SimConfig(trials=400, base_seed=10, t_max=15.0))
        for key in ("times_a", "times_b"):
            clipped = np.where(far[key] > 15.0, np.inf, far[key])
            assert np.array_equal(near[key], clipped)
            assert 0 < np.isinf(clipped).mean() < 1
        assert near["mean_final_fraction_a"] == np.isfinite(near["times_a"]).mean()
        assert near["mean_final_fraction_a"] <= near["mean_final_fraction_b"]

    def test_violation_report_is_strict_json(self):
        # a never-adopted B cell is listed as null, never as Infinity
        hi, lo = build_circle(4, 0.05, 0.6), build_circle(4, 0.05, 0.1)
        rep = run_coupled(hi, lo, SimConfig(trials=400, base_seed=29, t_max=20.0))
        summary = {k: v for k, v in rep.items() if k not in ("times_a", "times_b")}
        text = json.dumps(summary, allow_nan=False)
        assert json.loads(text)["violations"] == rep["violations"]
        assert "null" in text

    def test_each_side_has_its_exact_law(self):
        name, lo, hi = dominance_pairs()[0]
        t = np.linspace(0.0, 30.0, 16)
        rep = run_coupled(lo, hi, SimConfig(trials=4000, base_seed=41, t_max=30.0))
        for times, net in ((rep["times_a"], lo), (rep["times_b"], hi)):
            curve = curve_from_times(times, t)
            z = (curve.f - exact_f(net, t).f)[1:] / curve.stderr[1:]
            assert np.max(np.abs(z)) <= 5, name

    def test_dominated_pair_never_violates(self):
        line = build_line(5, 0.05, 0.3, sided="one")
        circ = build_circle(5, 0.05, 0.3, sided="one")
        cfg = SimConfig(trials=500, base_seed=23, t_max=20.0)
        rep = run_coupled(line, circ, cfg)
        assert rep["verdict"] == "pass"
        assert rep["violation_count"] == 0
        assert rep["mean_final_fraction_a"] <= rep["mean_final_fraction_b"]

    def test_incomparable_pair_is_not_applicable(self):
        one = build_circle(4, 0.05, 0.3, sided="one")
        two = build_circle(4, 0.05, 0.3, sided="two")
        cfg = SimConfig(trials=50, base_seed=3, t_max=5.0)
        rep = run_coupled(one, two, cfg)
        assert not rep["applicable"]
        assert rep["verdict"] == "not_applicable"

    @pytest.mark.parametrize("hi, lo", [
        (build_circle(4, 0.05, 0.6), build_circle(4, 0.05, 0.1)),
        (build_circle(5, 0.05, 0.3, sided="one"), build_line(5, 0.05, 0.3, sided="one")),
    ], ids=["rates", "edges"])
    def test_reversed_pair_reports_violations(self, hi, lo):
        # A strictly above B: the pathwise ordering cannot hold, and the
        # report must say so rather than certify anything
        cfg = SimConfig(trials=400, base_seed=29, t_max=20.0)
        rep = run_coupled(hi, lo, cfg)
        assert rep["verdict"] == "not_applicable"
        times_a, times_b = rep["times_a"], rep["times_b"]
        cells = np.argwhere(times_a < times_b)  # trial-then-node order
        assert rep["violation_count"] == len(cells) > VIOLATION_LIST_CAP
        assert [(v["trial"], v["node"]) for v in rep["violations"]] == [
            (int(r), int(j)) for r, j in cells[:VIOLATION_LIST_CAP]]
        for v in rep["violations"]:
            assert set(v) == {"trial", "node", "time_a", "time_b"}
            assert v["time_a"] == times_a[v["trial"], v["node"]] <= 20.0
            assert v["time_b"] is None or v["time_a"] < v["time_b"]
            assert v["time_b"] is not None or np.isinf(times_b[v["trial"], v["node"]])
        assert any(v["time_b"] is None for v in rep["violations"])

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            run_coupled(build_circle(3, 0.05, 0.3), build_circle(4, 0.05, 0.3))

    def test_default_config_clips_nothing(self):
        # t_max None clips nothing: the default run is the run at a horizon
        # no clock reaches
        _, lo, hi = dominance_pairs()[0]
        rep = run_coupled(lo, hi)
        far = run_coupled(lo, hi, SimConfig(t_max=1e9))
        assert np.all(np.isfinite(rep["times_a"]))
        for key in ("times_a", "times_b"):
            assert np.array_equal(rep[key], far[key])
        rest = [k for k in rep if k not in ("times_a", "times_b")]
        assert {k: rep[k] for k in rest} == {k: far[k] for k in rest}


def test_large_network_needs_no_dense_matrix():
    """On the 60x60 torus one dense n x n matrix is 104 MB; the dominance
    comparison and a short coupled run each stay below a tenth of that."""
    one = build_grid(2, 60, 0.01, 0.1, sided="one", periodic=True)
    two = build_grid(2, 60, 0.01, 0.1, sided="two", periodic=True)
    bound = one.n * one.n * 8 / 10
    calls = {
        "dominates": lambda: dominates(one, two),
        "run_coupled": lambda: run_coupled(one, two, SimConfig(trials=2, t_max=1.0)),
    }
    for name, call in calls.items():
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound, name


def test_event_sampler_holds_little_beyond_its_draw():
    """On the 32x32 two-sided torus at 200 trials, the clock draw is 8.2 MB
    (200 x 5120 float64) and the adoption times 1.6 MB. Sweeps of 25 trials
    at a time keep their 6106 padded slot lengths, 1.2 MB: the run peaked
    at 11.7 MB. Up to 0.23.0 it took Dijkstra on graphs of 8 trials and
    peaked at 10.5 MB; one graph of the whole 200-trial block peaked at
    23 MB."""
    net = build_grid(2, 32, 0.01, 0.1, sided="two", periodic=True)
    t = default_time_grid(0.01, 0.1)
    run_event_driven(net, SimConfig(trials=2), t)  # keep first-call set-up out
    tracemalloc.start()
    try:
        run_event_driven(net, SimConfig(trials=200, base_seed=1), t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12e6


@pytest.mark.parametrize("net, trials, route", [
    (build_grid(3, 6, 0.01, 0.1, sided="one", periodic=False), 2000, "sweep"),
    (build_circle(6, 0.01, 0.1, sided="one"), 2000, "sweep"),
    (build_grid(3, 6, 0.01, 0.1, sided="two", periodic=True), 2000, "sweep"),
    (build_hybrid_circle_ray(30, 30, 0.01, 0.1), 2000, "sweep"),
    # 20,000 levels of one node each, in one sweep of 1 trial
    (build_line(20000, 0.01, 0.1, sided="one"), 1, "sweep"),
], ids=["one-sided-box", "one-sided-circle", "two-sided-torus", "hybrid", "thin-line"])
def test_route_of_each_network(monkeypatch, net, trials, route):
    taken = _count_routes(monkeypatch)
    event_trajectories(net, SimConfig(trials=trials, base_seed=1))
    assert taken() == route


def test_level_sweep_holds_little_beyond_its_draw():
    """On the one-sided 6x6x6 box at 512 trials, the clock draw is 3.1 MB
    (512 x 756 float64) and the adoption times 0.9 MB. The sweep gathers
    its 849 padded slots (3.5 MB) straight from the draw: the run peaked
    at 9.4 MB. Up to 0.20.0 the sweep gathered them from a transposed
    copy of the draw (3.1 MB more), and the run peaked at 10.6 MB. The
    Dijkstra route peaked at 4.8 MB."""
    net = build_grid(3, 6, 0.01, 0.1, sided="one", periodic=False)
    event_trajectories(net, SimConfig(trials=2))
    tracemalloc.start()
    try:
        event_trajectories(net, SimConfig(trials=512, base_seed=1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10e6


def test_sweeps_of_a_cyclic_network_hold_little_beyond_their_draw():
    """On the two-sided 6x6x6 torus at 512 trials, the clock draw is 6.2 MB
    (512 x 1512 float64) and the adoption times 0.9 MB. Sweeps of 86 trials
    at a time keep their 1824 padded slot lengths, 1.3 MB: the run peaked
    at 8.9 MB. Up to 0.23.0 it took Dijkstra and peaked at 7.9 MB."""
    net = build_grid(3, 6, 0.01, 0.1, sided="two", periodic=True)
    event_trajectories(net, SimConfig(trials=2))
    tracemalloc.start()
    try:
        event_trajectories(net, SimConfig(trials=512, base_seed=1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 9e6


@st.composite
def cyclic_digraphs(draw):
    """A digraph of 2-7 nodes, cyclic more often than not, some of its nodes
    silent (p = 0), and coincident edges merged into one of their summed
    weight."""
    n = draw(st.integers(2, 7))
    p = np.array(draw(st.lists(st.sampled_from([0.0, 0.05, 0.3, 1.0]), min_size=n, max_size=n)))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, n - 1)),
                          min_size=n, max_size=3 * n))
    src, step = np.array(pairs).T
    return Network(n, p, _merge_edges(n, src, (src + step) % n, draw(st.sampled_from([0.1, 0.7, 2.5]))))


class TestSweepRoute:
    """The sweeps on many networks; SWEEP_SLOTS 200 splits each block of 16
    trials of a cyclic one into sub-blocks of a few trials."""

    @pytest.fixture(autouse=True)
    def _small_sub_blocks(self, monkeypatch):
        monkeypatch.setattr(simulator, "SWEEP_SLOTS", 200)
        monkeypatch.setattr(simulator, "TRIAL_BLOCK", 16)

    @pytest.mark.parametrize("net", [
        build_circle(7, 0.05, 0.3, sided="one"),
        build_circle(7, 0.05, 0.3, sided="two"),
        build_grid(2, 4, 0.05, 0.3, sided="one", periodic=True),
        build_grid(2, 4, 0.05, 0.3, sided="two", periodic=True),
        build_grid(3, 6, 0.01, 0.5, sided="two", periodic=True),
        build_grid(2, 5, 0.01, 1.0, sided="two", periodic=False),
        build_hybrid_circle_ray(5, 4, 0.05, 0.3),
        _silent_net(),
        # acyclic: one sweep of a whole block, in topological order
        build_line(6, 0.05, 0.3, sided="one"),
        build_grid(3, 3, 0.05, 0.3, sided="one", periodic=False),
        _backward_line(7, 0.05, 0.3),
        _acyclic_silent_net(),
    ], ids=["circle-one", "circle-two", "torus4-one", "torus4-two", "torus666-two", "box-two",
            "hybrid", "silent", "line-one", "box3-one", "backward-line", "acyclic-silent"])
    @pytest.mark.parametrize("horizon", ["none", "attained", "early"])
    def test_sweeps_match_reference_bit_for_bit(self, monkeypatch, net, horizon):
        cfg = SimConfig(trials=21, base_seed=5)
        (free,) = reference_first_passage([net], cfg)
        t_max = {"none": None, "attained": _attained_time(free), "early": 2.0}[horizon]
        cfg = SimConfig(trials=21, base_seed=5, t_max=t_max)
        (ref,) = reference_first_passage([net], cfg)
        taken = _count_routes(monkeypatch)
        assert np.array_equal(event_trajectories(net, cfg), ref)
        assert taken() == "sweep"
        if t_max is not None:  # the horizon cuts some times and keeps others
            assert np.isinf(free).sum() < np.isinf(ref).sum() < ref.size

    def test_coupled_pair_sweeps_match_reference_bit_for_bit(self, monkeypatch):
        _, lo, hi = dominance_pairs()[2]
        cfg = SimConfig(trials=37, base_seed=13, t_max=40.0)
        ref_a, ref_b = reference_first_passage([lo, hi], cfg)
        taken = _count_routes(monkeypatch)
        rep = run_coupled(lo, hi, cfg)
        assert np.array_equal(rep["times_a"], ref_a)
        assert np.array_equal(rep["times_b"], ref_b)
        assert taken() == "sweep"

    @given(cyclic_digraphs(), st.integers(0, 99))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_random_digraphs_match_reference_bit_for_bit(self, net, seed):
        cfg = SimConfig(trials=9, base_seed=seed)
        (ref,) = reference_first_passage([net], cfg)
        assert np.array_equal(event_trajectories(net, cfg), ref)


def _zigzag(M):
    """A two-sided path through the nodes in the order 0, M-1, 1, M-2, ...,
    seeded at node 0 alone: every edge of the path after the first goes
    the other way in node order from the one before it."""
    z = [j for pair in zip(range(M // 2), range(M - 1, M // 2 - 1, -1)) for j in pair]
    p = np.zeros(M)
    p[0] = 0.5
    return Network(M, p, [(a, b, 1.0) for a, b in zip(z, z[1:])]
                   + [(b, a, 1.0) for a, b in zip(z, z[1:])])


@pytest.mark.parametrize("net, exact", [
    # node 0's time crosses one run of slots per sweep: M - 1 sweeps carry
    # it along the path, and one more changes nothing
    (_zigzag(12), 12),
    # the two-sided 64x64 torus at q/p = 1000, whose long chains of fast
    # edges take the most sweeps of these lattices
    (build_grid(2, 64, 0.001, 1.0, sided="two", periodic=True), None),
    (build_circle(9, 0.05, 0.3, sided="two"), None),
    (build_hybrid_circle_ray(8, 5, 0.05, 0.3), None),
    (build_grid(3, 3, 0.05, 0.3, sided="two", periodic=False), None),
    (_silent_net(), None),
], ids=["zigzag", "torus64-fast", "circle-two", "hybrid", "box-two", "silent"])
def test_sweeps_stop_within_M_plus_one(monkeypatch, net, exact):
    # 3 trials make one sub-block, so every sweep counted is one of its
    # sweeps, which stop by the (M + 1)-th (see simulator._solve)
    sweeps = []
    sweep = simulator._sweep
    monkeypatch.setattr(simulator, "_sweep", lambda *args: sweeps.append(1) or sweep(*args))
    cfg = SimConfig(trials=3, base_seed=7)
    (ref,) = reference_first_passage([net], cfg)
    assert np.array_equal(event_trajectories(net, cfg), ref)
    assert 2 <= len(sweeps) <= net.n + 1
    if exact is not None:
        assert len(sweeps) == exact
