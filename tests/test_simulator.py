import tracemalloc

import numpy as np
import pytest

from basslab.network import (
    Network,
    build_circle,
    build_grid,
    build_hybrid_circle_ray,
    build_line,
    dominates,
    weakly_dominates,
)
from basslab.oracle import exact_f
from basslab.principles import dominance_pairs
from basslab.simulator import (
    CouplingTape,
    DEFAULT_STEP_PROB,
    MAX_COUPLED_STEPS,
    TRIAL_BLOCK,
    VIOLATION_LIST_CAP,
    SimConfig,
    curve_from_times,
    default_dt,
    event_trajectories,
    max_total_rate,
    node_frequencies,
    _discrete_steps,
    _times,
    run_coupled,
    run_event_driven,
    validate_dt,
)
from conftest import dense_weights, discrete_chain_f, two_node_chain_survival


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


def _stepwise_coupled_report(net_a, net_b, config):
    """Reference coupling: both networks stepped together against one tape,
    the ordering checked after every step (the per-step loop run_coupled
    used before it shared the discrete kernel)."""
    M = net_a.n
    applicable = weakly_dominates(net_a, net_b)
    dt = config.dt if config.dt is not None else default_dt(net_b)
    n_steps = int(np.ceil(config.t_max / dt - 1e-12))
    tape = CouplingTape(config.base_seed)
    Wa, Wb = dense_weights(net_a), dense_weights(net_b)
    R = config.trials
    Xa = np.zeros((R, M), dtype=bool)
    Xb = np.zeros((R, M), dtype=bool)
    times_a = np.full((R, M), np.inf)
    times_b = np.full((R, M), np.inf)
    violation_count = 0
    violations = []
    for step in range(n_steps):
        u = tape.uniforms(step, (R, M))
        lam_a = net_a.p[None, :] + Xa @ Wa
        lam_b = net_b.p[None, :] + Xb @ Wb
        new_a = (~Xa) & (u <= lam_a * dt)
        new_b = (~Xb) & (u <= lam_b * dt)
        times_a[new_a] = (step + 1) * dt
        times_b[new_b] = (step + 1) * dt
        Xa |= new_a
        Xb |= new_b
        bad = Xa & ~Xb
        n_bad = int(np.count_nonzero(bad))
        if n_bad:
            violation_count += n_bad
            for trial, node in zip(*np.nonzero(bad)):
                if len(violations) >= VIOLATION_LIST_CAP:
                    break
                violations.append({"trial": int(trial), "step": step, "node": int(node)})
    if applicable:
        verdict = "pass" if violation_count == 0 else "fail"
    else:
        verdict = "not_applicable"
    return {
        "applicable": bool(applicable),
        "trials": R,
        "steps": n_steps,
        "dt": dt,
        "violations": violations,
        "violation_count": violation_count,
        "verdict": verdict,
        "mean_final_fraction_a": float(Xa.mean()),
        "mean_final_fraction_b": float(Xb.mean()),
        "times_a": times_a,
        "times_b": times_b,
    }


class TestSimConfig:
    def test_defaults(self):
        cfg = SimConfig()
        assert cfg.trials == 4000 and cfg.t_max is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"trials": 0},
            {"dt": 0.0},
            {"t_max": -1.0},
            {"t_max": float("nan")},
            {"t_max": float("inf")},
            {"dt": float("nan")},
            {"block_size": 0},
            {"t_max": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SimConfig(**kwargs)


class TestTapes:
    def test_coupling_tape_is_pure(self):
        a = CouplingTape(42).uniforms(3, (4, 5))
        b = CouplingTape(42).uniforms(3, (4, 5))
        assert np.array_equal(a, b)

    def test_steps_and_seeds_decorrelate(self):
        tape = CouplingTape(42)
        assert not np.array_equal(tape.uniforms(0, (8,)), tape.uniforms(1, (8,)))
        assert not np.array_equal(
            CouplingTape(1).uniforms(0, (8,)), CouplingTape(2).uniforms(0, (8,))
        )

    def test_leading_draws_do_not_depend_on_shape(self):
        # trial r's slice is the same whether 10 or 30 trials are running
        tape = CouplingTape(7)
        small = tape.uniforms(2, (10, 3))
        large = tape.uniforms(2, (30, 3))
        assert np.array_equal(small, large[:10])


class TestStepSize:
    def test_max_total_rate(self):
        net = build_circle(4, 0.05, 0.3, sided="two")
        assert max_total_rate(net) == pytest.approx(0.35)

    def test_max_total_rate_equals_dense_column_sum(self):
        nets = [net for _name, *pair in dominance_pairs() for net in pair]
        nets += [build_hybrid_circle_ray(4, 3, 0.01, 0.1),
                 Network(n=3, p=np.array([0.1, 0.2, 0.3]),
                         edges=((0, 1, 0.5), (0, 2, 0.7), (1, 2, 0.05)))]
        nets += [build_grid(D, side, 0.01, q, sided=sided, periodic=periodic)
                 for D, side in ((1, 5), (2, 4), (3, 3), (4, 2))
                 for q in (0.1, 0.3, 0.7)
                 for sided in ("one", "two")
                 for periodic in (True, False)]
        for net in nets:
            assert max_total_rate(net) == np.max(net.p + dense_weights(net).sum(axis=0))

    def test_default_dt_targets_step_probability(self):
        net = build_circle(4, 0.05, 0.3)
        dt = default_dt(net)
        assert dt * max_total_rate(net) == pytest.approx(DEFAULT_STEP_PROB)

    def test_validate_dt(self):
        net = build_circle(4, 0.05, 0.3)
        validate_dt(net, 0.01)
        with pytest.raises(ValueError):
            validate_dt(net, 5.0)
        with pytest.warns(UserWarning):
            validate_dt(net, 0.5)


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

    def test_leading_block_independent_of_trial_count(self):
        net = build_circle(3, 0.1, 0.4)
        short = SimConfig(trials=16, base_seed=5, block_size=8, t_max=10.0)
        long = SimConfig(trials=24, base_seed=5, block_size=8, t_max=10.0)
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

    def test_horizon_truncates_to_inf(self):
        net = Network(n=1, p=np.array([0.5]), edges=())
        times = event_trajectories(net, SimConfig(trials=200, base_seed=3, t_max=1.0))[:, 0]
        finite = times[np.isfinite(times)]
        assert 0 < finite.size < 200
        assert max(finite) <= 1.0

    def test_oversized_block_is_refused_before_any_work(self):
        net = build_circle(4, 0.05, 0.3)
        cfg = SimConfig(trials=2**30, block_size=2**30, t_max=1.0)
        with pytest.raises(ValueError, match="block_size"):
            event_trajectories(net, cfg)


class TestDiscrete:
    def test_deterministic_and_tape_driven(self):
        net = build_circle(4, 0.05, 0.3)
        cfg = SimConfig(trials=100, base_seed=21, dt=0.05, t_max=5.0)
        a = run_coupled(net, net, cfg)["times_a"]
        assert a.shape == (100, 4)
        assert np.array_equal(a, run_coupled(net, net, cfg)["times_a"])
        (steps,) = _discrete_steps([net], cfg, CouplingTape(21), 100, 0.05)
        assert np.array_equal(a, _times(steps, 100, 0.05))

    def test_trials_do_not_interact(self):
        net = build_circle(3, 0.1, 0.4)
        few = run_coupled(net, net, SimConfig(trials=10, base_seed=2, dt=0.1, t_max=5.0))
        many = run_coupled(net, net, SimConfig(trials=25, base_seed=2, dt=0.1, t_max=5.0))
        assert np.array_equal(few["times_a"], many["times_a"][:10])

    def test_matches_exact_chain_distribution(self):
        # the synchronous chain has an exactly computable mean fraction;
        # the sampler must land within Monte Carlo error of it
        net = build_circle(3, 0.1, 0.4, sided="two")
        dt, t_max = 0.1, 8.0
        ref = discrete_chain_f(net, dt, int(round(t_max / dt)))
        cfg = SimConfig(trials=3000, base_seed=1, dt=dt, t_max=t_max)
        curve = curve_from_times(run_coupled(net, net, cfg)["times_a"], np.array([0.0, t_max]))
        assert abs(curve.f[-1] - ref) <= 4 * curve.stderr[-1]

    def test_step_bias_shrinks_linearly(self):
        # halving dt halves the gap between the chain and the continuous
        # process, measured against the exact master equation
        net = build_circle(3, 0.1, 0.4, sided="two")
        t_max = 8.0
        ref = exact_f(net, np.array([0.0, t_max])).f[-1]
        errs = [
            discrete_chain_f(net, dt, int(round(t_max / dt))) - ref
            for dt in (0.1, 0.05, 0.025)
        ]
        assert all(e > 0 for e in errs)
        for big, small in zip(errs, errs[1:]):
            assert 1.6 < big / small < 2.5

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

    def test_agrees_with_event_scheme(self):
        net = build_circle(3, 0.1, 0.4, sided="two")
        t = np.linspace(0, 8, 9)
        ev = run_event_driven(net, SimConfig(trials=3000, base_seed=6), t_grid=t)
        cfg = SimConfig(trials=3000, base_seed=106, dt=0.02, t_max=8.0)
        dis = curve_from_times(run_coupled(net, net, cfg)["times_a"], t)
        gap = np.abs(ev.f - dis.f)[1:]
        assert np.all(gap <= 3 * (ev.stderr + dis.stderr)[1:])


class TestCurveAssembly:
    def test_discrete_times_end_steps_and_feed_the_curve(self):
        # a finite discrete time is the end of the step the node adopted
        # in, (k + 1) * dt for k < n_steps; the curve at the horizon is
        # the fraction of finite times
        net = build_circle(4, 0.05, 0.3)
        cfg = SimConfig(trials=64, base_seed=13, dt=0.05, t_max=5.0)
        times = run_coupled(net, net, cfg)["times_a"]
        finite = times[np.isfinite(times)]
        k = np.round(finite / 0.05).astype(int) - 1
        assert 0 < finite.size < times.size
        assert np.all((0 <= k) & (k < 100)) and np.array_equal(finite, (k + 1) * 0.05)
        curve = curve_from_times(times, np.linspace(0, 5, 6))
        assert curve.f[-1] == np.isfinite(times).mean()

    def test_blocked_accumulation_matches_direct(self):
        rng = np.random.default_rng(0)
        times = rng.exponential(2.0, size=(97, 5))
        t = np.linspace(0, 6, 7)
        a = curve_from_times(times, t, block=8)
        b = curve_from_times(times, t, block=1000)
        assert np.allclose(a.f, b.f, atol=1e-14)
        assert np.allclose(a.stderr, b.stderr, atol=1e-14)
        hit = (times[:, :, None] <= t[None, None, :]).mean(axis=(0, 1))
        assert np.allclose(a.f, hit, atol=1e-14)

    def test_binned_counts_equal_direct_formula_exactly(self):
        # M = 8 keeps every per-trial fraction a binary fraction, so the
        # blocked sums are exact and equality is the contract
        t = np.linspace(0.0, 6.0, 13)
        times = _awkward_times(t, 101, 8)
        curve = curve_from_times(times, t, block=16)
        hit = times[:, :, None] <= t
        n = times.shape[0]
        f = hit.mean(axis=(0, 1))
        frac = hit.mean(axis=1)
        var = ((frac**2).sum(axis=0) - n * f**2) / (n - 1)
        assert np.array_equal(curve.f, f)
        assert np.array_equal(curve.stderr, np.sqrt(np.maximum(var, 0.0) / n))
        assert np.array_equal(node_frequencies(times, t), hit.mean(axis=0))

    def test_binned_counts_match_boolean_accumulation_bytewise(self):
        # any M: the same per-trial counts summed in the same order as the
        # (R, M, T) boolean accumulation give the same bytes
        t = np.linspace(0.0, 6.0, 13)
        times = _awkward_times(t, 101, 5)
        curve = curve_from_times(times, t, block=16)
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
        with pytest.raises(ValueError, match="adoption times must be > 0"):
            curve_from_times(np.array([[0.0, 2.0]]), np.linspace(0, 3, 4))
        with pytest.raises(ValueError, match="adoption times must be > 0"):
            curve_from_times(np.array([[1.0, np.nan]]), np.linspace(0, 3, 4))


class TestCoupled:
    def test_self_coupling_is_identical(self):
        net = build_circle(4, 0.05, 0.3)
        cfg = SimConfig(trials=200, base_seed=17, dt=0.05, t_max=10.0)
        rep = run_coupled(net, net, cfg)
        assert rep["applicable"] and rep["verdict"] == "pass"
        assert rep["violation_count"] == 0 and rep["violations"] == []
        assert rep["times_a"].shape == (200, 4)
        assert np.array_equal(rep["times_a"], rep["times_b"])

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

    def test_reversed_pair_reports_violations(self):
        # A strictly above B: the pathwise ordering cannot hold, and the
        # report must say so rather than certify anything
        hot = build_circle(4, 0.05, 0.6)
        cold = build_circle(4, 0.05, 0.1)
        cfg = SimConfig(trials=400, base_seed=29, t_max=20.0)
        rep = run_coupled(hot, cold, cfg)
        assert rep["verdict"] == "not_applicable"
        assert rep["violation_count"] > 0
        assert 0 < len(rep["violations"]) <= 100
        first = rep["violations"][0]
        assert set(first) == {"trial", "step", "node"}

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            run_coupled(build_circle(3, 0.05, 0.3), build_circle(4, 0.05, 0.3))

    def test_needs_t_max(self):
        net = build_circle(3, 0.1, 0.4)
        with pytest.raises(ValueError, match="t_max"):
            run_coupled(net, net, SimConfig(trials=10))

    def test_step_cap(self):
        # dt = 0.02 here: t_max = 200 is exactly MAX_COUPLED_STEPS steps,
        # and one step more or a million steps are refused
        net = build_circle(3, 0.1, 0.4)
        cap_t = MAX_COUPLED_STEPS * 0.02
        assert run_coupled(net, net, SimConfig(trials=2, dt=0.02, t_max=cap_t))["steps"] == 10_000
        for t_max in (cap_t + 0.02, 1e6 * 0.02):
            with pytest.raises(ValueError, match=r"steps of dt = 0.02, past the 10000"):
                run_coupled(net, net, SimConfig(trials=2, dt=0.02, t_max=t_max))

    @pytest.mark.parametrize(
        "pair, trials, dt",
        [
            ("dominated", 500, None),
            ("reversed", 400, None),  # about 90,000 violations: the list is capped
            # 81 violations with a quiet step between two of them; a step this
            # coarse warns about its bias, which is beside the point here
            pytest.param(
                "crossed", 10, 0.2, marks=pytest.mark.filterwarnings("ignore:dt=0.2")
            ),
        ],
    )
    def test_report_matches_stepwise_reference(self, pair, trials, dt):
        net_a, net_b = {
            "dominated": (build_line(5, 0.05, 0.3, sided="one"), build_circle(5, 0.05, 0.3)),
            "reversed": (build_circle(4, 0.05, 0.6), build_circle(4, 0.05, 0.1)),
            "crossed": (
                Network(n=2, p=np.array([0.02, 0.3]), edges=()),
                Network(n=2, p=np.array([0.3, 0.02]), edges=((0, 1, 1.5),)),
            ),
        }[pair]
        cfg = SimConfig(trials=trials, base_seed=23, dt=dt, t_max=20.0)
        rep = run_coupled(net_a, net_b, cfg)
        ref = _stepwise_coupled_report(net_a, net_b, cfg)
        assert list(rep) == list(ref)
        for key, want in ref.items():
            if key.startswith("times_"):
                assert np.array_equal(rep[key], want), key
            else:
                assert rep[key] == want and type(rep[key]) is type(want), key
        if pair != "dominated":
            assert ref["violation_count"] > 0

    def test_each_side_is_a_single_discrete_run(self):
        # each side of a pair steps exactly as that network coupled with
        # itself: the other network never enters its path
        for net_a, net_b in [
            (build_line(5, 0.05, 0.3, sided="one"), build_circle(5, 0.05, 0.3)),
            (build_circle(4, 0.05, 0.6), build_circle(4, 0.05, 0.1)),
        ]:
            cfg = SimConfig(trials=300, base_seed=29, dt=0.02, t_max=10.0)
            rep = run_coupled(net_a, net_b, cfg)
            assert np.array_equal(rep["times_a"], run_coupled(net_a, net_a, cfg)["times_a"])
            assert np.array_equal(rep["times_b"], run_coupled(net_b, net_b, cfg)["times_a"])


def test_large_network_needs_no_dense_matrix():
    """On the 60x60 torus one dense n x n matrix is 104 MB; the step-size
    check, the dominance comparison and a short coupled run each stay
    below a tenth of that."""
    one = build_grid(2, 60, 0.01, 0.1, sided="one", periodic=True)
    two = build_grid(2, 60, 0.01, 0.1, sided="two", periodic=True)
    bound = one.n * one.n * 8 / 10
    calls = {
        "validate_dt": lambda: validate_dt(one, 0.05),
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
