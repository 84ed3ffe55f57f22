import inspect
import io

import numpy as np
import pytest

import basslab
from basslab import analytic, oracle, principles, simulator
from basslab.analytic import CLOSED_FORM_MAX_M
from basslab.curves import AdoptionCurve, write_curve_csv
from basslab.network import build_circle, build_line
from basslab.simulator import SimConfig
from conftest import read_curve_csv

T = np.linspace(0.0, 10.0, 6)
F = np.array([0.0, 0.2, 0.35, 0.5, 0.6, 0.65])


class TestValidation:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            AdoptionCurve(t=T, f=F[:-1], source="ode")

    def test_non_increasing_grid(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            AdoptionCurve(t=np.array([0.0, 1.0, 1.0]), f=np.zeros(3), source="ode")

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_grid(self, bad):
        t = np.array([0.0, 1.0, bad])
        with pytest.raises(ValueError, match="only finite times"):
            AdoptionCurve(t=t, f=np.zeros(3), source="ode")

    def test_empty_grid(self):
        with pytest.raises(ValueError, match="non-empty"):
            AdoptionCurve(t=np.zeros(0), f=np.zeros(0), source="ode")

    @pytest.mark.parametrize("source", ["guesswork", "quadrature"])
    def test_unknown_source(self, source):
        with pytest.raises(ValueError, match="unknown source"):
            AdoptionCurve(t=T, f=F, source=source)

    def test_nonzero_start(self):
        bad = F.copy()
        bad[0] = 0.1
        with pytest.raises(ValueError, match="not 0"):
            AdoptionCurve(t=T, f=bad, source="ode")

    def test_leaves_unit_interval(self):
        bad = F.copy()
        bad[-1] = 1.2
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            AdoptionCurve(t=T, f=bad, source="ode")

    def test_decreasing_f(self):
        bad = F.copy()
        bad[3] = 0.1
        with pytest.raises(ValueError, match="non-decreasing"):
            AdoptionCurve(t=T, f=bad, source="ode")

    def test_per_node_shape(self):
        with pytest.raises(ValueError, match="per_node"):
            AdoptionCurve(t=T, f=F, source="ode", per_node=np.zeros((2, T.size - 1)))

    def test_stderr_shape(self):
        with pytest.raises(ValueError, match="stderr"):
            AdoptionCurve(t=T, f=F, source="monte_carlo", stderr=np.zeros(T.size + 1))

    def test_grid_need_not_start_at_zero(self):
        curve = AdoptionCurve(t=np.array([1.0, 2.0]), f=np.array([0.3, 0.4]), source="ode")
        assert curve.f[0] == 0.3

    def test_all_sources_accepted(self):
        for src in ("closed_form", "ode", "oracle", "monte_carlo"):
            AdoptionCurve(t=T, f=F, source=src)


class TestSnap:
    def test_roundoff_is_snapped_into_unit_interval(self):
        f = F.copy()
        f[0] = -3e-14
        f[-1] = 1 + 2e-15
        pn = np.vstack([f, f])
        curve = AdoptionCurve(t=T, f=f, source="ode", per_node=pn)
        assert curve.f[0] == 0.0
        assert curve.f[-1] == 1.0
        assert np.all(curve.per_node >= 0.0) and np.all(curve.per_node <= 1.0)
        assert np.all(curve.per_node[:, 0] == 0.0)



class TestCsv:
    def make_curve(self):
        pn = np.vstack([F * 0.9, F * 1.1])
        se = np.full(T.size, 0.01)
        return AdoptionCurve(t=T, f=F, source="monte_carlo", per_node=pn, stderr=se)

    def test_round_trip_path(self, tmp_path):
        path = tmp_path / "curve.csv"
        curve = self.make_curve()
        write_curve_csv(str(path), curve)
        back = read_curve_csv(str(path))
        assert np.allclose(back.t, curve.t, atol=1e-11)
        assert np.allclose(back.f, curve.f, atol=1e-11)
        assert np.allclose(back.per_node, curve.per_node, atol=1e-11)
        assert np.allclose(back.stderr, curve.stderr, atol=1e-11)
        assert back.source == "monte_carlo"

    def test_round_trip_pathlib(self, tmp_path):
        path = tmp_path / "curve.csv"
        write_curve_csv(path, self.make_curve())
        assert read_curve_csv(str(path)).source == "monte_carlo"

    def test_file_object_and_header_layout(self):
        buf = io.StringIO()
        write_curve_csv(buf, self.make_curve())
        header = buf.getvalue().splitlines()[0]
        assert header == "t,f,stderr,node_1,node_2"

    def test_source_tag_depends_on_stderr_column(self, tmp_path):
        plain = AdoptionCurve(t=T, f=F, source="closed_form")
        path = tmp_path / "plain.csv"
        write_curve_csv(str(path), plain)
        back = read_curve_csv(str(path))
        assert back.source == "ode"
        assert back.stderr is None and back.per_node is None

    def test_twelve_digit_precision(self, tmp_path):
        t = np.array([0.0, 1.0])
        f = np.array([0.0, 0.123456789012345])
        path = tmp_path / "prec.csv"
        write_curve_csv(str(path), AdoptionCurve(t=t, f=f, source="ode"))
        back = read_curve_csv(str(path))
        assert abs(back.f[1] - f[1]) < 1e-12


def _write_cell_by_cell(curve):
    """The writer up to 0.12.0, which formatted one cell at a time."""
    header = ["t", "f"]
    cols = [curve.t, curve.f]
    if curve.stderr is not None:
        header.append("stderr")
        cols.append(curve.stderr)
    if curve.per_node is not None:
        M = curve.per_node.shape[0]
        header.extend(f"node_{j}" for j in range(1, M + 1))
        cols.extend(curve.per_node[j] for j in range(M))
    lines = [",".join(header)]
    for k in range(curve.t.size):
        lines.append(",".join("%.12g" % c[k] for c in cols))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("stderr", (False, True))
@pytest.mark.parametrize("per_node", (False, True))
def test_row_writer_matches_the_cell_writer_bytewise(stderr, per_node):
    t = np.array([0.0, 1e-13, 0.5, 1.0, 3.25, 1e6])
    f = np.array([0.0, 1e-13, 0.123456789012345, 0.5, 0.9999999999999, 1.0])
    curve = AdoptionCurve(
        t=t, f=f, source="monte_carlo" if stderr else "ode",
        per_node=np.vstack([f, f**2, np.sqrt(f)]) if per_node else None,
        stderr=np.array([0.0, 1e-13, 0.123456789012345, 1.0, 0.25, 0.0]) if stderr else None,
    )
    buf = io.StringIO()
    write_curve_csv(buf, curve)
    assert buf.getvalue() == _write_cell_by_cell(curve)


# ---------------------------------------------------------------------------
# The time-grid rule: every public name that takes a grid refuses the same
# grids, with one message, before any work.

SHAPE = "time grid must be a non-empty 1D array"
START = "time grid must start at t >= 0"
# (grid, the refusal it gets)
BAD_GRIDS = {
    "negative-start": ([-1.0, 0.0, 1.0], START),
    "descending": ([3.0, 2.0, 1.0], "time grid must be strictly increasing"),
    "repeated": ([0.0, 1.0, 1.0, 2.0], "time grid must be strictly increasing"),
    "nan": ([1.0, np.nan], "time grid must hold only finite times"),
    "inf": ([0.0, 1.0, np.inf], "time grid must hold only finite times"),
    "empty": ([], SHAPE),
    "2d": ([[0.0, 1.0], [2.0, 3.0]], SHAPE),
    # a one-point grid where a scalar is taken, so before 0
    "scalar": (-1.0, f"({SHAPE}|{START})"),
}
P, Q = 0.01, 0.1
_LINE = build_line(4, P, Q)  # no symmetry: the oracle builds the full generator
_CIRCLE = build_circle(6, P, Q)  # lumped: the oracle labels orbits
_S1 = np.ones((4, 3))  # an S_1 table; the grid is refused before it is read
_TIMES = np.ones((2, 4))  # adoption times of 2 trials of 4 nodes

# (public name, route, call on a grid); a name may take several routes
GRID_TAKERS = [
    ("AdoptionCurve", "curve", lambda t: AdoptionCurve(t=t, f=np.zeros(np.shape(t)), source="ode")),
    ("MasterSolution", "container",
     lambda t: oracle.MasterSolution(_LINE, t, np.zeros((np.size(t), 1 << _LINE.n)))),
    ("alpha_diag", "ode", lambda t: analytic.alpha_diag(t, P, Q, 3)),
    ("beta_diag", "table", lambda t: analytic.beta_diag(t, P, 1, 4, _S1, _S1)),
    ("curve_from_times", "aggregate", lambda t: simulator.curve_from_times(_TIMES, t)),
    ("exact_f", "lumped", lambda t: oracle.exact_f(_CIRCLE, t)),
    ("exact_marginals", "unlumped", lambda t: oracle.exact_marginals(_LINE, t)),
    ("exact_marginals", "lumped", lambda t: oracle.exact_marginals(_CIRCLE, t)),
    ("f_circle", "closed-form", lambda t: analytic.f_circle(t, P, Q, 6)),
    ("f_circle", "ode", lambda t: analytic.f_circle(t, P, Q, CLOSED_FORM_MAX_M + 1)),
    ("f_hybrid", "ode", lambda t: analytic.f_hybrid(t, P, Q, 4, 2)),
    ("f_line_one_sided", "ode", lambda t: analytic.f_line_one_sided(t, P, Q, 6)),
    ("f_line_two_sided", "ode", lambda t: analytic.f_line_two_sided(t, P, Q, 6)),
    ("f_line_two_sided", "one-node", lambda t: analytic.f_line_two_sided(t, P, Q, 1)),
    ("f_one_dim_limit", "closed-form", lambda t: analytic.f_one_dim_limit(t, P, Q)),
    ("gamma_diag", "table", lambda t: analytic.gamma_diag(t, P, 1, 4, _S1)),
    ("node_frequencies", "aggregate", lambda t: simulator.node_frequencies(_TIMES, t)),
    ("oracle_dominance_report", "oracle", lambda t: principles.oracle_dominance_report(P, Q, t)),
    ("psi_diag", "table", lambda t: analytic.psi_diag(t, P, 2, 4, _S1, _S1)),
    # one trial of a 5-line: the case the deleted Dijkstra fallback used to
    # take, kept under its old label; it sweeps now like every other
    ("run_event_driven", "dijkstra",
     lambda t: simulator.run_event_driven(build_line(5, 0.1, 0.3), SimConfig(trials=1), t)),
    ("run_event_driven", "sweep",
     lambda t: simulator.run_event_driven(build_line(5, 0.1, 0.3), SimConfig(trials=300), t)),
    ("solve_master", "unlumped", lambda t: oracle.solve_master(_LINE, t)),
    ("survival", "unlumped", lambda t: oracle.survival(_LINE, [0], t)),
    ("survival", "circle", lambda t: oracle.survival(_CIRCLE, [0], t)),
    ("survival_circle", "closed-form", lambda t: analytic.survival_circle(t, P, Q, 6)),
    ("survival_circle", "ode", lambda t: analytic.survival_circle(t, P, Q, CLOSED_FORM_MAX_M + 1)),
    ("verify_indifference", "oracle",
     lambda t: principles.verify_indifference(
         _LINE, principles.TransformPlan(omega=(1,), removals=((1, 2),)), t)),
]


@pytest.mark.parametrize("grid, message", BAD_GRIDS.values(), ids=BAD_GRIDS.keys())
@pytest.mark.parametrize("call", [call for _, _, call in GRID_TAKERS],
                         ids=[f"{name}-{route}" for name, route, _ in GRID_TAKERS])
def test_bad_grid_is_refused(monkeypatch, call, grid, message):
    # every stage a grid could start is patched to fail, so the refusal
    # must come before any work. f_one_dim_limit once read f = -0.0095 at
    # t = -1, outside [0, 1], and node_frequencies 0.268 at every point of
    # a descending grid
    for module, name in ((analytic, "solve_ivp"), (oracle, "_uniformized"),
                         (oracle, "build_generator"), (oracle, "_orbits"),
                         (simulator, "_event_times"), (simulator, "_fraction_stats")):
        monkeypatch.setattr(module, name, lambda *args, **kwargs: pytest.fail("worked"))
    with pytest.raises(ValueError, match=f"^{message}"):
        call(np.array(grid))


@pytest.mark.parametrize("route, call", [(route, call) for name, route, call in GRID_TAKERS
                                         if name == "run_event_driven"],
                         ids=[route for name, route, _ in GRID_TAKERS if name == "run_event_driven"])
def test_sampler_rows_take_their_labelled_route(monkeypatch, route, call):
    taken = set()
    real = simulator._sweep
    monkeypatch.setattr(simulator, "_sweep", lambda *args: taken.add("_sweep") or real(*args))
    call(np.linspace(0.0, 10.0, 6))
    # the sweep is the sampler's one kernel, so every row, the few-trial
    # one labelled dijkstra too, must reach it
    assert taken == {"_sweep"}


def test_every_grid_taking_name_is_in_the_table():
    takers = set()
    for name in basslab.__all__:
        obj = getattr(basslab, name)
        if inspect.isclass(obj) and issubclass(obj, BaseException):
            continue  # an exception takes a message, not a grid
        if (inspect.isfunction(obj) or inspect.isclass(obj)) and {"t", "t_grid"} & set(
            inspect.signature(obj).parameters
        ):
            takers.add(name)
    assert takers == {name for name, _, _ in GRID_TAKERS}

