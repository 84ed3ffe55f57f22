import io

import numpy as np
import pytest

from basslab.curves import AdoptionCurve, read_curve_csv, write_curve_csv

T = np.linspace(0.0, 10.0, 6)
F = np.array([0.0, 0.2, 0.35, 0.5, 0.6, 0.65])


class TestValidation:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            AdoptionCurve(t=T, f=F[:-1], source="ode")

    def test_non_increasing_grid(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            AdoptionCurve(t=np.array([0.0, 1.0, 1.0]), f=np.zeros(3), source="ode")

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
