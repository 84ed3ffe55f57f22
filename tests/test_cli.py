import json

import numpy as np
import pytest

import basslab.cli as cli
from basslab.curves import read_curve_csv
from basslab.network import build_line
from basslab.principles import PlanCase, TransformPlan


def run(args):
    return cli.main(args)


class TestAnalytic:
    def test_circle_curve_ignores_sidedness(self, tmp_path):
        a, b = tmp_path / "one.csv", tmp_path / "two.csv"
        assert run(["analytic", "--topology", "circle", "--sided", "one", "-M", "6",
                    "--t-max", "30", "--grid", "31", "--out", str(a)]) == 0
        assert run(["analytic", "--topology", "circle", "--sided", "two", "-M", "6",
                    "--t-max", "30", "--grid", "31", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_reruns_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["analytic", "--topology", "line", "--sided", "two", "-M", "5",
                "--t-max", "20", "--grid", "21"]
        run(args + ["--out", str(a)])
        run(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_line_output_orders_and_starts_at_zero(self, tmp_path):
        one, two = tmp_path / "one.csv", tmp_path / "two.csv"
        base = ["analytic", "--topology", "line", "-M", "6", "--t-max", "30", "--grid", "31"]
        run(base + ["--sided", "one", "--out", str(one)])
        run(base + ["--sided", "two", "--out", str(two)])
        c_one, c_two = read_curve_csv(str(one)), read_curve_csv(str(two))
        assert c_one.f[0] == 0.0 and c_two.f[0] == 0.0
        assert np.all(c_two.f[1:] > c_one.f[1:])
        assert c_one.per_node.shape == (6, 31)

    def test_stdout_when_no_out_path(self, capsys):
        assert run(["analytic", "--topology", "circle", "-M", "3",
                    "--t-max", "10", "--grid", "5"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "t,f"
        assert len(lines) == 6

    def test_grid_topology_points_to_simulate(self):
        with pytest.raises(SystemExit, match="simulate"):
            run(["analytic", "--topology", "grid", "-D", "2", "--side", "4"])

    def test_hybrid_ray_bounds(self):
        with pytest.raises(SystemExit, match="ray"):
            run(["analytic", "--topology", "hybrid", "-M", "6", "--ray", "6"])

    def test_grid_point_floor(self):
        with pytest.raises(SystemExit, match="grid"):
            run(["analytic", "--topology", "circle", "--grid", "1"])


class TestSimulate:
    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["simulate", "--topology", "circle", "-M", "4", "--trials", "50",
                "--seed", "7", "--t-max", "10", "--grid", "11"]
        run(args + ["--out", str(a)])
        run(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()
        assert read_curve_csv(str(a)).source == "monte_carlo"

    def test_single_trial_runs(self, tmp_path):
        out = tmp_path / "one_trial.csv"
        assert run(["simulate", "--topology", "circle", "-M", "3", "--trials", "1",
                    "--seed", "3", "--t-max", "5", "--grid", "6", "--out", str(out)]) == 0
        curve = read_curve_csv(str(out))
        assert np.all(curve.stderr == 0)

    def test_discrete_scheme(self, tmp_path):
        out = tmp_path / "disc.csv"
        assert run(["simulate", "--topology", "line", "-M", "4", "--scheme", "discrete",
                    "--dt", "0.05", "--trials", "40", "--seed", "5",
                    "--t-max", "10", "--grid", "11", "--out", str(out)]) == 0
        curve = read_curve_csv(str(out))
        assert curve.f[0] == 0.0

    def test_per_node_flag_controls_columns(self, tmp_path):
        bare, full = tmp_path / "bare.csv", tmp_path / "full.csv"
        args = ["simulate", "--topology", "circle", "-M", "4", "--trials", "30",
                "--seed", "11", "--t-max", "10", "--grid", "6"]
        run(args + ["--out", str(bare)])
        run(args + ["--per-node", "--out", str(full)])
        assert "node_1" not in bare.read_text().splitlines()[0]
        header = full.read_text().splitlines()[0]
        assert header == "t,f,stderr," + ",".join(f"node_{j}" for j in range(1, 5))

    def test_preset_writes_all_curves_and_manifest(self, tmp_path):
        out = tmp_path / "runs"
        assert run(["simulate", "--preset", "fig5", "--trials", "30", "--seed", "2",
                    "--t-max", "20", "--grid", "6", "--out", str(out)]) == 0
        names = ["circle_one", "circle_two", "line_one", "line_two"]
        for name in names:
            assert (out / f"fig5_{name}.csv").is_file()
        manifest = json.loads((out / "fig5_manifest.json").read_text())
        assert manifest["preset"] == "fig5"
        assert manifest["trials"] == 30
        assert [p.split("/")[-1] for p in manifest["files"]] == [
            f"fig5_{name}.csv" for name in names
        ]

    def test_worker_processes_change_nothing(self, tmp_path, monkeypatch):
        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        args = ["simulate", "--preset", "fig5", "--trials", "30", "--seed", "2",
                "--t-max", "20", "--grid", "6"]
        monkeypatch.delenv("BASSLAB_THREADS", raising=False)
        run(args + ["--out", str(serial)])
        monkeypatch.setenv("BASSLAB_THREADS", "2")
        run(args + ["--out", str(parallel)])
        for name in ("circle_one", "circle_two", "line_one", "line_two"):
            fname = f"fig5_{name}.csv"
            assert (serial / fname).read_bytes() == (parallel / fname).read_bytes()

    def test_thread_cap_must_be_integer(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BASSLAB_THREADS", "many")
        with pytest.raises(SystemExit, match="BASSLAB_THREADS"):
            run(["simulate", "--preset", "fig5", "--trials", "5", "--t-max", "5",
                 "--grid", "3", "--out", str(tmp_path / "x")])

    def test_unknown_preset_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            run(["simulate", "--preset", "fig99"])


class TestVerify:
    def test_preset_passes_with_exit_zero(self, tmp_path):
        out = tmp_path / "fig3.json"
        assert run(["verify", "--preset", "fig3", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["passed"] is True
        assert report["cases"][0]["max_gap"] <= 1e-10
        assert "survival_before" not in report["cases"][0]

    def test_preset_report_to_stdout(self, capsys):
        assert run(["verify", "--preset", "fig6"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True

    def test_failing_case_exits_one(self, tmp_path, monkeypatch):
        # swap in a plan that removes an edge the watched node depends on
        net = build_line(4, 0.01, 0.1, sided="one")
        bad = PlanCase(
            name="fig3",
            label="broken",
            network=net,
            plan=TransformPlan(omega=(3,), removals=((0, 1),)),
            note="deliberately influential",
        )
        monkeypatch.setattr(cli, "figure_plan", lambda name, **kw: [bad])
        out = tmp_path / "bad.json"
        assert run(["verify", "--preset", "fig3", "--out", str(out)]) == 1
        report = json.loads(out.read_text())
        assert report["passed"] is False
        assert report["cases"][0]["all_non_influential"] is False

    def test_dominance_suite_reruns_byte_for_byte(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["verify", "--suite", "dominance", "--trials", "200", "--seed", "3"]
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_suite_via_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"suite": "mystery"}))
        with pytest.raises(SystemExit, match="unknown suite"):
            run(["verify", "--config", str(cfg)])


class TestBadInput:
    @pytest.mark.filterwarnings("ignore:dt=5.0")
    @pytest.mark.parametrize(
        "args, message",
        [
            (["simulate", "--trials", "0"], "trials must be >= 1"),
            (["simulate", "-M", "0"], "M must be positive"),
            (["analytic", "-p", "0"], "p must be positive"),
            (["analytic", "-q", "-1"], "q must be non-negative"),
            (["simulate", "--topology", "grid", "-D", "0"], "D must be >= 1"),
            (["simulate", "--t-max", "-1"], "t_max must be positive"),
            (["verify", "--suite", "dominance", "--dt", "5"], "per-step probability 1.05 > 1"),
        ],
    )
    def test_library_rejection_is_one_line(self, tmp_path, args, message):
        with pytest.raises(SystemExit) as exc:
            run(args + ["--out", str(tmp_path / "out")])
        assert str(exc.value).startswith("basslab: error: ")
        assert message in str(exc.value)
        assert "\n" not in str(exc.value)


class TestConfigFiles:
    def test_config_supplies_flags(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"M": 5, "q": 0.2, "t_max": 20.0, "grid": 11}))
        via_cfg, via_flags = tmp_path / "cfg.csv", tmp_path / "flags.csv"
        run(["analytic", "--config", str(cfg), "--out", str(via_cfg)])
        run(["analytic", "-M", "5", "-q", "0.2", "--t-max", "20", "--grid", "11",
             "--out", str(via_flags)])
        assert via_cfg.read_bytes() == via_flags.read_bytes()

    def test_conflict_is_an_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"M": 5}))
        with pytest.raises(SystemExit, match="conflict"):
            run(["analytic", "--config", str(cfg), "-M", "6", "--t-max", "10", "--grid", "5"])

    def test_override_lets_flags_win(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"M": 5}))
        merged, direct = tmp_path / "merged.csv", tmp_path / "direct.csv"
        run(["analytic", "--config", str(cfg), "-M", "6", "--override",
             "--t-max", "10", "--grid", "5", "--out", str(merged)])
        run(["analytic", "-M", "6", "--t-max", "10", "--grid", "5", "--out", str(direct)])
        assert merged.read_bytes() == direct.read_bytes()

    def test_matching_values_are_not_a_conflict(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"M": 6}))
        out = tmp_path / "ok.csv"
        assert run(["analytic", "--config", str(cfg), "-M", "6", "--t-max", "10",
                    "--grid", "5", "--out", str(out)]) == 0

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"wobble": 1}))
        with pytest.raises(SystemExit, match="not valid"):
            run(["analytic", "--config", str(cfg)])

    @pytest.mark.parametrize("text", [None, "{bad"])
    def test_unreadable_config_is_one_line(self, tmp_path, text):
        cfg = tmp_path / "cfg.json"
        if text is not None:
            cfg.write_text(text)
        with pytest.raises(SystemExit, match=r"^basslab: error: cannot read --config .*cfg\.json"):
            run(["analytic", "--config", str(cfg)])

    def test_config_must_be_an_object(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps([1, 2]))
        with pytest.raises(SystemExit, match="JSON object"):
            run(["analytic", "--config", str(cfg)])

    def test_bad_scheme_via_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scheme": "leapfrog"}))
        with pytest.raises(SystemExit, match="scheme"):
            run(["simulate", "--config", str(cfg), "--trials", "5",
                 "--t-max", "5", "--grid", "3"])

    @pytest.mark.parametrize(
        "key, value, expected",
        [
            ("periodic", "no", "true or false"),
            ("trials", "10", "an integer"),
            ("M", 2.5, "an integer"),
            ("trials", True, "an integer"),  # JSON true is not the integer 1
        ],
    )
    def test_values_must_match_flag_types(self, tmp_path, key, value, expected):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        with pytest.raises(SystemExit, match=f"'{key}' must be {expected}, got"):
            run(["simulate", "--config", str(cfg), "--topology", "grid", "--t-max", "5",
                 "--grid", "3", "--out", str(tmp_path / "out.csv")])

    def test_integer_passes_for_a_number_flag(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"t_max": 20, "q": 0.2, "dt": None}))
        via_cfg, via_flags = tmp_path / "cfg.csv", tmp_path / "flags.csv"
        assert run(["simulate", "--config", str(cfg), "--trials", "20", "--grid", "11",
                    "--out", str(via_cfg)]) == 0
        assert run(["simulate", "--t-max", "20", "-q", "0.2", "--trials", "20", "--grid", "11",
                    "--out", str(via_flags)]) == 0
        assert via_cfg.read_bytes() == via_flags.read_bytes()
