import argparse
import importlib.util
import json
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import basslab.analytic as analytic
import basslab.cli as cli
import basslab.oracle as oracle
from basslab.network import Network, build_circle, build_hybrid_circle_ray, build_line
from basslab.principles import PlanCase, TransformPlan, _apply_with_records, figure_plan
from conftest import fresh_python, read_curve_csv


Q_MESSAGE = "q must be non-negative and finite"
T_MESSAGE = "t_max must be positive and finite"
WORKLOADS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def run(args):
    return cli.main(args)


def _strings(doc):
    """Every string value in a parsed JSON document."""
    if isinstance(doc, dict):
        doc = list(doc.values())
    if isinstance(doc, list):
        for value in doc:
            yield from _strings(value)
    elif isinstance(doc, str):
        yield doc


def _holds_json(text: str) -> bool:
    try:
        return isinstance(json.loads(text), (dict, list))
    except ValueError:
        return False


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
            run(["analytic", "--topology", "grid"])

    def test_hybrid_ray_bounds(self):
        with pytest.raises(SystemExit, match="ray"):
            run(["analytic", "--topology", "hybrid", "-M", "6", "--ray", "6"])

    def test_grid_point_floor(self):
        with pytest.raises(SystemExit, match="grid"):
            run(["analytic", "--topology", "circle", "--grid", "1"])

    @pytest.mark.parametrize("shape, network", [
        (["--topology", "circle", "-M", "2"], lambda: build_circle(2, 1.0, 1.0)),
        (["--topology", "line", "--sided", "two", "-M", "6"],
         lambda: build_line(6, 1.0, 1.0, sided="two")),
        (["--topology", "hybrid", "-M", "12", "--ray", "6"],
         lambda: build_hybrid_circle_ray(6, 6, 1.0, 1.0)),
    ], ids=["circle", "two-sided-line", "hybrid"])
    def test_extreme_rates_give_the_rescaled_curve(self, tmp_path, shape, network):
        # the 2-circle at p = q = 1e300 once printed a numpy RuntimeWarning
        # and ended in "circle recursion integration failed". Rates scale
        # out of the model: the curve is the p = q = 1 curve at 1e300 t
        out = tmp_path / "c.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["analytic", *shape, "-p", "1e300", "-q", "1e300", "--out", str(out)]) == 0
        curve = read_curve_csv(out)
        assert np.all((curve.f >= 0) & (curve.f <= 1)) and np.all(np.diff(curve.f) >= 0)
        ref = oracle.exact_f(network(), curve.t * 1e300).f
        assert np.max(np.abs(curve.f - ref)) < 1e-10


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

    @pytest.mark.parametrize("args, written, n_networks", [
        (["verify", "--suite", "all", "--trials", "200"], "out", 9),
        (["verify", "--preset", "fig13"], "out", 1),
        (["simulate", "--preset", "fig5", "--trials", "30", "--t-max", "20", "--grid", "6"],
         "out/fig5_manifest.json", 0),
    ], ids=["verify-all", "verify-fig13", "fig5-manifest"])
    def test_json_is_plain_and_networks_read_back(self, tmp_path, args, written, n_networks):
        # no value is JSON inside a string, and each indifference case's
        # networks are the plan's network before and after its transform
        run(args + ["--out", str(tmp_path / "out")])
        doc = json.loads((tmp_path / written).read_text())
        assert not any(_holds_json(text) for text in _strings(doc))
        cases = [case for suite in doc.get("suites", [doc]) for case in suite.get("cases", [])
                 if "network_before" in case]
        assert len(cases) == n_networks
        for case in cases:
            (plan,) = [c for c in figure_plan(case["name"]) if c.label == case["label"]]
            for key, want in (("network_before", plan.network),
                              ("network_after", _apply_with_records(plan.network, plan.plan)[0])):
                got = Network.from_dict(case[key])
                assert got.n == want.n
                for field in ("p", "src", "dst", "w"):
                    assert np.array_equal(getattr(got, field), getattr(want, field)), (key, field)

    def test_indifference_suite_solves_each_master_equation_once(self, tmp_path, monkeypatch):
        # 9 plans, 18 survivals: fig7 and fig15 both start from the
        # two-sided 8-line with omega = {7}, so 17 are distinct
        solves = []
        uniformized = oracle._uniformized
        monkeypatch.setattr(oracle, "_uniformized",
                            lambda *args: solves.append(1) or uniformized(*args))
        assert run(["verify", "--suite", "indifference", "--out", str(tmp_path / "v.json")]) == 0
        assert len(solves) == 17

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

    def test_long_coupled_horizon_runs(self, tmp_path):
        # the exact coupling is one pass whatever the horizon; a stepped
        # kernel would take 11 million steps here
        out = tmp_path / "dominance.json"
        args = ["verify", "--suite", "dominance", "--trials", "10", "--t-max", "1e6"]
        assert run(args + ["--out", str(out)]) == 0
        (suite,) = json.loads(out.read_text())["suites"]
        assert suite["passed"] is True
        assert [c["violation_count"] for c in suite["coupling"]] == [0] * 5
        for c in suite["coupling"]:
            assert not {"dt", "steps", "times_a", "times_b"} & set(c)
            assert c["mean_final_fraction_a"] == c["mean_final_fraction_b"] == 1.0

    def test_sidedness_suite_passes_at_its_defaults(self, tmp_path, capsys):
        out = tmp_path / "sidedness.json"
        assert run(["verify", "--suite", "sidedness", "--out", str(out)]) == 0
        assert capsys.readouterr().err == "sidedness: 6/6 checks passed\n"
        (suite,) = json.loads(out.read_text())["suites"]
        assert [c["name"] for c in suite["cases"]] == [
            "line_6", "circle_6", "torus_3x3", "torus_4x4", "grid_2d_6", "grid_3d_6"]
        for c in suite["cases"][4:]:
            assert c["trials"] == 4000
            assert c["z"] > 5

    @staticmethod
    def _sidedness_without_wrap_edges(monkeypatch):
        # the torus is then the box: the exact rows tie and the coupled rows
        # differ by noise alone, so a few trials show the failure
        build_grid = cli.build_grid
        monkeypatch.setattr(cli, "build_grid",
                            lambda *args, periodic, **kw: build_grid(*args, periodic=False, **kw))
        monkeypatch.setattr(cli, "SIDEDNESS_TRIALS", 200)

    def test_sidedness_suite_fails_without_the_wrap_edges(self, tmp_path, monkeypatch, capsys):
        self._sidedness_without_wrap_edges(monkeypatch)
        out = tmp_path / "sidedness.json"
        assert run(["verify", "--suite", "sidedness", "--out", str(out)]) == 1
        (suite,) = json.loads(out.read_text())["suites"]
        assert [c["passed"] for c in suite["cases"]] == [True, True, False, False, False, False]
        assert "sidedness: 2/6 checks passed\n" in capsys.readouterr().err

    def test_sidedness_suite_reruns_byte_for_byte(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "SIDEDNESS_TRIALS", 200)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(["verify", "--suite", "sidedness", "--out", str(a)])
        run(["verify", "--suite", "sidedness", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_suite_via_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"suite": "mystery"}))
        with pytest.raises(SystemExit, match="'suite' must be one of indifference, appendix"):
            run(["verify", "--config", str(cfg)])

    def test_appendix_suite_entries_and_reruns(self, tmp_path, capsys):
        # the 133 entries of 0.6.0, in its order: the hierarchy-free suite
        # must not drop, add or reorder a check
        expected = ([("alpha", k, 0) for k in range(1, 10)]
                    + [("beta", k, M) for M in range(2, 10) for k in range(1, M)]
                    + [("gamma", k, M) for M in range(3, 10) for k in range(1, M - 1)]
                    + [("nu", k, M) for M in range(2, 10) for k in range(1, M + 1)]
                    + [("psi", k, M) for M in range(3, 10) for k in range(2, (M + 1) // 2 + 1)])
        counts = {kind: sum(e[0] == kind for e in expected) for kind in ("alpha", "beta", "gamma", "nu", "psi")}
        assert counts == {"alpha": 9, "beta": 36, "gamma": 28, "nu": 44, "psi": 16}
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(["verify", "--suite", "appendix", "--out", str(a)]) == 0
        assert capsys.readouterr().err == "appendix: 133/133 checks passed\n"
        cases = json.loads(a.read_text())["suites"][0]["cases"]
        assert [(e["diagnostic"], e["k"], e["M"]) for e in cases] == expected
        assert all(e["passed"] and e["min_value"] > 0 for e in cases)
        assert run(["verify", "--suite", "appendix", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_appendix_suite_makes_three_ode_solves(self, tmp_path, monkeypatch):
        # the S_1 table at q, alpha's difference system (its head row and 9
        # rows), and one joint pass of the q/2 table with every two-sided
        # line M = 2..9
        passes = []
        propagate = analytic._propagate

        def counted(t, p, q, r, rows, head, start, what, pairs=None):
            passes.append((what, rows, 0 if pairs is None else len(pairs[0])))
            return propagate(t, p, q, r, rows, head, start, what, pairs)

        monkeypatch.setattr(analytic, "_propagate", counted)
        assert run(["verify", "--suite", "appendix", "--out", str(tmp_path / "a.json")]) == 0
        assert sorted(passes) == [("circle recursion", 9, 0), ("difference system", 10, 0),
                                  ("two-sided line", 9, sum(M - 2 for M in range(2, 10)))]


class TestBadInput:
    @pytest.mark.parametrize(
        "args, message",
        [
            (["simulate", "--trials", "0"], "trials must be >= 1"),
            (["simulate", "-M", "0"], "M must be positive"),
            (["analytic", "-p", "0"], "p must be positive"),
            (["analytic", "-q", "-1"], "q must be non-negative"),
            (["simulate", "--topology", "grid", "-D", "0"], "D must be >= 1"),
            (["simulate", "--t-max", "-1"], "t_max must be positive"),
            (["analytic", "-p", "1e-13", "-q", "0"], "grid horizon T = 4.61e+13 is past 1e12"),
            # the flag given is the one named, by one rule on both sides
            (["simulate", "--topology", "grid", "-D", "2", "--side", "0"],
             "side must be positive, got 0"),
            (["analytic", "--topology", "circle", "-M", "0"], "M must be positive, got 0"),
        ],
    )
    def test_library_rejection_is_one_line(self, tmp_path, args, message):
        with pytest.raises(SystemExit) as exc:
            run(args + ["--out", str(tmp_path / "out")])
        assert str(exc.value).startswith("basslab: error: ")
        assert message in str(exc.value)
        assert "\n" not in str(exc.value)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("args, flag, message", [
        (["analytic", "--topology", "circle", "-M", "6", "--t-max", "50"], "-q", Q_MESSAGE),
        (["analytic", "--topology", "circle", "-M", "6"], "-q", Q_MESSAGE),
        (["simulate", "--topology", "circle", "-M", "6", "--trials", "10", "--t-max", "50"],
         "-q", Q_MESSAGE),
        (["verify", "--suite", "indifference"], "-q", Q_MESSAGE),
        (["analytic", "--topology", "circle", "-M", "3", "--grid", "3"], "--t-max", T_MESSAGE),
        (["simulate", "--topology", "circle", "-M", "6", "--trials", "10"], "--t-max", T_MESSAGE),
        (["verify", "--suite", "dominance", "--trials", "10"], "--t-max", T_MESSAGE),
    ], ids=["analytic", "analytic-default-grid", "simulate", "verify",
            "analytic-t-max", "simulate-t-max", "verify-t-max"])
    def test_non_finite_value_fails_in_one_line(self, tmp_path, args, flag, message, value):
        out = tmp_path / "out"
        proc = fresh_python(["-m", "basslab.cli", *args, flag, value, "--out", str(out)],
                            cwd=tmp_path, timeout=60)
        assert proc.returncode == 1
        assert proc.stderr == f"basslab: error: {message}, got {value}\n"
        assert proc.stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("topology", ["circle", "line"])
    def test_stiff_default_horizon_is_refused_at_once(self, tmp_path, topology):
        # q/p = 1e13: the default horizon is 9.6e7, past any ODE solve's bound
        out = tmp_path / "out.csv"
        proc = fresh_python(["-m", "basslab.cli", "analytic", "--topology", topology,
                             "-p", "1e-14", "--out", str(out)], cwd=tmp_path, timeout=30)
        assert proc.returncode == 1
        assert proc.stderr.startswith("basslab: error: ")
        assert "(p+q)*t_max = 9.6e+06 is past the 1e+04 an ODE solve takes" in proc.stderr
        assert proc.stderr.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("args", [["--suite", suite] for suite in cli.SUITES]
                             + [["--preset", "fig3"]])
    def test_verify_refuses_zero_q(self, tmp_path, args):
        # every verify case is built from edges of weight q: at q = 0 the
        # suites named an edge the user never gave or failed 105 appendix
        # checks
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run(["verify", *args, "-q", "0", "--out", str(out)])
        assert str(exc.value) == "basslab: error: -q must be positive for verify, got 0.0"
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["--suite", "all", "-q", "300"],
        ["--suite", "indifference", "-q", "300"],
        ["--preset", "fig3", "-q", "300"],
        ["--suite", "dominance", "-q", "250"],
    ], ids=["all", "indifference", "fig3", "dominance"])
    def test_failed_internal_check_is_one_error_line(self, tmp_path, capsys, args):
        # at these rates the oracle's probability conservation defect,
        # 1.1e-12 to 1.4e-12, is past CONSERVATION_TOL
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run(["verify", *args, "--out", str(out)])
        message = str(exc.value)
        assert message.startswith("basslab: error: internal check failed: "
                                   "probability conservation violated: defect ")
        assert "\n" not in message
        assert capsys.readouterr() == ("", "")
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["simulate", "-M", "6"],
        ["verify", "--suite", "dominance"],
    ], ids=["simulate", "verify"])
    def test_unallocatable_trial_count_is_one_error_line(self, tmp_path, args):
        # 10^13 trials of 6 nodes is a 437 TiB array, past the address
        # space, so the allocation fails before any page is touched
        out = tmp_path / "out"
        proc = fresh_python(["-m", "basslab.cli", *args, "--trials", "10000000000000",
                             "--out", str(out)], cwd=tmp_path, timeout=60)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.startswith("basslab: error: out of memory: ")
        assert "(10000000000000, 6)" in proc.stderr  # the shape numpy could not allocate
        assert proc.stderr.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("args, out", [
        (["simulate", "--preset", "fig5", "--trials", "2"], "file"),
        (["analytic"], "dir"),
        (["verify", "--suite", "appendix"], "dir"),
        (["simulate"], "file/x.csv"),
    ], ids=["preset-dir-is-a-file", "analytic-out-is-a-dir", "verify-out-is-a-dir",
            "parent-is-a-file"])
    def test_unwritable_out_is_one_error_line(self, tmp_path, args, out):
        # each once ended in a FileExistsError or IsADirectoryError
        # traceback; verify's summary line comes before the error
        (tmp_path / "file").write_text("kept\n")
        (tmp_path / "dir").mkdir()
        proc = fresh_python(["-m", "basslab.cli", *args, "--out", out], cwd=tmp_path, timeout=60)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.splitlines()[-1].startswith("basslab: error: [Errno ")
        assert "Traceback" not in proc.stderr
        assert (tmp_path / "file").read_text() == "kept\n"
        assert list((tmp_path / "dir").iterdir()) == []

    @pytest.mark.parametrize("args, config, message", [
        (["analytic", "--config", "cfg.json"], {"M": 2.5},
         "--config value for 'M' must be an integer, got 2.5"),
        (["analytic", "--config", "cfg.json"], {"sided": "three"},
         "--config value for 'sided' must be one of one, two, got 'three'"),
        (["analytic", "--grid", "1"], None, "--grid must be at least 2 points"),
        (["analytic", "--topology", "hybrid", "-M", "6", "--ray", "6"], None,
         "--ray must be in 1..M-1 for the hybrid topology"),
        (["simulate", "--topology", "hybrid", "-M", "6", "--ray", "0"], None,
         "--ray must be in 1..M-1 for the hybrid topology"),
        (["analytic", "--topology", "grid"], None,
         "no analytic curve for topology 'grid'; use `simulate` instead"),
        (["analytic", "--config", "missing.json"], None,
         "cannot read --config missing.json: [Errno 2] No such file or directory: 'missing.json'"),
        (["analytic", "--config", "cfg.json"], [1, 2],
         "--config must contain a JSON object of flag values"),
        (["analytic", "--config", "cfg.json"], {"wobble": 1},
         "--config keys not valid for `analytic`: wobble"),
        (["analytic", "--config", "cfg.json", "-M", "6"], {"M": 5},
         "flag/config conflict for: M (pass --override to let flags win)"),
        (["verify", "--suite", "appendix", "--seed", "9"], None,
         "`verify --suite appendix` does not read seed"),
        (["simulate", "--seed", "-1"], None, "seed must be an integer >= 0, got -1"),
    ], ids=["config-type", "config-choice", "grid", "ray-analytic", "ray-simulate",
            "no-analytic-curve", "config-unreadable", "config-not-object", "config-key",
            "conflict", "unread-key", "negative-seed"])
    def test_each_refusal_is_one_error_line(self, tmp_path, args, config, message):
        if config is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(config))
        out = tmp_path / "out"
        proc = fresh_python(["-m", "basslab.cli", *args, "--out", str(out)],
                            cwd=tmp_path, timeout=60)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == f"basslab: error: {message}\n"
        assert not out.exists()


def _command_parsers() -> dict:
    parser = cli.build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return subparsers.choices


# Each command's flags as the 0.11.0 parser had them, and the (choices,
# help) each flag shows; --topology, --sided, --trials, --seed and --suite
# had no help before 0.12.0. The parser and DEFAULTS are built from one
# table, so they are checked against these literals, not each other.
_CURVE_FLAGS = ["--config", "--override", "--out", "-p", "-q", "--t-max", "--topology",
                "--sided", "-M", "--ray", "--grid"]
COMMAND_FLAGS = {
    "analytic": _CURVE_FLAGS,
    "simulate": _CURVE_FLAGS + ["-D", "--side", "--periodic", "--trials", "--seed", "--preset",
                                "--per-node"],
    "verify": ["--config", "--override", "--out", "-p", "-q", "--t-max", "--suite", "--preset",
               "--trials", "--seed"],
}
FLAG_HELP = {
    "--config": (None, "JSON file of flag values; command line conflicts require --override"),
    "--override": (None, "let command-line flags win over conflicting --config values"),
    "--out": (None, "output path (CSV or JSON)"),
    "-p": (None, "intrinsic adoption rate"),
    "-q": (None, "total internal influence rate"),
    "--t-max": (None, "time horizon (default: time for the 1D limit curve to reach 0.99; "
                      "30 for verify)"),
    "--topology": (("circle", "line", "grid", "hybrid"), "network topology"),
    "--sided": (("one", "two"),
                "influence from one neighbour per axis direction (weight q) or both (q/2 each)"),
    "-M": (None, "node count (circle/line) or total nodes (hybrid)"),
    "--ray": (None, "ray length of the hybrid topology (circle part is M-ray)"),
    "--grid": (None, "number of time grid points"),
    "-D": (None, "grid dimension"),
    "--side": (None, "grid side length"),
    "--periodic": (None, "wrap the grid into a torus"),
    "--trials": (None, "Monte Carlo trials"),
    "--seed": (None, "base random seed"),
    "simulate --preset": (("fig5", "fig11", "fig12"),
                          "named multi-curve run; writes CSVs plus a manifest"),
    "--per-node": (None, "include per-node adoption frequencies as CSV columns"),
    "--suite": (("indifference", "appendix", "dominance", "sidedness", "all"), "verification suite"),
    "verify --preset": (("fig3", "fig4", "fig6", "fig7", "fig8", "fig13", "fig14", "fig15"),
                        "verify a single named transform plan"),
}
KEY_DEFAULTS = {"out": None, "p": 0.01, "q": 0.1, "t_max": None, "topology": "circle",
                "sided": "one", "M": 6, "ray": 3, "grid": 200, "D": 2, "side": 6,
                "periodic": False, "trials": 4000, "seed": 0, "preset": None, "per_node": False,
                "suite": "all"}


class TestConfigFiles:
    def test_config_keys_are_the_parser_flags(self):
        commands = _command_parsers()
        assert list(commands) == ["analytic", "simulate", "verify"]
        assert [len(COMMAND_FLAGS[c]) for c in commands] == [11, 18, 10]
        for command, sub in commands.items():
            actions = [a for a in sub._actions if a.dest != "help"]
            assert sorted(a.option_strings[0] for a in actions) == sorted(COMMAND_FLAGS[command])
            for a in actions:
                flag = a.option_strings[0]
                choices, help_text = FLAG_HELP.get(f"{command} {flag}", FLAG_HELP.get(flag))
                assert (a.choices and tuple(a.choices), a.help) == (choices, help_text), flag
            # every flag but --config and --override is a --config key, with its default
            keys = {a.dest for a in actions} - {"config", "override"}
            assert cli.DEFAULTS[command] == {k: KEY_DEFAULTS[k] for k in keys}, command

    @pytest.mark.parametrize("command, key, value, choices", [
        ("analytic", "topology", "torus", "circle, line, grid, hybrid"),
        ("analytic", "sided", "three", "one, two"),
        ("simulate", "preset", "fig3", "fig5, fig11, fig12"),
        ("verify", "preset", "fig5", "fig3, fig4, fig6, fig7, fig8, fig13, fig14, fig15"),
        ("verify", "suite", "everything", "indifference, appendix, dominance, sidedness, all"),
    ])
    def test_config_values_meet_the_flag_choices(self, tmp_path, capsys, command, key, value,
                                                 choices):
        out = tmp_path / "out"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        with pytest.raises(SystemExit) as exc:
            run([command, "--config", str(cfg), "--out", str(out)])
        assert str(exc.value) == (f"basslab: error: --config value for {key!r} must be one of "
                                  f"{choices}, got {value!r}")
        with pytest.raises(SystemExit) as exc:
            run([command, "--" + key, value, "--out", str(out)])
        assert exc.value.code == 2
        assert f"invalid choice: {value!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, flag, key, value, message", [
        ("analytic", ["-D", "2"], "D", 2, "unrecognized arguments: -D 2"),
        ("analytic", ["--side", "4"], "side", 4, "unrecognized arguments: --side 4"),
        ("analytic", ["--periodic"], "periodic", True, "unrecognized arguments: --periodic"),
        ("verify", ["--dt", "0.1"], "dt", 0.1, "unrecognized arguments: --dt 0.1"),
        ("simulate", ["--scheme", "discrete"], "scheme", "discrete",
         "unrecognized arguments: --scheme discrete"),
        ("simulate", ["--dt", "0.1"], "dt", 0.1, "unrecognized arguments: --dt 0.1"),
    ])
    def test_removed_settings_are_refused(self, tmp_path, capsys, command, flag, key, value,
                                          message):
        with pytest.raises(SystemExit) as exc:
            run([command, *flag])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        with pytest.raises(SystemExit, match=f"--config keys not valid for `{command}`: {key}$"):
            run([command, "--config", str(cfg)])

    @pytest.mark.parametrize("command, flag", [
        ("analytic", ["--side", "two"]),  # a prefix of --sided
        ("simulate", ["--per-n"]),  # a prefix of --per-node
    ])
    def test_flag_prefixes_are_refused(self, capsys, command, flag):
        with pytest.raises(SystemExit) as exc:
            run([command, *flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flags, config, run_name, unread", [
        ("verify", ["--suite", "appendix", "--trials", "0", "--t-max", "1", "--seed", "9"],
         {"suite": "appendix", "trials": 0, "t_max": 1, "seed": 9},
         "verify --suite appendix", "seed, t_max, trials"),
        ("verify", ["--suite", "sidedness", "--trials", "9", "--t-max", "1", "--seed", "9"],
         {"suite": "sidedness", "trials": 9, "t_max": 1, "seed": 9},
         "verify --suite sidedness", "seed, t_max, trials"),
        ("verify", ["--preset", "fig3", "--trials", "0"], {"preset": "fig3", "trials": 0},
         "verify --preset fig3", "trials"),
        ("verify", ["--preset", "fig3", "--suite", "dominance"],
         {"preset": "fig3", "suite": "dominance"}, "verify --preset fig3", "suite"),
        ("simulate", ["--preset", "fig5", "-M", "9", "--side", "3", "--topology", "grid"],
         {"preset": "fig5", "M": 9, "side": 3, "topology": "grid"},
         "simulate --preset fig5", "M, side, topology"),
        ("simulate", ["--topology", "circle", "-D", "3", "--side", "9", "--periodic"],
         {"topology": "circle", "D": 3, "side": 9, "periodic": True},
         "simulate --topology circle", "D, periodic, side"),
        ("simulate", ["--topology", "grid", "-M", "40", "--ray", "2"],
         {"topology": "grid", "M": 40, "ray": 2}, "simulate --topology grid", "M, ray"),
        ("simulate", ["--topology", "hybrid", "--sided", "two", "-D", "3"],
         {"topology": "hybrid", "sided": "two", "D": 3},
         "simulate --topology hybrid", "D, sided"),
        ("simulate", ["-D", "3"], {"D": 3}, "simulate --topology circle", "D"),
        ("analytic", ["--topology", "hybrid", "--sided", "two"],
         {"topology": "hybrid", "sided": "two"}, "analytic --topology hybrid", "sided"),
        ("analytic", ["--topology", "line", "--ray", "2"], {"topology": "line", "ray": 2},
         "analytic --topology line", "ray"),
    ], ids=["verify-suite", "verify-sidedness", "verify-preset", "verify-preset-and-suite", "simulate-preset",
            "simulate-circle", "simulate-grid", "simulate-hybrid", "simulate-default-topology",
            "analytic-hybrid", "analytic-line"])
    def test_keys_the_run_does_not_read_are_refused(self, tmp_path, command, flags, config,
                                                    run_name, unread):
        out = tmp_path / "out"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        message = f"basslab: error: `{run_name}` does not read {unread}"
        for args in (flags, ["--config", str(cfg)]):
            with pytest.raises(SystemExit) as exc:
                run([command, *args, "--out", str(out)])
            assert str(exc.value) == message
        assert not out.exists()

    @pytest.mark.parametrize("suite", ["dominance", "all"])
    def test_coupled_suites_read_the_run_keys(self, suite):
        ns = cli.build_parser().parse_args(
            ["verify", "--suite", suite, "--trials", "100", "--seed", "4", "--t-max", "5"])
        spec = cli._merge_spec(ns)
        assert (spec.trials, spec.seed, spec.t_max) == (100, 4, 5.0)

    @pytest.mark.parametrize("command, flags", [
        ("analytic", ["--topology", "circle", "--sided", "two", "-M", "5"]),
        ("analytic", ["--topology", "line", "--sided", "two", "-M", "5"]),
        ("analytic", ["--topology", "hybrid", "-M", "7", "--ray", "3"]),
        ("simulate", ["--topology", "circle", "--sided", "two", "-M", "5"]),
        ("simulate", ["--topology", "line", "--sided", "two", "-M", "5"]),
        ("simulate", ["--topology", "grid", "--sided", "two", "-D", "2", "--side", "3",
                      "--periodic"]),
        ("simulate", ["--topology", "hybrid", "-M", "7", "--ray", "3"]),
    ], ids=lambda v: v if isinstance(v, str) else v[1])
    def test_single_runs_read_their_shape_keys(self, tmp_path, command, flags):
        args = [command, *flags, "-p", "0.02", "-q", "0.2", "--t-max", "5", "--grid", "3",
                "--out", str(tmp_path / "out.csv")]
        if command == "simulate":
            args += ["--trials", "2", "--seed", "1", "--per-node"]
        assert run(args) == 0
        assert read_curve_csv(str(tmp_path / "out.csv")).f.shape == (3,)

    @pytest.mark.parametrize("workload", ["sim_lattice", "sim_torus_large", "exact_scale",
                                          "verify_all"])
    def test_benchmark_commands_are_accepted(self, monkeypatch, workload):
        monkeypatch.setattr(sys, "dont_write_bytecode", True)
        spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PATH)
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclass looks itself up
        spec.loader.exec_module(workloads)
        ops = workloads.ops(workload, 5) + workloads.warmup_ops(workload, 5)
        argvs = [[*op.argv, "--out", op.out] for op in ops if op.argv is not None]
        assert argvs
        for argv in argvs:
            cli._merge_spec(cli.build_parser().parse_args(argv))  # raises if refused

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
        cfg.write_text(json.dumps({"t_max": 20, "q": 0.2, "preset": None}))
        via_cfg, via_flags = tmp_path / "cfg.csv", tmp_path / "flags.csv"
        assert run(["simulate", "--config", str(cfg), "--trials", "20", "--grid", "11",
                    "--out", str(via_cfg)]) == 0
        assert run(["simulate", "--t-max", "20", "-q", "0.2", "--trials", "20", "--grid", "11",
                    "--out", str(via_flags)]) == 0
        assert via_cfg.read_bytes() == via_flags.read_bytes()
