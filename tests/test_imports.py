"""Which parts of scipy each entry point loads. Every module imports the
scipy part it needs inside the function that uses it, so a command pays
only for what it runs. Each check runs in a fresh interpreter, because
this suite's conftest imports scipy.integrate."""
import json
import textwrap

from conftest import fresh_python


def loaded_after(code: str, cwd) -> list[str]:
    """The scipy modules in sys.modules after running code in a fresh
    interpreter."""
    script = textwrap.dedent(code) + textwrap.dedent("""
        import json, sys
        print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
    """)
    proc = fresh_python(["-c", script], cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_and_parser_load_no_scipy(tmp_path):
    assert loaded_after("""
        import basslab, basslab.cli
        basslab.cli.build_parser()
    """, tmp_path) == []


def test_closed_form_and_event_commands_skip_integrate_and_optimize(tmp_path):
    # the closed form needs no scipy, and the sampler sweeps every one of
    # these networks, cyclic or not, with numpy alone
    assert loaded_after("""
        import basslab.cli
        assert basslab.cli.main(["analytic", "--topology", "circle", "-M", "6",
                                 "--out", "circle.csv"]) == 0
        for k, argv in enumerate([["--topology", "circle", "-M", "6"],
                                  ["--topology", "grid", "-D", "2", "--side", "6", "--sided", "two"],
                                  ["--topology", "hybrid", "-M", "12", "--ray", "6"],
                                  ["--preset", "fig12", "--trials", "20"]]):
            assert basslab.cli.main(["simulate", *argv, "--out", f"sim{k}"]) == 0
    """, tmp_path) == []


def test_propagated_curves_and_the_appendix_load_no_scipy(tmp_path):
    # lines, hybrids, a circle the closed form refuses (q/p = 45) and the
    # appendix diagnostics all run on the propagator, which needs numpy alone
    assert loaded_after("""
        import basslab.cli
        for k, argv in enumerate([
            ["analytic", "--topology", "line", "--sided", "one", "-M", "60"],
            ["analytic", "--topology", "line", "--sided", "two", "-M", "60"],
            ["analytic", "--topology", "hybrid", "-M", "60", "--ray", "30"],
            ["analytic", "--topology", "circle", "-M", "16", "-q", "0.45"],
            ["verify", "--suite", "appendix"],
        ]):
            assert basslab.cli.main([*argv, "--out", f"out{k}"]) == 0
    """, tmp_path) == []


def test_verify_all_loads_sparse_but_not_integrate_or_optimize(tmp_path):
    loaded = loaded_after("""
        import basslab.cli
        assert basslab.cli.main(["verify", "--suite", "all", "--trials", "100",
                                 "--out", "all.json"]) == 0
    """, tmp_path)
    assert "scipy.sparse" in loaded
    assert "scipy.integrate" not in loaded
    assert "scipy.optimize" not in loaded


def test_one_sided_line_and_box_load_no_scipy(tmp_path):
    # both are acyclic, so the sampler sweeps each block once
    assert loaded_after("""
        import basslab.cli
        assert basslab.cli.main(["simulate", "--topology", "line", "--sided", "one",
                                 "--out", "line.csv"]) == 0
        assert basslab.cli.main(["simulate", "--topology", "grid", "--sided", "one",
                                 "--out", "box.csv"]) == 0
    """, tmp_path) == []


def test_few_trial_and_deep_simulations_load_no_scipy(tmp_path):
    # the sampler sweeps every network to its fixed point, however few its
    # trials or deep its levels: a 1000-line at 1 trial, the two-sided
    # 32x32 torus at 2, fig12 at 20 and a per-node run. The dominance suite
    # loads scipy.sparse for its oracle, and csgraph still not
    assert loaded_after("""
        import basslab.cli
        for k, argv in enumerate([
            ["--topology", "line", "-M", "1000", "--trials", "1"],
            ["--topology", "grid", "-D", "2", "--side", "32", "--sided", "two", "--periodic",
             "--trials", "2"],
            ["--preset", "fig12", "--trials", "20", "--seed", "305"],
            ["--topology", "line", "-M", "20", "--trials", "3", "--per-node"],
        ]):
            assert basslab.cli.main(["simulate", *argv, "--out", f"sim{k}"]) == 0
    """, tmp_path) == []
    loaded = loaded_after("""
        import basslab.cli
        assert basslab.cli.main(["verify", "--suite", "dominance", "--trials", "100",
                                 "--out", "dominance.json"]) == 0
    """, tmp_path)
    assert "scipy.sparse" in loaded
    assert "scipy.sparse.csgraph" not in loaded
