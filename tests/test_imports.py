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
    loaded = loaded_after("""
        import basslab.cli
        assert basslab.cli.main(["analytic", "--topology", "circle", "-M", "6",
                                 "--out", "circle.csv"]) == 0
        assert basslab.cli.main(["simulate", "--topology", "circle", "-M", "6",
                                 "--trials", "20", "--out", "sim.csv"]) == 0
    """, tmp_path)
    assert "scipy.sparse.csgraph" in loaded  # the event sampler ran
    assert "scipy.integrate" not in loaded
    assert "scipy.optimize" not in loaded


def test_one_sided_line_and_box_load_no_scipy(tmp_path):
    # both are acyclic, so the sampler sweeps them and calls no Dijkstra
    assert loaded_after("""
        import basslab.cli
        assert basslab.cli.main(["simulate", "--topology", "line", "--sided", "one",
                                 "--out", "line.csv"]) == 0
        assert basslab.cli.main(["simulate", "--topology", "grid", "--sided", "one",
                                 "--out", "box.csv"]) == 0
    """, tmp_path) == []
