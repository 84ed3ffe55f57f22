"""The benchmark's tracer (perfbench/spans.py) rebinds library functions by
name and reads fields of their arguments and results; a refactor that
renames or removes one, or changes what it takes or returns, breaks
`--trace 1`. These check every name it lists and the fields its hooks
read, installing the tracer only in a fresh interpreter."""
import importlib
import importlib.util
import sys
import textwrap
from collections import defaultdict
from pathlib import Path

import numpy as np

from basslab.analytic import survival_circle
from basslab.network import build_circle, build_line
from basslab.simulator import SimConfig, run_coupled, run_event_driven
from conftest import fresh_python

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(monkeypatch):
    spans = _load_spans(monkeypatch)
    listed = [(m, a) for m, a, *_ in spans.SPANS] + [(m, a) for m, a, _ in spans.COUNTERS]
    assert len(listed) == len(spans.SPANS) + len(spans.COUNTERS) > 0
    missing = [f"basslab.{m}.{a}" for m, a in listed
               if not callable(getattr(importlib.import_module(f"basslab.{m}"), a, None))]
    assert missing == []


def test_hooks_read_fields_the_library_returns(monkeypatch):
    """The tracer's hooks read run_coupled's report["trials"] and
    ["steps"], the route survival_circle returns next to its values, and
    run_event_driven's config as its second argument; a change to any of
    them breaks `--trace 1` without breaking a call."""
    spans = _load_spans(monkeypatch)
    counts = defaultdict(float)
    lo, hi = build_line(4, 0.01, 0.1), build_circle(4, 0.01, 0.1)
    config = SimConfig(trials=5, base_seed=1, t_max=2.0)
    report = run_coupled(lo, hi, config)
    assert isinstance(report["trials"], int) and isinstance(report["steps"], int)
    spans._count_coupled(counts, report, (lo, hi, config), {})
    assert counts["simulator.coupled_cells"] == 5 * report["steps"] * 4 * 2

    t = np.linspace(0.0, 10.0, 5)
    routes = []
    for p, q, M in ((0.01, 0.1, 6), (0.05, 0.3, 7)):  # trusted; q = 6p resonance
        out = survival_circle(t, p, q, M)
        values, route = out
        assert values.shape == t.shape
        routes.append(route)
        spans._count_route(counts, out, (t, p, q, M), {})
    assert routes == ["closed_form", "ode"]
    assert counts["analytic.route.closed_form"] == counts["analytic.route.ode"] == 1

    curve = run_event_driven(hi, config, t)
    spans._count_event(counts, curve, (hi, config, t), {})
    assert counts["simulator.trial_nodes"] == 5 * 4


def test_ode_counter_counts_each_solve(tmp_path):
    """The tracer counts ODE solves through the name analytic.solve_ivp,
    which no solve calls any more: the count stays 0. The propagator that
    replaced it runs once for a two-sided line and not for a closed-form
    circle. Run in a fresh interpreter, because install() rebinds names
    for good."""
    script = textwrap.dedent(f"""
        import sys
        sys.dont_write_bytecode = True
        sys.path.insert(0, {str(SPANS_PATH.parent)!r})
        import numpy as np
        import basslab.cli
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)
        passes = []
        propagate = basslab.analytic._propagate
        basslab.analytic._propagate = lambda *args, **kw: passes.append(1) or propagate(*args, **kw)
        t = np.linspace(0.0, 30.0, 31)
        basslab.analytic.f_circle(t, 0.01, 0.1, 6)
        before = tracer.counts["analytic.ode_calls"], len(passes)
        basslab.analytic.f_line_two_sided(t, 0.01, 0.1, 8)
        print(*before, tracer.counts["analytic.ode_calls"], len(passes))
    """)
    proc = fresh_python(["-c", script], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0.0", "0", "0.0", "1"]


def test_appendix_diagnostics_are_traced(tmp_path):
    """verify --suite appendix calls each diagnostic through its public
    name, so the tracer books it to analytic.diag: one alpha table and
    36 beta, 28 gamma, 44 nu and 16 psi calls. It makes no ODE solve: its
    three propagator passes are the S_1 table at q, the joint two-sided
    lines and alpha's difference system."""
    script = textwrap.dedent(f"""
        import sys
        sys.dont_write_bytecode = True
        sys.path.insert(0, {str(SPANS_PATH.parent)!r})
        import basslab.cli
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)
        passes = []
        propagate = basslab.analytic._propagate
        basslab.analytic._propagate = lambda *args, **kw: passes.append(1) or propagate(*args, **kw)
        status = basslab.cli.main(["verify", "--suite", "appendix", "--out", "appendix.json"])
        print(status, tracer.calls["analytic.diag"], tracer.counts["analytic.ode_calls"], len(passes))
    """)
    proc = fresh_python(["-c", script], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "125", "0.0", "3"]
