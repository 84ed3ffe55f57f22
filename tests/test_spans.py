"""The benchmark's tracer (perfbench/spans.py) rebinds library functions by
name; a refactor that renames or removes one breaks `--trace 1`. This
checks every name it lists, without installing the tracer."""
import importlib
import importlib.util
import sys
import textwrap
from pathlib import Path

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


def test_ode_counter_counts_each_solve(tmp_path):
    """The tracer counts ODE solves through the name analytic.solve_ivp; one
    two-sided line is one solve, and a closed-form circle none. Run in a
    fresh interpreter, because install() rebinds names for good."""
    script = textwrap.dedent(f"""
        import sys
        sys.dont_write_bytecode = True
        sys.path.insert(0, {str(SPANS_PATH.parent)!r})
        import numpy as np
        import basslab.cli
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)
        t = np.linspace(0.0, 30.0, 31)
        basslab.analytic.f_circle(t, 0.01, 0.1, 6)
        before = tracer.counts["analytic.ode_calls"]
        basslab.analytic.f_line_two_sided(t, 0.01, 0.1, 8)
        print(before, tracer.counts["analytic.ode_calls"])
    """)
    proc = fresh_python(["-c", script], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0.0", "1.0"]
