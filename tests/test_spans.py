"""The benchmark's tracer (perfbench/spans.py) rebinds library functions by
name; a refactor that renames or removes one breaks `--trace 1`. This
checks every name it lists, without installing the tracer."""
import importlib
import importlib.util
import sys
from pathlib import Path

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
