"""Tests of the benchmark itself: ``python3 -m pytest perfbench``.

The end-to-end tests run the cheapest workload for real, about 20 s.
"""
from __future__ import annotations

import json
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS, ops, warmup_ops  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def test_names_and_units_are_well_formed():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for m in metrics:
        assert UNIT.fullmatch(m["unit"]), m
    assert "setup_s" in [m["name"] for m in SPEC["end_to_end"]]
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


def test_spec_workloads_are_the_benchmarks():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for w in WORKLOADS:
        assert ops(w, 0), w
        assert warmup_ops(w, 0), w


def test_traced_metric_tables_match_spec():
    produced = {name: unit for name, unit, _group in run.SPAN_METRICS}
    produced.update(dict(run.COUNT_METRICS))
    produced.update({"simulator.trial_nodes_per_s": "1/s", "trace.overhead_s": "s",
                     "trace.covered_frac": "frac"})
    assert produced == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    groups = {group for _m, _module, group, _hook in spans.SPANS}
    assert groups == {group for _name, _unit, group in run.SPAN_METRICS}


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_every_metric_with_its_unit(trace, section):
    proc = _bench("--workload", "verify_all", "--seed", "3", "--seconds", "1",
                  "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 2
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    record = json.loads(lines[-2])
    assert {"nproc", "python", "numpy", "scipy", "blas_threads", "commit"} <= set(record["env"])


def test_run_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "verify_all", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_judge_fails_a_repeat_whose_bytes_differ(tmp_path):
    reps = []
    for k, passed in enumerate(("true", "true ")):
        rep = tmp_path / f"rep{k}"
        rep.mkdir()
        (rep / "verify.json").write_text('{"passed": %s}' % passed)
        reps.append((rep, {"errors": {"verify": None}}))
    attempted, failed, failures, checked = run.judge("verify_all", 0, reps)
    assert (attempted, failed, checked) == (2, 1, True)
    assert failures[0]["repeat"] == 1 and "differs" in failures[0]["reason"]


def test_references_are_reused_only_under_the_same_fingerprint(tmp_path):
    t = np.linspace(0.0, 1.0, 5)
    made = []

    def make():
        made.append(1)
        return t * len(made)

    first = checks.Checker("exact_scale", tmp_path, "a" * 64)._ref("op", t, make)
    again = checks.Checker("exact_scale", tmp_path, "a" * 64)._ref("op", t, make)
    assert len(made) == 1 and np.array_equal(first, again)
    changed = checks.Checker("exact_scale", tmp_path, "b" * 64)._ref("op", t, make)
    checks.Checker("exact_scale", tmp_path, "a" * 64)._ref("op", t[:3], make)
    assert len(made) == 3 and not np.array_equal(changed, first)


def test_nested_spans_split_time_by_self():
    tracer = spans.Tracer()

    def inner():
        sum(range(20000))

    def outer():
        sum(range(20000))
        traced_inner()

    traced_inner = tracer.span("inner", inner)
    traced_outer = tracer.span("outer", outer)
    t0 = time.perf_counter()
    traced_outer()
    total = time.perf_counter() - t0
    assert tracer.calls == {"inner": 1, "outer": 1}
    assert 0 < tracer.self_s["outer"] < total and 0 < tracer.self_s["inner"] < total
    # each second lands in exactly one span
    assert abs(tracer.self_s["outer"] + tracer.self_s["inner"] - total) < 1e-3


def test_speed_gauge_samples_throughout_and_its_time_is_counted():
    with worker.SpeedGauge() as gauge:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.8:
            sum(range(1000))
    # one sample before, one after, and the ticks of the timer in between
    assert len(gauge.samples) >= 4
    ticks = sum(gauge.samples[1:-1])
    assert 0 < ticks <= gauge.spent < 0.8
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL


def test_reference_routes_match_the_oracle():
    import basslab

    t = np.linspace(0.0, 60.0, 13)
    p, q, M = 0.01, 0.45, 8
    exact = basslab.exact_f(basslab.build_line(M, p, q, sided="two"), t).per_node
    assert np.max(np.abs(checks.two_sided_line(t, p, q, M) - exact)) < 1e-9
    one_sided = basslab.exact_f(basslab.build_line(M, p, q, sided="one"), t).per_node
    assert np.max(np.abs(1.0 - checks.circle_survivals(t, p, q, M) - one_sided)) < 1e-9
