#!/usr/bin/env python3
"""basslab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; basslab is imported from ``src``. The
workload runs in one fresh interpreter (worker.py), with BASSLAB_THREADS
unset and BLAS capped at BLAS_THREADS threads. It runs a smaller warm-up of
the workload first, untimed, and then repeats the workload in the same
process.

``--trace 0``: SETUP_PROBES set-up probes, each a fresh interpreter that
only sets up, then the worker: at least two repeats, and more while the
next one is expected to end within ``--seconds`` of timed work. Prints the
end-to-end metrics: ``setup_s`` (median over the probes and the worker of
fresh interpreter to ``import basslab`` + ``build_parser()``),
``wall_norm_s`` (median over the repeats of the wall time of the ops of one
repeat, scaled to the nominal speed by worker.SpeedGauge), ``peak_rss_mb``
(peak RSS of the worker) and ``pass_frac`` (ops that passed / ops
attempted).

``--trace 1``: one untraced and one traced repeat in one worker. Prints the
per-layer metrics from the traced one's spans, plus the tracing overhead
(traced minus untraced wall time) and the share of the traced wall time
that the module spans, the CLI excluded, account for.

An op fails if it raises, exits nonzero, its output fails its check
(checks.py), or its output differs in any byte from the first repeat's.
The last line of stdout is the JSON result; ``correct`` is true when every
attempted op was checked, and ``failed`` counts the ops that failed. The line
before it records the environment and every repeat's figures.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, ops

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BLAS_THREADS = 1
SETUP_PROBES = 2
# worker.SpeedGauge's kernel time at the speed wall_norm_s is quoted at
GAUGE_NOMINAL_S = 0.05
DEADLINE_S = 170.0     # the whole run, checks included, ends well inside 180 s
WORK = ROOT / ".perfbench_work"
REF_CACHE = WORK / "references"

# (metric, unit): the per-layer metrics a traced run prints
SPAN_METRICS = (
    ("network.build_s", "s", "network.build"),
    ("simulator.event_s", "s", "simulator.event"),
    ("simulator.aggregate_s", "s", "simulator.aggregate"),
    ("simulator.coupled_s", "s", "simulator.coupled"),
    ("oracle.generator_s", "s", "oracle.generator"),
    ("oracle.solve_s", "s", "oracle.solve"),
    ("analytic.line_s", "s", "analytic.line"),
    ("analytic.hybrid_s", "s", "analytic.hybrid"),
    ("analytic.circle_s", "s", "analytic.circle"),
    ("analytic.diag_s", "s", "analytic.diag"),
    ("principles.indifference_s", "s", "principles.indifference"),
    ("principles.dominance_s", "s", "principles.dominance"),
    ("curves.write_s", "s", "curves.write"),
    ("cli.self_s", "s", "cli"),
)
COUNT_METRICS = (
    ("network.nodes", "count"),
    ("network.edges", "count"),
    ("network.dense_mb", "MB"),
    ("simulator.trial_nodes", "count"),
    ("simulator.coupled_cells", "count"),
    ("oracle.calls", "count"),
    ("oracle.states", "count"),
    ("analytic.ode_calls", "count"),
    ("analytic.route.closed_form", "count"),
    ("analytic.route.ode", "count"),
    ("principles.classify_calls", "count"),
    ("curves.bytes_written", "B"),
)


class HarnessError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "BASSLAB_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def git_commit() -> str:
    """HEAD's commit, read from .git without running git (a checkout need
    not be a repository, and git would search the directories above it)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
        "basslab_threads": "unset",
        "commit": git_commit(),
        "src_sha256": digest(sorted(SRC.rglob("*.py"))),
        "machine": platform.machine(),
    }


class Runner:
    def __init__(self, workload: str, seed: int, workdir: Path, deadline: float):
        self.workload, self.seed = workload, seed
        self.workdir, self.deadline = workdir, deadline
        self.env = child_env()
        self.n = 0

    def child(self, *args: str) -> tuple[Path, dict]:
        """Run worker.py in a fresh directory; return the directory and the
        result, with setup_s measured from just before the spawn."""
        proc_dir = self.workdir / f"proc{self.n}"
        self.n += 1
        proc_dir.mkdir()
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise HarnessError("out of time before the next worker")
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(proc_dir / "result.json"), *args],
                cwd=proc_dir, env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                text=True, timeout=remaining,
            )
        except subprocess.TimeoutExpired as exc:
            raise HarnessError(f"worker {' '.join(args)} timed out") from exc
        if proc.returncode != 0:
            raise HarnessError(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        result = json.loads((proc_dir / "result.json").read_text())
        (proc_dir / "result.json").unlink()
        if Path(result["src"]).resolve() != (SRC / "basslab").resolve():
            raise HarnessError(f"imported basslab from {result['src']}, not from {SRC}")
        result["setup_s"] = result["setup_done"] - spawned
        return proc_dir, result

    def setup_probe(self) -> float:
        return self.child("--setup-only")[1]["setup_s"]

    def workload_run(self, trace: bool, seconds: float = 0) -> tuple[dict, list[tuple[Path, dict]]]:
        """The worker's result, and its repeats as (directory, repeat)."""
        proc_dir, result = self.child(self.workload, str(self.seed), "1" if trace else "0",
                                      str(seconds))
        return result, [(proc_dir / f"rep{k}", rep) for k, rep in enumerate(result["repeats"])]


def output_files(rep_dir: Path, op) -> dict[str, bytes]:
    """The op's output files under rep_dir, by relative path."""
    own = op.out or f"{op.name}.npy"
    return {name: path.read_bytes() for path in sorted(rep_dir.rglob("*")) if path.is_file()
            for name in [path.relative_to(rep_dir).as_posix()]
            if name == own or name.startswith(own + "/")}


def judge(workload: str, seed: int, reps: list[tuple[Path, dict]]) -> tuple[int, int, list, bool]:
    """Check every op of every repeat; return (attempted, failed, failures,
    whether every op could be checked)."""
    sys.path.insert(0, str(SRC))   # references use the package's other routes
    import numpy
    import scipy
    from checks import Checker

    code = sorted(SRC.rglob("*.py")) + [HERE / "checks.py", HERE / "workloads.py"]
    key = f"{digest(code)} {numpy.__version__} {scipy.__version__}"
    checker = Checker(workload, REF_CACHE, hashlib.sha256(key.encode()).hexdigest())
    todo = ops(workload, seed)
    first = {op.name: output_files(reps[0][0], op) for op in todo}
    attempted, failures, checked = 0, [], True
    for k, (rep_dir, result) in enumerate(reps):
        for op in todo:
            attempted += 1
            reason = result["errors"][op.name]
            if reason is None:
                try:
                    reason = checker.check(op, rep_dir)
                except Exception as exc:  # a reference that cannot be computed checks nothing
                    checked = False
                    reason = f"check could not run: {type(exc).__name__}: {exc}"
            if reason is None and output_files(rep_dir, op) != first[op.name]:
                reason = "output differs from the first repeat with the same seed"
            if reason is not None:
                failures.append({"repeat": k, "op": op.name, "reason": reason})
    return attempted, len(failures), failures, checked


def measure(workload: str, seed: int, seconds: int, workdir: Path) -> tuple[dict, dict, tuple]:
    runner = Runner(workload, seed, workdir, time.monotonic() + DEADLINE_S)
    setup = [runner.setup_probe() for _ in range(SETUP_PROBES)]
    result, reps = runner.workload_run(trace=False, seconds=seconds)
    setup.append(result["setup_s"])
    verdict = judge(workload, seed, reps)
    attempted, failed = verdict[:2]
    # each repeat's wall time at the nominal speed: scaled by the gauge
    # kernel's nominal time over its median time while that repeat ran
    walls = [r["wall_s"] * GAUGE_NOMINAL_S / statistics.median(r["gauge_s"]) for _, r in reps]
    metrics = {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "wall_norm_s": {"value": statistics.median(walls), "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        "pass_frac": {"value": (attempted - failed) / attempted, "unit": "frac"},
    }
    detail = {"setup_s": setup, "repeats": [
        {"wall_norm_s": w, **{k: r[k] for k in ("wall_s", "cpu_s", "gauge_s")}}
        for w, (_, r) in zip(walls, reps)]}
    return metrics, detail, verdict


def measure_traced(workload: str, seed: int, workdir: Path) -> tuple[dict, dict, tuple]:
    runner = Runner(workload, seed, workdir, time.monotonic() + DEADLINE_S)
    result, reps = runner.workload_run(trace=True)
    verdict = judge(workload, seed, reps)
    plain, traced = (r["wall_s"] for _, r in reps)
    self_s, counts = result["self_s"], result["counts"]
    metrics = {name: {"value": self_s.get(group, 0.0), "unit": unit}
               for name, unit, group in SPAN_METRICS}
    metrics.update({name: {"value": counts.get(name, 0), "unit": unit}
                    for name, unit in COUNT_METRICS})
    event_s = metrics["simulator.event_s"]["value"]
    metrics["simulator.trial_nodes_per_s"] = {
        "value": metrics["simulator.trial_nodes"]["value"] / event_s if event_s else 0.0,
        "unit": "1/s"}
    metrics["trace.overhead_s"] = {"value": traced - plain, "unit": "s"}
    modules = sum(v for group, v in self_s.items() if group != "cli")
    metrics["trace.covered_frac"] = {"value": modules / traced, "unit": "frac"}
    detail = {"untraced_wall_s": plain, "traced_wall_s": traced, "span_calls": result["calls"]}
    return metrics, detail, verdict


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "basslab" / "__init__.py").is_file():
        print(f"basslab sources not found under {SRC}", file=sys.stderr)
        return 2
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.trace:
            metrics, detail, verdict = measure_traced(args.workload, args.seed, workdir)
        else:
            metrics, detail, verdict = measure(args.workload, args.seed, args.seconds, workdir)
    except HarnessError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    attempted, failed, failures, checked = verdict
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "env": environment(), "detail": detail, "failures": failures}))
    print(json.dumps({"correct": checked, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
