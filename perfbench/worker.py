"""All repeats of one workload run, in one fresh interpreter.

    python3 worker.py RESULT_JSON --setup-only
    python3 worker.py RESULT_JSON WORKLOAD SEED TRACE SECONDS

Imports basslab and builds the CLI parser first (the set-up every CLI call
pays) and records the CLOCK_MONOTONIC time at which that finished. Then it
runs the workload's warm-up ops once, untimed, in ``warmup/``, and repeats
the workload's ops, each repeat in its own directory ``rep<k>/``:

- TRACE=0: at least two repeats, and more while one more repeat of the mean
  length is expected to end within SECONDS of timed work.
- TRACE=1: one untraced repeat, then one with the spans installed.

It writes a JSON result: set-up end time, each repeat's wall and CPU time
and each op's error if any, the peak RSS of the process, and with TRACE=1
the span totals. run.py starts it with ``src`` on PYTHONPATH.
"""
import signal
import sys
import time

GAUGE_PERIOD_S = 0.25  # wall time between two runs of the speed gauge's kernel


class SpeedGauge:
    """Runs a fixed kernel every GAUGE_PERIOD_S while the ops run, from a
    SIGALRM handler in this process, and times it.

    On a shared host the speed a process gets drifts by 10-20% over
    minutes, more than a change worth measuring. The ops and the kernel slow
    down together, so the ops' time over the kernel's time in the same
    seconds is steadier than either (run.py takes that ratio). The kernel
    uses no basslab code and leaves no state the ops can see. It mixes numpy
    calls on small arrays with dense linear algebra: of the kinds of work
    the workloads do, these two tracked the workloads' speed most closely,
    and pure Python loops less well. The handler runs between two bytecodes
    of the ops, so a long call into C delays a sample but never overlaps
    one. ``spent`` is the handler's time, which the repeat subtracts from
    its wall time. One more sample is taken just before the ops and one
    just after, outside their time, so there are always at least two.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(12345)
        self._np = np
        self._a = rng.random((200, 200)) + 200 * np.eye(200)
        self._x = rng.random(256)
        self.samples: list[float] = []
        self.spent = 0.0

    def kernel(self) -> None:
        np, a, x = self._np, self._a, self._x
        for _ in range(2_500):
            c = np.cumsum(x)
            k = np.searchsorted(c, c[-1] * 0.5)
            x[k] = x[k] * 0.5 + 0.25
        b = a
        for _ in range(7):
            b = np.linalg.solve(a, b @ a)

    def _sample(self) -> None:
        t0 = time.perf_counter()
        self.kernel()
        self.samples.append(time.perf_counter() - t0)

    def _tick(self, _signum, _frame) -> None:
        t0 = time.perf_counter()
        self._sample()
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> "SpeedGauge":
        self.kernel()   # the first run pays one-off costs; it is not a sample
        self._sample()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, GAUGE_PERIOD_S, GAUGE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()


def run_op(basslab, op) -> tuple[str | None, tuple | None]:
    """Run one op; return (error, library result). CLI failures are a
    nonzero exit code, SystemExit or an exception; library ones an exception."""
    try:
        if op.call is not None:
            return None, op.call(basslab)
        rc = basslab.cli.main([*op.argv, "--out", op.out])
        return (None if rc == 0 else f"exit code {rc}"), None
    except SystemExit as exc:
        return f"SystemExit: {exc}", None
    except Exception as exc:  # the benchmark counts any failure of an op and goes on
        return f"{type(exc).__name__}: {exc}", None


def main(argv: list[str]) -> int:
    import basslab
    import basslab.cli

    basslab.cli.build_parser()
    setup_done = time.monotonic()
    # everything below is outside the set-up time
    import contextlib
    import json
    import os
    import resource
    from pathlib import Path

    import numpy as np

    from spans import Tracer, install
    from workloads import ops, warmup_ops

    def repeat(todo, where: str, gauge: bool = False) -> dict:
        """Run the ops in directory ``where``; time them, then save the
        library results there. With ``gauge`` the speed gauge runs alongside
        and its time is taken out of the wall and CPU times."""
        Path(where).mkdir()
        os.chdir(where)
        errors, arrays = {}, {}
        speed = SpeedGauge() if gauge else None
        with speed or contextlib.nullcontext():
            t0, c0 = time.perf_counter(), time.process_time()
            for op in todo:
                errors[op.name], arrays[op.name] = run_op(basslab, op)
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        spent = speed.spent if speed else 0.0
        out = {"wall_s": wall - spent, "cpu_s": cpu - spent, "errors": errors}
        if speed:
            out["gauge_s"] = speed.samples
        for name, value in arrays.items():
            if value is not None:
                t, f, per_node = value
                np.save(f"{name}.npy", np.vstack([t, f, per_node]))
        os.chdir("..")
        return out

    result_path = Path(argv[0]).resolve()
    result = {"setup_done": setup_done, "src": str(Path(basslab.__file__).parent)}
    if argv[1:] != ["--setup-only"]:
        workload, seed, trace, seconds = argv[1], int(argv[2]), argv[3] == "1", float(argv[4])
        todo = ops(workload, seed)
        repeat(warmup_ops(workload, seed), "warmup")
        reps = result["repeats"] = []
        if trace:
            reps.append(repeat(todo, "rep0"))
            tracer = Tracer()
            install(tracer)
            reps.append(repeat(todo, "rep1"))
            result["self_s"] = dict(tracer.self_s)
            result["calls"] = dict(tracer.calls)
            result["counts"] = dict(tracer.counts)
        else:
            timed = 0.0
            # two repeats at least, for the determinism check; then stop when
            # one more repeat of the mean length would end past SECONDS
            while len(reps) < 2 or timed * (len(reps) + 1) / len(reps) <= seconds:
                reps.append(repeat(todo, f"rep{len(reps)}", gauge=True))
                timed += reps[-1]["wall_s"]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result_path.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
