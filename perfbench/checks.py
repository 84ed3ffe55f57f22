"""Per-op output checks.

Every reference comes from a route other than the timed one: the master
equation (``exact_f``) for the analytic curves, the analytic curves for
``exact_f``, an independent recursion for the large lines, and the other
sidedness for the Monte Carlo curves. run.py calls these after the timed
repeats, in its own process, so no reference costs set-up or wall time.
"""
from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import numpy as np
from scipy.integrate import solve_ivp

from workloads import HYBRID_RAY, P

Z_MAX = 5.0   # |z| bound between two Monte Carlo curves that share a law
TOL = 1e-8    # absolute bound between an exact curve and its reference
REF_RTOL, REF_ATOL = 1e-12, 1e-14


def read_csv(path: Path) -> dict[str, np.ndarray]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return {name: data[:, k] for k, name in enumerate(header)}


def _per_node(cols: dict[str, np.ndarray]) -> np.ndarray:
    names = sorted((h for h in cols if h.startswith("node_")), key=lambda h: int(h[5:]))
    return np.vstack([cols[h] for h in names])


def max_z(a: dict[str, np.ndarray], b: dict[str, np.ndarray]) -> float:
    """Largest |f_a - f_b| / sqrt(se_a^2 + se_b^2) over grid points where
    either curve has spread (both are 0 at t = 0)."""
    if not np.array_equal(a["t"], b["t"]):
        raise ValueError("curves are on different grids")
    se = np.hypot(a["stderr"], b["stderr"])
    live = se > 0
    return float(np.max(np.abs(a["f"] - b["f"])[live] / se[live]))


def _survival_rates(s: float, v: np.ndarray, p: float, q: float) -> np.ndarray:
    """v_m' for v_m = S_1(s; m), the one-sided m-circle, m = 1..len(v).

    The block-shift identity S_2(t; m) = e^{-pt} S_1(t; m-1) closes the
    hierarchy's first row into v_m' = -(p+q) v_m + q e^{-pt} v_{m-1},
    v_1 = e^{-pt}: one stable system for every size, with no exponent sums.
    """
    d = -(p + q) * v
    d[0] = -p * v[0]
    d[1:] += q * np.exp(-p * s) * v[:-1]
    return d


def _solve(rhs, t: np.ndarray, n: int) -> np.ndarray:
    sol = solve_ivp(rhs, (0.0, t[-1]), np.ones(n), t_eval=t, method="DOP853",
                    rtol=REF_RTOL, atol=REF_ATOL)
    if not sol.success:
        raise RuntimeError(f"reference solve failed: {sol.message}")
    return sol.y


def circle_survivals(t: np.ndarray, p: float, q: float, M: int) -> np.ndarray:
    """S_1(t; m) of the one-sided m-circle for m = 1..M, shape (M, T)."""
    return _solve(lambda s, v: _survival_rates(s, v, p, q), t, M)


def two_sided_line(t: np.ndarray, p: float, q: float, M: int) -> np.ndarray:
    """Per-node adoption of the two-sided M-line, shape (M, T): the ends are
    (q/2)-circles of size M; interior node j solves
    u_j' = -(p+q) u_j + (q/2) [S(j-1) S(M-j+1) + S(j) S(M-j)], with the
    S(m) = S_1(t; q/2, m) from the same recursion as circle_survivals."""
    j = np.arange(2, M)
    h = q / 2

    def rhs(s, y):
        v, u = y[:M], y[M:]
        du = -(p + q) * u + h * (v[j - 2] * v[M - j] + v[j - 1] * v[M - j - 1])
        return np.concatenate([_survival_rates(s, v, p, h), du])

    y = _solve(rhs, t, 2 * M - 2)
    return 1.0 - np.vstack([y[M - 1], y[M:], y[M - 1]])


class Checker:
    """Checks one workload's ops. A reference depends only on the op's time
    grid and on the code that computes it, so it is computed once and kept
    in ``cache_dir`` under that code's ``fingerprint``: later repeats and
    later runs of the same code read it back instead of solving again."""

    def __init__(self, workload: str, cache_dir: Path, fingerprint: str):
        self.workload = workload
        self.cache_dir, self.fingerprint = cache_dir, fingerprint
        self._refs: dict[Path, np.ndarray] = {}

    def check(self, op, rep_dir: Path) -> str | None:
        """None if the op's output passes, else the reason it fails."""
        try:
            return getattr(self, "_" + self.workload)(op, rep_dir)
        except (OSError, ValueError, KeyError) as exc:
            return f"unreadable output: {type(exc).__name__}: {exc}"

    def _ref(self, name: str, t: np.ndarray, make) -> np.ndarray:
        grid = hashlib.sha256(t.tobytes()).hexdigest()[:16]
        path = self.cache_dir / f"{self.fingerprint[:16]}-{name}-{grid}.npy"
        if path not in self._refs:
            if path.is_file():
                self._refs[path] = np.load(path)
            else:
                self._refs[path] = make()
                self.cache_dir.mkdir(parents=True, exist_ok=True)
                tmp = path.with_name(path.name + ".tmp")
                with open(tmp, "wb") as fh:
                    np.save(fh, self._refs[path])
                os.replace(tmp, path)   # a run cut short leaves no partial reference
        return self._refs[path]

    # -- workloads -----------------------------------------------------------

    def _sim_lattice(self, op, rep_dir: Path) -> str | None:
        out = rep_dir / op.out
        names = ("torus_one", "torus_two", "box_one", "box_two")
        manifest = json.loads((out / "fig12_manifest.json").read_text())
        expected = [str(Path(op.out) / f"fig12_{n}.csv") for n in names]
        if manifest["files"] != expected:
            return f"manifest lists {manifest['files']}, expected {expected}"
        curves = {n: read_csv(out / f"fig12_{n}.csv") for n in names}
        z = max_z(curves["torus_one"], curves["torus_two"])
        if z > Z_MAX:
            return f"torus one- and two-sided curves differ: max |z| = {z:.2f} > {Z_MAX}"
        gain = float(np.mean(curves["box_two"]["f"] - curves["box_one"]["f"]))
        if gain < 0:
            return f"two-sided box adopts slower than one-sided on average ({gain:.3g})"
        return None

    def _sim_torus_large(self, op, rep_dir: Path) -> str | None:
        curve = read_csv(rep_dir / op.out)
        if op.name.endswith("_two"):
            z = max_z(read_csv(rep_dir / op.out.replace("_two", "_one")), curve)
            if z > Z_MAX:
                return f"torus one- and two-sided curves differ: max |z| = {z:.2f} > {Z_MAX}"
        return None if curve["f"][-1] > 0 else "nobody adopted"

    def _exact_scale(self, op, rep_dir: Path) -> str | None:
        import basslab

        M, q, kind = op.params
        if op.argv is not None:
            cols = read_csv(rep_dir / op.out)
            t, f = cols["t"], cols["f"]
            per_node = _per_node(cols) if "node_1" in cols else None
        else:
            t, f, *rows = np.load(rep_dir / f"{op.name}.npy")
            per_node = np.vstack(rows)
        if op.name == "exact_torus_4x4":
            spread = float(np.max(np.ptp(per_node, axis=0)))
            return None if spread <= TOL else f"torus marginals differ by {spread:.3g}"
        if op.name == "line_two_60":
            ref = self._ref(op.name, t, lambda: two_sided_line(t, P, q, M))
        elif op.name == "line_one_60":
            ref = self._ref(op.name, t, lambda: 1.0 - circle_survivals(t, P, q, M))
        elif op.name == "hybrid_60":
            def hybrid():
                # circle nodes follow the C-circle, ray node k the (C+k)-circle
                C = M - HYBRID_RAY
                f_m = 1.0 - circle_survivals(t, P, q, M)
                return np.vstack([np.repeat(f_m[C - 1:C], C, axis=0), f_m[C:]])
            ref = self._ref(op.name, t, hybrid)
        elif op.name == "exact_line_two_16":
            ref = self._ref(op.name, t, lambda: basslab.f_line_two_sided(t, P, q, M)[0])
        elif op.name == "exact_circle_18":
            ref = self._ref(op.name, t, lambda: basslab.f_circle(t, P, q, M)[0])
        elif kind == "circle":
            ref = self._ref(op.name, t, lambda: basslab.exact_f(basslab.build_circle(M, P, q), t).f)
        else:
            ref = self._ref(op.name, t, lambda: basslab.exact_f(
                basslab.build_line(M, P, q, sided=kind), t).per_node)
        if ref.ndim == 2:
            err = max(float(np.max(np.abs(per_node - ref))),
                      float(np.max(np.abs(f - ref.mean(axis=0)))))
        else:
            err = float(np.max(np.abs(f - ref)))
        return None if err <= TOL else f"off its reference by {err:.3g} > {TOL}"

    def _verify_all(self, op, rep_dir: Path) -> str | None:
        report = json.loads((rep_dir / op.out).read_text())
        return None if report.get("passed") is True else "verify report did not pass"
