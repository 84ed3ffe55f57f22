"""Adoption-curve container and CSV export shared by the solvers and the CLI,
and the package's one rule for a valid time grid and horizon."""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import IO

import numpy as np

# Sources a curve can come from.
CURVE_SOURCES = ("closed_form", "ode", "oracle", "monte_carlo")

_SLACK = 1e-8  # numerical slack on the [0,1] / monotonicity invariants


@dataclass(frozen=True, eq=False)
class AdoptionCurve:
    """Expected adopter fraction f(t) on a time grid.

    per_node, when present, is an (M, T) matrix of Prob(X_j(t)=1) whose mean
    over nodes equals f. stderr is only set for Monte Carlo curves.
    """

    t: np.ndarray
    f: np.ndarray
    source: str
    per_node: np.ndarray | None = None
    stderr: np.ndarray | None = None

    def __post_init__(self) -> None:
        t = _check_time_grid(self.t)
        f = np.asarray(self.f, dtype=float)
        if t.shape != f.shape:
            raise ValueError("t and f must be 1D arrays of equal length")
        if self.source not in CURVE_SOURCES:
            raise ValueError(f"unknown source {self.source!r}")
        if t[0] == 0.0 and abs(f[0]) > _SLACK:
            raise ValueError(f"f(0) = {f[0]} is not 0")
        if np.any(f < -_SLACK) or np.any(f > 1 + _SLACK):
            raise ValueError("f leaves [0, 1]")
        if np.any(np.diff(f) < -_SLACK):
            raise ValueError("f is not non-decreasing")
        f = _snap(f)
        if t[0] == 0.0:
            f[0] = 0.0  # nobody has adopted at t=0; round-off must not leak
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "f", f)
        if self.per_node is not None:
            pn = np.asarray(self.per_node, dtype=float)
            if pn.ndim != 2 or pn.shape[1] != t.size:
                raise ValueError("per_node must have shape (M, len(t))")
            pn = _snap(pn)
            if t[0] == 0.0:
                pn[:, 0] = 0.0
            object.__setattr__(self, "per_node", pn)
        if self.stderr is not None:
            se = np.asarray(self.stderr, dtype=float)
            if se.shape != f.shape:
                raise ValueError("stderr must match f in shape")
            object.__setattr__(self, "stderr", se)


def _check_time_grid(t) -> np.ndarray:
    """t as a float array, refused unless it is a non-empty 1D grid of
    finite, strictly increasing times from t >= 0. Every public function
    that takes a grid applies this rule before any work."""
    t = np.asarray(t, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise ValueError(f"time grid must be a non-empty 1D array, got shape {t.shape}")
    if not np.all(np.isfinite(t)):
        raise ValueError("time grid must hold only finite times")
    if np.any(np.diff(t) <= 0):
        raise ValueError("time grid must be strictly increasing")
    if t[0] < 0:
        raise ValueError(f"time grid must start at t >= 0, got {t[0]}")
    return t


def _check_t_max(t_max: float) -> None:
    if not (t_max > 0 and math.isfinite(t_max)):  # NaN fails the comparison
        raise ValueError(f"t_max must be positive and finite, got {t_max}")


def _snap(x: np.ndarray) -> np.ndarray:
    """Round-off within the validation slack is snapped onto [0, 1] so
    probabilities never print as -5e-14."""
    return np.clip(x, 0.0, 1.0)


def write_curve_csv(path_or_file: str | IO[str], curve: AdoptionCurve) -> None:
    """Write `t,f[,stderr][,node_1..node_M]` with 12 significant digits."""
    header = ["t", "f"]
    cols = [curve.t, curve.f]
    if curve.stderr is not None:
        header.append("stderr")
        cols.append(curve.stderr)
    if curve.per_node is not None:
        M = curve.per_node.shape[0]
        header.extend(f"node_{j}" for j in range(1, M + 1))
        cols.extend(curve.per_node)
    row = ",".join(["%.12g"] * len(cols))
    lines = [",".join(header)]
    lines.extend(row % tuple(values) for values in np.column_stack(cols).tolist())
    text = "\n".join(lines) + "\n"
    if isinstance(path_or_file, (str, os.PathLike)):
        with open(path_or_file, "w", newline="") as fh:
            fh.write(text)
    else:
        path_or_file.write(text)


def read_curve_csv(path: str) -> AdoptionCurve:
    """Read a curve written by write_curve_csv. Source is not stored in the
    file, so the result is tagged 'monte_carlo' when a stderr column exists
    and 'ode' otherwise."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    cols = {name: data[:, k] for k, name in enumerate(header)}
    node_names = [h for h in header if h.startswith("node_")]
    per_node = np.vstack([cols[h] for h in node_names]) if node_names else None
    stderr = cols.get("stderr")
    return AdoptionCurve(
        t=cols["t"],
        f=cols["f"],
        source="monte_carlo" if stderr is not None else "ode",
        per_node=per_node,
        stderr=stderr,
    )
