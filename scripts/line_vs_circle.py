"""Compare adoption on a line (both sidedness conventions) against the
circle of the same size, analytically and by simulation.

Writes one CSV per curve plus a small gap table to stdout. The simulated
curves carry stderr columns; the analytic ones do not.
"""
import argparse
import pathlib

import numpy as np

from basslab.analytic import default_time_grid, f_circle, f_line_one_sided, f_line_two_sided
from basslab.curves import AdoptionCurve, write_curve_csv
from basslab.network import build_circle, build_line
from basslab.simulator import SimConfig, run_event_driven


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("-M", type=int, default=6)
    ap.add_argument("-p", type=float, default=0.01)
    ap.add_argument("-q", type=float, default=0.1)
    ap.add_argument("--trials", type=int, default=4000)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--out", type=pathlib.Path, default=pathlib.Path("results"))
    args = ap.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    t = default_time_grid(args.p, args.q, points=201)

    per_one, f_one, source_one = f_line_one_sided(t, args.p, args.q, args.M)
    per_two, f_two, source_two = f_line_two_sided(t, args.p, args.q, args.M)
    f_circ, source_circ = f_circle(t, args.p, args.q, args.M)
    analytic = {
        "line_one_sided": AdoptionCurve(t=t, f=f_one, source=source_one, per_node=per_one),
        "line_two_sided": AdoptionCurve(t=t, f=f_two, source=source_two, per_node=per_two),
        "circle": AdoptionCurve(t=t, f=f_circ, source=source_circ),
    }

    cfg = SimConfig(trials=args.trials, base_seed=args.seed)
    nets = {
        "line_one_sided": build_line(args.M, args.p, args.q, sided="one"),
        "line_two_sided": build_line(args.M, args.p, args.q, sided="two"),
        "circle": build_circle(args.M, args.p, args.q, sided="one"),
    }

    print(f"M={args.M} p={args.p} q={args.q} trials={args.trials}")
    for name, curve in analytic.items():
        write_curve_csv(args.out / f"{name}_analytic.csv", curve)
        mc = run_event_driven(nets[name], cfg, t_grid=t)
        write_curve_csv(args.out / f"{name}_mc.csv", mc)
        gap = np.max(np.abs(mc.f - curve.f))
        print(f"  {name:16s} sup|mc - analytic| = {gap:.5f}"
              f"  (3*max stderr = {3 * np.max(mc.stderr):.5f})")

    k = int(np.argmax(f_two - f_one))
    print(f"two-sided line leads one-sided by {f_two[k] - f_one[k]:.5f} at t={t[k]:.2f}")
    k = int(np.argmax(f_circ - f_two))
    print(f"circle leads two-sided line by {f_circ[k] - f_two[k]:.5f} at t={t[k]:.2f}")
    print(f"curves written to {args.out}/")


if __name__ == "__main__":
    main()
