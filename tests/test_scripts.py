"""The experiments in scripts/ run end to end at a small size and write
their curves."""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_scripts_run_and_write_their_curves(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    runs = {
        "line_vs_circle.py": (
            ["-M", "4", "--trials", "50"],
            [f"{name}_{kind}.csv" for name in ("line_one_sided", "line_two_sided", "circle")
             for kind in ("analytic", "mc")],
        ),
        "torus_box_comparison.py": (
            ["--dims", "2", "--side", "3", "--trials", "50"],
            [f"grid2d_{label}_{sided}.csv" for label in ("torus", "box") for sided in ("one", "two")],
        ),
    }
    for script, (args, written) in runs.items():
        out = tmp_path / script
        result = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / script), *args, "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert result.returncode == 0, result.stderr
        assert sorted(p.name for p in out.iterdir()) == sorted(written)
