"""Smoke test: the demo scripts run warning-free and write their CSV.

Demo 05 prints its figures and writes no CSV, so it is checked for a clean
exit alone.
"""
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

DEMOS = {
    "01_revival_and_splitter.py": "revival_landmarks.csv",
    "02_interference_fringe.py": "interference_fringe.csv",
    "03_torus_spectrum.py": "torus_spectrum.csv",
    "04_gauge_flux_rotation.py": "gauge_rotations.csv",
    "05_mean_field_revival.py": None,
    "06_timing_and_sensing.py": "sensing_figures.csv",
}


@pytest.mark.parametrize("script", sorted(DEMOS))
def test_demo_runs_and_writes_its_csv(tmp_path, script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-W", "error", str(ROOT / "demos" / script)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    if DEMOS[script] is not None:
        assert (tmp_path / "demo_output" / DEMOS[script]).stat().st_size > 0
