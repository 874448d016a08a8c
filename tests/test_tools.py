"""Smoke test: the step-cost script runs warning-free and prints its table."""
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_step_cost_prints_one_line_per_batch(tmp_path):
    done = subprocess.run(
        [sys.executable, "-W", "error", str(ROOT / "tools" / "step_cost.py"),
         "--steps", "3", "--repeats", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[1].split() == ["rows", "us/step", "us/state-step"]
    table = [line.split() for line in lines[2:]]
    assert [int(row[0]) for row in table] == [1, 7, 13]
    for _, per_step, per_state in table:
        assert 0 < float(per_state) <= float(per_step)


def test_step_cost_refuses_a_zero_step_count(tmp_path):
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "step_cost.py"), "--steps", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
