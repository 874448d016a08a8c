"""Smoke tests: the step-cost and step-count scripts run warning-free."""
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_step_cost_prints_one_line_per_batch(tmp_path):
    done = subprocess.run(
        [sys.executable, "-W", "error", str(ROOT / "tools" / "step_cost.py"),
         "--steps", "3", "--repeats", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[1].split() == ["rows", "us/pair", "us/state-pair"]
    table = [line.split() for line in lines[2:-4]]
    assert [int(row[0]) for row in table] == [1, 7, 13]
    for _, per_pair, per_state in table:
        assert 0 < float(per_state) <= float(per_pair)
    costs = [line.split() for line in lines[-4:]]
    assert [(label, unit) for label, _, unit in costs] == [
        ("prepare", "s"), ("search-point", "us"), ("readout", "us"),
        ("readout-flux", "us")]
    assert all(float(value) > 0 for _, value, _ in costs)


def test_step_cost_refuses_a_zero_step_count(tmp_path):
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "step_cost.py"), "--steps", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 2


SMALL_SPLITSTEP = (
    "mass_u = 38.96370668\n"
    "radius_um = 5.9\n"
    "omega_perp_krad_s = 6.4\n"
    "scattering_length_a0 = 1.0\n"
    "atom_number = 5000\n"
    "solver = splitstep\n"
    "cutoff = 64\n"
    "grid_n = 256\n"
    "dt_rev_factor = 1e-4\n"
    "n_records = 9\n"
)


def test_step_count_prints_fft_pairs_per_phase(tmp_path):
    config = tmp_path / "small.cfg"
    config.write_text(SMALL_SPLITSTEP)
    done = subprocess.run(
        [sys.executable, "-W", "error", str(ROOT / "tools" / "step_count.py"),
         "--config", str(config)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].split() == ["phase", "calls", "fft-pairs"]
    table = {line.rsplit(None, 2)[0]: [int(v) for v in line.split()[-2:]]
             for line in lines[1:]}
    assert list(table) == ["prepare", "search prefix", "search window",
                           "record replay", "walk", "total"]
    # the search's 0.49 T prefix in 817 steps of six FFT pairs of 1e-4 T,
    # cut into its checkpoint segments
    assert table["search prefix"] == [200, 6 * 817]
    for phase in ("prepare", "search window", "record replay", "walk"):
        assert table[phase][1] > 0, phase
    assert table["total"] == [sum(table[p][k] for p in list(table)[:-1])
                              for k in (0, 1)]


@pytest.mark.parametrize("args", [["--config", "missing.cfg"],
                                  ["--steps", "3"]],
                         ids=["missing-config", "unknown-option"])
def test_step_count_refuses_bad_arguments(tmp_path, args):
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "step_count.py")] + args,
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
