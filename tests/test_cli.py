"""Command-line interface: subcommands, CSV outputs, exit codes."""
import dataclasses
import math

import numpy as np
import pytest

import ringsim as rs
from ringsim.cli import _variant_spec, main


QUICK = (
    "mass_u = 38.96370668\n"
    "radius_um = 5.9\n"
    "omega_perp_krad_s = 6.4\n"
    "scattering_length_a0 = 0.0\n"
    "atom_number = 20000\n"
    "solver = linear\n"
    "cutoff = 64\n"
    "grid_n = 256\n"
    "n_records = 9\n"
    "sweep_phi_count = 5\n"
    "sweep_variants = ideal,noninteracting\n"
    "timing_offsets_us = 0,50,150\n"
)


@pytest.fixture()
def quick_cfg(tmp_path):
    path = tmp_path / "quick.cfg"
    path.write_text(QUICK)
    return str(path)


def _read_csv(path):
    header, columns, rows = [], None, []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.rstrip("\n")
            if line.startswith("#"):
                header.append(line)
            elif columns is None:
                columns = line.split(",")
            elif line:
                rows.append(line.split(","))
    return header, columns, rows


def test_revival_runs_and_writes_series(quick_cfg, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["revival", "--config", quick_cfg, "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "optimized revival time:" in printed
    assert "revival fidelity:" in printed
    header, columns, rows = _read_csv(out / "revival.csv")
    assert columns == ["t_s", "fidelity", "imbalance", "centroid_rad"]
    assert len(rows) == 9
    cfg = rs.from_file(quick_cfg)
    assert any("config_sha256 = %s" % cfg.sha256() in line
               for line in header)
    assert header[0] == "# ringsim revival"
    # the found revival sits at the ideal period for this linear scenario
    trap = rs.build_trap(cfg)
    for line in printed.splitlines():
        if line.startswith("optimized revival time:"):
            found = float(line.split(":")[1].strip().split()[0])
            assert found == pytest.approx(rs.revival_time(trap), rel=1e-4)


def test_revival_snapshots_file(quick_cfg, tmp_path):
    out = tmp_path / "out"
    assert main(["revival", "--config", quick_cfg, "--out", str(out),
                 "--snapshots", "2"]) == 0
    _, columns, rows = _read_csv(out / "revival_snapshots.csv")
    assert columns == ["t_s", "alpha_rad", "density_per_rad"]
    assert len(rows) == 2 * 256
    # each snapshot integrates to one
    by_time = {}
    for t_s, _, dens in rows:
        by_time.setdefault(t_s, []).append(float(dens))
    for dens in by_time.values():
        total = sum(dens) * 2.0 * math.pi / len(dens)
        assert total == pytest.approx(1.0, abs=1e-9)


def test_outputs_are_byte_identical_across_runs(quick_cfg, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["revival", "--config", quick_cfg,
                     "--out", str(out)]) == 0
        assert main(["sense", "--config", quick_cfg,
                     "--out", str(out)]) == 0
    for name in ("revival.csv", "sense.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_sweep_phase_variants(quick_cfg, tmp_path):
    out = tmp_path / "out"
    assert main(["sweep-phase", "--config", quick_cfg,
                 "--out", str(out)]) == 0
    for variant in ("ideal", "noninteracting"):
        _, columns, rows = _read_csv(out / ("sweep_phase_%s.csv" % variant))
        assert columns == ["phi_rad", "imbalance"]
        assert len(rows) == 5
        phis = [float(r[0]) for r in rows]
        assert phis == sorted(phis)
    # the textbook-ideal variant lies on the -cos(phi) law
    _, _, rows = _read_csv(out / "sweep_phase_ideal.csv")
    for phi, imbalance in ((float(r[0]), float(r[1])) for r in rows):
        assert imbalance == pytest.approx(-math.cos(phi), abs=1e-6)


def test_sweep_variants_without_coupling_use_the_linear_solver():
    cfg = rs.from_text(QUICK.replace("solver = linear", "solver = splitstep")
                       + "imprint_duration_ms = 0.1\n")
    base = rs.build_protocol(cfg)
    instant = dataclasses.replace(
        base, imprint=dataclasses.replace(base.imprint, duration=0.0))
    for name in ("noninteracting", "ideal"):
        pulsed = _variant_spec(base, name)
        assert pulsed.solver == "linear"
        assert pulsed.imprint.duration == pytest.approx(1e-4)
        assert pulsed.interaction.scattering_length == 0.0
        assert _variant_spec(instant, name).solver == "linear"
    assert _variant_spec(base, "ideal").imprint.profile == "uniform"
    assert _variant_spec(base, "interacting") is base


def test_spectrum_table(quick_cfg, tmp_path):
    out = tmp_path / "out"
    assert main(["spectrum", "--config", quick_cfg, "--out", str(out)]) == 0
    _, columns, rows = _read_csv(out / "spectrum.csv")
    assert columns[:2] == ["ell", "e_ideal_j"]
    assert len(columns) == 11
    assert len(rows) == 2 * 64 + 1
    cfg = rs.from_file(quick_cfg)
    trap = rs.build_trap(cfg)
    scale = rs.HBAR ** 2 / (2.0 * trap.mass * trap.radius ** 2)
    for row in rows[::16]:
        ell = float(row[0])
        assert float(row[1]) == pytest.approx(scale * ell ** 2, rel=1e-10,
                                              abs=1e-40)


def test_sense_report(quick_cfg, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["sense", "--config", quick_cfg, "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "inputs:" in printed
    assert "charged-magnetic" in printed
    _, columns, rows = _read_csv(out / "sense.csv")
    assert columns == ["name", "value", "unit"]
    values = {name: float(value) for name, value, _ in rows}
    assert values["charged-magnetic_rotation_per_revival"] == pytest.approx(
        1.661453262640e-02, rel=1e-9)
    assert values["min_detectable_field"] == pytest.approx(
        5.148174646589e-07, rel=1e-9)
    assert values["peak_density"] == pytest.approx(9.880523536652e21,
                                                   rel=1e-9)
    assert values["min_detectable_scattering_length_a0"] == pytest.approx(
        0.1792848022995, rel=1e-9)
    assert values["gravitational_phase"] == pytest.approx(1.109317617230e-03,
                                                          rel=1e-9)


def test_timing_report(quick_cfg, tmp_path):
    out = tmp_path / "out"
    assert main(["timing", "--config", quick_cfg, "--out", str(out)]) == 0
    _, columns, rows = _read_csv(out / "timing.csv")
    assert columns == ["offset_s", "fidelity", "imbalance"]
    assert len(rows) == 3
    fidelities = [float(r[1]) for r in rows]
    assert fidelities == sorted(fidelities, reverse=True)


def test_missing_required_key_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.cfg"
    path.write_text("radius_um = 5.9\n")
    assert main(["revival", "--config", str(path),
                 "--out", str(tmp_path)]) == 2
    assert "mass_u" in capsys.readouterr().err


def test_unknown_key_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.cfg"
    path.write_text(QUICK + "mystery_knob = 3\n")
    assert main(["revival", "--config", str(path),
                 "--out", str(tmp_path)]) == 2
    assert "mystery_knob" in capsys.readouterr().err


def test_invalid_flag_values_exit_2(quick_cfg, tmp_path, capsys):
    assert main(["revival", "--config", quick_cfg, "--out", str(tmp_path),
                 "--snapshots", "-1"]) == 2
    # only the revival run stores snapshots
    with pytest.raises(SystemExit) as info:
        main(["timing", "--config", quick_cfg, "--out", str(tmp_path),
              "--snapshots", "3"])
    assert info.value.code == 2
    capsys.readouterr()


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["defragment"])
    assert info.value.code == 2
    capsys.readouterr()


def test_runtime_failure_exits_1(tmp_path, capsys):
    # a splitstep run whose step is far too large for the coupling strength
    path = tmp_path / "coarse.cfg"
    path.write_text(
        "mass_u = 38.96370668\nradius_um = 5.9\nomega_perp_krad_s = 6.4\n"
        "scattering_length_a0 = 1.0\natom_number = 20000\n"
        "solver = splitstep\ncutoff = 64\ngrid_n = 256\n"
        "dt_rev_factor = 5e-2\nrevival_time_ms = 135.8\n")
    assert main(["revival", "--config", str(path),
                 "--out", str(tmp_path)]) == 1
    assert "step" in capsys.readouterr().err


def test_unwritable_output_directory_exits_1(quick_cfg, tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("occupied")
    assert main(["sense", "--config", quick_cfg,
                 "--out", str(blocker / "sub")]) == 1
    capsys.readouterr()
