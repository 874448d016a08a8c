"""Command-line interface: subcommands, CSV outputs, exit codes."""
import dataclasses
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import ringsim as rs
from ringsim.cli import _variant_spec, _write_csv, main
from ringsim.config import _format_value

ROOT = pathlib.Path(__file__).resolve().parent.parent

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


def test_revival_reports_the_step_it_took(tmp_path, capsys):
    # `auto` (the default) resolves to the factor the run stepped with; an
    # explicit factor is reported as given
    for extra, expected in (("", rs.protocol.DT_FACTOR_CAP),
                            ("dt_rev_factor = 1e-5\n", 1e-5)):
        path = tmp_path / "step.cfg"
        path.write_text(QUICK + extra)
        out = tmp_path / "out"
        assert main(["revival", "--config", str(path),
                     "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "step dt_factor:         %.17g" % expected in printed
        header, _, _ = _read_csv(out / "revival.csv")
        assert "# dt_factor = %.17g" % expected in header
        assert "# config dt_rev_factor = %s" % (
            "%.17g" % expected if extra else "auto") in header


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


def test_float_rows_are_written_as_formatted_cell_by_cell(tmp_path):
    cells = [math.nan, math.inf, -math.inf, -0.0, 0.0, 3.0, -128.0, 5e-324,
             1e300, 0.1, -2.5e-17, 1.0 / 3.0]
    rows = np.array(cells * 2).reshape(-1, 4)
    path = tmp_path / "rows.csv"
    _write_csv(path, ["# head"], ["a", "b", "c", "d"], rows)
    expected = "# head\na,b,c,d\n" + "".join(
        ",".join(_format_value(v) for v in row) + "\n" for row in rows)
    assert path.read_bytes() == expected.encode()
    assert ",-0\n" in expected and ",3," in expected


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


def test_warnings_print_one_line_without_a_source_line(tmp_path):
    path = tmp_path / "tilt.cfg"
    path.write_text(QUICK + "tilt_v0 = 0.5\ncorrect_tilt = true\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "ringsim", "spectrum", "--config", str(path),
         "--out", str(tmp_path / "out")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stderr == (
        "ringsim: warning: PerturbationValidityWarning: tilt amplitude 0.5 "
        "(internal) exceeds the perturbative trust region (< 0.10)\n")
    for name in ("__main__.py", "sys.exit"):
        assert name not in done.stdout + done.stderr


@pytest.mark.parametrize("flags", [[], ["-W", "always"]],
                         ids=["default-filter", "always"])
def test_a_trap_warning_prints_once(tmp_path, flags):
    # the CLI builds each trap once, so even `-W always` shows it once
    path = tmp_path / "wide.cfg"
    path.write_text(QUICK.replace("radius_um = 5.9", "radius_um = 1.0"))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, *flags, "-m", "ringsim", "spectrum", "--config",
         str(path), "--out", str(tmp_path / "out")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stderr == (
        "ringsim: warning: PerturbationValidityWarning: sigma_u/R = 0.505 "
        "exceeds the transverse expansion trust region (< 0.20)\n")


ATTRACTIVE_SPLITSTEP = (
    QUICK.replace("scattering_length_a0 = 0.0", "scattering_length_a0 = -0.2")
    .replace("atom_number = 20000", "atom_number = 2000")
    .replace("solver = linear", "solver = splitstep")
    .replace("n_records = 9", "n_records = 5")
    .replace("sweep_phi_count = 5", "sweep_phi_count = 3")
    .replace("sweep_variants = ideal,noninteracting",
             "sweep_variants = ideal,noninteracting,interacting")
    .replace("timing_offsets_us = 0,50,150", "timing_offsets_us = 0,50"))


@pytest.mark.parametrize("command", ["revival", "sweep-phase", "timing",
                                     "spectrum", "sense"])
def test_each_subcommand_builds_its_interaction_once(tmp_path, command):
    # the headers, the sense table and the run share one InteractionSpec,
    # so even `-W always` shows its attractive-coupling warning once
    path = tmp_path / "attractive.cfg"
    path.write_text(ATTRACTIVE_SPLITSTEP)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-W", "always", "-m", "ringsim", command,
         "--config", str(path), "--out", str(tmp_path / "out")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stderr.count("AttractiveCouplingWarning") == 1, done.stderr


THREE_VARIANTS = QUICK.replace("sweep_variants = ideal,noninteracting",
                               "sweep_variants = ideal,noninteracting,"
                               "interacting")


@pytest.mark.parametrize("text, sweeps", [
    (THREE_VARIANTS, 2),
    (ATTRACTIVE_SPLITSTEP.replace("scattering_length_a0 = -0.2",
                                  "scattering_length_a0 = 0.2"), 3)],
                         ids=["coupling-free", "interacting"])
def test_sweep_phase_sweeps_each_distinct_variant_once(tmp_path, monkeypatch,
                                                       text, sweeps):
    # without a coupling the interacting and noninteracting variants are
    # equal specs, which share one sweep and write equal rows; the
    # split-step sweep of the interacting config is stubbed out
    specs = []

    def counted(spec, phases):
        specs.append(spec)
        if spec.solver == "splitstep":
            return np.zeros((len(phases), 2))
        return rs.sweep_phase(spec, phases)

    monkeypatch.setattr(rs.cli, "sweep_phase", counted)
    path = tmp_path / "sweep.cfg"
    path.write_text(text)
    out = tmp_path / "out"
    assert main(["sweep-phase", "--config", str(path), "--out", str(out)]) == 0
    assert len(specs) == len(set(specs)) == sweeps
    rows = {name: _read_csv(out / ("sweep_phase_%s.csv" % name))[2]
            for name in ("ideal", "noninteracting", "interacting")}
    assert (rows["interacting"] == rows["noninteracting"]) == (sweeps == 2)


@pytest.mark.parametrize("command", ["revival", "timing", "sweep-phase"])
def test_each_run_builds_its_dispersion_once(tmp_path, command):
    # the walk steps with the dispersion its revival search built, so even
    # `-W always` shows the model's zero-tilt warning once per subcommand
    # (the ideal variant switches the tilt term off)
    path = tmp_path / "flat.cfg"
    path.write_text(THREE_VARIANTS + "tilt_v0 = 0\ncorrect_tilt = true\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-W", "always", "-m", "ringsim", command,
         "--config", str(path), "--out", str(tmp_path / "out")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stderr.count(
        "tilt correction enabled with zero amplitude") == 1, done.stderr


@pytest.mark.parametrize("command, name", [("spectrum", "spectrum.csv"),
                                           ("revival", "revival.csv")])
def test_no_atoms_read_a_zero_coupling_not_minus_zero(tmp_path, command,
                                                      name):
    path = tmp_path / "empty.cfg"
    path.write_text(QUICK.replace("scattering_length_a0 = 0.0",
                                  "scattering_length_a0 = -1.0")
                    .replace("atom_number = 20000", "atom_number = 0"))
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 0
    header, _, _ = _read_csv(out / name)
    assert "# internal coupling = 0" in header


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


def test_the_reused_parser_keeps_no_state_between_calls(quick_cfg, tmp_path,
                                                        capsys):
    first, second, third = (tmp_path / name for name in ("a", "b", "c"))
    assert main(["revival", "--config", quick_cfg, "--out", str(first),
                 "--snapshots", "3"]) == 0
    assert main(["revival", "--config", quick_cfg, "--out", str(second)]) == 0
    assert (first / "revival_snapshots.csv").exists()
    assert not (second / "revival_snapshots.csv").exists()
    with pytest.raises(SystemExit) as info:
        main(["revival", "--config", quick_cfg, "--snapshots", "many"])
    assert info.value.code == 2
    assert main(["sense", "--config", quick_cfg, "--out", str(third)]) == 0
    assert (third / "sense.csv").exists()
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


@pytest.mark.parametrize("command, change, error", [
    ("sense", ("atom_number = 20000", "atom_number = -1"),
     "config error: key atom_number: "),
    ("spectrum", ("atom_number = 20000", "atom_number = -1"),
     "config error: key atom_number: "),
    ("spectrum", ("cutoff = 64", "cutoff = 0"), "config error: key cutoff: "),
    ("sense", ("", "sense_phase_resolution_rad = 0"),
     "config error: key sense_phase_resolution_rad: "),
    ("sense", ("", "sense_charge_e = 0"),
     "config error: sense_charge_e = 0: "),
    ("revival", ("", "packet_width = 0.02"), "config error:"),
    ("timing", ("timing_offsets_us = 0,50,150", "timing_offsets_us = -90000"),
     "config error:"),
    ("revival", ("", "imprint_time_ms = 500"), "config error:"),
], ids=["negative-atom-number", "negative-atom-number-spectrum",
        "zero-cutoff-spectrum", "zero-phase-resolution", "neutral-charge",
        "cutoff-too-small-for-the-packet", "pulse-before-release",
        "pulse-after-readout"])
def test_out_of_domain_config_values_exit_2(tmp_path, capsys, command,
                                            change, error):
    # a value the config parser accepts but the physics layer rejects is
    # still a configuration problem, named by its key where it has one
    old, new = change
    text = QUICK.replace(old, new) if old else QUICK + new + "\n"
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    assert main([command, "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    assert error in capsys.readouterr().err


@pytest.mark.parametrize("change", [
    "sense_resolution_rad = 0", "sense_phase_resolution_rad = -1",
    "sense_tilt_angle_rad = 2", "atom_number = 0", "atom_number = -1",
], ids=["resolution", "phase-resolution", "tilt-angle", "no-atoms",
        "negative-atoms"])
def test_sense_names_the_config_key_it_refuses(tmp_path, capsys, change):
    key = change.split()[0]
    lines = [line for line in QUICK.splitlines()
             if line.split()[0] != key] + [change]
    path = tmp_path / "bad.cfg"
    path.write_text("\n".join(lines) + "\n")
    assert main(["sense", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    assert "config error: key %s: " % key in capsys.readouterr().err
