"""Flat key=value scenario configuration: parsing, hashing, building."""
import dataclasses
import math

import pytest

import ringsim as rs


MINIMAL = (
    "mass_u = 38.96370668\n"
    "radius_um = 5.9\n"
    "omega_perp_krad_s = 6.4\n"
    "scattering_length_a0 = 0.0\n"
    "atom_number = 20000\n"
    "solver = linear\n"
    "cutoff = 64\n"
    "grid_n = 256\n"
)


def _minimal_text(**overrides) -> str:
    pairs = {}
    for line in MINIMAL.strip().splitlines():
        key, _, value = line.partition("=")
        pairs[key.strip()] = value.strip()
    pairs.update({k: v for k, v in overrides.items()})
    return "".join("%s = %s\n" % kv for kv in pairs.items())


def test_defaults_describe_the_reference_scenario():
    cfg = rs.from_defaults()
    assert cfg.mass_u == rs.K39_MASS_U
    assert cfg.radius_um == 5.9
    assert cfg.omega_perp_rad_s == pytest.approx(6.4e3, rel=1e-12)
    assert cfg.atom_number == 2e4
    assert cfg.solver == "splitstep"
    assert cfg.imprint_phase_rad == pytest.approx(math.pi / 3, rel=1e-12)


def test_canonical_text_round_trips():
    cfg = rs.from_defaults()
    text = cfg.canonical_text()
    assert rs.from_text(text) == cfg
    # canonical form is sorted and stable
    keys = [line.split(" = ")[0] for line in text.strip().splitlines()]
    assert keys == sorted(keys)
    assert cfg.canonical_text() == text


def test_non_default_config_round_trips():
    # one key of every kind the annotations name
    cfg = rs.from_text(_minimal_text(
        radius_um="6.25", revival_time_ms="135.5", n_records="17",
        correct_tilt="true", readout_weight="uniform",
        timing_offsets_us="-20, 0, 75.5",
        sweep_variants="interacting, ideal"))
    assert (cfg.radius_um, cfg.revival_time_ms, cfg.n_records) == \
        (6.25, 135.5, 17)
    assert cfg.correct_tilt is True and cfg.readout_weight == "uniform"
    assert cfg.timing_offsets_us == (-20.0, 0.0, 75.5)
    assert cfg.sweep_variants == ("interacting", "ideal")
    assert cfg.omega_perp_khz is None
    again = rs.from_text(cfg.canonical_text())
    assert again == cfg
    assert again.canonical_text() == cfg.canonical_text()


def test_hash_tracks_content():
    cfg = rs.from_defaults()
    digest = cfg.sha256()
    assert len(digest) == 64 and int(digest, 16) >= 0
    assert rs.from_defaults().sha256() == digest
    changed = dataclasses.replace(cfg, atom_number=1e4)
    assert changed.sha256() != digest


def test_minimal_text_parses_with_defaults_for_the_rest():
    cfg = rs.from_text(_minimal_text())
    assert cfg.cutoff == 64
    assert cfg.grid_n == 256
    assert cfg.solver == "linear"
    assert cfg.n_records == 200            # untouched default
    assert cfg.scattering_length_a0 == 0.0


def test_comments_and_blank_lines_are_ignored():
    text = "# scenario file\n\n" + _minimal_text() + "\n# trailing note\n"
    assert rs.from_text(text) == rs.from_text(_minimal_text())


def test_frequency_can_be_given_in_khz():
    cfg = rs.from_text(_minimal_text(omega_perp_krad_s="auto",
                                     omega_perp_khz="1.0"))
    assert cfg.omega_perp_rad_s == pytest.approx(2000.0 * math.pi, rel=1e-12)


def test_error_messages_name_the_key():
    with pytest.raises(rs.ConfigError, match="mass_u"):
        rs.from_text("radius_um = 5.9\n")
    with pytest.raises(rs.ConfigError, match="bogus_key"):
        rs.from_text(_minimal_text(bogus_key="1"))
    with pytest.raises(rs.ConfigError, match="mass_u"):
        rs.from_text(_minimal_text(mass_u="banana"))
    with pytest.raises(rs.ConfigError, match="cutoff"):
        rs.from_text(_minimal_text(cutoff="2.5"))


def test_duplicate_keys_rejected():
    with pytest.raises(rs.ConfigError, match="duplicate"):
        rs.from_text(_minimal_text() + "mass_u = 40\n")


def test_frequency_must_be_given_exactly_once():
    with pytest.raises(rs.ConfigError, match="omega_perp"):
        rs.from_text(_minimal_text(omega_perp_khz="1.0"))
    with pytest.raises(rs.ConfigError, match="omega_perp"):
        rs.from_text(_minimal_text(omega_perp_krad_s="auto"))


def test_malformed_lines_carry_line_numbers():
    with pytest.raises(rs.ConfigError, match="line 1"):
        rs.from_text("just some words\n")


def test_solver_and_profile_memberships():
    with pytest.raises(rs.ConfigError):
        rs.from_text(_minimal_text(solver="exact"))
    with pytest.raises(rs.ConfigError):
        rs.from_text(_minimal_text(imprint_profile="boxcar"))
    with pytest.raises(rs.ConfigError):
        rs.from_text(_minimal_text(sweep_variants="ideal,bogus"))
    with pytest.raises(rs.ConfigError):
        rs.from_text(_minimal_text(sweep_variants="ideal,ideal"))


def test_from_file_reports_os_errors(tmp_path):
    with pytest.raises(rs.ConfigError):
        rs.from_file(tmp_path / "missing.cfg")
    path = tmp_path / "ok.cfg"
    path.write_text(_minimal_text())
    assert rs.from_file(path) == rs.from_text(_minimal_text())


def test_build_trap_maps_units():
    cfg = rs.from_text(_minimal_text(tilt_v0="0.05"))
    trap = rs.build_trap(cfg)
    assert trap.mass == pytest.approx(38.96370668 * rs.ATOMIC_MASS_UNIT,
                                      rel=1e-12)
    assert trap.radius == pytest.approx(5.9e-6, rel=1e-12)
    assert trap.omega_perp == pytest.approx(6.4e3, rel=1e-12)
    # dimensionless tilt amplitude converts through the energy scale
    assert trap.tilt_amplitude == pytest.approx(
        0.05 * rs.HBAR ** 2 / (trap.mass * trap.radius ** 2), rel=1e-12)


def test_build_trap_gives_back_the_dimensionless_tilt():
    cfg = rs.from_text(_minimal_text(radius_um="6.5716",
                                     omega_perp_krad_s="5.5276",
                                     tilt_v0="0.0700"))
    tilt = rs.build_trap(cfg).tilt_internal
    assert abs(tilt - 0.07) <= math.ulp(0.07)


def test_build_protocol_carries_the_settings():
    cfg = rs.from_text(_minimal_text(imprint_phase_rad="0.7",
                                     flux_rotation_rad="0.3",
                                     n_records="5"))
    spec = rs.build_protocol(cfg, n_snapshots=2)
    assert spec.solver == "linear"
    assert spec.cutoff == 64
    assert spec.grid_n == 256
    assert spec.imprint.phase == 0.7
    assert spec.flux is not None
    assert spec.flux.angle_per_revival() == pytest.approx(0.3, rel=1e-12)
    assert spec.n_records == 5
    assert spec.n_snapshots == 2
    # the linear solver cannot carry a mean-field coupling
    bad = rs.from_text(_minimal_text(scattering_length_a0="1.0"))
    with pytest.raises(rs.ConfigError):
        rs.build_protocol(bad)


def test_build_protocol_interaction_mapping():
    cfg = rs.from_text(_minimal_text(solver="splitstep",
                                     scattering_length_a0="2.0"))
    spec = rs.build_protocol(cfg)
    assert spec.interaction is not None
    assert spec.interaction.scattering_length == pytest.approx(
        2.0 * rs.BOHR_RADIUS, rel=1e-12)
    assert spec.interaction.atom_number == 20000.0
