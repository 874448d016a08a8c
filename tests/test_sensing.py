"""Sensing figures of merit: flux scenarios and phase-shift channels."""
import math

import numpy as np
import pytest

import ringsim as rs


RADIUS = 5.9e-6


def test_charged_particle_flux_action(trap):
    scenario = rs.GaugeScenario.charged(rs.ELEMENTARY_CHARGE, 1e-7)
    action = rs.flux_action(scenario, trap)
    assert action == pytest.approx(
        rs.ELEMENTARY_CHARGE * 1e-7 * math.pi * RADIUS ** 2, rel=1e-12)
    rotation = rs.rotation_per_revival(scenario, trap)
    assert rotation == pytest.approx(action / rs.HBAR, rel=1e-12)
    assert rotation == pytest.approx(1.661453262640e-02, rel=1e-11)


def test_aharonov_casher_flux_action(trap):
    scenario = rs.GaugeScenario.aharonov_casher(rs.BOHR_MAGNETON, 1e6)
    action = rs.flux_action(scenario, trap)
    assert action == pytest.approx(
        2.0 * math.pi * RADIUS * 1e6 * rs.BOHR_MAGNETON
        / rs.SPEED_OF_LIGHT ** 2, rel=1e-12)
    zero = rs.GaugeScenario.aharonov_casher(rs.BOHR_MAGNETON, 0.0)
    assert rs.flux_action(zero, trap) == 0.0


def test_dipole_in_field_flux_action(trap):
    scenario = rs.GaugeScenario.dipole_in_magnetic_field(rs.DEBYE, 1e-7)
    assert rs.flux_action(scenario, trap) == pytest.approx(
        2.0 * math.pi * RADIUS * rs.DEBYE * 1e-7, rel=1e-12)


def test_rotating_frame_flux_action(trap, revival_s):
    scenario = rs.GaugeScenario.rotating_frame(0.1)
    assert rs.flux_action(scenario, trap) == pytest.approx(
        2.0 * math.pi * trap.mass * RADIUS ** 2 * 0.1, rel=1e-12)
    # the displacement after one period is just Omega * T
    assert rs.rotation_per_revival(scenario, trap) == pytest.approx(
        0.1 * revival_s, rel=1e-12)


def test_flux_actions_are_linear_in_their_field():
    trap = rs.TrapSpec(mass=rs.K39_MASS_KG, radius=RADIUS, omega_perp=6.4e3)

    def builders():
        yield lambda x: rs.GaugeScenario.charged(rs.ELEMENTARY_CHARGE, x)
        yield lambda x: rs.GaugeScenario.charged(x, 1e-7)
        yield lambda x: rs.GaugeScenario.aharonov_casher(rs.BOHR_MAGNETON, x)
        yield lambda x: rs.GaugeScenario.dipole_in_magnetic_field(rs.DEBYE, x)
        yield lambda x: rs.GaugeScenario.rotating_frame(x)

    for build in builders():
        base = None
        for scale in (1.0, 10.0, 100.0):
            value = rs.flux_action(build(scale * 1e-7), trap) / scale
            if base is None:
                base = value
            assert value == pytest.approx(base, rel=1e-12)


def test_scenario_validation():
    with pytest.raises(rs.InvalidParameterError, match="kind must be one of"):
        rs.GaugeScenario("warp-drive", 1.0)
    with pytest.raises(rs.InvalidParameterError, match="finite strength"):
        rs.GaugeScenario.charged(math.nan, 1.0)
    with pytest.raises(rs.InvalidParameterError, match="finite strength"):
        rs.GaugeScenario.rotating_frame(math.inf)


def test_flux_spec_bridge(trap):
    scenario = rs.GaugeScenario.charged(rs.ELEMENTARY_CHARGE, 1e-7)
    flux = rs.to_flux_spec(scenario, trap, turn_on=2e-3)
    assert isinstance(flux, rs.FluxSpec)
    assert flux.turn_on == 2e-3
    assert flux.angle_per_revival() == pytest.approx(
        rs.rotation_per_revival(scenario, trap), rel=1e-12)


def test_flux_moves_a_revived_packet_by_the_predicted_angle(trap, revival_s):
    # cross-module consistency: the kinematic prediction of the sensing
    # formulas must equal what the propagator actually does
    scenario = rs.GaugeScenario.rotating_frame(5.0)
    predicted = rs.rotation_per_revival(scenario, trap)
    model = rs.DispersionModel(trap, 64)
    packet = rs.gaussian_packet(0.0, 0.2, 64)
    moved = rs.evolve_linear(packet, revival_s, model,
                             flux=rs.to_flux_spec(scenario, trap))
    displacement = (rs.circular_centroid(moved) - math.pi) % (2.0 * math.pi)
    assert displacement == pytest.approx(predicted % (2.0 * math.pi),
                                         abs=1e-8)


def test_min_detectable_field(trap):
    resolution = trap.sigma_u / trap.radius
    value = rs.min_detectable_field(resolution, rs.ELEMENTARY_CHARGE, trap)
    assert value == pytest.approx(5.148174646589e-07, rel=1e-11)
    assert value == pytest.approx(
        rs.HBAR * resolution / (rs.ELEMENTARY_CHARGE * math.pi * RADIUS ** 2),
        rel=1e-12)
    # linear in the resolution, quadratic in the ring size
    tenth = rs.min_detectable_field(resolution / 10.0,
                                    rs.ELEMENTARY_CHARGE, trap)
    assert tenth == pytest.approx(value / 10.0, rel=1e-12)
    big = rs.TrapSpec(mass=trap.mass, radius=2.0 * RADIUS,
                      omega_perp=trap.omega_perp)
    assert rs.min_detectable_field(resolution, rs.ELEMENTARY_CHARGE, big) == \
        pytest.approx(value / 4.0, rel=1e-12)


def test_min_detectable_field_guards(trap):
    with pytest.raises(rs.NotApplicableError):
        rs.min_detectable_field(0.1, 0.0, trap)
    with pytest.raises(rs.InvalidParameterError):
        rs.min_detectable_field(0.0, rs.ELEMENTARY_CHARGE, trap)


def test_gravitational_phase(trap):
    dwell = 1.0 / trap.omega_perp
    value = rs.gravitational_phase(1e-4, trap)
    assert value == pytest.approx(1.109317617230e-03, rel=1e-11)
    assert value == pytest.approx(
        2.0 * trap.mass * rs.STANDARD_GRAVITY * RADIUS * math.sin(1e-4)
        * dwell / rs.HBAR, rel=1e-12)
    # the default dwell time is one transverse period
    assert rs.gravitational_phase(1e-4, trap, dwell_time=dwell) == value
    assert rs.gravitational_phase(0.0, trap) == 0.0
    # linear in the gravitational acceleration
    for scale in (10.0, 100.0):
        assert rs.gravitational_phase(1e-4, trap, gravity=scale * 9.80665) \
            == pytest.approx(scale * value, rel=1e-12)
    with pytest.raises(rs.InvalidParameterError):
        rs.gravitational_phase(2.0, trap)


def test_cloud_densities(trap):
    peak = rs.peak_density(trap, 2e4)
    assert peak == pytest.approx(9.880523536652e21, rel=1e-11)
    assert peak == pytest.approx(
        2e4 / ((2.0 * math.pi) ** 1.5 * trap.sigma_u ** 3), rel=1e-12)
    assert rs.mean_density(trap, 2e4) == pytest.approx(
        peak / (2.0 * math.sqrt(2.0)), rel=1e-12)
    with pytest.raises(rs.InvalidParameterError):
        rs.peak_density(trap, -1.0)


def test_scattering_phase(trap):
    peak = rs.peak_density(trap, 2e4)
    value = rs.scattering_phase(rs.BOHR_RADIUS, peak, trap)
    assert value == pytest.approx(1.673315284688, rel=1e-11)
    dwell = 1.0 / trap.omega_perp
    assert value == pytest.approx(
        4.0 * math.pi * rs.HBAR * rs.BOHR_RADIUS * peak * dwell / trap.mass,
        rel=1e-12)
    assert rs.scattering_phase(0.0, peak, trap) == 0.0
    # linear in the scattering length
    assert rs.scattering_phase(3.0 * rs.BOHR_RADIUS, peak, trap) == \
        pytest.approx(3.0 * value, rel=1e-12)
    with pytest.raises(rs.InvalidParameterError):
        rs.scattering_phase(rs.BOHR_RADIUS, -peak, trap)


def test_min_detectable_scattering_length(trap):
    peak = rs.peak_density(trap, 2e4)
    value = rs.min_detectable_scattering_length(0.3, peak, trap)
    assert value / rs.BOHR_RADIUS == pytest.approx(0.1792848022995,
                                                   rel=1e-11)
    # consistency: that length produces exactly the resolution phase
    assert rs.scattering_phase(value, peak, trap) == pytest.approx(0.3,
                                                                   rel=1e-12)
    with pytest.raises(rs.InvalidParameterError):
        rs.min_detectable_scattering_length(-0.1, peak, trap)


@pytest.mark.parametrize("call, name", [
    (lambda trap: rs.gravitational_phase(math.nan, trap), "tilt_angle"),
    (lambda trap: rs.gravitational_phase(1e-4, trap, dwell_time=math.nan),
     "dwell_time"),
    (lambda trap: rs.gravitational_phase(1e-4, trap, dwell_time=math.inf),
     "dwell_time"),
    (lambda trap: rs.gravitational_phase(1e-4, trap, gravity=math.nan),
     "gravity"),
    (lambda trap: rs.scattering_phase(math.nan, 1e20, trap),
     "scattering_length"),
    (lambda trap: rs.scattering_phase(rs.BOHR_RADIUS, math.nan, trap),
     "density"),
    (lambda trap: rs.scattering_phase(rs.BOHR_RADIUS, math.inf, trap),
     "density"),
    (lambda trap: rs.scattering_phase(rs.BOHR_RADIUS, 1e20, trap,
                                      dwell_time=math.nan), "dwell_time"),
    (lambda trap: rs.min_detectable_field(math.nan, rs.ELEMENTARY_CHARGE,
                                          trap), "resolution"),
    (lambda trap: rs.min_detectable_field(0.1, math.nan, trap), "charge"),
    (lambda trap: rs.min_detectable_scattering_length(math.nan, 1e20, trap),
     "phase_resolution"),
    (lambda trap: rs.peak_density(trap, math.nan), "atom_number"),
    (lambda trap: rs.mean_density(trap, math.inf), "atom_number"),
], ids=["nan-tilt", "nan-dwell", "inf-dwell", "nan-gravity",
        "nan-scattering-length", "nan-density", "inf-density",
        "nan-scattering-dwell", "nan-resolution", "nan-charge",
        "nan-phase-resolution", "nan-atom-number", "inf-atom-number"])
def test_non_finite_inputs_fail_naming_their_argument(trap, call, name):
    with pytest.raises(rs.InvalidParameterError, match=name):
        call(trap)
