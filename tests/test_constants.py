"""Physical constants and the internal unit scales of a trap."""
import dataclasses
import math

import pytest

import ringsim as rs
from conftest import IDEAL_REVIVAL_S, OMEGA_INTERNAL, SIGMA_RATIO, SIGMA_U_M, TIME_UNIT_S


def test_codata_values_pinned():
    assert rs.HBAR == 1.054571817e-34
    assert rs.ATOMIC_MASS_UNIT == 1.66053906660e-27
    assert rs.BOHR_RADIUS == 5.29177210903e-11
    assert rs.ELEMENTARY_CHARGE == 1.602176634e-19
    assert rs.SPEED_OF_LIGHT == 299792458.0
    assert rs.BOHR_MAGNETON == 9.2740100783e-24
    assert rs.STANDARD_GRAVITY == 9.80665


def test_debye_is_definition():
    assert rs.DEBYE == pytest.approx(1e-21 / 299792458.0, rel=1e-15)


def test_potassium_mass():
    assert rs.K39_MASS_U == 38.96370668
    assert rs.K39_MASS_KG == pytest.approx(6.470075712168e-26, rel=1e-11)


def test_unit_system_scales(trap):
    assert trap.time_unit == pytest.approx(TIME_UNIT_S, rel=1e-15)
    assert trap.time_unit == pytest.approx(
        rs.K39_MASS_KG * 5.9e-6 ** 2 / rs.HBAR, rel=1e-15)
    assert trap.energy_unit == pytest.approx(rs.HBAR / trap.time_unit,
                                             rel=1e-15)
    assert trap.time_unit * trap.energy_unit == pytest.approx(rs.HBAR,
                                                              rel=1e-15)


def test_unit_round_trips(trap):
    # SI -> internal through the trap's derived quantities, back through
    # its scales
    for value in (1e-3, 0.05, 2.0):
        tilted = dataclasses.replace(
            trap, tilt_amplitude=value * trap.energy_unit)
        assert tilted.tilt_internal == pytest.approx(value, rel=1e-14)
    for value in (50.0, 136.7, 1e4):
        stiff = dataclasses.replace(trap, omega_perp=value / trap.time_unit)
        assert stiff.omega_internal == pytest.approx(value, rel=1e-14)


def test_invalid_unit_system_rejected(trap):
    with pytest.raises(rs.InvalidParameterError, match="mass"):
        dataclasses.replace(trap, mass=-1.0)
    with pytest.raises(rs.InvalidParameterError, match="radius"):
        dataclasses.replace(trap, radius=0.0)


def test_trap_derived_quantities(trap):
    assert rs.revival_time(trap) == pytest.approx(IDEAL_REVIVAL_S, rel=1e-15)
    assert rs.revival_time(trap) == pytest.approx(
        2.0 * math.pi * rs.K39_MASS_KG * 5.9e-6 ** 2 / rs.HBAR, rel=1e-15)
    assert trap.omega_internal == pytest.approx(OMEGA_INTERNAL, rel=1e-13)
    assert trap.sigma_u == pytest.approx(SIGMA_U_M, rel=1e-12)
    assert trap.sigma_u / trap.radius == pytest.approx(SIGMA_RATIO, rel=1e-12)
    assert trap.sigma_u == pytest.approx(
        math.sqrt(rs.HBAR / (rs.K39_MASS_KG * 6.4e3)), rel=1e-14)
