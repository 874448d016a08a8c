"""Dispersion closed forms against their independent numerical oracles."""
import math
import re

import numpy as np
import pytest

import ringsim as rs
from conftest import OMEGA_INTERNAL
from oracles import ellipse_curve_shift, tilt_ladder_shift


def _tilted(trap, v0_internal):
    return rs.TrapSpec(mass=trap.mass, radius=trap.radius,
                       omega_perp=trap.omega_perp,
                       tilt_amplitude=v0_internal * trap.energy_unit)


def test_ideal_dispersion_is_quadratic(trap):
    model = rs.DispersionModel(trap, 16)
    expected = 0.5 * model.ells.astype(float) ** 2
    np.testing.assert_allclose(model.energies, expected, rtol=0, atol=0)
    scale = rs.HBAR ** 2 / (2.0 * trap.mass * trap.radius ** 2)
    np.testing.assert_allclose(model.energies_si,
                               scale * model.ells.astype(float) ** 2,
                               rtol=1e-14)


def test_tilt_closed_form_values(trap):
    t2 = _tilted(trap, 0.05)
    shifts = rs.tilt_shift(t2, np.array([0, 1, 3])) / t2.energy_unit
    np.testing.assert_allclose(
        shifts,
        [0.25 * 0.05 ** 2 / -0.25,        # ell = 0: exactly -V0^2
         0.25 * 0.05 ** 2 / 0.75,
         0.25 * 0.05 ** 2 / 8.75],
        rtol=1e-13)


def _closed_tilt(trap, ell):
    return float(rs.tilt_shift(trap, ell)) / trap.energy_unit


def test_tilt_oracle_matches_closed_form(trap):
    t2 = _tilted(trap, 0.01)
    for ell in (0, 1, 2, 3):
        oracle = tilt_ladder_shift(0.01, 0.0, ell)
        assert _closed_tilt(t2, ell) == pytest.approx(oracle, rel=2e-2)


def test_tilt_oracle_residual_shrinks_quadratically(trap):
    # the closed form is second order; its deviation from the dense
    # diagonalization must fall ~4x each time the amplitude is halved
    for ell in (0, 1, 2):
        devs = []
        for v0 in (0.04, 0.02, 0.01):
            devs.append(abs(_closed_tilt(_tilted(trap, v0), ell)
                            / tilt_ladder_shift(v0, 0.0, ell) - 1.0))
        assert 2.5 < devs[0] / devs[1] < 6.0
        assert 2.5 < devs[1] / devs[2] < 6.0


def test_tilt_warns_outside_trust_region(trap):
    t2 = _tilted(trap, 0.2)
    with pytest.warns(rs.PerturbationValidityWarning) as caught:
        rs.tilt_shift(t2, 1)
    assert [w.filename for w in caught] == [__file__]


@pytest.mark.parametrize("v0", [0.0, 0.2], ids=["zero", "beyond-limit"])
def test_a_tilt_corrected_model_warns_where_its_formula_fails(trap, v0):
    # the tilt term is second order in v0, trusted only below
    # TILT_PERTURBATIVE_LIMIT and empty at 0; a protocol run builds its
    # model through the same constructor, so it warns the same way
    assert v0 == 0.0 or v0 >= rs.spectrum.TILT_PERTURBATIVE_LIMIT
    t2 = _tilted(trap, v0)
    with pytest.warns(rs.PerturbationValidityWarning) as caught:
        rs.DispersionModel(t2, 16, includes_tilt=True)
    assert [w.filename for w in caught] == [__file__]
    spec = rs.ProtocolSpec(trap=t2, cutoff=16, grid_n=64, include_tilt=True)
    with pytest.warns(rs.PerturbationValidityWarning) as caught:
        spec.dispersion_model()
    assert [w.filename for w in caught] == [__file__]


def test_centrifugal_displacement_formula(trap):
    ells = np.array([1, 10, 25])
    direct = rs.HBAR ** 2 * (ells.astype(float) ** 2 - 0.25) / (
        trap.mass ** 2 * trap.omega_perp ** 2 * trap.radius ** 3)
    np.testing.assert_allclose(rs.centrifugal_displacement(trap, ells),
                               direct, rtol=1e-12)
    assert float(rs.centrifugal_displacement(trap, 25)) == pytest.approx(
        1.972985429435e-07, rel=1e-11)


def test_centrifugal_completing_the_square(trap):
    # E(ell, 0) must equal the zero-point energy minus the harmonic energy
    # stored in the displaced minimum, identically in ell
    ells = np.arange(-40, 41)
    lhs = rs.centrifugal_shift(trap, ells)
    rhs = (0.5 * rs.HBAR * trap.omega_perp
           - 0.5 * trap.mass * trap.omega_perp ** 2
           * rs.centrifugal_displacement(trap, ells) ** 2)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


def test_centrifugal_quartic_magnitude(trap):
    # quartic correction at ell = 25, fully independent arithmetic
    ell = 25.0
    direct = rs.HBAR ** 4 * (ell ** 2 - 0.25) ** 2 / (
        2.0 * trap.mass ** 3 * trap.omega_perp ** 2 * trap.radius ** 6)
    via_package = 0.5 * rs.HBAR * trap.omega_perp - float(
        rs.centrifugal_shift(trap, 25))
    assert via_package == pytest.approx(direct, rel=1e-12)
    ideal = rs.HBAR ** 2 * ell ** 2 / (2.0 * trap.mass * trap.radius ** 2)
    assert direct / ideal == pytest.approx(3.342705483496e-02, rel=1e-11)


def test_centrifugal_excited_band_and_validation(trap):
    gap = (rs.centrifugal_shift(trap, 7, k=1)
           - rs.centrifugal_shift(trap, 7, k=0))
    assert float(gap) == pytest.approx(rs.HBAR * trap.omega_perp, rel=1e-12)
    with pytest.raises(rs.InvalidParameterError):
        rs.centrifugal_shift(trap, 7, k=-1)


def test_ellipticity_closed_form_structure(trap):
    t2 = rs.TrapSpec(mass=trap.mass, radius=trap.radius,
                     omega_perp=trap.omega_perp, eccentricity=0.1)
    ells = np.array([0, 1, 5])
    u = rs.centrifugal_displacement(t2, ells) / t2.radius
    expected_internal = (0.1 ** 2 / (8.0 * math.pi)) * (1.0 + 3.0 * u) * (
        ells.astype(float) ** 2 - 0.25)
    np.testing.assert_allclose(
        rs.ellipticity_shift(t2, ells) / t2.energy_unit,
        expected_internal, rtol=1e-12)
    # quadratic in eccentricity
    t4 = rs.TrapSpec(mass=trap.mass, radius=trap.radius,
                     omega_perp=trap.omega_perp, eccentricity=0.2)
    np.testing.assert_allclose(rs.ellipticity_shift(t4, ells),
                               4.0 * rs.ellipticity_shift(t2, ells),
                               rtol=1e-12)


def test_curve_route_is_2pi_above_the_closed_form(trap):
    # the thin-ring curve Hamiltonian on an ellipse with R the semi-major
    # axis has no radial direction, so only the closed form's (1 + 3u) is
    # divided out; the eps^6 residue of the curve's extrapolation at probes
    # 0.01 and 0.005 stays below 4e-9
    t2 = rs.TrapSpec(mass=trap.mass, radius=trap.radius,
                     omega_perp=trap.omega_perp, eccentricity=0.1)
    ells = np.array([0, 1, 2, 3, 5, 8, 13])
    curve = ellipse_curve_shift(ells, "semi-major", probe=0.01) * 0.1 ** 2
    u = rs.centrifugal_displacement(t2, ells) / t2.radius
    closed = rs.ellipticity_shift(t2, ells) / t2.energy_unit / (1.0 + 3.0 * u)
    np.testing.assert_allclose(curve / closed, 2.0 * math.pi, rtol=1e-8)


def test_every_correction_adds_its_closed_form_on_and_off_the_ladder(trap):
    # tilt, centrifugal and ellipticity on together: the model is the ideal
    # dispersion plus each closed form, on its ladder and at every harmonic
    # of a 256-point grid, which split-step runs read through internal_at
    t2 = rs.TrapSpec(mass=trap.mass, radius=trap.radius,
                     omega_perp=trap.omega_perp,
                     tilt_amplitude=0.05 * trap.energy_unit,
                     eccentricity=0.05)
    model = rs.DispersionModel(t2, 64, includes_tilt=True,
                               includes_centrifugal=True,
                               includes_ellipticity=True)
    scale = rs.HBAR ** 2 / (2.0 * t2.mass * t2.radius ** 2)

    def closed_forms(ells):
        return (scale * ells.astype(float) ** 2 + rs.tilt_shift(t2, ells)
                + rs.centrifugal_shift(t2, ells)
                + rs.ellipticity_shift(t2, ells))

    np.testing.assert_allclose(model.energies_si, closed_forms(model.ells),
                               rtol=1e-12, atol=0)
    harmonics = np.arange(-128, 128)
    np.testing.assert_allclose(model.internal_at(harmonics) * t2.energy_unit,
                               closed_forms(harmonics), rtol=1e-12, atol=0)


def test_dispersion_model_guards(trap):
    with pytest.raises(rs.InvalidParameterError):
        rs.DispersionModel(trap=trap, cutoff=0)


def test_fat_ring_warns():
    with pytest.warns(rs.PerturbationValidityWarning) as caught:
        rs.TrapSpec(mass=rs.K39_MASS_KG, radius=5.9e-7, omega_perp=6.4e3)
    assert [w.filename for w in caught] == [__file__]


def test_trap_validation():
    with pytest.raises(rs.InvalidParameterError):
        rs.TrapSpec(mass=0.0, radius=5.9e-6, omega_perp=6.4e3)
    with pytest.raises(rs.InvalidParameterError):
        rs.TrapSpec(mass=rs.K39_MASS_KG, radius=5.9e-6, omega_perp=6.4e3,
                    eccentricity=0.7)
    with pytest.raises(rs.InvalidParameterError):
        rs.TrapSpec(mass=rs.K39_MASS_KG, radius=5.9e-6, omega_perp=6.4e3,
                    tilt_amplitude=-1e-30)


def test_omega_internal_pinned(trap):
    assert trap.omega_internal == pytest.approx(OMEGA_INTERNAL, rel=1e-13)


# each bad input with the message it raises: (message, call)
_GUARDS = {
    "negative-omega-perp": ("omega_perp must be positive",
                            lambda trap: rs.TrapSpec(
                                mass=trap.mass, radius=trap.radius,
                                omega_perp=-1.0)),
    "dispersion-cutoff-bool": ("cutoff must be a positive integer",
                               lambda trap: rs.DispersionModel(trap, True)),
}


@pytest.mark.parametrize("case", sorted(_GUARDS))
def test_guards_refuse_a_bad_trap(trap, case):
    message, call = _GUARDS[case]
    with pytest.raises(rs.InvalidParameterError, match=re.escape(message)):
        call(trap)
