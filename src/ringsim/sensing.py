"""Signal-to-phase conversions for ring interferometry.

Two distinct readout channels are quantified here:

* Gauge couplings (charge in a magnetic field, magnetic moment in an
  electric field, electric dipole in a magnetic field, frame rotation) all
  act as an effective flux through the ring.  A flux does not change the
  interference contrast; it rotates the revived packet by
  (flux action)/hbar per ideal revival period, so the signal is an angular
  displacement.
* Scalar potentials that differ between the two packet copies (gravity
  along a tilted ring plane, mean-field energy from a scattering-length
  change) accumulate a relative phase during the dwell time between split
  and recombination, so the signal is a fringe shift of the population
  imbalance.

Formulas are linear in their field or coupling parameter by construction;
`flux_action` output can be fed straight into a `propagator.FluxSpec`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import HBAR, SPEED_OF_LIGHT, STANDARD_GRAVITY
from .errors import InvalidParameterError, NotApplicableError
from .propagator import FluxSpec
from .spectrum import TrapSpec

# flux action per unit strength of each kind: the loop factor of its ring
_LOOP_FACTORS = {
    "charged-magnetic": lambda trap: math.pi * trap.radius ** 2,
    "aharonov-casher":
        lambda trap: math.tau * trap.radius / SPEED_OF_LIGHT ** 2,
    "electric-dipole-magnetic": lambda trap: math.tau * trap.radius,
    "rotating-frame": lambda trap: math.tau * trap.mass * trap.radius ** 2,
}

SCENARIO_KINDS = tuple(_LOOP_FACTORS)


@dataclass(frozen=True)
class GaugeScenario:
    """One physical realization of an effective gauge flux.

    `strength` is the product of the kind's parameters that the flux
    action is linear in:

    * "charged-magnetic": q B, a charge (C) in a uniform magnetic field (T)
      perpendicular to the ring plane;
    * "aharonov-casher": m0 E0, a magnetic moment (J/T) encircling a line
      charge whose radial electric field (V/m) is evaluated at the ring;
    * "electric-dipole-magnetic": p B, an electric dipole (C m) in a
      uniform transverse magnetic field (T), the dual of the previous case;
    * "rotating-frame": Omega, the rate (rad/s) at which the lab frame
      rotates about the trap center.
    """

    kind: str
    strength: float

    def __post_init__(self) -> None:
        if self.kind not in _LOOP_FACTORS:
            raise InvalidParameterError(
                "kind must be one of %s" % (SCENARIO_KINDS,))
        if not math.isfinite(self.strength):
            raise InvalidParameterError(
                "%s scenario needs a finite strength" % self.kind)

    @classmethod
    def charged(cls, charge: float, magnetic_field: float):
        return cls("charged-magnetic", charge * magnetic_field)

    @classmethod
    def aharonov_casher(cls, magnetic_moment: float, electric_field: float):
        return cls("aharonov-casher", magnetic_moment * electric_field)

    @classmethod
    def dipole_in_magnetic_field(cls, electric_dipole: float,
                                 magnetic_field: float):
        return cls("electric-dipole-magnetic",
                   electric_dipole * magnetic_field)

    @classmethod
    def rotating_frame(cls, rotation_rate: float):
        return cls("rotating-frame", rotation_rate)


def flux_action(scenario: GaugeScenario, trap: TrapSpec) -> float:
    """Flux action gamma * Phi (J s): the strength times the loop factor.

    charged-magnetic: q B pi R^2 (flux of a uniform field);
    aharonov-casher: 2 pi R E0 m0 / c^2;
    electric-dipole-magnetic: 2 pi R p B (same loop geometry, dual fields);
    rotating-frame: 2 pi m R^2 omega (circulation of the frame velocity).
    The revived packet rotates by flux_action/hbar per ideal revival.
    """
    return scenario.strength * _LOOP_FACTORS[scenario.kind](trap)


def rotation_per_revival(scenario: GaugeScenario, trap: TrapSpec) -> float:
    """Angular displacement (rad) of the revived packet per ideal period."""
    return flux_action(scenario, trap) / HBAR


def to_flux_spec(scenario: GaugeScenario, trap: TrapSpec,
                 turn_on: float = 0.0) -> FluxSpec:
    """FluxSpec carrying this scenario's action, ready for the propagator."""
    return FluxSpec(action=flux_action(scenario, trap), turn_on=turn_on)


def min_detectable_field(resolution: float, charge: float,
                         trap: TrapSpec) -> float:
    """Smallest magnetic field (T) a charged-particle ring can resolve.

    A field B rotates the revival by q B pi R^2 / hbar; requiring that
    rotation to exceed the angular `resolution` gives
    B_min = hbar * resolution / (|q| pi R^2).  Raises NotApplicableError for
    a neutral particle, whose revival does not couple to the field this way.
    """
    if not 0 < resolution < math.inf:
        raise InvalidParameterError("resolution must be positive and finite")
    if not math.isfinite(charge):
        raise InvalidParameterError("charge must be finite")
    if charge == 0:
        raise NotApplicableError(
            "a neutral particle acquires no magnetic flux phase; use one of "
            "the neutral-particle scenarios instead")
    return HBAR * resolution / (abs(charge) * math.pi * trap.radius ** 2)


def _dwell(trap: TrapSpec, dwell_time: float | None) -> float:
    """The dwell time (s), by default the dispersion timescale 1/omega_perp."""
    if dwell_time is None:
        return 1.0 / trap.omega_perp
    if not 0 < dwell_time < math.inf:
        raise InvalidParameterError("dwell_time must be positive and finite")
    return dwell_time


def gravitational_phase(tilt_angle: float, trap: TrapSpec,
                        dwell_time: float | None = None,
                        gravity: float = STANDARD_GRAVITY) -> float:
    """Relative phase (rad) between antipodal copies on a tilted ring.

    Tilting the ring plane by `tilt_angle` from horizontal puts the two
    packet copies at heights differing by 2 R sin(tilt), so they accumulate
    phi = 2 m g R sin(tilt) * t / hbar over the dwell `dwell_time` (default:
    the dispersion timescale 1/omega_perp).  Tilt is restricted to
    [-pi/2, pi/2], where the height difference is monotone in the tilt.
    """
    if not abs(tilt_angle) <= 0.5 * math.pi:
        raise InvalidParameterError(
            "tilt_angle must lie in [-pi/2, pi/2]")
    if not math.isfinite(gravity):
        raise InvalidParameterError("gravity must be finite")
    return 2.0 * trap.mass * gravity * trap.radius * \
        math.sin(tilt_angle) * _dwell(trap, dwell_time) / HBAR


def scattering_phase(scattering_length: float, density: float,
                     trap: TrapSpec, dwell_time: float | None = None) -> float:
    """Mean-field phase (rad) from a scattering length over the dwell time.

    phi = 4 pi hbar a n t / m with n the condensate density sampled by the
    packet; `dwell_time` defaults to the dispersion timescale 1/omega_perp.
    Linear in `scattering_length`, so differential phases between the two
    copies follow by subtraction.
    """
    if not math.isfinite(scattering_length):
        raise InvalidParameterError("scattering_length must be finite")
    if not 0 < density < math.inf:
        raise InvalidParameterError("density must be positive and finite")
    return 4.0 * math.pi * HBAR * scattering_length * density * \
        _dwell(trap, dwell_time) / trap.mass


def min_detectable_scattering_length(phase_resolution: float, density: float,
                                     trap: TrapSpec,
                                     dwell_time: float | None = None) -> float:
    """Scattering-length change (m) producing `phase_resolution` rad."""
    if not 0 < phase_resolution < math.inf:
        raise InvalidParameterError(
            "phase_resolution must be positive and finite")
    per_length = scattering_phase(1.0, density, trap, dwell_time)
    return phase_resolution / per_length


def peak_density(trap: TrapSpec, atom_number: float) -> float:
    """Peak density (1/m^3) of N atoms in the loading trap's ground state.

    The packet starts as the Gaussian ground state of an isotropic harmonic
    trap at omega_perp, width sigma_u in each direction, so the peak is
    N / ((2 pi)^(3/2) sigma_u^3).
    """
    if not 0 <= atom_number < math.inf:
        raise InvalidParameterError("atom_number must be >= 0 and finite")
    sigma = trap.sigma_u
    return atom_number / ((2.0 * math.pi) ** 1.5 * sigma ** 3)


def mean_density(trap: TrapSpec, atom_number: float) -> float:
    """Density-weighted mean density, peak / (2 sqrt(2)) for a Gaussian."""
    return peak_density(trap, atom_number) / (2.0 * math.sqrt(2.0))
