"""Trap geometry and the single-particle spectrum on the ring.

The ideal ring spectrum E(ell) = hbar^2 ell^2 / (2 m R^2) is purely quadratic
in the integer angular momentum, which is what makes the dynamics revive.
A real torus-shaped trap perturbs it in three ways that this module models as
diagonal corrections:

* a tilt of the symmetry axis relative to gravity adds a once-around cosine
  potential whose second-order shift goes as 1/(ell^2 - 1/4),
* the finite transverse confinement lets the wave move off the ring center
  line (centrifugal displacement u_ell), depressing the spectrum by a term
  quartic in ell,
* an elliptic deformation of the ring contributes a quadratic-in-ell shift
  proportional to eccentricity squared.

Closed forms are implemented exactly as published.  The tests check the tilt
term by dense diagonalization of the tilted ladder, the ellipse term against
the thin-ring curve of an ellipse (2*pi above it), both in `tests/oracles.py`,
and the centrifugal quartic only against its own square-completed form.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .constants import HBAR
from .errors import (InvalidParameterError, PerturbationValidityWarning,
                     _outside_stacklevel, require_finite)
from .states import TWO_PI, _check_cutoff

# Trust region for the tilt formula: second-order perturbation theory in the
# dimensionless potential amplitude.
TILT_PERTURBATIVE_LIMIT = 0.1
# Trust region for the transverse expansion parameter sigma_u / R.
TRANSVERSE_RATIO_LIMIT = 0.2


@dataclass(frozen=True)
class TrapSpec:
    """Geometry and imperfections of a torus trap.

    Parameters
    ----------
    mass : particle mass (kg)
    radius : ring radius R (m)
    omega_perp : transverse (radial and vertical) trap frequency (rad/s)
    tilt_amplitude : amplitude V0 of the once-around cosine potential (J)
    tilt_phase : angular position of the potential minimum offset (rad);
        it moves no computed number, since the second-order tilt shift is
        a doublet mean, which does not depend on it
    eccentricity : ellipse eccentricity, 0 <= eps <= 0.5
    """

    mass: float
    radius: float
    omega_perp: float
    tilt_amplitude: float = 0.0
    tilt_phase: float = 0.0
    eccentricity: float = 0.0

    def __post_init__(self) -> None:
        require_finite(self, "mass", "radius", "omega_perp",
                       "tilt_amplitude", "tilt_phase")
        if not self.mass > 0:
            raise InvalidParameterError("mass must be positive")
        if not self.radius > 0:
            raise InvalidParameterError("radius must be positive")
        if not self.omega_perp > 0:
            raise InvalidParameterError("omega_perp must be positive")
        if self.tilt_amplitude < 0:
            raise InvalidParameterError("tilt_amplitude must be >= 0")
        if not 0.0 <= self.eccentricity <= 0.5:
            raise InvalidParameterError("eccentricity must lie in [0, 0.5]")
        if self.sigma_u / self.radius >= TRANSVERSE_RATIO_LIMIT:
            warnings.warn(
                "sigma_u/R = %.3f exceeds the transverse expansion trust "
                "region (< %.2f)" % (self.sigma_u / self.radius,
                                     TRANSVERSE_RATIO_LIMIT),
                PerturbationValidityWarning, stacklevel=_outside_stacklevel())

    @property
    def time_unit(self) -> float:
        """Internal time unit m R^2 / hbar (s); the length unit is `radius`."""
        return self.mass * self.radius * self.radius / HBAR

    @property
    def energy_unit(self) -> float:
        """Internal energy unit hbar / time_unit = hbar^2 / m R^2 (J).

        Computed as that quotient so time_unit * energy_unit reproduces hbar
        to the last rounding step.
        """
        return HBAR / self.time_unit

    @property
    def sigma_u(self) -> float:
        """Transverse ground-state width sqrt(hbar / m omega_perp) (m)."""
        return float(np.sqrt(HBAR / (self.mass * self.omega_perp)))

    @property
    def omega_internal(self) -> float:
        """Transverse frequency in internal units, omega_perp * m R^2 / hbar."""
        return self.omega_perp * self.time_unit

    @property
    def tilt_internal(self) -> float:
        """Tilt amplitude in internal units V0 / (hbar^2 / m R^2)."""
        return self.tilt_amplitude / self.energy_unit


def revival_time(trap: TrapSpec) -> float:
    """Ideal revival period 2*pi*m*R^2/hbar (s).

    At this time every phase exp(-i E(ell) t / hbar) of the ideal spectrum
    returns to exp(i pi ell): the packet re-forms on the far side of the ring.
    """
    return TWO_PI * trap.time_unit


# ---------------------------------------------------------------------------
# dimensionless building blocks (hbar = m = R = 1)

def _ideal_internal(ells) -> np.ndarray:
    ells = np.asarray(ells, dtype=float)
    return 0.5 * ells ** 2


def _tilt_internal(ells, v0: float) -> np.ndarray:
    ells = np.asarray(ells, dtype=float)
    return 0.25 * v0 * v0 / (ells ** 2 - 0.25)


def _displacement_internal(ells, omega_internal: float) -> np.ndarray:
    ells = np.asarray(ells, dtype=float)
    return (ells ** 2 - 0.25) / omega_internal ** 2


def _centrifugal_internal(ells, omega_internal: float, k: int) -> np.ndarray:
    ells = np.asarray(ells, dtype=float)
    quartic = (ells ** 2 - 0.25) ** 2 / (2.0 * omega_internal ** 2)
    return omega_internal * (k + 0.5) - quartic


def _ellipticity_internal(ells, omega_internal: float,
                          eccentricity: float) -> np.ndarray:
    ells = np.asarray(ells, dtype=float)
    u = _displacement_internal(ells, omega_internal)
    return (eccentricity ** 2 / (8.0 * np.pi)) * (1.0 + 3.0 * u) * (ells ** 2 - 0.25)


# ---------------------------------------------------------------------------
# SI-facing closed forms

def _warn_beyond_tilt_limit(v0: float) -> None:
    if v0 >= TILT_PERTURBATIVE_LIMIT:
        warnings.warn(
            "tilt amplitude %.3g (internal) exceeds the perturbative trust "
            "region (< %.2f)" % (v0, TILT_PERTURBATIVE_LIMIT),
            PerturbationValidityWarning, stacklevel=_outside_stacklevel())


def tilt_shift(trap: TrapSpec, ells) -> np.ndarray:
    """Second-order energy shift (J) from the once-around tilt potential.

    Delta E(ell) = (m R^2 V0^2 / 4 hbar^2) / (ell^2 - 1/4); negative for
    ell = 0, where it equals -V0^2 in internal units.  Valid while the
    dimensionless amplitude stays well below the unit rotational splitting.
    """
    _warn_beyond_tilt_limit(trap.tilt_internal)
    return _tilt_internal(ells, trap.tilt_internal) * trap.energy_unit


def centrifugal_displacement(trap: TrapSpec, ells) -> np.ndarray:
    """Radial displacement u_ell (m) of the effective transverse minimum.

    u_ell = hbar^2 (ell^2 - 1/4) / (m^2 omega_perp^2 R^3).  The rotational
    pseudo-potential pushes the transverse well outward for |ell| >= 1.
    """
    u_int = _displacement_internal(ells, trap.omega_internal)
    return u_int * trap.radius


def centrifugal_shift(trap: TrapSpec, ells, k: int = 0) -> np.ndarray:
    """Transverse-channel energy (J) after completing the square in u.

    E(ell, k) = hbar omega_perp (k + 1/2)
                - hbar^4 (ell^2 - 1/4)^2 / (2 m^3 omega_perp^2 R^6),
    identically equal to hbar omega_perp (k + 1/2)
    - (m omega_perp^2 / 2) u_ell^2.  The quartic piece breaks the pure
    ell^2 form and so dephases (and slightly retimes) the revival.
    """
    if k < 0:
        raise InvalidParameterError("transverse quantum number k must be >= 0")
    e_int = _centrifugal_internal(ells, trap.omega_internal, k)
    return e_int * trap.energy_unit


def ellipticity_shift(trap: TrapSpec, ells) -> np.ndarray:
    """First-order energy shift (J) from an elliptic ring deformation.

    Delta E(ell) = (hbar^2 eps^2 / 8 pi m R^2) (1 + 3 u_ell / R)
                   (ell^2 - 1/4), published closed form implemented as-is.
    With (1 + 3 u_ell / R) divided out, the thin-ring curve Hamiltonian of
    an ellipse whose semi-major axis is R gives 2*pi times this.
    """
    e_int = _ellipticity_internal(ells, trap.omega_internal, trap.eccentricity)
    return e_int * trap.energy_unit


@dataclass(frozen=True)
class DispersionModel:
    """Dispersion E(ell) for the ladder |ell| <= cutoff: the ideal ring's
    with every toggle off, plus each diagonal correction switched in.

    The transverse channel stays in its ground state (k = 0); its constant
    zero-point offset is kept as a global phase, but the ell-dependent
    zero-point term 3 (ell^2 - 1/4) / (4 omega) (internal) is not modelled.
    With the tilt term on, a tilt amplitude of zero, or of
    TILT_PERTURBATIVE_LIMIT or more, warns PerturbationValidityWarning.
    `energies` is dimensionless (internal units); `energies_si` converts.
    `internal_at` evaluates the same dispersion at any ladder index, which
    split-step propagation uses for grid harmonics above the state cutoff.
    """

    trap: TrapSpec
    cutoff: int
    includes_tilt: bool = False
    includes_centrifugal: bool = False
    includes_ellipticity: bool = False
    energies: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        _check_cutoff(self.cutoff)
        if self.includes_tilt:
            if self.trap.tilt_internal == 0.0:
                warnings.warn("tilt correction enabled with zero amplitude",
                              PerturbationValidityWarning,
                              stacklevel=_outside_stacklevel())
            _warn_beyond_tilt_limit(self.trap.tilt_internal)
        energies = self.internal_at(self.ells)
        energies.setflags(write=False)
        object.__setattr__(self, "energies", energies)

    @property
    def ells(self) -> np.ndarray:
        return np.arange(-self.cutoff, self.cutoff + 1)

    @property
    def energies_si(self) -> np.ndarray:
        return self.energies * self.trap.energy_unit

    def internal_at(self, ells) -> np.ndarray:
        """Dimensionless dispersion at arbitrary integer ladder indices."""
        e = _ideal_internal(ells)
        if self.includes_tilt:
            e = e + _tilt_internal(ells, self.trap.tilt_internal)
        if self.includes_centrifugal:
            e = e + _centrifugal_internal(ells, self.trap.omega_internal, 0)
        if self.includes_ellipticity:
            e = e + _ellipticity_internal(ells, self.trap.omega_internal,
                                          self.trap.eccentricity)
        return e

