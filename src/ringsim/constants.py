"""Physical constants and the unit system used for internal computation.

All simulation arithmetic runs in dimensionless units where hbar, the atomic
mass and the ring radius are 1.  In these units the ideal revival period is
exactly 2*pi.  SI values appear only at the API boundary; `UnitSystem` is the
two-way map between the boundary and the core.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidParameterError

# CODATA 2018 exact/recommended values.
HBAR = 1.054571817e-34          # J s
ATOMIC_MASS_UNIT = 1.66053906660e-27   # kg
BOHR_RADIUS = 5.29177210903e-11  # m
ELEMENTARY_CHARGE = 1.602176634e-19    # C
SPEED_OF_LIGHT = 299792458.0     # m / s
BOHR_MAGNETON = 9.2740100783e-24  # J / T
STANDARD_GRAVITY = 9.80665       # m / s^2
DEBYE = 1e-21 / SPEED_OF_LIGHT   # C m, the exact definition of one debye

# AME mass of the potassium-39 ground-state atom.
K39_MASS_U = 38.96370668
K39_MASS_KG = K39_MASS_U * ATOMIC_MASS_UNIT


@dataclass(frozen=True)
class UnitSystem:
    """Scale factors between SI and the internal dimensionless units.

    time_unit = m R^2 / hbar (s), energy_unit = hbar / time_unit (J),
    length_unit = R (m).  energy_unit is stored as the quotient so that
    time_unit * energy_unit reproduces hbar to the last rounding step.
    """

    time_unit: float
    energy_unit: float
    length_unit: float

    def __post_init__(self) -> None:
        if not (self.time_unit > 0 and self.energy_unit > 0 and self.length_unit > 0):
            raise InvalidParameterError("unit scales must be positive")

    @classmethod
    def identity(cls) -> "UnitSystem":
        """Natural units: quantities are already dimensionless."""
        return cls(time_unit=1.0, energy_unit=1.0, length_unit=1.0)

    @property
    def action_unit(self) -> float:
        """Product time*energy; equals hbar for systems built from SI traps."""
        return self.time_unit * self.energy_unit

    # time
    def time_to_internal(self, seconds: float) -> float:
        return seconds / self.time_unit

    def time_from_internal(self, value: float) -> float:
        return value * self.time_unit

    # energy
    def energy_to_internal(self, joules):
        return joules / self.energy_unit

    def energy_from_internal(self, value):
        return value * self.energy_unit

    # length
    def length_to_internal(self, meters):
        return meters / self.length_unit

    def length_from_internal(self, value):
        return value * self.length_unit

    # action (e.g. gauge flux gamma*Phi); internally an angle in radians
    def action_to_internal(self, joule_seconds: float) -> float:
        return joule_seconds / self.action_unit

    def action_from_internal(self, value: float) -> float:
        return value * self.action_unit


def make_unit_system(mass, radius: float | None = None,
                     hbar: float = HBAR) -> UnitSystem:
    """Unit system for a particle of `mass` (kg) on a ring of `radius` (m).

    Also accepts any trap-like object carrying `mass` and `radius`
    attributes in place of the two numbers.  With mass = radius = hbar = 1
    the mapping is the identity.
    """
    if radius is None and hasattr(mass, "radius"):
        mass, radius = mass.mass, mass.radius
    if radius is None:
        raise InvalidParameterError("radius must be provided")
    if not mass > 0:
        raise InvalidParameterError("mass must be positive")
    if not radius > 0:
        raise InvalidParameterError("radius must be positive")
    time_unit = mass * radius * radius / hbar
    return UnitSystem(time_unit=time_unit,
                      energy_unit=hbar / time_unit,
                      length_unit=radius)
