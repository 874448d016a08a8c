"""Physical constants in SI units.

The scales that map these onto the dimensionless internal units
(hbar = m = R = 1) belong to the trap: see `TrapSpec.time_unit` and
`TrapSpec.energy_unit`.
"""

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

