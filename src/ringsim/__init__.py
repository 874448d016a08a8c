"""Matter-wave interference in ring traps.

Simulation library for orbital-angular-momentum interferometry of trapped
atoms: exact spectral revival dynamics on an ideal ring, perturbative
spectrum corrections for realistic torus traps (tilt, centrifugal coupling,
ellipticity), gauge-flux revival rotation, split-step mean-field dynamics,
and the full split / imprint / recombine interference protocol with its
sensing figures of merit.  The `ringsim` command line drives batch runs
from flat config files; see `ringsim --help`.

Conventions: states live on a ring of radius R with angular coordinate
alpha; angular-momentum amplitudes c_ell are indexed ell = -L..L; internal
units set hbar = m = R = 1 so the ideal revival period is 2 pi.
"""

from .constants import (ATOMIC_MASS_UNIT, BOHR_MAGNETON, BOHR_RADIUS,
                        DEBYE, ELEMENTARY_CHARGE, HBAR, K39_MASS_KG,
                        K39_MASS_U, SPEED_OF_LIGHT, STANDARD_GRAVITY)
from .errors import (AttractiveCouplingWarning, CentroidUndefinedError,
                     ConfigError, ConvergenceError, CutoffInsufficientError,
                     IndeterminateImbalanceError, InvalidParameterError,
                     NotApplicableError, PerturbationValidityWarning,
                     RevivalNotFoundError, RingError, StepSizeError)
from .states import (GridState, SpectralState, gaussian_packet, rotate,
                     to_grid, to_spectral)
from .spectrum import (DispersionModel, TrapSpec, centrifugal_displacement,
                       centrifugal_shift, ellipticity_shift, revival_time,
                       tilt_shift)
from .propagator import (FluxSpec, InteractionSpec, evolve_linear,
                         ground_state_imaginary_time,
                         half_revival_superposition, step_nonlinear)
from .observables import (DensityProfile, circular_centroid, density_profile,
                          fidelity, population_imbalance,
                          window_snap_distance)
from .protocol import (ImprintSpec, ProtocolResult, ProtocolSpec,
                       RevivalSearch, find_revival_time, run_protocol,
                       sweep_phase, timing_sensitivity)
from .sensing import (GaugeScenario, flux_action, gravitational_phase,
                      mean_density, min_detectable_field,
                      min_detectable_scattering_length, peak_density,
                      rotation_per_revival, scattering_phase, to_flux_spec)
from .config import (ScenarioConfig, build_protocol, build_trap,
                     from_defaults, from_file, from_text)

__version__ = "0.1.0"

__all__ = [
    "ATOMIC_MASS_UNIT", "BOHR_MAGNETON", "BOHR_RADIUS", "DEBYE",
    "ELEMENTARY_CHARGE", "HBAR", "K39_MASS_KG", "K39_MASS_U",
    "SPEED_OF_LIGHT", "STANDARD_GRAVITY",
    "AttractiveCouplingWarning", "CentroidUndefinedError", "ConfigError",
    "ConvergenceError", "CutoffInsufficientError",
    "IndeterminateImbalanceError", "InvalidParameterError",
    "NotApplicableError", "PerturbationValidityWarning",
    "RevivalNotFoundError", "RingError", "StepSizeError",
    "GridState", "SpectralState", "gaussian_packet", "rotate", "to_grid",
    "to_spectral",
    "DispersionModel", "TrapSpec", "centrifugal_displacement",
    "centrifugal_shift", "ellipticity_shift", "revival_time", "tilt_shift",
    "FluxSpec", "InteractionSpec", "evolve_linear",
    "ground_state_imaginary_time", "half_revival_superposition",
    "step_nonlinear",
    "DensityProfile", "circular_centroid", "density_profile", "fidelity",
    "population_imbalance", "window_snap_distance",
    "ImprintSpec", "ProtocolResult", "ProtocolSpec", "RevivalSearch",
    "find_revival_time", "run_protocol", "sweep_phase", "timing_sensitivity",
    "GaugeScenario", "flux_action", "gravitational_phase", "mean_density",
    "min_detectable_field", "min_detectable_scattering_length",
    "peak_density", "rotation_per_revival", "scattering_phase",
    "to_flux_spec",
    "ScenarioConfig", "build_protocol", "build_trap", "from_defaults",
    "from_file", "from_text",
    "__version__",
]
