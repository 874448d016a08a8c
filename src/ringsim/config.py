"""Flat key = value run configuration with unit-suffixed keys.

The file format is one `key = value` pair per line, `#` starting a comment,
blank lines ignored.  Every key carries its unit in the name (radius_um,
imprint_duration_ms, ...), values are plain numbers, `true`/`false`,
comma-separated lists, or the word `auto` where a derived default exists.
Unknown and duplicate keys are rejected by name so a typo cannot silently
fall back to a default.

With no file the built-in defaults describe the reference scenario this
package is tuned around: 2e4 potassium-39 atoms at +1 Bohr-radius
scattering length on a 5.9 um ring with a 6.4 krad/s transverse trap,
split-step solver, cosine-squared pi/3 imprint on the far half-ring.

`canonical_text` serializes the resolved configuration in sorted key order
with 17-significant-digit floats; its SHA-256 (`sha256`) goes into every
output header so results stay traceable to their exact inputs.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields

from .constants import ATOMIC_MASS_UNIT, BOHR_RADIUS, HBAR, K39_MASS_U
from .errors import ConfigError, InvalidParameterError
from .observables import WEIGHT_KINDS
from .propagator import FluxSpec, InteractionSpec
from .protocol import SOLVERS, ImprintSpec, ProtocolSpec
from .spectrum import TrapSpec

SWEEP_VARIANTS = ("ideal", "noninteracting", "interacting")


@dataclass(frozen=True)
class ScenarioConfig:
    """Resolved configuration; every field maps to one file key.

    A field's annotation picks the parser of its key (see `_PARSERS`).
    `dt_rev_factor` is the split-step time per FFT pair in units of the
    ideal revival period; `auto`, the default, derives it per run from the
    peak local phase per substep (see `ProtocolSpec.dt_factor`).
    """

    # trap and atom (required in files; exactly one omega_perp_* key)
    mass_u: float = K39_MASS_U
    radius_um: float = 5.9
    omega_perp_krad_s: float | None = 6.4
    omega_perp_khz: float | None = None
    scattering_length_a0: float = 1.0
    atom_number: float = 2e4
    # solver and discretization (required in files)
    solver: str = "splitstep"
    cutoff: int = 128
    grid_n: int = 512
    # trap imperfections and which spectrum corrections to enable
    tilt_v0: float = 0.0
    tilt_phase_rad: float = 0.0
    eccentricity: float = 0.0
    correct_tilt: bool = False
    correct_centrifugal: bool = False
    correct_ellipticity: bool = False
    # imprint pulse
    imprint_phase_rad: float = math.pi / 3
    imprint_profile: str = "cosine_squared"
    imprint_window_lo_rad: float = 0.5 * math.pi
    imprint_window_hi_rad: float = 1.5 * math.pi
    imprint_time_ms: float | None = None
    imprint_duration_ms: float = 0.0
    # packet and timing
    packet_center_rad: float = 0.0
    packet_width: float | None = None
    dt_rev_factor: float | None = None
    revival_time_ms: float | None = None
    search_lo: float = 0.98
    search_hi: float = 1.02
    search_resolution_factor: float = 1e-6
    readout_weight: str = "cosine_squared"
    # gauge flux (rotation per ideal revival, i.e. action / hbar)
    flux_rotation_rad: float = 0.0
    flux_turn_on_ms: float = 0.0
    # subcommand-specific settings
    timing_offsets_us: tuple[float, ...] = (0.0, 50.0, 150.0, 500.0)
    sweep_phi_count: int = 13
    sweep_variants: tuple[str, ...] = SWEEP_VARIANTS
    n_records: int = 200
    # sensing-table inputs
    sense_charge_e: float = 1.0
    sense_magnetic_field_t: float = 1e-7
    sense_magnetic_moment_bohr: float = 1.0
    sense_electric_field_vm: float = 1e6
    sense_electric_dipole_debye: float = 1.0
    sense_rotation_rate_rad_s: float = 0.1
    sense_tilt_angle_rad: float = 1e-4
    sense_phase_resolution_rad: float = 0.3
    sense_resolution_rad: float | None = None

    def __post_init__(self) -> None:
        have_krad = self.omega_perp_krad_s is not None
        have_khz = self.omega_perp_khz is not None
        if have_krad == have_khz:
            raise ConfigError(
                "set exactly one of omega_perp_krad_s or omega_perp_khz")
        if self.solver not in SOLVERS:
            raise ConfigError("solver must be one of %s" % (SOLVERS,))
        if self.imprint_profile not in WEIGHT_KINDS:
            raise ConfigError(
                "imprint_profile must be one of %s" % (WEIGHT_KINDS,))
        if self.readout_weight not in WEIGHT_KINDS:
            raise ConfigError(
                "readout_weight must be one of %s" % (WEIGHT_KINDS,))
        if self.sweep_phi_count < 1:
            raise ConfigError("sweep_phi_count must be >= 1")
        if self.n_records < 0:
            raise ConfigError("n_records must be >= 0")
        if not self.timing_offsets_us:
            raise ConfigError("timing_offsets_us must not be empty")
        if not self.sweep_variants:
            raise ConfigError("sweep_variants must not be empty")
        seen = set()
        for name in self.sweep_variants:
            if name not in SWEEP_VARIANTS:
                raise ConfigError(
                    "unknown sweep variant %r; choose from %s"
                    % (name, SWEEP_VARIANTS))
            if name in seen:
                raise ConfigError("duplicate sweep variant %r" % name)
            seen.add(name)

    @property
    def omega_perp_rad_s(self) -> float:
        if self.omega_perp_krad_s is not None:
            return self.omega_perp_krad_s * 1e3
        return self.omega_perp_khz * 2e3 * math.pi

    def canonical_text(self) -> str:
        lines = []
        for f in sorted(fields(self), key=lambda f: f.name):
            lines.append("%s = %s" % (f.name,
                                      _format_value(getattr(self, f.name))))
        return "\n".join(lines) + "\n"

    def sha256(self) -> str:
        return _sha256(self.canonical_text())


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _format_value(value) -> str:
    if value is None:
        return "auto"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return "%d" % value
    if isinstance(value, float):
        return "%.17g" % value
    if isinstance(value, tuple):
        return ",".join(_format_value(v) for v in value)
    return str(value)


def _parse_float(raw: str, key: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError("key %s: expected a number, got %r" % (key, raw))
    if not math.isfinite(value):
        raise ConfigError("key %s: value must be finite" % key)
    return value


def _parse_optional_float(raw: str, key: str):
    if raw.lower() == "auto":
        return None
    return _parse_float(raw, key)


def _parse_int(raw: str, key: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError("key %s: expected an integer, got %r" % (key, raw))


def _parse_bool(raw: str, key: str) -> bool:
    lowered = raw.lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ConfigError("key %s: expected true or false, got %r" % (key, raw))


def _parse_str(raw: str, key: str) -> str:
    return raw


def _parse_str_list(raw: str, key: str) -> tuple:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise ConfigError("key %s: expected a comma-separated list" % key)
    return tuple(parts)


def _parse_float_list(raw: str, key: str) -> tuple:
    return tuple(_parse_float(p, key) for p in _parse_str_list(raw, key))


_PARSER_BY_TYPE = {
    "float": _parse_float,
    "float | None": _parse_optional_float,
    "int": _parse_int,
    "bool": _parse_bool,
    "str": _parse_str,
    "tuple[float, ...]": _parse_float_list,
    "tuple[str, ...]": _parse_str_list,
}
_PARSERS = {f.name: _PARSER_BY_TYPE[f.type] for f in fields(ScenarioConfig)}

# keys a config file must spell out; the frequency pair is checked separately
REQUIRED_KEYS = ("mass_u", "radius_um", "scattering_length_a0",
                 "atom_number", "solver", "cutoff", "grid_n")


def _parse_pairs(text: str) -> dict:
    pairs = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not key or not value:
            raise ConfigError(
                "line %d: expected `key = value`, got %r" % (lineno, raw))
        if key in pairs:
            raise ConfigError("line %d: duplicate key %s" % (lineno, key))
        pairs[key] = value
    return pairs


def from_text(text: str) -> ScenarioConfig:
    """Parse configuration text; all required keys must be present."""
    pairs = _parse_pairs(text)
    for key in pairs:
        if key not in _PARSERS:
            raise ConfigError("unknown configuration key %r" % key)
    for key in REQUIRED_KEYS:
        if key not in pairs:
            raise ConfigError("missing required key %r" % key)
    if "omega_perp_krad_s" not in pairs and "omega_perp_khz" not in pairs:
        raise ConfigError(
            "missing required key: one of omega_perp_krad_s or "
            "omega_perp_khz")
    kwargs = {key: _PARSERS[key](raw, key) for key, raw in pairs.items()}
    # a file naming only one frequency key leaves the other default; clear it
    kwargs.setdefault("omega_perp_krad_s", None)
    kwargs.setdefault("omega_perp_khz", None)
    return ScenarioConfig(**kwargs)


def from_file(path) -> ScenarioConfig:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError("cannot read config %s: %s" % (path, exc)) from exc
    return from_text(text)


def from_defaults() -> ScenarioConfig:
    return ScenarioConfig()


def build_trap(config: ScenarioConfig) -> TrapSpec:
    """TrapSpec in SI units from the configuration."""
    mass = config.mass_u * ATOMIC_MASS_UNIT
    radius = config.radius_um * 1e-6
    if mass <= 0 or radius <= 0:
        raise ConfigError("mass_u and radius_um must be positive")
    # tilt_v0 is in units of TrapSpec.energy_unit: the trap is built once
    energy_unit = HBAR / (mass * radius * radius / HBAR)
    try:
        return TrapSpec(mass=mass, radius=radius,
                        omega_perp=config.omega_perp_rad_s,
                        tilt_amplitude=config.tilt_v0 * energy_unit,
                        tilt_phase=config.tilt_phase_rad,
                        eccentricity=config.eccentricity)
    except InvalidParameterError as exc:
        raise _keyed_error(exc, config) from exc


# The config keys behind each parameter, of the trap, the protocol or the
# sensing functions, whose refusal a config value can cause.
_KEYS = {
    "omega_perp": ("omega_perp_krad_s", "omega_perp_khz"),
    "tilt_amplitude": ("tilt_v0",), "eccentricity": ("eccentricity",),
    "atom_number": ("atom_number",), "turn_on": ("flux_turn_on_ms",),
    "window": ("imprint_window_lo_rad", "imprint_window_hi_rad"),
    "application_time": ("imprint_time_ms",),
    "duration": ("imprint_duration_ms",), "cutoff": ("cutoff",),
    "grid_n": ("grid_n",), "packet_width": ("packet_width",),
    "dt_factor": ("dt_rev_factor",), "revival_time_s": ("revival_time_ms",),
    "search_window": ("search_lo", "search_hi"),
    "search_resolution_factor": ("search_resolution_factor",),
    "resolution": ("sense_resolution_rad",), "density": ("atom_number",),
    "tilt_angle": ("sense_tilt_angle_rad",),
    "phase_resolution": ("sense_phase_resolution_rad",),
}


def _keyed_error(exc: InvalidParameterError,
                 config: ScenarioConfig) -> ConfigError:
    """ConfigError naming the set config keys of exc's parameter, the
    first word of its message; unkeyed when that word is no parameter."""
    keys = _KEYS.get(str(exc).split()[0])
    if keys is None:
        return ConfigError(str(exc))
    return ConfigError("key %s: %s" % (" and ".join(
        k for k in keys if getattr(config, k) is not None), exc))


def _interaction(config: ScenarioConfig) -> InteractionSpec:
    """InteractionSpec in SI units from scattering_length_a0, atom_number."""
    return InteractionSpec(config.scattering_length_a0 * BOHR_RADIUS,
                           config.atom_number)


def build_protocol(config: ScenarioConfig,
                   n_snapshots: int = 0) -> ProtocolSpec:
    """ProtocolSpec for the configured scenario.

    Parameter problems surface as ConfigError so the command line can map
    them to its configuration exit code.
    """
    try:
        trap = build_trap(config)
        interaction = _interaction(config)
        flux = None
        if config.flux_rotation_rad != 0.0:
            flux = FluxSpec(config.flux_rotation_rad * HBAR,
                            config.flux_turn_on_ms * 1e-3)
        application = None
        if config.imprint_time_ms is not None:
            application = config.imprint_time_ms * 1e-3
        imprint = ImprintSpec(
            config.imprint_phase_rad, config.imprint_profile,
            (config.imprint_window_lo_rad, config.imprint_window_hi_rad),
            application, config.imprint_duration_ms * 1e-3)
        revival = None
        if config.revival_time_ms is not None:
            revival = config.revival_time_ms * 1e-3
        return ProtocolSpec(
            trap=trap, interaction=interaction, flux=flux, imprint=imprint,
            packet_center=config.packet_center_rad,
            packet_width=config.packet_width, solver=config.solver,
            cutoff=config.cutoff, grid_n=config.grid_n,
            dt_factor=config.dt_rev_factor, revival_time_s=revival,
            search_window=(config.search_lo, config.search_hi),
            search_resolution_factor=config.search_resolution_factor,
            include_tilt=config.correct_tilt,
            include_centrifugal=config.correct_centrifugal,
            include_ellipticity=config.correct_ellipticity,
            readout_weight=config.readout_weight,
            n_records=config.n_records, n_snapshots=n_snapshots)
    except InvalidParameterError as exc:
        raise _keyed_error(exc, config) from exc
