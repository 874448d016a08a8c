"""Command-line front end for batch interference studies.

Subcommands
-----------
revival      run the configured protocol once, write the time series (and
             optional density snapshots), print the optimized revival time
sweep-phase  imbalance fringe against imprint phase, one CSV per variant
spectrum     per-mode energy ladder with one column per correction term
sense        signal-to-phase conversion table for the configured inputs
timing       fringe degradation against the configured timing offsets

Common flags: `--config PATH` (omit for the built-in reference scenario)
and `--out DIR` for the CSV outputs; `revival` also takes `--snapshots K`
to store K density profiles from the run.  Outputs
are plain CSV with a `#`-prefixed header carrying the config hash, the
resolved configuration, and the dimensionless trap parameters, so a file is
reproducible from its own header.  Runs are deterministic: identical
configs give byte-identical files.  Exit codes: 0 success, 1 runtime or
physics failure, 2 configuration problems (a config value outside its
domain included).
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from dataclasses import replace
from functools import lru_cache

import numpy as np

from .config import (ScenarioConfig, _format_value, _interaction,
                     _keyed_error, _sha256, build_protocol, build_trap,
                     from_defaults, from_file)
from .constants import (BOHR_MAGNETON, BOHR_RADIUS, DEBYE,
                        ELEMENTARY_CHARGE, HBAR)
from .errors import (ConfigError, InvalidParameterError, NotApplicableError,
                     RingError)
from .protocol import ProtocolSpec, run_protocol, sweep_phase, \
    timing_sensitivity
from .sensing import (GaugeScenario, flux_action, gravitational_phase,
                      mean_density, min_detectable_field,
                      min_detectable_scattering_length, peak_density,
                      rotation_per_revival, scattering_phase)
from .spectrum import (DispersionModel, centrifugal_shift, ellipticity_shift,
                       revival_time, tilt_shift)
from .states import TWO_PI


def _header_lines(config: ScenarioConfig, trap, interaction, command: str,
                  extra=()) -> list:
    text = config.canonical_text()
    lines = ["# ringsim %s" % command,
             "# config_sha256 = %s" % _sha256(text)]
    for line in text.splitlines():
        lines.append("# config %s" % line)
    derived = [("internal omega_perp", trap.omega_internal),
               ("internal sigma_u_over_radius", trap.sigma_u / trap.radius),
               ("internal coupling", interaction.coupling_internal(trap)),
               ("time_unit_s", trap.time_unit),
               ("ideal_revival_s", revival_time(trap))]
    for key, value in derived + list(extra):
        lines.append("# %s = %s" % (key, _format_value(value)))
    return lines


def _write_csv(path, header_lines, columns, rows) -> None:
    """Header, column names and rows: a 2-D float array formats each row
    with one "%.17g" per cell, which is `_format_value` of every float;
    other rows (mixed types) go through `_format_value` cell by cell."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for line in header_lines:
            handle.write(line + "\n")
        handle.write(",".join(columns) + "\n")
        if isinstance(rows, np.ndarray) and rows.dtype == float:
            line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
            handle.write("".join(line % tuple(row) for row in rows.tolist()))
            return
        for row in rows:
            handle.write(",".join(_format_value(v) for v in row) + "\n")


def _cmd_revival(config: ScenarioConfig, args, out_dir: str) -> int:
    if args.snapshots < 0:
        raise ConfigError("--snapshots must be >= 0")
    spec = build_protocol(config, n_snapshots=args.snapshots)
    result = run_protocol(spec)
    ideal = revival_time(spec.trap)
    shift = 100.0 * (result.revival_time_s / ideal - 1.0)
    print("optimized revival time: %.17g s" % result.revival_time_s)
    print("ideal revival time:     %.17g s" % ideal)
    print("relative shift:         %+.6g %%" % shift)
    print("revival fidelity:       %.17g" % result.revival_fidelity)
    print("readout imbalance:      %.17g" % result.imbalance)
    print("step dt_factor:         %.17g" % result.spec.dt_factor)
    header = _header_lines(config, spec.trap, spec.interaction, "revival", [
        ("optimized_revival_s", result.revival_time_s),
        ("total_duration_s", result.total_duration_s),
        ("revival_fidelity", result.revival_fidelity),
        ("readout_imbalance", result.imbalance),
        ("dt_factor", result.spec.dt_factor)])
    series = os.path.join(out_dir, "revival.csv")
    _write_csv(series, header,
               ["t_s", "fidelity", "imbalance", "centroid_rad"],
               result.records)
    written = [series]
    if args.snapshots > 0:
        rows = np.vstack([
            np.column_stack((np.full(len(p.angles), t), p.angles, p.density))
            for t, p in zip(result.snapshot_times, result.snapshots)])
        snap = os.path.join(out_dir, "revival_snapshots.csv")
        _write_csv(snap, header,
                   ["t_s", "alpha_rad", "density_per_rad"], rows)
        written.append(snap)
    print("wrote %s" % ", ".join(written))
    return 0


def _variant_spec(base: ProtocolSpec, name: str) -> ProtocolSpec:
    """Sweep variants: full config, coupling zeroed, or textbook-ideal.

    Without the coupling the linear solver applies, instantaneous imprint or
    finite pulse alike.
    """
    if name == "interacting":
        return base
    free = replace(base, solver="linear", interaction=replace(
        base.interaction, scattering_length=0.0))
    if name == "noninteracting":
        return free
    return replace(free, flux=None,
                   imprint=replace(free.imprint, profile="uniform"),
                   include_tilt=False, include_centrifugal=False,
                   include_ellipticity=False)


def _cmd_sweep_phase(config: ScenarioConfig, args, out_dir: str) -> int:
    base = build_protocol(config)
    phases = np.linspace(0.0, TWO_PI, config.sweep_phi_count)
    written, fringes = [], {}
    for name in config.sweep_variants:
        # variants with equal specs (a coupling-free config's interacting
        # and noninteracting) share one sweep
        spec = _variant_spec(base, name)
        if spec not in fringes:
            fringes[spec] = sweep_phase(spec, phases)
        rows = fringes[spec]
        header = _header_lines(config, base.trap, base.interaction,
                               "sweep-phase", [("variant", name)])
        path = os.path.join(out_dir, "sweep_phase_%s.csv" % name)
        _write_csv(path, header, ["phi_rad", "imbalance"], rows)
        written.append(path)
    print("wrote %s" % ", ".join(written))
    return 0


def _cmd_spectrum(config: ScenarioConfig, args, out_dir: str) -> int:
    trap = build_trap(config)
    cutoff = config.cutoff
    ideal_si = DispersionModel(trap, cutoff).energies_si
    interaction = _interaction(config)
    ells = np.arange(-cutoff, cutoff + 1)
    tilt_si = tilt_shift(trap, ells)
    # report the mode-dependent part only: the transverse zero point is a
    # constant offset that never moves a revival
    centrifugal_si = centrifugal_shift(trap, ells) - \
        0.5 * HBAR * trap.omega_perp
    ellipticity_si = ellipticity_shift(trap, ells)
    total_si = ideal_si + tilt_si + centrifugal_si + ellipticity_si
    columns = ["ell", "e_ideal_j", "de_tilt_j", "de_centrifugal_j",
               "de_ellipticity_j", "e_total_j", "e_ideal", "de_tilt",
               "de_centrifugal", "de_ellipticity", "e_total"]
    si = [ideal_si, tilt_si, centrifugal_si, ellipticity_si, total_si]
    rows = np.column_stack(
        [ells] + si + [e / trap.energy_unit for e in si])
    header = _header_lines(config, trap, interaction, "spectrum")
    path = os.path.join(out_dir, "spectrum.csv")
    _write_csv(path, header, columns, rows)
    print("wrote %s (%d modes)" % (path, len(ells)))
    return 0


def _cmd_sense(config: ScenarioConfig, args, out_dir: str) -> int:
    trap = build_trap(config)
    charge = config.sense_charge_e * ELEMENTARY_CHARGE
    moment = config.sense_magnetic_moment_bohr * BOHR_MAGNETON
    dipole = config.sense_electric_dipole_debye * DEBYE
    field_b = config.sense_magnetic_field_t
    field_e = config.sense_electric_field_vm
    rate = config.sense_rotation_rate_rad_s
    scenarios = (
        GaugeScenario.charged(charge, field_b),
        GaugeScenario.aharonov_casher(moment, field_e),
        GaugeScenario.dipole_in_magnetic_field(dipole, field_b),
        GaugeScenario.rotating_frame(rate),
    )
    resolution = config.sense_resolution_rad
    if resolution is None:
        resolution = trap.sigma_u / trap.radius
    try:
        interaction = _interaction(config)
        n_peak = peak_density(trap, interaction.atom_number)
        n_mean = mean_density(trap, interaction.atom_number)
        phi_g = gravitational_phase(config.sense_tilt_angle_rad, trap)
        phi_a = scattering_phase(interaction.scattering_length, n_peak, trap)
        b_min = min_detectable_field(resolution, charge, trap)
        da_min = min_detectable_scattering_length(
            config.sense_phase_resolution_rad, n_peak, trap)
    except NotApplicableError as exc:
        raise ConfigError("sense_charge_e = 0: %s" % exc) from None

    rows = []
    print("inputs: B = %g T, E0 = %g V/m, q = %g C, m0 = %g J/T, "
          "p = %g C m, omega = %g rad/s"
          % (field_b, field_e, charge, moment, dipole, rate))
    print("%-28s %16s %16s %16s" % ("scenario", "flux_action_J_s",
                                    "rotation_rad", "displacement_m"))
    for scenario in scenarios:
        action = flux_action(scenario, trap)
        rot = rotation_per_revival(scenario, trap)
        disp = rot * trap.radius
        print("%-28s %16.6g %16.6g %16.6g"
              % (scenario.kind, action, rot, disp))
        rows.append((scenario.kind + "_flux_action", action, "J*s"))
        rows.append((scenario.kind + "_rotation_per_revival", rot, "rad"))
        rows.append((scenario.kind + "_displacement", disp, "m"))
    print("gravitational phase (tilt %g rad): %.6g rad"
          % (config.sense_tilt_angle_rad, phi_g))
    print("scattering phase (a = %g a0, peak density): %.6g rad"
          % (config.scattering_length_a0, phi_a))
    print("min detectable field at %.6g rad resolution: %.6g T"
          % (resolution, b_min))
    print("min detectable scattering-length change at %.6g rad phase "
          "resolution: %.6g a0" % (config.sense_phase_resolution_rad,
                                   da_min / BOHR_RADIUS))
    rows += [
        ("angular_resolution", resolution, "rad"),
        ("min_detectable_field", b_min, "T"),
        ("peak_density", n_peak, "1/m^3"),
        ("mean_density", n_mean, "1/m^3"),
        ("gravitational_phase", phi_g, "rad"),
        ("scattering_phase", phi_a, "rad"),
        ("min_detectable_scattering_length", da_min, "m"),
        ("min_detectable_scattering_length_a0", da_min / BOHR_RADIUS, "a0"),
    ]
    header = _header_lines(config, trap, interaction, "sense")
    path = os.path.join(out_dir, "sense.csv")
    _write_csv(path, header, ["name", "value", "unit"], rows)
    print("wrote %s" % path)
    return 0


def _cmd_timing(config: ScenarioConfig, args, out_dir: str) -> int:
    spec = build_protocol(config)
    offsets = [u * 1e-6 for u in config.timing_offsets_us]
    rows = timing_sensitivity(spec, offsets)
    header = _header_lines(config, spec.trap, spec.interaction, "timing")
    path = os.path.join(out_dir, "timing.csv")
    _write_csv(path, header, ["offset_s", "fidelity", "imbalance"], rows)
    for row in rows:
        print("offset %10.4g s  fidelity %.6f  imbalance %+.6f"
              % (row[0], row[1], row[2]))
    print("wrote %s" % path)
    return 0


_COMMANDS = (
    ("revival", _cmd_revival,
     "run the interference protocol and write its time series"),
    ("sweep-phase", _cmd_sweep_phase,
     "scan the imprint phase and write the imbalance fringe per variant"),
    ("spectrum", _cmd_spectrum,
     "write the mode energies with each correction term"),
    ("sense", _cmd_sense,
     "print and write the signal-to-phase conversion table"),
    ("timing", _cmd_timing,
     "scan imprint timing offsets and write fidelity degradation"),
)


@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing keeps no state in
    it, and each call parses into a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="ringsim",
        description="ring-trap matter-wave interference simulations")
    subparsers = parser.add_subparsers(dest="command", required=True,
                                       metavar="SUBCOMMAND")
    for name, func, help_text in _COMMANDS:
        sub = subparsers.add_parser(name, help=help_text)
        sub.add_argument("--config", metavar="PATH", default=None,
                         help="key = value config file (default: built-in "
                              "reference scenario)")
        sub.add_argument("--out", metavar="DIR", default=".",
                         help="directory for CSV outputs (default: .)")
        if name == "revival":
            sub.add_argument("--snapshots", metavar="K", type=int,
                             default=0, help="density snapshots to store")
        sub.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # one line per warning, without the library source line it was filed
    # at; the filters are left alone, so `-W error` still raises
    with warnings.catch_warnings():
        warnings.showwarning = lambda message, category, *_: print(
            "ringsim: warning: %s: %s" % (category.__name__, message),
            file=sys.stderr)
        try:
            config = from_file(args.config) if args.config else from_defaults()
            os.makedirs(args.out, exist_ok=True)
            try:
                return args.func(config, args, args.out)
            except InvalidParameterError as exc:
                # a refusal of a value the config set names its keys
                raise _keyed_error(exc, config) from exc
        except ConfigError as exc:
            print("ringsim: config error: %s" % exc, file=sys.stderr)
            return 2
        except RingError as exc:
            print("ringsim: error: %s" % exc, file=sys.stderr)
            return 1
        except OSError as exc:
            print("ringsim: %s" % exc, file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
