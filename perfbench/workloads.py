"""Workload definitions: generated inputs, CLI invocations, output checks.

A workload is a list of operations.  One operation is one `ringsim`
subcommand, given its own `--out` directory, and a check that reads the
CSV files it wrote and returns the problems it found (empty when the
output is right).  Inputs depend only on the workload name and the seed,
and this module imports nothing from `ringsim`, so the checks stay
independent of the code they judge.
"""

from __future__ import annotations

import math
import os
import random

# Outputs of the built-in reference scenario (`ringsim revival` with no
# config: 2e4 K-39 atoms, split-step, grid_n 512, dt_factor 5e-6), recorded
# when this benchmark was added.
REF_REVIVAL_S = 0.13397833536
REF_FIDELITY = 0.698447
REF_IMBALANCE = -0.479941
# ideal period of the reference trap times its search_resolution_factor
REF_SEARCH_RESOLUTION_S = 1e-6 * 0.13418905473201637
REF_RECORDS = 200

# Fringe of `sweep_splitstep` at phases linspace(0, 2 pi, 7), recorded when
# this benchmark was added.
REF_SWEEP_IMBALANCE = (-0.99999999999999678, -0.47994235746618996,
                       0.46441163468128333, 0.99958606562130514,
                       0.49520396707945757, -0.44858034939899272,
                       -0.99828650143828346)
PHYSICS_TOL = 1e-4
IDEAL_FRINGE_TOL = 1e-6

# the reference scenario spelled out, so a changed default cannot move it
_REFERENCE_KEYS = (
    ("mass_u", "38.96370668"),
    ("radius_um", "5.9"),
    ("omega_perp_krad_s", "6.4"),
    ("scattering_length_a0", "1"),
    ("atom_number", "2e4"),
    ("solver", "splitstep"),
    ("cutoff", "128"),
    ("grid_n", "512"),
)

LINEAR_CONFIGS = 8
LINEAR_COMMANDS = ("revival", "sweep-phase", "timing", "spectrum", "sense")


class Operation:
    """One CLI invocation and the check of what it wrote."""

    def __init__(self, argv, out_dir, check, headline=None):
        self.argv = list(argv) + ["--out", out_dir]
        self.out_dir = out_dir
        self.check = check
        # CSV whose physics outputs go into the run record
        self.headline = headline


def read_csv(path):
    """(header dict, column names, rows of floats or strings)."""
    header, columns, rows = {}, None, []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.rstrip("\n")
            if line.startswith("#"):
                key, sep, value = line[1:].partition(" = ")
                if sep:
                    header[key.strip()] = value
            elif columns is None:
                columns = line.split(",")
            else:
                rows.append([_number(v) for v in line.split(",")])
    return header, columns, rows


def _number(text):
    try:
        return float(text)
    except ValueError:
        return text


def _column(columns, rows, name):
    i = columns.index(name)
    return [row[i] for row in rows]


def _in_range(values, lo, hi, what):
    bad = [v for v in values if not lo <= v <= hi]
    if bad:
        return ["%s outside [%g, %g]: %r" % (what, lo, hi, bad[:3])]
    return []


def _config_text(pairs) -> str:
    return "".join("%s = %s\n" % kv for kv in pairs)


# ---------------------------------------------------------------------------
# revival_splitstep


def _check_reference_revival(out_dir):
    header, columns, rows = read_csv(os.path.join(out_dir, "revival.csv"))
    problems = []
    t = float(header["optimized_revival_s"])
    if abs(t - REF_REVIVAL_S) > 2.0 * REF_SEARCH_RESOLUTION_S:
        problems.append("revival time %.12g s, reference %.12g s"
                        % (t, REF_REVIVAL_S))
    for key, ref in (("revival_fidelity", REF_FIDELITY),
                     ("readout_imbalance", REF_IMBALANCE)):
        value = float(header[key])
        if abs(value - ref) > PHYSICS_TOL:
            problems.append("%s %.9g, reference %.9g" % (key, value, ref))
    if len(rows) != REF_RECORDS:
        problems.append("%d record rows, expected %d"
                        % (len(rows), REF_RECORDS))
    return problems


def _revival_splitstep(seed, work_dir):
    out = os.path.join(work_dir, "out")
    return {}, [Operation(["revival"], out, _check_reference_revival,
                          "revival.csv")]


# ---------------------------------------------------------------------------
# sweep_splitstep


def _check_reference_sweep(out_dir):
    path = os.path.join(out_dir, "sweep_phase_interacting.csv")
    _, columns, rows = read_csv(path)
    imbalance = _column(columns, rows, "imbalance")
    if len(imbalance) != len(REF_SWEEP_IMBALANCE):
        return ["%d fringe points, expected %d"
                % (len(imbalance), len(REF_SWEEP_IMBALANCE))]
    return ["imbalance %.9g at phi %.6g, reference %.9g" % (v, phi, ref)
            for phi, v, ref in zip(_column(columns, rows, "phi_rad"),
                                   imbalance, REF_SWEEP_IMBALANCE)
            if abs(v - ref) > PHYSICS_TOL]


def _sweep_splitstep(seed, work_dir):
    cfg = os.path.join(work_dir, "sweep.cfg")
    text = _config_text(_REFERENCE_KEYS + (
        ("dt_rev_factor", "2e-5"),
        # seven phases rather than five: a pass of about 35 s, as long as
        # revival_splitstep's, spreads less from run to run on a shared host
        ("sweep_phi_count", "7"),
        ("sweep_variants", "interacting"),
    ))
    out = os.path.join(work_dir, "out")
    op = Operation(["sweep-phase", "--config", cfg], out,
                   _check_reference_sweep, "sweep_phase_interacting.csv")
    return {cfg: text}, [op]


# ---------------------------------------------------------------------------
# cli_linear


def linear_config_text(rng: random.Random) -> str:
    """One interaction-free torus config inside the perturbative region."""
    return _config_text((
        ("mass_u", "38.96370668"),
        ("radius_um", "%.4f" % rng.uniform(5.0, 7.0)),
        ("omega_perp_krad_s", "%.4f" % rng.uniform(5.0, 8.0)),
        ("scattering_length_a0", "0"),
        ("atom_number", "2e4"),
        ("solver", "linear"),
        ("cutoff", "128"),
        ("grid_n", "512"),
        ("tilt_v0", "%.4f" % rng.uniform(0.005, 0.095)),
        ("tilt_phase_rad", "%.4f" % rng.uniform(0.0, 2.0 * math.pi)),
        ("eccentricity", "%.4f" % rng.uniform(0.005, 0.05)),
        ("correct_tilt", "true"),
        ("correct_centrifugal", "true"),
        ("correct_ellipticity", "true"),
        ("flux_rotation_rad", "%.4f" % rng.uniform(-0.5, 0.5)),
    ))


def _check_revival(out_dir):
    header, columns, rows = read_csv(os.path.join(out_dir, "revival.csv"))
    fid = [float(header["revival_fidelity"])] + \
        _column(columns, rows, "fidelity")
    imb = [float(header["readout_imbalance"])] + \
        _column(columns, rows, "imbalance")
    return (_in_range(fid, 0.0, 1.0, "fidelity")
            + _in_range(imb, -1.0, 1.0, "imbalance"))


def _check_sweep(out_dir):
    problems = []
    for variant in ("ideal", "noninteracting", "interacting"):
        path = os.path.join(out_dir, "sweep_phase_%s.csv" % variant)
        _, columns, rows = read_csv(path)
        phi = _column(columns, rows, "phi_rad")
        imb = _column(columns, rows, "imbalance")
        if len(rows) != 13:
            problems.append("%s: %d phases, expected 13"
                            % (variant, len(rows)))
        problems += _in_range(imb, -1.0, 1.0, variant + " imbalance")
        if variant == "ideal":
            worst = max(abs(v + math.cos(p)) for p, v in zip(phi, imb))
            if worst > IDEAL_FRINGE_TOL:
                problems.append("ideal fringe misses -cos(phi) by %.3g"
                                % worst)
    return problems


def _check_timing(out_dir):
    _, columns, rows = read_csv(os.path.join(out_dir, "timing.csv"))
    return (_in_range(_column(columns, rows, "fidelity"), 0.0, 1.0,
                      "fidelity")
            + _in_range(_column(columns, rows, "imbalance"), -1.0, 1.0,
                        "imbalance"))


def _check_spectrum(out_dir):
    _, columns, rows = read_csv(os.path.join(out_dir, "spectrum.csv"))
    problems = []
    if len(rows) != 2 * 128 + 1:
        problems.append("%d modes, expected 257" % len(rows))
    for suffix in ("_j", ""):
        parts = [_column(columns, rows, name + suffix) for name in
                 ("e_ideal", "de_tilt", "de_centrifugal", "de_ellipticity")]
        total = _column(columns, rows, "e_total" + suffix)
        for i, value in enumerate(total):
            terms = [p[i] for p in parts]
            scale = max(abs(x) for x in terms + [value])
            if abs(sum(terms) - value) > 1e-12 * scale:
                problems.append("e_total%s at row %d is not the sum of its "
                                "terms" % (suffix, i))
                break
    return problems


def _check_sense(out_dir):
    _, columns, rows = read_csv(os.path.join(out_dir, "sense.csv"))
    values = _column(columns, rows, "value")
    bad = [v for v in values if not (isinstance(v, float) and
                                     math.isfinite(v))]
    if len(rows) != 20 or bad:
        return ["sense table: %d rows, non-finite %r" % (len(rows), bad)]
    return []


_LINEAR_CHECKS = {
    "revival": _check_revival,
    "sweep-phase": _check_sweep,
    "timing": _check_timing,
    "spectrum": _check_spectrum,
    "sense": _check_sense,
}


def _cli_linear(seed, work_dir):
    rng = random.Random("cli_linear:%d" % seed)
    configs, ops = {}, []
    for k in range(LINEAR_CONFIGS):
        cfg = os.path.join(work_dir, "linear_%d.cfg" % k)
        configs[cfg] = linear_config_text(rng)
        for command in LINEAR_COMMANDS:
            out = os.path.join(work_dir, "out", "%d_%s" % (k, command))
            ops.append(Operation([command, "--config", cfg], out,
                                 _LINEAR_CHECKS[command],
                                 "revival.csv" if command == "revival"
                                 else None))
    return configs, ops


WORKLOADS = {
    "revival_splitstep": _revival_splitstep,
    "sweep_splitstep": _sweep_splitstep,
    "cli_linear": _cli_linear,
}


def build(name: str, seed: int, work_dir: str):
    """({config path: text}, [Operation]) for one workload and seed."""
    return WORKLOADS[name](seed, work_dir)
