"""Full interferometer sequence: split, imprint, recombine, read out."""
import dataclasses
import math
import re

import numpy as np
import pytest

import ringsim as rs
from ringsim.propagator import (BLANES_MOAN, STRANG, _SplitStepEngine,
                                step_count)
from ringsim.protocol import (SCAN_BLOCK, _golden_max, _linear_scan,
                              _measure, _revival_target, _scan_estimates,
                              _search_times)


def _phase_per_pair(scheme):
    # the largest fused local coefficient times the FFT pairs per step: the
    # peak local phase of a substep per unit local rate and dt_factor
    local, kinetic = scheme
    fused = [local[-1] + local[0], *local[1:-1]]
    return len(kinetic) * max(abs(c) for c in fused)


# The protocol's largest local phase per substep over Strang's at an equal
# dt_factor.  An explicit step set below as a Strang step divided by it
# keeps its local phase per substep, and so where the step guard stands.
GUARD_RATIO = _phase_per_pair(BLANES_MOAN) / _phase_per_pair(STRANG)


def _linear_spec(trap, **kw):
    kw.setdefault("solver", "linear")
    kw.setdefault("imprint", rs.ImprintSpec(0.0))
    return rs.ProtocolSpec(trap=trap, **kw)


# --------------------------------------------------------------------------
# imprint settings

def test_imprint_profile_uniform_is_an_open_window():
    imp = rs.ImprintSpec(1.0, profile="uniform",
                         window=(0.5 * math.pi, 1.5 * math.pi))
    angles = np.array([0.0, 0.5 * math.pi, 0.6 * math.pi, math.pi,
                       1.5 * math.pi, 1.6 * math.pi])
    np.testing.assert_allclose(imp.profile_values(angles),
                               [0.0, 0.0, 1.0, 1.0, 0.0, 0.0])


def test_imprint_profile_cosine_peaks_at_window_center():
    imp = rs.ImprintSpec(1.0, window=(0.5 * math.pi, 1.5 * math.pi))
    angles = np.array([math.pi, math.pi + 0.25 * math.pi, 0.0])
    vals = imp.profile_values(angles)
    assert vals[0] == pytest.approx(1.0, abs=1e-14)
    assert vals[1] == pytest.approx(0.5, abs=1e-14)
    assert vals[2] == 0.0


def test_imprint_validation():
    with pytest.raises(rs.InvalidParameterError):
        rs.ImprintSpec(1.0, profile="boxcar")
    with pytest.raises(rs.InvalidParameterError):
        rs.ImprintSpec(1.0, window=(0.0, 2.0 * math.pi))
    with pytest.raises(rs.InvalidParameterError):
        rs.ImprintSpec(1.0, duration=-1e-6)
    with pytest.raises(rs.InvalidParameterError):
        rs.ImprintSpec(math.nan)
    with pytest.raises(rs.InvalidParameterError):
        rs.ImprintSpec(1.0, application_time=-1e-3)


# each builds one object with a single non-finite input
_NON_FINITE = {
    "imprint-duration-nan": lambda trap: rs.ImprintSpec(
        1.0, duration=math.nan),
    "imprint-duration-inf": lambda trap: rs.ImprintSpec(
        1.0, duration=math.inf),
    "imprint-application-time-nan": lambda trap: rs.ImprintSpec(
        1.0, application_time=math.nan),
    "flux-action-nan": lambda trap: rs.FluxSpec(math.nan),
    "flux-turn-on-nan": lambda trap: rs.FluxSpec(0.0, turn_on=math.nan),
    "scattering-length-nan": lambda trap: rs.InteractionSpec(math.nan, 1e4),
    "atom-number-nan": lambda trap: rs.InteractionSpec(1e-9, math.nan),
    "dt-factor-nan": lambda trap: _linear_spec(trap, dt_factor=math.nan),
    "revival-time-nan": lambda trap: _linear_spec(
        trap, revival_time_s=math.nan),
    "search-resolution-factor-nan": lambda trap: _linear_spec(
        trap, search_resolution_factor=math.nan),
    "search-window-inf": lambda trap: _linear_spec(
        trap, search_window=(0.98, math.inf)),
    "packet-center-nan": lambda trap: _linear_spec(
        trap, packet_center=math.nan),
    "tilt-amplitude-nan": lambda trap: dataclasses.replace(
        trap, tilt_amplitude=math.nan),
    "tilt-phase-nan": lambda trap: dataclasses.replace(
        trap, tilt_phase=math.nan),
    "trap-mass-inf": lambda trap: dataclasses.replace(trap, mass=math.inf),
    "trap-radius-inf": lambda trap: dataclasses.replace(
        trap, radius=math.inf),
    "trap-omega-perp-inf": lambda trap: dataclasses.replace(
        trap, omega_perp=math.inf),
}


@pytest.mark.parametrize("case", sorted(_NON_FINITE))
def test_non_finite_inputs_fail_at_the_boundary(trap, case):
    with pytest.raises(rs.InvalidParameterError, match="finite"):
        _NON_FINITE[case](trap)


def test_phase_imprint_leaves_density_untouched(trap):
    grid = rs.to_grid(rs.gaussian_packet(0.0, 0.2, 60), 256)
    imp = rs.ImprintSpec(0.9)
    phased = grid.values * np.exp(1j * 0.9 * imp.profile_values(grid.angles))
    np.testing.assert_allclose(np.abs(phased) ** 2,
                               np.abs(grid.values) ** 2, rtol=0, atol=1e-15)


# --------------------------------------------------------------------------
# protocol settings

def test_protocol_validation(trap):
    with pytest.raises(rs.ConfigError):
        _linear_spec(trap,
                     interaction=rs.InteractionSpec(1e-10, 100.0))
    with pytest.raises(rs.InvalidParameterError):
        _linear_spec(trap, solver="exact")
    with pytest.raises(rs.InvalidParameterError):
        _linear_spec(trap, cutoff=128, grid_n=128)
    with pytest.raises(rs.InvalidParameterError):
        _linear_spec(trap, grid_n=100)
    with pytest.raises(rs.InvalidParameterError):
        _linear_spec(trap, dt_factor=0.0)
    with pytest.raises(rs.InvalidParameterError):
        _linear_spec(trap, search_window=(1.02, 0.98))
    with pytest.raises(rs.InvalidParameterError):
        _linear_spec(trap, search_resolution_factor=-1.0)
    with pytest.raises(rs.InvalidParameterError):
        _linear_spec(trap, packet_width=1.5)
    with pytest.raises(rs.InvalidParameterError):
        _linear_spec(trap, readout_weight="boxcar")
    with pytest.raises(rs.InvalidParameterError):
        _linear_spec(trap, n_records=-1)


def test_default_packet_width_matches_transverse_ground_state(
        trap, default_packet_width):
    spec = _linear_spec(trap)
    assert spec.effective_packet_width == pytest.approx(default_packet_width,
                                                        rel=1e-12)
    wide = _linear_spec(trap, packet_width=0.3)
    assert wide.effective_packet_width == 0.3


def test_dispersion_model_reflects_toggles(trap):
    spec = _linear_spec(trap, include_centrifugal=True)
    model = spec.dispersion_model()
    assert model.includes_centrifugal and not model.includes_tilt


# --------------------------------------------------------------------------
# revival search

def test_search_finds_the_ideal_revival(trap, revival_s):
    spec = _linear_spec(trap)
    found = rs.find_revival_time(spec)
    assert abs(found.time_s - revival_s) < 2e-6 * revival_s
    # a linear search keeps no checkpoints
    assert found.dt_factor is None and found.times == found.states == ()


@pytest.mark.parametrize("search", [
    rs.RevivalSearch(1.0, 1e-5, (0.0, 0.1, 0.2), ("a", "b", "c")),
    rs.RevivalSearch(1.0)], ids=["split-step", "linear"])
def test_no_checkpoint_answers_a_time_before_release(search):
    with pytest.raises(rs.InvalidParameterError, match="t = -0.05 s"):
        search.before(-0.05)


def test_search_reports_a_dead_window(trap):
    spec = _linear_spec(trap, search_window=(0.0015, 0.015))
    with pytest.raises(rs.RevivalNotFoundError):
        rs.find_revival_time(spec)


def test_centrifugal_correction_retimes_the_revival(trap, revival_s):
    spec = _linear_spec(trap, include_centrifugal=True,
                        search_resolution_factor=1e-9)
    found = rs.find_revival_time(spec).time_s
    assert found == pytest.approx(0.1350770439, rel=1e-7)
    shift = found / revival_s - 1.0
    assert shift == pytest.approx(6.61745e-3, rel=1e-4)


# --------------------------------------------------------------------------
# running the sequence

def test_plain_revival_run(trap, revival_s):
    result = rs.run_protocol(_linear_spec(trap))
    # the default search resolution leaves a ~1e-9 timing-limited defect
    assert result.revival_fidelity >= 1.0 - 1e-7
    assert result.imbalance == pytest.approx(-1.0, abs=1e-9)
    assert result.centroid_angle == pytest.approx(math.pi, abs=1e-8)
    assert abs(result.revival_time_s - revival_s) < 2e-6 * revival_s
    assert result.total_duration_s == result.revival_time_s


def test_explicit_revival_time_skips_the_search(trap, revival_s):
    spec = _linear_spec(trap, revival_time_s=revival_s)
    result = rs.run_protocol(spec)
    assert result.revival_time_s == revival_s
    assert result.revival_fidelity >= 1.0 - 1e-12


def test_uniform_imprint_reproduces_the_cosine_law(trap):
    for phase in (0.0, 0.7, 0.5 * math.pi, 2.3):
        spec = _linear_spec(
            trap, imprint=rs.ImprintSpec(phase, profile="uniform"),
            readout_weight="uniform")
        result = rs.run_protocol(spec)
        assert result.imbalance == pytest.approx(-math.cos(phase),
                                                 abs=1e-12)


def test_half_window_imprint_regression_values(trap):
    # pinned output of the default masked-cosine imprint at phase pi/3
    result = rs.run_protocol(_linear_spec(trap,
                                          imprint=rs.ImprintSpec(math.pi / 3)))
    assert result.revival_fidelity == pytest.approx(0.7516398, rel=2e-5)
    assert result.imbalance == pytest.approx(-0.50327056, abs=1e-7)


def test_uniform_imprint_with_the_quartic_term_against_a_finer_grid(trap):
    # The grid keeps the imprinted modes above the cutoff, and the flat-top
    # window is a step sampled on the grid, so the readout converges only to
    # first order in grid_n: it moves by 1.3e-4 from 512 to 1024 points.
    spec = _linear_spec(trap, imprint=rs.ImprintSpec(math.pi / 3,
                                                     profile="uniform"),
                        include_centrifugal=True)
    result = rs.run_protocol(spec)
    reference = rs.run_protocol(dataclasses.replace(
        spec, cutoff=256, grid_n=1024, revival_time_s=result.revival_time_s))
    assert result.imbalance == pytest.approx(-0.46846910, abs=1e-8)
    assert abs(result.imbalance - reference.imbalance) < 1.5e-4


def test_imprint_window_follows_an_off_center_packet(trap):
    center = 1.0
    spec = rs.ProtocolSpec(
        trap=trap, solver="linear", packet_center=center,
        imprint=rs.ImprintSpec(0.7, profile="uniform",
                               window=(center + 0.5 * math.pi,
                                       center + 1.5 * math.pi)),
        readout_weight="uniform")
    result = rs.run_protocol(spec)
    assert result.imbalance == pytest.approx(-math.cos(0.7), abs=1e-12)
    assert result.centroid_angle == pytest.approx(math.pi + center, abs=1e-8)


def test_gauge_flux_rotates_the_readout(trap):
    theta = 0.3
    spec = _linear_spec(trap, flux=rs.FluxSpec(action=theta * rs.HBAR),
                        search_resolution_factor=1e-10)
    result = rs.run_protocol(spec)
    assert result.centroid_angle == pytest.approx(math.pi + theta, abs=1e-8)
    plain = rs.run_protocol(_linear_spec(trap,
                                         search_resolution_factor=1e-10))
    assert abs(result.revival_fidelity - plain.revival_fidelity) < 1e-10


def test_flux_turned_on_inside_a_segment_rotates_from_its_onset(
        trap, revival_s):
    # no records: the turn-on falls inside the run's last segment, from the
    # imprint at T/2 to the readout at T, so each driver must split it there
    theta, turn_on = 0.8, 0.7 * revival_s
    spec_lin = _linear_spec(trap, flux=rs.FluxSpec(theta * rs.HBAR, turn_on),
                            revival_time_s=revival_s, cutoff=100, grid_n=256)
    r_lin = rs.run_protocol(spec_lin)
    expected = math.pi + theta * (r_lin.total_duration_s - turn_on) / \
        revival_s
    assert r_lin.centroid_angle == pytest.approx(expected, abs=1e-8)
    r_ss = rs.run_protocol(dataclasses.replace(spec_lin, solver="splitstep",
                                               dt_factor=1e-3))
    assert abs(r_ss.centroid_angle - r_lin.centroid_angle) < 1e-6
    assert abs(r_ss.revival_fidelity - r_lin.revival_fidelity) < 1e-6
    assert abs(r_ss.imbalance - r_lin.imbalance) < 1e-6


def test_records_and_snapshots(trap):
    spec = _linear_spec(trap, imprint=rs.ImprintSpec(math.pi / 3),
                        n_records=7, n_snapshots=3)
    result = rs.run_protocol(spec)
    assert result.records.shape == (7, 4)
    times = result.records[:, 0]
    assert times[0] == 0.0
    assert times[-1] == pytest.approx(result.total_duration_s, rel=1e-12)
    assert np.all(np.diff(times) > 0)
    assert result.records[0, 1] < 1e-10       # nothing at the far side yet
    assert result.records[-1, 1] == pytest.approx(result.revival_fidelity,
                                                  abs=1e-9)
    assert len(result.snapshots) == 3
    assert len(result.snapshot_times) == 3
    for profile in result.snapshots:
        assert profile.total == pytest.approx(1.0, abs=1e-9)


def test_timing_offset_guard(trap):
    spec = _linear_spec(trap, imprint=rs.ImprintSpec(1.0),
                        timing_offset=-0.08)
    with pytest.raises(rs.InvalidParameterError):
        rs.run_protocol(spec)


def test_timing_sensitivity_degrades_monotonically(trap):
    spec = _linear_spec(trap, imprint=rs.ImprintSpec(math.pi / 3))
    offsets = (0.0, 50e-6, 150e-6, 500e-6)
    table = rs.timing_sensitivity(spec, offsets)
    assert table.shape == (4, 3)
    np.testing.assert_allclose(table[:, 0], offsets, rtol=1e-12)
    fids = table[:, 1]
    assert np.all(np.diff(fids) < 0)
    baseline = rs.run_protocol(spec)
    assert fids[0] == pytest.approx(baseline.revival_fidelity, abs=1e-12)
    assert fids[-1] < 0.45


def test_sweep_phase_shape_and_order(trap):
    spec = _linear_spec(trap, imprint=rs.ImprintSpec(0.0, profile="uniform"),
                        readout_weight="uniform")
    phases = np.array([2.0, 0.0, 1.0, 5.5])
    table = rs.sweep_phase(spec, phases)
    assert table.shape == (4, 2)
    np.testing.assert_array_equal(table[:, 0], phases)   # input order kept
    np.testing.assert_allclose(table[:, 1], -np.cos(phases), atol=1e-12)


# scan values that are not a sequence of numbers
_NOT_NUMBERS = {"string": [0.0, "x"], "none": [None], "bare-float": 1.0,
                "digit-string": "12"}


def test_sweep_phase_input_guards(trap):
    spec = _linear_spec(trap)
    with pytest.raises(rs.InvalidParameterError):
        rs.sweep_phase(spec, [])
    with pytest.raises(rs.InvalidParameterError):
        rs.sweep_phase(spec, [0.0, math.nan])
    for values in _NOT_NUMBERS.values():
        with pytest.raises(rs.InvalidParameterError, match="phases"):
            rs.sweep_phase(spec, values)


def test_timing_sensitivity_input_guards(trap):
    spec = _linear_spec(trap)
    with pytest.raises(rs.InvalidParameterError):
        rs.timing_sensitivity(spec, [])
    with pytest.raises(rs.InvalidParameterError):
        rs.timing_sensitivity(spec, [0.0, math.inf])
    for values in _NOT_NUMBERS.values():
        with pytest.raises(rs.InvalidParameterError, match="offsets"):
            rs.timing_sensitivity(spec, values)


def _wedge_gap(grid_n, shift=0):
    # density only at alpha = pi/2 and 3 pi/2, turned by `shift` grid
    # points: where the cosine-squared wedges about a packet center of
    # shift pitches meet and weigh nothing, and balanced about the ring
    values = np.zeros(grid_n, dtype=complex)
    values[[grid_n // 4 + shift, 3 * grid_n // 4 + shift]] = 1.0
    return values


def test_a_readout_with_both_wedges_empty_files_nan(trap):
    # imbalance and centroid are undefined and read NaN
    spec = _linear_spec(trap)
    psi0 = rs.gaussian_packet(0.0, spec.effective_packet_width, spec.cutoff)
    [(t, _, imbalance, centroid)] = _measure(
        _wedge_gap(spec.grid_n)[None, :], [0.1], spec,
        _revival_target(spec, psi0))
    assert t == 0.1 and math.isnan(imbalance) and math.isnan(centroid)


def _public_readout(grid, spec, psi0, t):
    # one readout row from the public functions, NaN where one raises
    center = spec.packet_center
    theta = 0.0 if spec.flux is None else spec.flux.accumulated_angle(
        spec.trap, t)
    image = rs.to_grid(rs.rotate(psi0, math.pi + theta), spec.grid_n)
    row = [t, rs.fidelity(image, grid)]
    try:
        row.append(rs.population_imbalance(
            grid, weight=spec.readout_weight,
            right_window=(center - 0.5 * math.pi, center + 0.5 * math.pi),
            left_window=(center + 0.5 * math.pi, center + 1.5 * math.pi)))
    except rs.IndeterminateImbalanceError:
        row.append(math.nan)
    try:
        row.append(rs.circular_centroid(grid))
    except rs.CentroidUndefinedError:
        row.append(math.nan)
    return row


@pytest.mark.parametrize("turn_on", [None, 0.5], ids=["no-flux",
                                                      "flux-on-mid-run"])
def test_a_readout_is_bitwise_the_public_composition(trap, revival_s,
                                                     turn_on):
    # one block through the walk's target, built once without a flux and
    # per block with one, against the public functions on each row as one
    # GridState.  The packet center sits on a grid point, so the wedge-gap
    # state turned to it has both wedges empty; two of its rows are mixed
    # into the block
    flux = None if turn_on is None else rs.FluxSpec(
        0.8 * rs.HBAR, turn_on * revival_s)
    center = math.pi / 4
    spec = _linear_spec(trap, flux=flux, packet_center=center)
    model = spec.dispersion_model()
    psi0 = rs.gaussian_packet(center, spec.effective_packet_width,
                              spec.cutoff)
    targets = _revival_target(spec, psi0)
    times = np.array([0.001, 0.003, 0.5, 0.998, 1.0, 1.002, 1.01]
                     ) * revival_s
    grids = [rs.to_grid(rs.evolve_linear(psi0, t, model, flux), spec.grid_n)
             for t in times]
    grids[2] = grids[5] = rs.GridState(_wedge_gap(spec.grid_n,
                                                  spec.grid_n // 8))
    block = _measure(np.array([grid.values for grid in grids]), times, spec,
                     targets)
    expected = [_public_readout(grid, spec, psi0, t)
                for t, grid in zip(times, grids)]
    np.testing.assert_array_equal(np.array(block), np.array(expected))
    assert [k for k, row in enumerate(block)
            if math.isnan(row[2]) and math.isnan(row[3])] == [2, 5]
    assert np.shares_memory(targets([0.0]), targets([revival_s])) == (
        flux is None)


def test_records_before_an_instant_imprint_ignore_its_phase(trap,
                                                            revival_s):
    # the walk copies each record into its pending block, so an imprint of
    # pi, which multiplies the driver's row in place, leaves the records
    # before it as in the same run with phase 0
    runs = [rs.run_protocol(_linear_spec(
        trap, imprint=rs.ImprintSpec(phase), revival_time_s=revival_s,
        n_records=9)) for phase in (math.pi, 0.0)]
    before = runs[0].records[:, 0] < 0.5 * revival_s
    assert before.sum() == 4
    np.testing.assert_array_equal(runs[0].records[before],
                                  runs[1].records[before])
    assert not np.array_equal(runs[0].records[~before],
                              runs[1].records[~before])


def test_a_non_finite_row_still_fails_its_readout(trap, revival_s,
                                                  monkeypatch):
    # every measured row becomes a GridState, which refuses it
    original = _SplitStepEngine.propagate

    def poisoned(self, values, *args, **kwargs):
        out = original(self, values, *args, **kwargs).copy()
        out[..., 0] = math.nan
        return out

    monkeypatch.setattr(_SplitStepEngine, "propagate", poisoned)
    spec = _linear_spec(trap, revival_time_s=revival_s, n_records=3)
    with pytest.raises(rs.InvalidParameterError, match="finite"):
        rs.run_protocol(spec)


def _scan_spec(trap):
    # a flux, which the linear objective cancels, and the tilt and ellipse
    # terms, which move every energy
    tilted = dataclasses.replace(trap, tilt_amplitude=0.02 * trap.energy_unit,
                                 eccentricity=0.05)
    return _linear_spec(tilted, flux=rs.FluxSpec(0.3 * rs.HBAR, 1e-3),
                        include_tilt=True, include_ellipticity=True)


def _per_point_objective(spec):
    model = spec.dispersion_model()
    psi0 = rs.gaussian_packet(spec.packet_center, spec.effective_packet_width,
                              spec.cutoff)
    target = rs.rotate(psi0, math.pi)
    return (lambda t: rs.fidelity(target, rs.evolve_linear(psi0, t, model)),
            (psi0, target, model))


def _scan_cases(trap, revival_s):
    # the tilted flux spec on a count that is not a multiple of SCAN_BLOCK,
    # and the ideal spec on an even count around its period, whose two
    # middle points tie but for rounding; on this grid the larger estimate
    # is not the larger fidelity
    tilted = _per_point_objective(_scan_spec(trap))
    ideal = _per_point_objective(_linear_spec(trap))
    times = np.linspace(0.98 * revival_s, 1.02 * revival_s,
                        2 * SCAN_BLOCK + 5)
    even = np.linspace(0.98 * revival_s, 1.02 * revival_s,
                       2 * SCAN_BLOCK + 2)
    return [(*tilted, times), (*ideal, even)]


def test_the_blocked_linear_scan_is_bitwise_the_per_point_objective(
        trap, revival_s):
    cases = _scan_cases(trap, revival_s)
    (_, _, odd), (ideal, _, even) = cases
    assert len(odd) % SCAN_BLOCK != 0
    middle = [ideal(t) for t in even[SCAN_BLOCK:SCAN_BLOCK + 2]]
    assert abs(middle[0] - middle[1]) < 1e-12
    for objective, (psi0, target, model), times in cases:
        values = [objective(t) for t in times]
        best = int(np.argmax(values))
        assert _linear_scan(psi0, target, times, model, objective) == (
            best, values[best])


def test_the_scan_estimates_lie_well_inside_their_bound(trap, revival_s):
    for objective, (psi0, target, model), times in _scan_cases(
            trap, revival_s):
        estimates, margin = _scan_estimates(psi0, target, times, model)
        values = np.array([objective(t) for t in times])
        assert 0 < margin < 1e-8
        assert np.abs(estimates - values).max() <= 0.1 * margin


def test_the_linear_search_finds_the_time_of_a_per_point_scan(trap):
    # the search's coarse grid and golden-section bracket, scanned one
    # point at a time
    spec = _scan_spec(trap)
    objective, _ = _per_point_objective(spec)
    ideal = rs.revival_time(spec.trap)
    lo, hi = 0.98 * ideal, 1.02 * ideal
    count = math.ceil((hi - lo) / (0.25 / spec.trap.omega_perp)) + 1
    times = np.linspace(lo, hi, count)
    assert count % SCAN_BLOCK != 0
    best = int(np.argmax([objective(t) for t in times]))
    expected = _golden_max(objective, times[best - 1], times[best + 1],
                           1e-6 * ideal)
    assert rs.find_revival_time(spec).time_s == expected


def test_a_narrow_search_window_still_scans_eight_points(trap, monkeypatch):
    # a window of 3.4 pitches would give 5 points at the pitch alone
    spec = _linear_spec(trap, search_window=(0.9995, 1.0005))
    lo, hi, count = _search_times(spec)
    assert math.ceil((hi - lo) / (0.25 / trap.omega_perp)) + 1 == 5
    scanned = []

    def scan(psi0, target, times, *rest):
        scanned.append(len(times))
        return _linear_scan(psi0, target, times, *rest)

    monkeypatch.setattr(rs.protocol, "_linear_scan", scan)
    rs.find_revival_time(spec)
    assert scanned == [count] == [8]


# --------------------------------------------------------------------------
# split-step pipeline

def test_split_step_reproduces_the_exact_solver_when_linear(trap):
    spec_lin = _linear_spec(trap, imprint=rs.ImprintSpec(math.pi / 3),
                            cutoff=100, grid_n=256)
    spec_ss = dataclasses.replace(spec_lin, solver="splitstep",
                                  dt_factor=2e-5)
    r_lin = rs.run_protocol(spec_lin)
    r_ss = rs.run_protocol(spec_ss)
    assert abs(r_ss.revival_fidelity - r_lin.revival_fidelity) < 1e-6
    assert abs(r_ss.imbalance - r_lin.imbalance) < 1e-6


def test_split_step_search_cuts_at_a_delayed_flux_turn_on(trap, revival_s):
    # the linear objective cancels the corotated flux analytically; the
    # split-step one only matches it if the flux acts from its exact onset.
    # One turn-on lies before the search window; the other inside it, with
    # a flux so strong that missing its first few microseconds misaligns
    # the revived packet.
    for turn_on, angle in ((0.5, 1.0), (0.99, 3000.0)):
        flux = rs.FluxSpec(action=angle * rs.HBAR, turn_on=turn_on * revival_s)
        spec_lin = _linear_spec(trap, flux=flux, cutoff=100, grid_n=256)
        spec_ss = dataclasses.replace(spec_lin, solver="splitstep",
                                      dt_factor=1e-3)
        resolution = spec_lin.search_resolution_factor * revival_s
        assert abs(rs.find_revival_time(spec_ss).time_s -
                   rs.find_revival_time(spec_lin).time_s) <= resolution


def test_finite_duration_pulse_approaches_the_instant_imprint(trap):
    spec_inst = rs.ProtocolSpec(trap=trap, solver="splitstep",
                                imprint=rs.ImprintSpec(math.pi / 3),
                                cutoff=100, grid_n=256, dt_factor=2e-5)
    r_inst = rs.run_protocol(spec_inst)
    # the revival search runs imprint-free, so the pulsed run shares its time
    spec_dur = dataclasses.replace(
        spec_inst, imprint=rs.ImprintSpec(math.pi / 3, duration=100e-6),
        revival_time_s=r_inst.revival_time_s)
    r_dur = rs.run_protocol(spec_dur)
    # the fringe position barely moves; fidelity pays a small dephasing cost
    assert abs(r_dur.imbalance - r_inst.imbalance) < 5e-3
    assert abs(r_dur.revival_fidelity - r_inst.revival_fidelity) < 0.1
    assert r_dur.revival_fidelity < r_inst.revival_fidelity


@pytest.mark.parametrize("centrifugal", [False, True])
def test_linear_and_split_step_solvers_agree_on_a_pulsed_run(trap,
                                                             centrifugal):
    # without coupling the two solvers differ only in the prepared packet
    # and the revival objective; the pulse is stepped on the same grid
    spec_lin = _linear_spec(trap, imprint=rs.ImprintSpec(math.pi / 3,
                                                         duration=100e-6),
                            cutoff=100, grid_n=256, dt_factor=2e-5,
                            include_centrifugal=centrifugal)
    r_lin = rs.run_protocol(spec_lin)
    r_ss = rs.run_protocol(dataclasses.replace(spec_lin, solver="splitstep"))
    resolution = spec_lin.search_resolution_factor * rs.revival_time(trap)
    assert abs(r_ss.revival_time_s - r_lin.revival_time_s) <= resolution
    assert abs(r_ss.imbalance - r_lin.imbalance) < 1e-6
    assert abs(r_ss.revival_fidelity - r_lin.revival_fidelity) < 1e-6


# --------------------------------------------------------------------------
# scans step one batch; each row must equal the run it stands for

def _coupled_spec(trap, revival_s, **kw):
    inter = rs.InteractionSpec(scattering_length=rs.BOHR_RADIUS,
                               atom_number=5e3)
    kw.setdefault("dt_factor", 1e-4 / GUARD_RATIO)
    return rs.ProtocolSpec(trap=trap, interaction=inter, solver="splitstep",
                           cutoff=100, grid_n=256, revival_time_s=revival_s,
                           **kw)


def _serial_sweep(spec, phases):
    return np.array([[p, rs.run_protocol(dataclasses.replace(
        spec, imprint=dataclasses.replace(spec.imprint, phase=p),
        n_records=0)).imbalance] for p in phases])


def _serial_timing(spec, offsets):
    runs = [rs.run_protocol(dataclasses.replace(spec, timing_offset=o,
                                                n_records=0))
            for o in offsets]
    return np.array([[o, r.revival_fidelity, r.imbalance]
                     for o, r in zip(offsets, runs)])


_PULSE = rs.ImprintSpec(math.pi / 3, duration=100e-6)


@pytest.mark.parametrize("pulsed", [False, True],
                         ids=["instant", "pulse"])
def test_batched_coupled_sweep_is_bitwise_the_serial_runs(trap, revival_s,
                                                          pulsed):
    # the rows share every cut, so each takes exactly its own run's steps;
    # the pulse needs a finer step to stay below the step guard
    if pulsed:
        spec = _coupled_spec(trap, revival_s, imprint=_PULSE,
                             dt_factor=4e-5 / GUARD_RATIO, n_records=50)
        phases = [0.0, math.pi / 3]
    else:
        spec = _coupled_spec(trap, revival_s, n_records=50)
        phases = [0.0, 1.0, math.pi, 2.0 * math.pi]
    np.testing.assert_array_equal(rs.sweep_phase(spec, phases),
                                  _serial_sweep(spec, phases))


@pytest.mark.parametrize("case", ["flux-in-second-half", "pulse"])
def test_batched_linear_sweep_equals_the_serial_runs(trap, revival_s, case):
    # a zero-phase row of a pulsed batch takes Strang steps under a zero
    # potential where its own run takes one exact step: rounding only
    if case == "pulse":
        spec = _linear_spec(trap, imprint=_PULSE, cutoff=100, grid_n=256,
                            dt_factor=2e-5 / GUARD_RATIO, n_records=50)
    else:
        spec = _linear_spec(trap, flux=rs.FluxSpec(0.8 * rs.HBAR,
                                                   0.7 * revival_s),
                            n_records=50)
    phases = [0.0, math.pi / 3, 2.0, -1.0]
    np.testing.assert_allclose(rs.sweep_phase(spec, phases),
                               _serial_sweep(spec, phases), rtol=0,
                               atol=1e-12)


@pytest.mark.parametrize("pulsed", [False, True], ids=["instant", "pulse"])
def test_batched_timing_scan_equals_the_serial_runs(trap, pulsed):
    # rows are imprinted and read out at their own instants; the pulses of
    # different rows do not overlap, so no row's pulse is cut by another's
    if pulsed:
        spec = _linear_spec(trap, imprint=_PULSE, cutoff=100, grid_n=256,
                            dt_factor=2e-5, n_records=50)
        offsets = [150e-6, -300e-6, 0.0, 400e-6]
    else:
        spec = _linear_spec(trap, imprint=rs.ImprintSpec(math.pi / 3),
                            flux=rs.FluxSpec(0.4 * rs.HBAR), n_records=50)
        offsets = [150e-6, -300e-6, 0.0, 50e-6, -20e-6]
    np.testing.assert_allclose(rs.timing_sensitivity(spec, offsets),
                               _serial_timing(spec, offsets), rtol=0,
                               atol=1e-12)


def test_batched_coupled_timing_scan_differs_from_serial_runs_by_step_error(
        trap, revival_s):
    # each row's split steps are also cut at the other rows' imprint and
    # readout instants, which re-tiles them: the rows move by the O(dt^4)
    # step error, not by rounding only (at this step, by up to 3.6e-8 in
    # fidelity and 5.1e-10 in imbalance)
    spec = _coupled_spec(trap, revival_s, imprint=rs.ImprintSpec(1.0))
    offsets = [-50e-6, 0.0, 120e-6]
    batched = rs.timing_sensitivity(spec, offsets)
    serial = _serial_timing(spec, offsets)
    np.testing.assert_array_equal(batched[:, 0], serial[:, 0])
    assert np.max(np.abs(batched[:, 1] - serial[:, 1])) < 1e-5
    assert np.max(np.abs(batched[:, 2] - serial[:, 2])) < 1e-6


@pytest.mark.parametrize("scan", ["coupled-timing", "pulsed-sweep"])
def test_scan_rows_do_not_depend_on_the_order_of_the_values(trap, revival_s,
                                                            scan):
    # row i of the batch is run i from its imprint to the end of the walk;
    # a scan's rows, matched up by value, come out bitwise the same in any
    # order of the values
    if scan == "coupled-timing":
        spec = _coupled_spec(trap, revival_s, imprint=rs.ImprintSpec(1.0))
        values = [-50e-6, 0.0, 120e-6]
        permuted = values[::-1]
        table = rs.timing_sensitivity
    else:
        spec = _coupled_spec(trap, revival_s, imprint=_PULSE,
                             dt_factor=4e-5 / GUARD_RATIO)
        values = [0.0, 1.0, math.pi / 3, -0.5]
        permuted = [values[i] for i in (2, 0, 3, 1)]
        table = rs.sweep_phase
    rows = table(spec, values)
    rows_permuted = table(spec, permuted)
    np.testing.assert_array_equal(rows_permuted[:, 0], permuted)
    order = [values.index(v) for v in permuted]
    np.testing.assert_array_equal(rows_permuted, rows[order])


def test_one_row_too_sharp_stops_the_whole_batch(trap):
    spec = _linear_spec(trap, imprint=_PULSE, cutoff=100, grid_n=256,
                        dt_factor=2e-5)
    rs.sweep_phase(spec, [math.pi / 3])
    with pytest.raises(rs.StepSizeError):
        _serial_sweep(spec, [8.0])
    with pytest.raises(rs.StepSizeError):
        rs.sweep_phase(spec, [math.pi / 3, 8.0, 0.0])


def test_too_sharp_a_pulse_trips_the_step_guard(trap, revival_s):
    spec = rs.ProtocolSpec(trap=trap, solver="splitstep",
                           imprint=rs.ImprintSpec(math.pi / 3,
                                                  duration=20e-6),
                           cutoff=100, grid_n=256, dt_factor=2e-5,
                           revival_time_s=revival_s)
    with pytest.raises(rs.StepSizeError):
        rs.run_protocol(spec)


# --------------------------------------------------------------------------
# an unset step is derived from the phase the step guard checks

def _derived_dt_factor(peak_rate):
    phase = rs.protocol.STEP_PHASE_TARGET
    return min(rs.protocol.DT_FACTOR_CAP, phase / (
        2.0 * math.pi * peak_rate * _phase_per_pair(BLANES_MOAN)))


def _reference_coupled(trap, revival_s, a0=1.0, **kw):
    inter = rs.InteractionSpec(scattering_length=a0 * rs.BOHR_RADIUS,
                               atom_number=2e4)
    return rs.ProtocolSpec(trap=trap, interaction=inter, solver="splitstep",
                           imprint=rs.ImprintSpec(math.pi / 3), cutoff=100,
                           grid_n=256, revival_time_s=revival_s, **kw)


def test_unset_step_is_derived_from_the_peak_local_phase(
        trap, revival_s, default_packet_width):
    # coupled: |g| max|psi0|^2 of the packet the split-step solver prepares
    spec = _reference_coupled(trap, 0.05 * revival_s)
    packet = rs.ground_state_imaginary_time(
        trap, spec.interaction, 256,
        well_frequency=2.0 / (default_packet_width ** 2 * trap.time_unit))
    peak = spec.interaction.coupling_internal(trap) * float(
        np.max(np.abs(packet.values) ** 2))
    result = rs.run_protocol(spec)
    assert spec.dt_factor is None
    assert result.spec.dt_factor == pytest.approx(_derived_dt_factor(peak),
                                                  rel=1e-12)
    assert result.spec.dt_factor < rs.protocol.DT_FACTOR_CAP
    # an explicit step is taken as given
    explicit = dataclasses.replace(spec, dt_factor=1e-5)
    assert rs.run_protocol(explicit).spec == explicit
    # a weak coupling, or none and no pulse: the cap
    weak = rs.run_protocol(_reference_coupled(trap, 0.05 * revival_s,
                                              a0=0.25))
    assert weak.spec.dt_factor == rs.protocol.DT_FACTOR_CAP
    linear = rs.run_protocol(_linear_spec(trap, revival_time_s=revival_s))
    assert linear.spec.dt_factor == rs.protocol.DT_FACTOR_CAP
    # a pulse adds its peak rate, the imprint phase over the pulse length
    pulsed = rs.run_protocol(_linear_spec(trap, imprint=_PULSE, cutoff=100,
                                          grid_n=256,
                                          revival_time_s=revival_s))
    rate = _PULSE.phase / (_PULSE.duration / trap.time_unit)
    assert pulsed.spec.dt_factor == pytest.approx(_derived_dt_factor(rate),
                                                  rel=1e-12)


def test_unset_step_runs_where_an_explicit_step_trips_the_guard(trap,
                                                               revival_s):
    # at 16 a0 a fixed 2e-5 advances the peak phase by ~0.39 rad per substep
    spec = _reference_coupled(trap, 0.02 * revival_s, a0=16.0)
    with pytest.raises(rs.StepSizeError):
        rs.run_protocol(dataclasses.replace(spec, dt_factor=2e-5))
    result = rs.run_protocol(spec)
    assert result.spec.dt_factor < 5e-6
    assert np.isfinite(result.revival_fidelity)


def test_unset_step_agrees_with_half_the_step(trap, revival_s):
    # the step error at the derived step is far below the 1e-4 readout
    # tolerance (2.7e-7 here; 4.0e-6 over a full period)
    spec = _reference_coupled(trap, 0.5 * revival_s)
    derived = rs.run_protocol(spec)
    finer = rs.run_protocol(dataclasses.replace(
        spec, dt_factor=0.5 * derived.spec.dt_factor))
    assert abs(derived.revival_fidelity - finer.revival_fidelity) < 1e-4
    assert abs(derived.imbalance - finer.imbalance) < 1e-4


def test_derived_step_conserves_the_energy_without_a_pulse():
    # the reference scenario's coupled packet, stepped pulse-free over half
    # a period and sampled 50 times: the largest relative energy drift is
    # 8.7e-8 at the derived step and 5.4e-9 at half of it, the fourth-order
    # ratio of about 16
    spec = rs.build_protocol(rs.from_defaults())
    assert spec.interaction is not None and spec.imprint.duration == 0
    _, psi0 = rs.protocol._prepare(spec)
    half = 0.5 * rs.revival_time(spec.trap)
    model = spec.dispersion_model()
    derived = rs.protocol._SplitStepDriver(spec, psi0, model).dt_factor
    drifts = []
    for scale in (1.0, 0.5):
        driver = rs.protocol._SplitStepDriver(
            dataclasses.replace(spec, dt_factor=scale * derived), psi0,
            model)
        energy = driver.engine.energy(driver.values[0])
        drift = 0.0
        for k in range(50):
            driver.advance(half * k / 50, half * (k + 1) / 50)
            drift = max(drift, abs(
                driver.engine.energy(driver.values[0]) / energy - 1.0))
        drifts.append(drift)
    assert drifts[0] < 2e-7
    assert drifts[0] / drifts[1] > 10.0


def test_unset_step_sweeps_a_pulse_an_explicit_step_cannot(trap, revival_s):
    # a 2 pi imprint in 100 us trips the guard at 2e-5; the derived step
    # follows the batch's largest pulse rate
    spec = _linear_spec(trap, imprint=_PULSE, cutoff=100, grid_n=256,
                        revival_time_s=revival_s)
    phases = [0.0, math.pi / 3, 2.0 * math.pi]
    with pytest.raises(rs.StepSizeError):
        rs.sweep_phase(dataclasses.replace(spec, dt_factor=2e-5), phases)
    table = rs.sweep_phase(spec, phases)
    assert np.all(np.isfinite(table))


# --------------------------------------------------------------------------
# a walk resumes from the revival search's checkpoints

def _searched_coupled(trap, **kw):
    # as `_coupled_spec`, with the revival time left to the search
    kw.setdefault("dt_factor", 1e-4 / GUARD_RATIO)
    kw.setdefault("imprint", rs.ImprintSpec(1.0))
    kw.setdefault("interaction", rs.InteractionSpec(
        scattering_length=rs.BOHR_RADIUS, atom_number=5e3))
    return rs.ProtocolSpec(trap=trap, solver="splitstep", cutoff=100,
                           grid_n=256, **kw)


def test_a_resumed_walk_is_within_step_error_of_a_walk_from_release(trap):
    # the pinned spec has no search, so it walks from release in one
    # interval where the resumed walk cuts it at 0.49 T: the re-tiling moves
    # the readout by the O(dt^4) step error (at this step 3.9e-11 in
    # fidelity, 1.5e-11 in imbalance)
    spec = _searched_coupled(trap)
    resumed = rs.run_protocol(spec)
    pinned = dataclasses.replace(spec, revival_time_s=resumed.revival_time_s)
    cold = rs.run_protocol(pinned)
    assert resumed.revival_fidelity != cold.revival_fidelity
    assert abs(resumed.revival_fidelity - cold.revival_fidelity) < 1e-6
    assert abs(resumed.imbalance - cold.imbalance) < 1e-7
    phases = [0.0, 1.0, math.pi]
    swept = rs.sweep_phase(spec, phases)
    np.testing.assert_allclose(swept, rs.sweep_phase(pinned, phases),
                               rtol=0, atol=1e-7)
    # a sweep row is bitwise the record-free run of its phase, which
    # resumes from the same checkpoint
    assert swept[1, 1] == resumed.imbalance


@pytest.mark.parametrize("case", ["records", "imprint-before-checkpoint"])
def test_early_resumes_track_their_pinned_walks(trap, case):
    # the searched walk resumes from the latest checkpoint before its first
    # imprint, and replays each earlier record and snapshot from the
    # nearest earlier checkpoint; the pinned spec walks from release.  The
    # re-tiling moves every value by the O(dt^4) step error (at this step
    # 4.1e-10 at most in a record, 1.2e-10 in readout fidelity, 1.8e-11 in
    # imbalance, 6.4e-6 per rad in a snapshot density, 2.4e-10 in the scan)
    if case == "records":
        spec = _searched_coupled(trap, n_records=20, n_snapshots=3)
    else:
        spec = _searched_coupled(trap)
    t_star = rs.find_revival_time(spec).time_s
    pinned = dataclasses.replace(spec, revival_time_s=t_star)
    if case == "records":
        searched, cold = rs.run_protocol(spec), rs.run_protocol(pinned)
        assert searched.revival_time_s == t_star
        assert not np.array_equal(searched.records, cold.records,
                                  equal_nan=True)
        # time, fidelity and imbalance as they are; the centroid (column 3)
        # on the circle, since a packet at angle 0 reads about 0 or 2 pi
        np.testing.assert_allclose(searched.records[:, :3],
                                   cold.records[:, :3], rtol=0, atol=1e-6)
        centroid, cold_centroid = searched.records[:, 3], cold.records[:, 3]
        np.testing.assert_array_equal(np.isnan(centroid),
                                      np.isnan(cold_centroid))
        turn = (centroid - cold_centroid + math.pi) % (2.0 * math.pi) - math.pi
        np.testing.assert_allclose(turn[~np.isnan(turn)], 0.0, rtol=0,
                                   atol=1e-6)
        assert abs(searched.revival_fidelity - cold.revival_fidelity) < 1e-6
        assert abs(searched.imbalance - cold.imbalance) < 1e-7
        assert searched.snapshot_times == cold.snapshot_times
        for a, b in zip(searched.snapshots, cold.snapshots):
            np.testing.assert_allclose(a.density, b.density, rtol=0,
                                       atol=5e-5)
    else:
        offsets = [0.0, -0.02 * rs.revival_time(trap)]
        scanned = rs.timing_sensitivity(spec, offsets)
        cold = rs.timing_sensitivity(pinned, offsets)
        assert not np.array_equal(scanned, cold)
        np.testing.assert_allclose(scanned, cold, rtol=0, atol=1e-7)


@pytest.mark.parametrize("case", ["pulse-derived-step"])
def test_walks_that_cannot_resume_are_bitwise_their_pinned_walks(trap,
                                                                 case):
    # a pulse with an unset step steps finer than the search.  It has no
    # coupling, so outside the pulse both walks take exact kinetic steps,
    # which a cut at a checkpoint would change by rounding
    spec = _searched_coupled(trap, imprint=_PULSE, dt_factor=None,
                             interaction=None)
    pinned = dataclasses.replace(
        spec, revival_time_s=rs.find_revival_time(spec).time_s)
    phases = [0.0, math.pi / 3]
    np.testing.assert_array_equal(rs.sweep_phase(spec, phases),
                                  rs.sweep_phase(pinned, phases))


@pytest.mark.parametrize("dt_factor", [1e-4, 2e-5])
def test_the_search_keeps_a_fixed_list_of_whole_step_checkpoints(
        trap, dt_factor):
    spec = _searched_coupled(trap, dt_factor=dt_factor)
    store = rs.find_revival_time(spec)
    assert store.dt_factor == dt_factor
    count = rs.protocol.SEARCH_CHECKPOINTS
    assert len(store.times) == len(store.states) == count + 1
    t_pre = 0.5 * spec.search_window[0] * rs.revival_time(trap)
    assert store.times[0] == 0.0 and store.times[-1] == t_pre
    # of the prefix's n steps, the fewest no longer than the step of one
    # dt_factor per FFT pair, checkpoint k sits at round(k n / count)
    step = len(BLANES_MOAN[1]) * dt_factor * rs.revival_time(trap)
    n = math.ceil(t_pre / step)
    np.testing.assert_allclose(
        np.array(store.times) / (t_pre / n),
        [round(k * n / count) for k in range(count + 1)], rtol=0, atol=1e-9)
    assert not any(values.flags.writeable for values in store.states)


@pytest.fixture()
def searches(monkeypatch):
    """Every revival search the protocol runs, as (result, copies of its
    states as the search returned them), in call order."""
    found = []
    search = rs.protocol.find_revival_time

    def kept(spec):
        result = search(spec)
        found.append((result, [values.copy() for values in result.states]))
        return result

    monkeypatch.setattr(rs.protocol, "find_revival_time", kept)
    return found


def test_a_resumed_run_steps_from_the_checkpoints_and_leaves_them_unwritten(
        trap, searches, monkeypatch):
    # once the second run's search returns, its FFT pairs are the walk's
    # from the last checkpoint plus one replay per early record or
    # snapshot, each from the nearest earlier checkpoint; every call may
    # round its interval up by at most one step
    spec = _searched_coupled(trap, n_records=30, n_snapshots=4)
    first = rs.run_protocol(spec)
    pairs = []
    propagate = _SplitStepEngine.propagate
    per_step = len(BLANES_MOAN[1])

    def counted(engine, values, duration, dt, *args):
        if len(searches) == 2 and duration > 0:
            pairs.append(len(values) * per_step * step_count(duration, dt))
        return propagate(engine, values, duration, dt, *args)

    monkeypatch.setattr(_SplitStepEngine, "propagate", counted)
    second = rs.run_protocol(spec)
    np.testing.assert_array_equal(first.records, second.records)
    for store, kept in searches:
        for values, copy in zip(store.states, kept):
            np.testing.assert_array_equal(values, copy)
    store = searches[-1][0]
    h = spec.dt_factor * rs.revival_time(trap)
    t_pre = store.times[-1]
    segment = math.ceil(t_pre / h / rs.protocol.SEARCH_CHECKPOINTS)
    total = second.total_duration_s
    early = sum(int(np.sum(np.linspace(0.0, total, count) < t_pre))
                for count in (spec.n_records, spec.n_snapshots))
    assert early > 0
    assert sum(pairs) <= ((total - t_pre) / h + per_step * len(pairs)
                          + early * segment)


def test_an_imprint_at_the_checkpoint_instant_leaves_the_checkpoint_intact(
        trap, searches):
    # each run resumes from the last checkpoint; the instant imprint, at
    # exactly the checkpoint's time, multiplies the resumed state in place
    t_check = 0.5 * 0.98 * rs.revival_time(trap)
    spec = _searched_coupled(trap, imprint=rs.ImprintSpec(
        1.0, application_time=t_check))
    first = rs.run_protocol(spec)
    second = rs.run_protocol(spec)
    assert first.revival_time_s == second.revival_time_s
    assert first.imbalance == second.imbalance
    assert first.revival_fidelity == second.revival_fidelity
    for store, kept in searches:
        assert store.times[-1] == t_check
        np.testing.assert_array_equal(store.states[-1], kept[-1])


# each bad field with the message it raises: (message, call)
_GUARDS = {
    "window-edge-inf": ("window edges must be finite",
                        lambda trap: rs.ImprintSpec(
                            1.0, window=(0.0, math.inf))),
    "cutoff-zero": ("cutoff must be a positive integer",
                    lambda trap: rs.ProtocolSpec(trap=trap, cutoff=0)),
    "cutoff-float": ("cutoff must be a positive integer",
                     lambda trap: rs.ProtocolSpec(
                         trap=trap, cutoff=100.5, solver="linear")),
    "grid-float": ("grid_n must be a power of two >= 4",
                   lambda trap: rs.ProtocolSpec(trap=trap, grid_n=512.0)),
    "grid-below-ladder": ("cutoff 128 requires grid_n >= 258, got 256",
                          lambda trap: rs.ProtocolSpec(trap=trap,
                                                       grid_n=256)),
    "records-float": ("n_records and n_snapshots must be integers >= 0",
                      lambda trap: rs.ProtocolSpec(
                          trap=trap, n_records=2.0, solver="linear")),
    "snapshots-float": ("n_records and n_snapshots must be integers >= 0",
                        lambda trap: rs.ProtocolSpec(
                            trap=trap, n_snapshots=2.0, solver="linear")),
    "revival-time-negative": ("revival_time_s must be positive",
                              lambda trap: rs.ProtocolSpec(
                                  trap=trap, revival_time_s=-1.0)),
}


@pytest.mark.parametrize("case", sorted(_GUARDS))
def test_spec_guards_name_the_bad_field(trap, case):
    message, call = _GUARDS[case]
    with pytest.raises(rs.InvalidParameterError, match=re.escape(message)):
        call(trap)
