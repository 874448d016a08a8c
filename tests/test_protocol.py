"""Full interferometer sequence: split, imprint, recombine, read out."""
import dataclasses
import math

import numpy as np
import pytest

import ringsim as rs


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
    assert abs(found - revival_s) < 2e-6 * revival_s


def test_search_reports_a_dead_window(trap):
    spec = _linear_spec(trap, search_window=(0.0015, 0.015))
    with pytest.raises(rs.RevivalNotFoundError):
        rs.find_revival_time(spec)


def test_centrifugal_correction_retimes_the_revival(trap, revival_s):
    spec = _linear_spec(trap, include_centrifugal=True,
                        search_resolution_factor=1e-9)
    found = rs.find_revival_time(spec)
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


def test_sweep_phase_input_guards(trap):
    spec = _linear_spec(trap)
    with pytest.raises(rs.InvalidParameterError):
        rs.sweep_phase(spec, [])
    with pytest.raises(rs.InvalidParameterError):
        rs.sweep_phase(spec, [0.0, math.nan])


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
        assert abs(rs.find_revival_time(spec_ss) -
                   rs.find_revival_time(spec_lin)) <= resolution


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
    kw.setdefault("dt_factor", 1e-4)
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
                             dt_factor=4e-5, n_records=50)
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
                            dt_factor=2e-5, n_records=50)
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
    # each row's Strang steps are also cut at the other rows' imprint and
    # readout instants, which re-tiles them: the rows move by the O(dt^2)
    # step error, not by rounding only (at this step, by up to 5e-6 in
    # fidelity and 1.2e-7 in imbalance)
    spec = _coupled_spec(trap, revival_s, imprint=rs.ImprintSpec(1.0))
    offsets = [-50e-6, 0.0, 120e-6]
    batched = rs.timing_sensitivity(spec, offsets)
    serial = _serial_timing(spec, offsets)
    np.testing.assert_array_equal(batched[:, 0], serial[:, 0])
    assert np.max(np.abs(batched[:, 1] - serial[:, 1])) < 1e-5
    assert np.max(np.abs(batched[:, 2] - serial[:, 2])) < 1e-6


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
