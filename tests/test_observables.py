"""Readout observables: fidelity, imbalance, centroid, density profile."""
import math
import re

import numpy as np
import pytest

import ringsim as rs


def test_fidelity_extremes():
    a = rs.gaussian_packet(0.0, 0.2, 60)
    assert rs.fidelity(a, a) == pytest.approx(1.0, abs=1e-14)
    b = rs.rotate(a, math.pi)
    assert rs.fidelity(a, b) < 1e-12
    # symmetric in its arguments
    c = rs.rotate(a, 0.3)
    assert rs.fidelity(a, c) == pytest.approx(rs.fidelity(c, a), abs=1e-14)


def test_fidelity_accepts_grid_states():
    a = rs.gaussian_packet(0.0, 0.2, 60)
    ga = rs.to_grid(a, 256)
    assert rs.fidelity(ga, rs.to_grid(a, 256)) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_refuses_mixed_representations():
    a = rs.gaussian_packet(0.0, 0.2, 60)
    with pytest.raises(rs.InvalidParameterError):
        rs.fidelity(a, rs.to_grid(a, 256))
    with pytest.raises(rs.InvalidParameterError):
        rs.fidelity(a, rs.gaussian_packet(0.0, 0.2, 50))


def test_imbalance_signs():
    packet = rs.gaussian_packet(0.0, 0.2, 60)
    # fully inside the right window
    assert rs.population_imbalance(packet) == pytest.approx(1.0, abs=1e-9)
    flipped = rs.rotate(packet, math.pi)
    assert rs.population_imbalance(flipped) == pytest.approx(-1.0, abs=1e-9)
    for weight in ("uniform", "cosine_squared"):
        uniform_state = rs.SpectralState(np.array([0, 1, 0], complex))
        assert rs.population_imbalance(uniform_state, weight=weight) == \
            pytest.approx(0.0, abs=1e-12)


def test_imbalance_rotation_equivariance():
    packet = rs.gaussian_packet(0.4, 0.25, 60)
    theta = 1.1
    base = rs.population_imbalance(packet)
    moved = rs.population_imbalance(
        rs.rotate(packet, theta),
        right_window=(-0.5 * math.pi + theta, 0.5 * math.pi + theta),
        left_window=(0.5 * math.pi + theta, 1.5 * math.pi + theta))
    assert moved == pytest.approx(base, abs=1e-12)


def test_imbalance_rejects_overlapping_windows():
    packet = rs.gaussian_packet(0.0, 0.2, 60)
    with pytest.raises(rs.InvalidParameterError):
        rs.population_imbalance(packet,
                                right_window=(0.0, math.pi),
                                left_window=(0.5 * math.pi, 1.5 * math.pi))
    with pytest.raises(rs.InvalidParameterError):
        rs.population_imbalance(packet, weight="boxcar")


def test_imbalance_indeterminate_for_boundary_only_density():
    # all the density sits exactly on the window edges, which both windows
    # exclude: there is nothing to normalize by
    vals = np.zeros(256, complex)
    vals[64] = 1.0    # alpha = pi/2
    vals[192] = 1.0   # alpha = 3 pi/2
    vals /= math.sqrt(2.0 * math.pi / 256 * 2.0)
    state = rs.GridState(vals)
    with pytest.raises(rs.IndeterminateImbalanceError):
        rs.population_imbalance(state)


def test_window_snap_distance():
    # both edges exactly on a 4-point grid
    assert rs.window_snap_distance((0.0, 0.5 * math.pi), 4) == \
        pytest.approx(0.0, abs=1e-15)
    # never farther than half a grid cell
    for window in ((0.1, 1.0), (2.3, 5.7), (-0.4, 0.4)):
        dist = rs.window_snap_distance(window, 256)
        assert 0.0 <= dist <= math.pi / 256 + 1e-15
    with pytest.raises(rs.InvalidParameterError):
        rs.window_snap_distance((0.0, 1.0), 0)


def test_centroid_of_packets():
    # reported on [0, 2 pi)
    for center in (0.0, 1.3, -2.0, 3.1):
        packet = rs.gaussian_packet(center, 0.2, 60)
        expected = center % (2.0 * math.pi)
        assert rs.circular_centroid(packet) == pytest.approx(expected,
                                                             abs=1e-12)


def test_centroid_of_a_packet_at_zero_is_zero_not_a_full_turn():
    # the grid moment's angle is a tiny negative number, which `% 2 pi`
    # rounds up to exactly 2 pi
    packet = rs.gaussian_packet(0.0, 0.12, 128)
    assert rs.circular_centroid(rs.to_grid(packet, 512)) == 0.0
    assert rs.circular_centroid(packet) == 0.0


def test_a_spectral_centroid_is_that_of_its_smallest_grid():
    # the smallest power-of-two grid with 2 cutoff + 2 points; a ladder
    # correlation differs from these grid sums in the last bits
    for center, cutoff, grid_n in ((0.5, 60, 128), (-0.3, 64, 256),
                                   (-0.8, 128, 512)):
        packet = rs.gaussian_packet(center, 0.2, cutoff)
        assert rs.circular_centroid(packet) == rs.circular_centroid(
            rs.to_grid(packet, grid_n))


def test_centroid_undefined_for_symmetric_state():
    with pytest.raises(rs.CentroidUndefinedError):
        rs.circular_centroid(rs.SpectralState(np.array([0, 1, 0], complex)))


def test_density_profile_normalization():
    packet = rs.gaussian_packet(0.7, 0.2, 60)
    profile = rs.density_profile(packet, 256)
    assert profile.total == pytest.approx(1.0, abs=1e-12)
    assert profile.angles.shape == profile.density.shape == (256,)
    # density peaks where the packet sits
    peak = profile.angles[int(np.argmax(profile.density))]
    assert peak == pytest.approx(0.7, abs=2.0 * math.pi / 256)


def test_grid_rows_read_each_row_as_its_grid_state():
    # one value per row, bitwise the single-state call, NaN where it raises:
    # a packet at 0 (whose centroid wraps to 0), an off-axis packet, and the
    # empty state, which has no population and no moment
    states = [rs.to_grid(rs.gaussian_packet(c, 0.2, 64), 256)
              for c in (0.0, 2.3)] + [rs.GridState(np.zeros(256))]
    rows = np.array([state.values for state in states])
    window = {"right_window": (0.3, 1.9), "left_window": (2.0, 4.0),
              "weight": "uniform"}
    single = [(rs.population_imbalance(state, **window),
               rs.circular_centroid(state)) for state in states[:2]]
    block = np.column_stack([rs.population_imbalance(rows, **window),
                             rs.circular_centroid(rows)])
    np.testing.assert_array_equal(block[:2], single)
    assert block[0, 1] == 0.0
    assert np.isnan(block[2]).all()
    with pytest.raises(rs.IndeterminateImbalanceError):
        rs.population_imbalance(states[2])
    with pytest.raises(rs.CentroidUndefinedError):
        rs.circular_centroid(states[2])


def test_grid_rows_round_as_one_sum_per_row():
    # each row's windows and moment summed as a 1-D array, as np.sum of one
    # state does; only a sum along axis 1 of an F-ordered block, such as
    # density[:, mask], rounds differently
    rows = np.random.default_rng(7).normal(size=(2 * 16, 2 * 512)).view(
        complex)
    windows = ((-0.5 * math.pi, 0.5 * math.pi), (0.5 * math.pi, 1.5 * math.pi))
    imbalance, centroid = [], []
    for density in np.abs(rows) ** 2:
        sums = []
        for window in windows:
            mask, w = rs.observables._grid_window(512, window,
                                                  "cosine_squared")
            sums.append(float(np.sum(density[mask] * w)))
        n_right, n_left = sums
        imbalance.append((n_right - n_left) / (n_right + n_left))
        phasor = np.exp(1j * (2.0 * math.pi * np.arange(512) / 512))
        moment = np.sum(density * phasor) * (2.0 * math.pi) / 512
        centroid.append(float(np.angle(moment) % (2.0 * math.pi)))
    # the same rows in Fortran order read the same
    for block in (rows, np.asfortranarray(rows)):
        assert rs.population_imbalance(block).tolist() == imbalance
        assert rs.circular_centroid(block).tolist() == centroid


_PACKET = rs.gaussian_packet(0.0, 0.2, 64)
_GRID = rs.to_grid(_PACKET, 256)
_ROWS = np.repeat(_GRID.values[None, :], 3, axis=0)

# each bad input with the message it raises: (message, call)
_GUARDS = {
    "fidelity-grid-sizes": ("grid size mismatch in fidelity",
                            lambda: rs.fidelity(_GRID, rs.GridState(
                                np.ones(512)))),
    "profile-grid-n": ("grid_n does not match the state's grid",
                       lambda: rs.density_profile(_GRID, grid_n=512)),
    "profile-not-a-state": ("expected a SpectralState or GridState",
                            lambda: rs.density_profile("psi")),
    "empty-window": ("window has zero angular extent",
                     lambda: rs.population_imbalance(
                         _GRID, right_window=(0.0, 0.0))),
    "window-edge-nan": ("window edges must be finite",
                        lambda: rs.population_imbalance(
                            _GRID, right_window=(math.nan, 1.0))),
    "snap-edge-nan": ("window edges must be finite",
                      lambda: rs.window_snap_distance((math.nan, 1.0), 8)),
    "imbalance-grid-n-float": ("grid size must be a power of two >= 4",
                               lambda: rs.population_imbalance(
                                   _PACKET, grid_n=256.0)),
    "centroid-not-a-state": ("expected a SpectralState or GridState",
                             lambda: rs.circular_centroid("psi")),
    "profile-shapes": ("angles/density shape mismatch",
                       lambda: rs.DensityProfile(np.zeros(4), np.zeros(5))),
    "rows-one-dimensional": ("grid values must be two-dimensional",
                             lambda: rs.population_imbalance(_GRID.values)),
    "rows-width": ("grid size must be a power of two >= 4",
                   lambda: rs.circular_centroid(_ROWS[:, :12])),
    "rows-not-finite": ("grid values must be finite",
                        lambda: rs.population_imbalance(np.where(
                            np.arange(3)[:, None] == 1, np.nan, _ROWS))),
    "rows-grid-n": ("grid_n does not match the state's grid",
                    lambda: rs.population_imbalance(_ROWS, grid_n=512)),
    "fidelity-rows": (
        "fidelity requires two states of the same representation",
        lambda: rs.fidelity(_ROWS, _ROWS)),
    "fidelity-rows-and-state": (
        "fidelity requires two states of the same representation",
        lambda: rs.fidelity(_ROWS, _GRID)),
}


@pytest.mark.parametrize("case", sorted(_GUARDS))
def test_guards_refuse_mismatched_or_unknown_inputs(case):
    message, call = _GUARDS[case]
    with pytest.raises(rs.InvalidParameterError, match=re.escape(message)):
        call()
