"""Ring states: packets, spectral/grid transforms and rotations."""
import math
import re

import numpy as np
import pytest

import ringsim as rs
from ringsim.states import _fft, _ifft


def test_gaussian_packet_is_normalized():
    for width in (0.05, 0.121, 0.3):
        packet = rs.gaussian_packet(0.7, width, 128)
        assert packet.norm == pytest.approx(1.0, abs=1e-14)


def test_gaussian_packet_momentum_spread():
    # amplitudes fall as exp(-ell^2 width^2 / 4), so Var(ell) = 1 / width^2
    width = 0.2
    packet = rs.gaussian_packet(0.0, width, 60)
    var = float(np.sum(packet.ells ** 2 * np.abs(packet.amplitudes) ** 2))
    assert var == pytest.approx(1.0 / width ** 2, rel=1e-12)


def test_gaussian_packet_position_spread():
    # the packet's angular density has standard deviation width / 2
    width = 0.2
    center = 0.5
    grid = rs.to_grid(rs.gaussian_packet(center, width, 60), 256)
    density = np.abs(grid.values) ** 2 * (2.0 * np.pi / grid.size)
    angles = grid.angles.copy()
    angles[angles > np.pi] -= 2.0 * np.pi
    var = float(np.sum(density * (angles - center) ** 2))
    assert var == pytest.approx(width ** 2 / 4.0, rel=1e-6)


def test_gaussian_packet_centered_where_asked():
    packet = rs.gaussian_packet(2.2, 0.15, 80)
    assert rs.circular_centroid(packet) == pytest.approx(2.2, abs=1e-12)


def test_antipodal_packets_are_orthogonal(default_packet_width):
    packet = rs.gaussian_packet(0.0, default_packet_width, 128)
    assert rs.fidelity(packet, rs.rotate(packet, math.pi)) < 1e-12


def test_narrow_packet_needs_larger_cutoff():
    with pytest.raises(rs.CutoffInsufficientError):
        rs.gaussian_packet(0.0, 0.01, 100)
    with pytest.raises(rs.InvalidParameterError):
        rs.gaussian_packet(0.0, -0.1, 100)


def test_grid_round_trip_is_exact():
    packet = rs.gaussian_packet(0.5, 0.2, 60)
    back = rs.to_spectral(rs.to_grid(packet, 256), 60)
    assert np.max(np.abs(back.amplitudes - packet.amplitudes)) < 1e-14


def test_transforms_are_bitwise_the_numpy_fft_formulas():
    # the transforms call numpy's FFT gufuncs past the numpy.fft wrapper,
    # which must not move a bit
    packet = rs.gaussian_packet(0.4, 0.121, 200)
    grid = rs.to_grid(packet, 512)
    buf = np.zeros(512, dtype=complex)
    buf[packet.ells % 512] = packet.amplitudes
    np.testing.assert_array_equal(
        grid.values, np.fft.ifft(buf) * 512 / np.sqrt(2.0 * np.pi))
    coeff = np.fft.fft(grid.values) * np.sqrt(2.0 * np.pi) / 512
    np.testing.assert_array_equal(rs.to_spectral(grid, 200).amplitudes,
                                  coeff[packet.ells % 512])


@pytest.mark.parametrize("shape", [(512,), (7, 512)], ids=["row", "batch"])
def test_fft_helpers_are_bitwise_numpy_fft(shape):
    rng = np.random.default_rng(5)
    values = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    for helper, reference in ((_fft, np.fft.fft), (_ifft, np.fft.ifft)):
        np.testing.assert_array_equal(helper(values), reference(values))
        out = np.empty_like(values)
        assert helper(values, out=out) is out
        np.testing.assert_array_equal(out, reference(values))


def test_grid_must_hold_the_ladder():
    packet = rs.gaussian_packet(0.0, 0.121, 128)
    with pytest.raises(rs.InvalidParameterError):
        rs.to_grid(packet, 256)   # needs >= 2*128 + 2 samples
    rs.to_grid(packet, 512)       # and this size is fine


def test_state_container_validation():
    with pytest.raises(rs.InvalidParameterError):
        rs.GridState(np.ones(100, complex))       # not a power of two
    with pytest.raises(rs.InvalidParameterError):
        rs.SpectralState(np.ones(4, complex))     # even length has no ell=0


def test_rotation_moves_density_forward():
    packet = rs.gaussian_packet(0.0, 0.2, 60)
    rotated = rs.rotate(packet, 1.3)
    assert rs.circular_centroid(rotated) == pytest.approx(1.3, abs=1e-12)
    dens = np.abs(rs.to_grid(rotated, 256).values) ** 2
    angles = rs.to_grid(rotated, 256).angles
    assert angles[int(np.argmax(dens))] == pytest.approx(
        1.3, abs=2.0 * np.pi / 256)


def test_rotations_compose_and_preserve_norm():
    packet = rs.gaussian_packet(0.5, 0.2, 60)
    twice = rs.rotate(rs.rotate(packet, 0.7), -1.9)
    once = rs.rotate(packet, -1.2)
    assert np.max(np.abs(twice.amplitudes - once.amplitudes)) < 1e-14
    assert twice.norm == pytest.approx(1.0, abs=1e-14)


def test_full_turn_is_identity():
    packet = rs.gaussian_packet(0.5, 0.2, 60)
    around = rs.rotate(packet, 2.0 * math.pi)
    assert np.max(np.abs(around.amplitudes - packet.amplitudes)) < 1e-12


# each bad input with the message it raises: (message, call)
_GUARDS = {
    "two-dimensional": ("state amplitudes must be one-dimensional",
                        lambda: rs.SpectralState(np.ones((3, 3)))),
    "non-finite": ("state amplitudes must be finite",
                   lambda: rs.SpectralState([1.0, math.nan, 0.0])),
    "packet-center-nan": ("center must be finite",
                          lambda: rs.gaussian_packet(math.nan, 0.3, 64)),
    "packet-center-inf": ("center must be finite",
                          lambda: rs.gaussian_packet(math.inf, 0.3, 64)),
    "rotation-nan": ("angle must be finite", lambda: rs.rotate(
        rs.gaussian_packet(0.0, 0.3, 64), math.nan)),
    "packet-cutoff": ("cutoff must be a positive integer",
                      lambda: rs.gaussian_packet(0.0, 0.5, 0)),
    "packet-cutoff-float": ("cutoff must be a positive integer",
                            lambda: rs.gaussian_packet(0.0, 0.5, 64.0)),
    "packet-cutoff-bool": ("cutoff must be a positive integer",
                           lambda: rs.gaussian_packet(0.0, 0.5, True)),
    "grid-float": ("grid size must be a power of two >= 4",
                   lambda: rs.to_grid(rs.gaussian_packet(0.0, 0.2, 64),
                                      256.0)),
    "grid-not-power-of-two": ("grid size must be a power of two",
                              lambda: rs.to_grid(
                                  rs.gaussian_packet(0.0, 0.2, 64), 192)),
    "projection-cutoff": ("cutoff must be a positive integer",
                          lambda: rs.to_spectral(rs.GridState(np.ones(8)),
                                                 0)),
    "projection-cutoff-float": ("cutoff must be a positive integer",
                                lambda: rs.to_spectral(
                                    rs.GridState(np.ones(256)), 64.0)),
    "projection-too-fine": ("cutoff 4 requires grid size >= 10, got 8",
                            lambda: rs.to_spectral(rs.GridState(np.ones(8)),
                                                   4)),
}


@pytest.mark.parametrize("case", sorted(_GUARDS))
def test_guards_refuse_bad_states_and_sizes(case):
    message, call = _GUARDS[case]
    with pytest.raises(rs.InvalidParameterError, match=re.escape(message)):
        call()
