"""The test suite's own reference computations (`tests/oracles.py`)."""
import ast
import pathlib

import numpy as np
import pytest

import oracles

ELLS = np.array([0, 1, 2, 3, 5, 8])
QUARTER = 0.25 * (ELLS ** 2 - 0.25)


def test_oracles_import_nothing_from_ringsim():
    # an oracle that shares code with the package cannot judge it
    tree = ast.parse(pathlib.Path(oracles.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
    assert imported, "no imports found in tests/oracles.py"
    assert [name for name in imported
            if name.partition(".")[0] == "ringsim"] == []


def test_tilt_oracle_needs_margin_above_ell():
    with pytest.raises(ValueError, match="cutoff too close"):
        oracles.tilt_ladder_shift(0.01, 0.0, 44, cutoff=48)


@pytest.mark.parametrize("ell", [0, 1, 5])
def test_tilt_oracle_is_zero_without_a_tilt(ell):
    assert oracles.tilt_ladder_shift(0.0, 0.0, ell) == 0.0


@pytest.mark.parametrize("ell", [0, 1, 2, 3])
def test_tilt_oracle_doublet_mean_ignores_the_tilt_phase(ell):
    # rotating the potential is a gauge change of the ladder basis, so the
    # levels keep their values; subtracting ell^2 / 2 leaves the shift with
    # eigvalsh's absolute rounding, about 1e-14
    at_zero = oracles.tilt_ladder_shift(0.04, 0.0, ell)
    for phase in (0.7, 2.0, -3.0):
        assert oracles.tilt_ladder_shift(0.04, phase, ell) == pytest.approx(
            at_zero, rel=0, abs=1e-13)


def test_curve_oracle_is_exact_on_a_circle():
    levels = oracles.ellipse_curve_levels(1.0, 1.0, 8)
    np.testing.assert_allclose(levels, 0.5 * (np.arange(9) ** 2 - 0.25),
                               rtol=0, atol=1e-13)


def test_curve_shift_with_r_the_semi_major_axis_is_a_quarter():
    # the eps^6 residue of the extrapolation at probes 0.02 and 0.01 reads
    # 5.6e-8 relative at ell = 0 and 1.4e-8 above
    np.testing.assert_allclose(
        oracles.ellipse_curve_shift(ELLS, "semi-major"), QUARTER, rtol=1e-7)


def test_curve_shift_with_r_the_semi_minor_axis_flips_sign():
    np.testing.assert_allclose(
        oracles.ellipse_curve_shift(ELLS, "semi-minor"), -QUARTER, rtol=1e-7)


def test_curve_shift_with_r_the_mean_radius_vanishes():
    shift = oracles.ellipse_curve_shift(ELLS, "mean")
    assert float(np.max(np.abs(shift))) < 6e-8


def test_curve_oracle_is_converged_in_modes_and_samples():
    fine = oracles.ellipse_curve_shift(ELLS)
    coarse = oracles.ellipse_curve_shift(ELLS, modes=65, samples=2048)
    np.testing.assert_allclose(coarse, fine, rtol=1e-9)


def test_rk4ip_oracle_is_exact_without_a_local_term():
    # with g = 0 every stage vanishes and a step is two kinetic half steps
    n = 64
    angles = 2.0 * np.pi * np.arange(n) / n
    values = np.exp(np.cos(angles) + 1j * np.sin(2.0 * angles))
    energies = 0.5 * np.fft.fftfreq(n, 1.0 / n) ** 2
    exact = np.fft.ifft(np.exp(-1j * 0.7 * energies) * np.fft.fft(values))
    evolved = oracles.rk4ip(values, energies, 0.0, 0.7, 50)
    assert np.max(np.abs(evolved - exact)) < 1e-12
