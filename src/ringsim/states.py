"""Quantum states on a ring and the transforms between their representations.

A state is held either as complex amplitudes on the integer angular-momentum
ladder ell = -L..L (`SpectralState`) or as samples on the uniform angular grid
alpha_j = 2*pi*j/N (`GridState`).  Conventions, fixed once here:

* synthesis:  psi(alpha) = sum_ell c_ell exp(i ell alpha) / sqrt(2 pi)
* grid norm:  |psi|^2 summed with measure 2*pi/N, so both representations
  carry plain unit two-norm for a normalized state
* rotation by a positive angle displaces density toward positive alpha,
  i.e. applies exp(-i ell angle) to the amplitudes

Every module reads the ring grid through the private names here: `TWO_PI`,
the cutoff rule (`_check_cutoff`: a positive integer), the grid-size rule
(`_check_grid_size`: an integer power of two >= 4, and at least 2 L + 2 to
hold a ladder of cutoff L), the sample angles (`_angles`) and the synthesis
from ladder to grid (`_synthesize`).  The grid measure 2*pi/N is not among
them: its sites round in two orders, x * 2*pi / N and (2*pi / N) * x, and
folding them into one would move every relaxed packet by an ulp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.fft import _pocketfft_umath as _pocketfft

from .errors import CutoffInsufficientError, InvalidParameterError

TWO_PI = 2.0 * np.pi


def _is_integer(n) -> bool:
    """Whether n is a size's, cutoff's or count's type: an int, not a bool."""
    return isinstance(n, (int, np.integer)) and not isinstance(n, bool)


# The gufuncs and normalisation factors that numpy.fft.fft and ifft reach
# through their Python wrapper, called directly, along the last axis: the
# wrapper costs a quarter to a third of a call on one 512-point row.
def _fft(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    if out is None:
        out = np.empty(values.shape, dtype=np.complex128)
    return _pocketfft.fft(values, 1.0, out=out)


def _ifft(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    if out is None:
        out = np.empty(values.shape, dtype=np.complex128)
    return _pocketfft.ifft(values, 1.0 / values.shape[-1], out=out)


def _check_cutoff(cutoff) -> None:
    """Refuse a ladder cutoff that is not a positive integer."""
    if not _is_integer(cutoff) or cutoff < 1:
        raise InvalidParameterError("cutoff must be a positive integer")


def _check_grid_size(n, name: str = "grid size", cutoff=None) -> None:
    """Refuse a grid size, called `name`, that is not an integer power of
    two >= 4 or, given a ladder cutoff L, that is below 2 L + 2."""
    if not _is_integer(n) or n < 4 or n & (n - 1):
        raise InvalidParameterError(f"{name} must be a power of two >= 4")
    if cutoff is not None and n < 2 * cutoff + 2:
        raise InvalidParameterError(
            f"cutoff {cutoff} requires {name} >= {2 * cutoff + 2}, got {n}")


def _angles(n: int) -> np.ndarray:
    return TWO_PI * np.arange(n) / n


def _synthesize(amplitudes, ells, n: int) -> np.ndarray:
    """n grid values of ladder amplitudes, one ladder or one per row."""
    buf = np.zeros(amplitudes.shape[:-1] + (n,), dtype=np.complex128)
    buf[..., ells % n] = amplitudes
    return _ifft(buf) * n / np.sqrt(TWO_PI)


def _frozen_complex(values) -> np.ndarray:
    arr = np.array(values, dtype=np.complex128, copy=True)
    if arr.ndim != 1:
        raise InvalidParameterError("state amplitudes must be one-dimensional")
    if not np.all(np.isfinite(arr.view(np.float64))):
        raise InvalidParameterError("state amplitudes must be finite")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class SpectralState:
    """Amplitudes c_ell on the angular-momentum ladder ell = -L..L.

    amplitudes[i] belongs to ell = i - L where L = (len - 1) // 2.
    """

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        arr = _frozen_complex(self.amplitudes)
        if len(arr) < 3 or len(arr) % 2 == 0:
            raise InvalidParameterError(
                "spectral amplitudes need odd length >= 3 (ladder -L..L)")
        object.__setattr__(self, "amplitudes", arr)

    @property
    def cutoff(self) -> int:
        return (len(self.amplitudes) - 1) // 2

    @property
    def ells(self) -> np.ndarray:
        L = self.cutoff
        return np.arange(-L, L + 1)

    @property
    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.amplitudes) ** 2)))


@dataclass(frozen=True)
class GridState:
    """Samples psi(alpha_j) on the uniform grid alpha_j = 2*pi*j/N.

    N must be a power of two so grid sizes nest under halving/doubling.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        arr = _frozen_complex(self.values)
        _check_grid_size(len(arr))
        object.__setattr__(self, "values", arr)

    @property
    def size(self) -> int:
        return len(self.values)

    @property
    def angles(self) -> np.ndarray:
        return _angles(self.size)

    @property
    def norm(self) -> float:
        n = self.size
        return float(np.sqrt(TWO_PI / n * np.sum(np.abs(self.values) ** 2)))


def gaussian_packet(center: float, width: float, cutoff: int) -> SpectralState:
    """Normalized wrapped Gaussian packet centered at `center`.

    Built directly in the angular-momentum basis,
    c_ell ~ exp(-ell^2 width^2 / 4 - i ell center), which wraps cleanly on
    the ring and needs no position-space periodization.  `width` is the
    angular width parameter (rad); the amplitude spread on the ladder is
    1/width.

    Parameters
    ----------
    center : packet position (rad)
    width : angular width, 0 < width < 1
    cutoff : ladder cutoff L; must be >= 4/width so the discarded tail is
        below square-amplitude 1e-10 per edge mode
    """
    if not math.isfinite(center):
        raise InvalidParameterError("center must be finite")
    if not 0.0 < width < 1.0:
        raise InvalidParameterError("width must lie in (0, 1) rad")
    _check_cutoff(cutoff)
    if cutoff < 4.0 / width:
        raise CutoffInsufficientError(
            f"cutoff {cutoff} too small for width {width}; need >= {4.0 / width:.1f}")
    ells = np.arange(-cutoff, cutoff + 1)
    amps = np.exp(-0.25 * (ells * width) ** 2 - 1j * ells * center)
    amps /= np.sqrt(np.sum(np.abs(amps) ** 2))
    return SpectralState(amps)


def to_grid(state: SpectralState, grid_n: int) -> GridState:
    """Synthesize grid samples from ladder amplitudes.

    Requires grid_n >= 2L + 2 (one guard band above the ladder) and a
    power-of-two grid_n.  Exact up to rounding for band-limited states.
    """
    _check_grid_size(grid_n, cutoff=state.cutoff)
    return GridState(_synthesize(state.amplitudes, state.ells, grid_n))


def to_spectral(state: GridState, cutoff: int) -> SpectralState:
    """Project grid samples onto the ladder ell = -cutoff..cutoff.

    Requires 2*cutoff + 2 <= N; exact inverse of `to_grid` at equal sizes.
    Content above the cutoff is discarded, so the result may carry less
    than unit norm for states that are not band-limited.
    """
    n = state.size
    _check_cutoff(cutoff)
    _check_grid_size(n, cutoff=cutoff)
    coeff = _fft(state.values) * np.sqrt(TWO_PI) / n
    ells = np.arange(-cutoff, cutoff + 1)
    return SpectralState(coeff[ells % n])


def rotate(state: SpectralState, angle: float) -> SpectralState:
    """Rigidly rotate the state so density moves by +`angle` (rad).

    Multiplies c_ell by exp(-i ell angle); a packet at `center` lands at
    `center + angle`.  Rotation by pi is exactly the antipodal map used as
    the revival target.
    """
    if not math.isfinite(angle):
        raise InvalidParameterError("angle must be finite")
    amps = state.amplitudes * np.exp(-1j * state.ells * angle)
    return SpectralState(amps)
