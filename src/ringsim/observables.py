"""Measurements on ring states: fidelity, imbalance, centroid, density.

The population imbalance mirrors the experimental readout of a two-window
interferometer: atoms are counted in two half-ring windows, optionally
weighted by a smooth cos^2 acceptance centered on each window, and the
normalized difference is reported.  For the standard protocol the imbalance
equals -cos(imprinted phase) in the ideal limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (CentroidUndefinedError, IndeterminateImbalanceError,
                     InvalidParameterError)
from .states import (TWO_PI, GridState, SpectralState, _angles,
                     _check_grid_size, to_grid)

WEIGHT_KINDS = ("cosine_squared", "uniform")


def fidelity(a, b):
    """Squared overlap |<a|b>|^2 of two states of the same representation.

    States must be both spectral with equal cutoff or both grid with equal
    size; mixing representations silently hides truncation error, so it is
    refused rather than converted.
    """
    if isinstance(a, SpectralState) and isinstance(b, SpectralState):
        if a.cutoff != b.cutoff:
            raise InvalidParameterError("cutoff mismatch in fidelity")
        return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)
    if isinstance(a, GridState) and isinstance(b, GridState):
        if a.size != b.size:
            raise InvalidParameterError("grid size mismatch in fidelity")
        return _grid_fidelity(a.values, b.values)
    raise InvalidParameterError(
        "fidelity requires two states of the same representation")


def _grid_fidelity(a: np.ndarray, b: np.ndarray) -> float:
    return float(abs(np.vdot(a, b) * TWO_PI / len(a)) ** 2)


def _grid_rows(state, grid_n: int | None = None, *, arrays: bool = True):
    """(C-ordered (rows, n) complex grid values, whether `state` was one
    state).

    `state` is a GridState; a SpectralState, synthesized on `grid_n` points
    or by default on the smallest power of two that holds its ladder; or,
    unless `arrays` is false, an array of grid values of shape (rows,
    grid_n), checked per row as `GridState` checks its values.
    """
    if isinstance(state, SpectralState):
        if grid_n is None:
            grid_n = 1
            while grid_n < 2 * state.cutoff + 2:
                grid_n *= 2
        state = to_grid(state, grid_n)
    if isinstance(state, GridState):
        rows, single = state.values[None, :], True
    elif arrays and isinstance(state, np.ndarray):
        rows, single = np.ascontiguousarray(state, dtype=np.complex128), False
        if rows.ndim != 2:
            raise InvalidParameterError(
                "grid values must be two-dimensional, one state per row")
        _check_grid_size(rows.shape[1])
        if not np.isfinite(rows).all():
            raise InvalidParameterError("grid values must be finite")
    else:
        raise InvalidParameterError("expected a SpectralState or GridState")
    if grid_n is not None and grid_n != rows.shape[1]:
        raise InvalidParameterError("grid_n does not match the state's grid")
    return rows, single


def _window_profile(angles, window, kind: str):
    """(mask, profile) of the open arc `window` sampled at `angles`.

    The arc (lo, hi), checked by `_arc`, is taken modulo 2 pi going
    counterclockwise from lo to hi; endpoints are excluded so a boundary
    grid point never counts toward both windows of a split pair.  The
    profile is zero outside the window; inside it is 1 for "uniform" and
    cos^2(alpha - window center) for "cosine_squared", which vanishes
    smoothly at the edges of a half-ring window.
    """
    angles = np.asarray(angles, dtype=float)
    lo, hi = window
    span = (hi - lo) % TWO_PI
    rel = (angles - lo) % TWO_PI
    mask = (rel > 0.0) & (rel < span)
    if kind == "uniform":
        return mask, mask.astype(float)
    center = lo + 0.5 * span
    return mask, np.where(mask, np.cos(angles - center) ** 2, 0.0)


@lru_cache(maxsize=32)
def _grid_window(grid_n: int, window: tuple, kind: str):
    """Read-only (mask, profile inside the mask) of `window` on a grid.

    The grid is that of a `grid_n`-point GridState; a readout takes the
    same windows at every record, so each pair is built once.
    """
    mask, profile = _window_profile(_angles(grid_n), window, kind)
    weights = profile[mask]
    mask.setflags(write=False)
    weights.setflags(write=False)
    return mask, weights


def _arc(window) -> tuple:
    """The edges (lo, hi) of `window`, refused unless both are finite and
    the arc counterclockwise from lo to hi is neither empty nor the full
    ring."""
    lo, hi = window
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise InvalidParameterError("window edges must be finite")
    if (hi - lo) % TWO_PI == 0.0:
        raise InvalidParameterError(
            "window must be a proper arc, not empty or the full ring")
    return lo, hi


def _windows_disjoint(first, second) -> bool:
    lo1, hi1 = first
    lo2, hi2 = second
    s1 = (hi1 - lo1) % TWO_PI
    s2 = (hi2 - lo2) % TWO_PI
    rel = (lo2 - lo1) % TWO_PI
    return rel >= s1 and rel + s2 <= TWO_PI


def window_snap_distance(window, grid_n: int) -> float:
    """Largest angular distance (rad) from a window edge to the grid.

    Window edges land between grid points in general; masks effectively snap
    them to the sampled angles.  This reports the worse of the two edge
    offsets so callers can judge (or log) the discretization of a readout
    window on a `grid_n`-point grid.  `grid_n` is a GridState's size, a
    power of two >= 4, and `window` a proper arc with finite edges, as a
    readout takes them.
    """
    _check_grid_size(grid_n, "grid_n")
    pitch = TWO_PI / grid_n
    dists = []
    for edge in _arc(window):
        rel = edge % pitch
        dists.append(min(rel, pitch - rel))
    return max(dists)


def population_imbalance(state, *, weight: str = "cosine_squared",
                         right_window=( -0.5 * np.pi, 0.5 * np.pi),
                         left_window=(0.5 * np.pi, 1.5 * np.pi),
                         grid_n: int | None = None):
    """Normalized population difference (N_R - N_L) / (N_R + N_L).

    Windows are open angular intervals (counterclockwise from first to
    second edge) and must not overlap.  `weight` selects the acceptance
    profile inside each window: "uniform" counts density as-is;
    "cosine_squared" weights by cos^2(alpha - window center), vanishing
    smoothly at the edges of a half-ring window so the readout is
    insensitive to how grid points sit on the boundary.  Raises
    IndeterminateImbalanceError when the total weighted population is too
    small to normalize.  An array of grid values of shape (rows, grid_n)
    gives one imbalance per row, bitwise that of the row as a GridState,
    and NaN for a row whose population is too small.
    """
    if weight not in WEIGHT_KINDS:
        raise InvalidParameterError(
            "weight must be one of %s" % (WEIGHT_KINDS,))
    right, left = _arc(right_window), _arc(left_window)
    if not _windows_disjoint(right, left):
        raise InvalidParameterError("readout windows overlap")
    rows, single = _grid_rows(state, grid_n)
    density = np.abs(rows) ** 2
    totals = []
    for window in (right, left):
        mask, w = _grid_window(density.shape[1], window, weight)
        # an axis-1 sum of a C-ordered block rounds each row as np.sum of
        # that row; density[:, mask] would be F-ordered, and round otherwise
        totals.append(np.add.reduce(density.compress(mask, axis=1) * w,
                                    axis=1))
    n_right, n_left = totals
    total = n_right + n_left
    if single and total[0] < 1e-12:
        raise IndeterminateImbalanceError(
            "total weighted population %.3g is too small to normalize"
            % total[0])
    imbalance = np.divide(n_right - n_left, total,
                          out=np.full(len(total), np.nan),
                          where=total >= 1e-12)
    return float(imbalance[0]) if single else imbalance


def circular_centroid(state):
    """Density centroid angle arg(<e^{i alpha}>) in [0, 2 pi).

    A spectral state is read on the smallest power-of-two grid that holds
    its ladder, as `density_profile` reads it.
    Raises CentroidUndefinedError when the circular moment is too small to
    carry a direction (e.g. a uniform or antipodally symmetric density).
    An array of grid values of shape (rows, grid_n) gives one angle per
    row, bitwise that of the row as a GridState, and NaN for a row whose
    moment is too small.
    """
    rows, single = _grid_rows(state)
    density = np.abs(rows) ** 2
    n = density.shape[1]
    phasor = np.exp(1j * _angles(n))
    moments = np.add.reduce(density * phasor, axis=1) * TWO_PI / n
    defined = np.abs(moments) >= 1e-6
    if single and not defined[0]:
        raise CentroidUndefinedError(
            "circular moment %.3g is too small to define a centroid"
            % np.abs(moments[0]))
    angles = np.where(defined, np.angle(moments) % TWO_PI, np.nan)
    # a tiny negative angle wraps to 2 pi in floating point; that is 0
    angles[angles == TWO_PI] = 0.0
    return float(angles[0]) if single else angles


@dataclass(frozen=True)
class DensityProfile:
    """Angular density n(alpha) with its grid, normalized to integrate to 1."""

    angles: np.ndarray
    density: np.ndarray

    def __post_init__(self) -> None:
        for name in ("angles", "density"):
            arr = np.array(getattr(self, name), dtype=float, copy=True)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.angles.shape != self.density.shape:
            raise InvalidParameterError("angles/density shape mismatch")

    @property
    def total(self) -> float:
        return float(np.sum(self.density) * TWO_PI / len(self.density))


def density_profile(state, grid_n: int | None = None) -> DensityProfile:
    """Angular probability density of a state on a uniform grid."""
    rows, _ = _grid_rows(state, grid_n, arrays=False)
    return DensityProfile(angles=_angles(rows.shape[1]),
                          density=np.abs(rows[0]) ** 2)
