"""Time evolution on the ring: exact spectral propagation and split-step GPE.

Linear dynamics is diagonal in the angular-momentum ladder, so evolution is
a per-ell phase exp(-i (E(ell) t + theta_f(t) ell) / hbar) applied in one
shot for any duration (`evolve_linear` on a spectral state).  theta_f is the
accumulated gauge-flux angle; a constant flux rotates every revival by
(flux action)/hbar per ideal period.

The protocol drives one engine on the angular grid, with the dispersion
evaluated on the full grid ladder.  An interval with a mean-field coupling
or a potential takes Strang-split FFT steps, the density and potential
acting in the local halves.  Without either the local halves are the
identity, so the engine applies the kinetic phase once, exactly, over the
whole interval.

Imaginary-time propagation of the same engine relaxes to the mean-field
ground state in an angular well, which is how the interference protocol
prepares its initial packet.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .constants import HBAR
from .errors import (AttractiveCouplingWarning, ConvergenceError,
                     InvalidParameterError, StepSizeError, require_finite)
from .spectrum import DispersionModel, TrapSpec, revival_time
from .states import GridState, SpectralState, gaussian_packet, to_grid

TWO_PI = 2.0 * np.pi

# Largest local phase advance allowed in one split step (rad).  Above this
# the Strang error is no longer small and the step must be refused.
LOCAL_PHASE_LIMIT = 0.1


@dataclass(frozen=True)
class FluxSpec:
    """Constant artificial gauge flux threading the ring.

    `action` is the flux in action units (J s): coupling constant times flux,
    e.g. q * B * pi R^2 for a charge in a uniform magnetic field.  The
    revival observed under this flux is rotated by action/hbar radians per
    ideal revival period, with sense matching `states.rotate`.
    `turn_on` delays the onset (s); before it the flux contributes nothing.
    """

    action: float
    turn_on: float = 0.0

    def __post_init__(self) -> None:
        require_finite(self, "action", "turn_on")
        if self.turn_on < 0:
            raise InvalidParameterError("turn_on must be >= 0")

    def angle_per_revival(self) -> float:
        """Revival rotation angle per ideal period, action/hbar (rad)."""
        return self.action / HBAR

    def accumulated_angle(self, trap: TrapSpec, duration: float) -> float:
        """Flux angle theta_f (rad) accumulated after `duration` seconds.

        Grows linearly at rate (action/hbar)/T_rev with T_rev the ideal
        revival period of `trap`, regardless of any spectrum corrections.
        """
        active = max(0.0, duration - self.turn_on)
        return self.angle_per_revival() * active / revival_time(trap)


@dataclass(frozen=True)
class InteractionSpec:
    """Mean-field contact interaction for a quasi-1d ring condensate.

    The 3d coupling 4 pi hbar^2 a N / m reduced over the transverse ground
    state gives the line coupling g1 = 2 hbar omega_perp a N.  Positive
    scattering length is repulsive; attractive input is allowed but warned
    about, since bright-soliton collapse is outside this model's trust region.
    """

    scattering_length: float
    atom_number: float

    def __post_init__(self) -> None:
        require_finite(self, "scattering_length", "atom_number")
        if self.atom_number < 0:
            raise InvalidParameterError("atom_number must be >= 0")
        if self.scattering_length < 0 and self.atom_number > 0:
            warnings.warn("attractive interactions: mean-field results are "
                          "only trustworthy below the collapse threshold",
                          AttractiveCouplingWarning, stacklevel=2)

    def coupling(self, trap: TrapSpec) -> float:
        """Line-density coupling g1 = 2 hbar omega_perp a N (J m)."""
        return 2.0 * HBAR * trap.omega_perp * self.scattering_length * \
            self.atom_number

    def coupling_internal(self, trap: TrapSpec) -> float:
        """Dimensionless ring coupling g1 m R / hbar^2."""
        return self.coupling(trap) * trap.mass * trap.radius / HBAR ** 2


def evolve_linear(state: SpectralState, duration: float,
                  model: DispersionModel,
                  flux: FluxSpec | None = None) -> SpectralState:
    """Evolve a spectral state for `duration` seconds under `model`.

    Exact for linear dynamics: each amplitude picks up
    exp(-i E(ell) t / hbar - i theta_f(t) ell).  The model cutoff must match
    the state cutoff so no amplitude is left without an energy.
    """
    if duration < 0:
        raise InvalidParameterError("duration must be >= 0")
    if model.cutoff != state.cutoff:
        raise InvalidParameterError(
            "dispersion cutoff %d does not match state cutoff %d"
            % (model.cutoff, state.cutoff))
    t_int = duration / model.trap.time_unit
    phases = model.energies * t_int
    if flux is not None:
        theta = flux.accumulated_angle(model.trap, duration)
        phases = phases + theta * state.ells
    return SpectralState(state.amplitudes * np.exp(-1j * phases))


def half_revival_superposition(state: SpectralState) -> SpectralState:
    """Apply the exact free-ring half-revival map exp(-i pi ell^2 / 2).

    Equal to e^{-i pi/4} (1 + i . rotate by pi)/sqrt(2): even ladder
    amplitudes keep phase 1, odd ones get -i, splitting any localized packet
    into a balanced copy at its antipode.  Trap-free identity; split-off
    corrections are handled by `evolve_linear` with the corrected model.
    """
    parity_phase = np.exp(-0.5j * np.pi * state.ells.astype(float) ** 2)
    return SpectralState(state.amplitudes * parity_phase)


# ---------------------------------------------------------------------------
# split-step engine

class _SplitStepEngine:
    """Strang-split FFT stepper for the ring GPE in internal units.

    i d psi / dt = E(-i d/dalpha) psi + [V(alpha, t) + g |psi|^2] psi

    with E the (possibly corrected) dispersion evaluated on the full FFT
    harmonic ladder and V an arbitrary time-dependent angular potential.
    One `step` is local half / kinetic full / local half; the kinetic phase
    also carries the gauge-flux term linear in ell.  With no coupling and no
    potential `propagate` takes one exact kinetic step instead.

    Values may be one state of shape (grid_n,) or a batch of shape
    (rows, grid_n), one state per row; the FFTs run along the last axis and
    a potential may differ per row.  A batch steps like its rows stepped one
    by one, except that the step guard takes the largest phase over all rows.
    """

    def __init__(self, model: DispersionModel, grid_n: int,
                 interaction: InteractionSpec | None = None,
                 flux: FluxSpec | None = None):
        if grid_n < 4 or grid_n & (grid_n - 1):
            raise InvalidParameterError("grid_n must be a power of two >= 4")
        self.grid_n = grid_n
        self.coupling = (interaction.coupling_internal(model.trap)
                         if interaction is not None else 0.0)
        self.angles = TWO_PI * np.arange(grid_n) / grid_n
        # integer harmonics of the grid in FFT order
        self.harmonics = np.rint(np.fft.fftfreq(grid_n) * grid_n).astype(int)
        self.energies = model.internal_at(self.harmonics)
        # kinetic frequencies with the flux on
        rate = flux.angle_per_revival() / TWO_PI if flux is not None else 0.0
        self.flux_energies = self.energies + rate * self.harmonics
        self._kin_key = None
        self._kin_factor = None

    def _kinetic(self, key, factor) -> np.ndarray:
        # one slot: every step of an interval, or of a relaxation, reuses it
        if key != self._kin_key:
            self._kin_key = key
            self._kin_factor = factor()
        return self._kin_factor

    def kinetic_phase(self, dt: float, flux_on: bool = True) -> np.ndarray:
        w = self.flux_energies if flux_on else self.energies
        return self._kinetic((dt, flux_on), lambda: np.exp(-1j * w * dt))

    def _local_term(self, values: np.ndarray, potential) -> np.ndarray:
        local = self.coupling * np.abs(values) ** 2
        if potential is not None:
            local = local + potential
        return local

    @staticmethod
    def _check_step(local: np.ndarray, dt: float) -> None:
        peak = float(np.max(np.abs(local))) * abs(dt)
        if peak >= LOCAL_PHASE_LIMIT:
            raise StepSizeError(
                "local phase advance %.3g rad per step exceeds %.2g; "
                "reduce the step size" % (peak, LOCAL_PHASE_LIMIT))

    def step(self, values: np.ndarray, dt: float, potential=None,
             flux_on: bool = True) -> np.ndarray:
        """One Strang step of size dt (internal units) in place of real time.

        `potential` is the dimensionless angular potential sampled on the
        grid (or None); `flux_on` False drops the flux term, as before a
        delayed turn-on.  Raises StepSizeError when the local phase advance
        |V + g n| dt of this step exceeds the trust limit.
        """
        local = self._local_term(values, potential)
        self._check_step(local, dt)
        half = np.exp(-0.5j * dt * local)
        values = values * half
        values = np.fft.ifft(self.kinetic_phase(dt, flux_on) *
                             np.fft.fft(values))
        # recompute the density for the second half step
        local = self._local_term(values, potential)
        values = values * np.exp(-0.5j * dt * local)
        return values

    def propagate(self, values: np.ndarray, duration: float, dt: float,
                  potential=None, flux_on: bool = True) -> np.ndarray:
        """Step across `duration` (internal units) in equal Strang steps.

        The step count is round(duration / dt), at least one, so the steps
        tile the interval exactly; a non-positive duration is a no-op.  The
        local half-steps keep the density, so the closing half of one step
        and the opening half of the next fuse into one full local step, and
        the step guard of `step` runs on the density already in hand.  With
        no coupling and no potential the local half-steps are the identity,
        so one kinetic step over the whole interval is exact.
        """
        if duration <= 0:
            return values
        if self.coupling == 0.0 and potential is None:
            return np.fft.ifft(self.kinetic_phase(duration, flux_on) *
                               np.fft.fft(values))
        n = max(1, int(round(duration / dt)))
        h = duration / n
        kinetic = self.kinetic_phase(h, flux_on)
        local = self._local_term(values, potential)
        self._check_step(local, h)
        values = values * np.exp(-0.5j * h * local)
        for _ in range(n - 1):
            values = np.fft.ifft(kinetic * np.fft.fft(values))
            local = self._local_term(values, potential)
            self._check_step(local, h)
            values *= np.exp(-1j * h * local)
        values = np.fft.ifft(kinetic * np.fft.fft(values))
        return values * np.exp(-0.5j * h * self._local_term(values, potential))

    def imaginary_step(self, values: np.ndarray, dtau: float,
                       potential=None) -> np.ndarray:
        """One normalized imaginary-time step (no trust-limit check)."""
        local = self._local_term(values, potential)
        values = values * np.exp(-0.5 * dtau * local)
        kin = self._kinetic((dtau, None),
                            lambda: np.exp(-dtau * self.energies))
        values = np.fft.ifft(kin * np.fft.fft(values))
        local = self._local_term(values, potential)
        values = values * np.exp(-0.5 * dtau * local)
        norm = np.sqrt(TWO_PI / self.grid_n * np.sum(np.abs(values) ** 2))
        return values / norm

    def energy(self, values: np.ndarray, potential=None) -> float:
        """Mean-field energy functional (internal units) of a unit-norm state."""
        dalpha = TWO_PI / self.grid_n
        coeff = np.fft.fft(values) / self.grid_n
        kinetic = TWO_PI * np.sum(self.energies * np.abs(coeff) ** 2)
        density = np.abs(values) ** 2
        pot = 0.0
        if potential is not None:
            pot = dalpha * np.sum(potential * density)
        inter = 0.5 * self.coupling * dalpha * np.sum(density ** 2)
        return float(kinetic + pot + inter)


def step_nonlinear(state: GridState, dt: float, model: DispersionModel,
                   interaction: InteractionSpec | None = None,
                   flux: FluxSpec | None = None,
                   potential=None) -> GridState:
    """Advance a grid state by one Strang split step of `dt` seconds.

    Convenience wrapper over the engine for single-step use; the protocol
    driver keeps an engine alive across steps instead.  `potential` is an
    angular potential in J sampled on the state's grid.  A flux passed here
    is treated as always on (no turn_on bookkeeping at single-step level).
    """
    engine = _SplitStepEngine(model, state.size, interaction, flux)
    pot_int = None
    if potential is not None:
        pot_int = np.asarray(potential, dtype=float) / model.trap.energy_unit
        if pot_int.shape != (state.size,):
            raise InvalidParameterError("potential must match the grid size")
    dt_int = dt / model.trap.time_unit
    return GridState(engine.step(state.values.copy(), dt_int, pot_int))


def _wrapped_angle(angles: np.ndarray, center: float) -> np.ndarray:
    return (angles - center + np.pi) % TWO_PI - np.pi


def ground_state_imaginary_time(trap: TrapSpec,
                                interaction: InteractionSpec | None = None,
                                grid_n: int = 512,
                                well_frequency: float | None = None,
                                well_center: float = 0.0,
                                tolerance: float = 1e-12,
                                max_steps: int = 400000) -> GridState:
    """Relax to the mean-field ground state of an angular harmonic well.

    The well is V(alpha) = (m/2) wf^2 R^2 wrap(alpha - center)^2 with
    `well_frequency` wf in rad/s (defaults to the transverse frequency, the
    natural choice when one arm of the trap provides the angular pinning).
    Convergence is declared when the energy functional drifts by less than
    `tolerance` (internal units) per step, measured over blocks of steps to
    stay above float noise.  Raises ConvergenceError if `max_steps` is
    exhausted first, or immediately if `tolerance` is not positive (an
    energy drift can never fall below a non-positive bound).
    """
    if tolerance <= 0:
        raise ConvergenceError("tolerance must be positive: per-step energy "
                               "drift cannot reach a non-positive bound")
    if max_steps < 1:
        raise InvalidParameterError("max_steps must be >= 1")
    wf = trap.omega_perp if well_frequency is None else well_frequency
    if wf <= 0:
        raise InvalidParameterError("well_frequency must be positive")
    wf_int = wf * trap.time_unit
    dtau = 1e-3 / wf_int
    engine = _SplitStepEngine(DispersionModel(trap=trap, cutoff=1), grid_n,
                              interaction)
    pot = 0.5 * wf_int ** 2 * _wrapped_angle(engine.angles, well_center) ** 2

    guess = gaussian_packet(well_center, min(1.0 / np.sqrt(wf_int), 0.5),
                            cutoff=grid_n // 2 - 1)
    values = to_grid(guess, grid_n).values.copy()

    block = 50
    e_prev = engine.energy(values, pot)
    steps = 0
    while steps < max_steps:
        todo = min(block, max_steps - steps)
        for _ in range(todo):
            values = engine.imaginary_step(values, dtau, pot)
        steps += todo
        e_now = engine.energy(values, pot)
        if abs(e_now - e_prev) / todo < tolerance:
            return GridState(values)
        e_prev = e_now
    raise ConvergenceError(
        "imaginary-time relaxation did not converge in %d steps "
        "(last per-step energy drift %.3g)" % (max_steps,
                                               abs(e_now - e_prev) / todo))

