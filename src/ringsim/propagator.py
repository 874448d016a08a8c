"""Time evolution on the ring: exact spectral propagation and split-step GPE.

Linear dynamics is diagonal in the angular-momentum ladder, so evolution is
a per-ell phase exp(-i (E(ell) t + theta_f(t) ell) / hbar) applied in one
shot for any duration (`evolve_linear` on a spectral state).  theta_f is the
accumulated gauge-flux angle; a constant flux rotates every revival by
(flux action)/hbar per ideal period.

The protocol drives one engine on the angular grid, with the dispersion
evaluated on the full grid ladder.  Its real-time loop takes split FFT
steps of a given scheme (Strang, or the fourth-order Blanes-Moan
composition the protocol steps with) where a mean-field coupling or a
potential acts, and one exact kinetic step across an interval with
neither; its imaginary-time loop relaxes to the mean-field ground state in
an angular well, which is how the interference protocol prepares its
initial packet.  Both loops step in place through one local-term routine,
and the engine keeps the last real-time kinetic factor for the next
interval of equal step.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .constants import HBAR
from .errors import (AttractiveCouplingWarning, ConvergenceError,
                     InvalidParameterError, StepSizeError,
                     _outside_stacklevel, require_finite)
from .spectrum import DispersionModel, TrapSpec, revival_time
from .states import (TWO_PI, GridState, SpectralState, _angles,
                     _check_grid_size, _fft, _ifft, gaussian_packet, to_grid)

# Largest local phase advance allowed in one local substep (rad).  Above
# this the splitting error is no longer small and the step must be refused.
LOCAL_PHASE_LIMIT = 0.1

# Splitting schemes: (local, kinetic) coefficients in units of the step h.
# A step is local a_0 h, kinetic b_0 h, local a_1 h, ..., kinetic b_m-1 h,
# local a_m h, so it takes m FFT pairs.  STRANG is local half / kinetic full
# / local half.  BLANES_MOAN is the optimised fourth-order S6 of Blanes and
# Moan, J. Comput. Appl. Math. 142, 313 (2002), Table 2, with the local
# term as their "A" operator: six FFT pairs per step.
STRANG = ((0.5, 0.5), (1.0,))
_A1, _A2, _A3 = 0.0792036964311957, 0.353172906049774, -0.0420650803577195
_B1, _B2 = 0.209515106613362, -0.143851773179818
BLANES_MOAN = ((_A1, _A2, _A3, 1.0 - 2.0 * (_A1 + _A2 + _A3), _A3, _A2, _A1),
               (_B1, _B2, 0.5 - _B1 - _B2, 0.5 - _B1 - _B2, _B2, _B1))


def fused_local_coefficients(scheme) -> tuple:
    """Local coefficients of a scheme's substeps between two FFT pairs.

    Entry k is the coefficient before kinetic substep k of a step; entry 0
    fuses the closing local substep of the step before with the opening one.
    """
    local, kinetic = scheme
    return (local[-1] + local[0],) + tuple(local[1:len(kinetic)])


def step_count(duration: float, dt: float) -> int:
    """The fewest equal steps, at least one, that tile `duration` with none
    longer than `dt`.  A duration of n dt, whose quotient may round to just
    above n, takes n steps."""
    return max(1, math.ceil(duration / dt * (1.0 - 1e-12)))


def local_phase_per_pair(scheme) -> float:
    """Largest fused local phase of `scheme` in units of h / m.

    m = len(kinetic) FFT pairs make one step h, so at equal cost per FFT
    pair the peak local phase of a substep is this times the peak local
    rate times the mean time per pair, h / m.  Strang's is 1.
    """
    fused = fused_local_coefficients(scheme)
    return len(scheme[1]) * max(abs(c) for c in fused)


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
                          AttractiveCouplingWarning,
                          stacklevel=_outside_stacklevel())

    def coupling(self, trap: TrapSpec) -> float:
        """Line-density coupling g1 = 2 hbar omega_perp a N (J m), which
        reads +0, not -0, with no atoms."""
        return 2.0 * HBAR * trap.omega_perp * self.scattering_length * \
            self.atom_number + 0.0

    def coupling_internal(self, trap: TrapSpec) -> float:
        """Dimensionless ring coupling g1 m R / hbar^2."""
        return self.coupling(trap) * trap.mass * trap.radius / HBAR ** 2


@dataclass(frozen=True)
class _MeanField:
    """The quasi-1d mean-field term g |psi|^2 of a ring, in internal units.

    The one holder of the ring coupling g (`coupling_internal`, 0 without an
    interaction): the step loops, the energy, the derived step and the
    linear solver's refusal all read it here.
    """

    g: float

    @classmethod
    def of(cls, interaction: InteractionSpec | None,
           trap: TrapSpec) -> _MeanField:
        return cls(0.0 if interaction is None
                   else interaction.coupling_internal(trap))

    @property
    def acts(self) -> bool:
        return self.g != 0.0

    def local_into(self, values: np.ndarray, potential,
                   out: np.ndarray) -> None:
        """The local term V + g |values|^2 into the real buffer `out`."""
        np.abs(values, out=out)
        out *= out
        out *= self.g
        if potential is not None:
            out += potential

    def energy(self, density: np.ndarray, dalpha: float):
        """Interaction energy 1/2 g dalpha sum n^2 of a density n."""
        return 0.5 * self.g * dalpha * np.sum(density ** 2)

    def peak_rate(self, values: np.ndarray) -> float:
        """Largest local rate |g| max |values|^2 of the term alone."""
        return abs(self.g) * float(np.max(np.abs(values) ** 2))


def evolve_linear(state: SpectralState, duration: float,
                  model: DispersionModel,
                  flux: FluxSpec | None = None) -> SpectralState:
    """Evolve a spectral state for `duration` seconds under `model`.

    Exact for linear dynamics: each amplitude picks up
    exp(-i E(ell) t / hbar - i theta_f(t) ell).  The model cutoff must match
    the state cutoff so no amplitude is left without an energy.
    """
    if not 0 <= duration < math.inf:
        raise InvalidParameterError("duration must be finite and >= 0")
    if model.cutoff != state.cutoff:
        raise InvalidParameterError(
            "dispersion cutoff %d does not match state cutoff %d"
            % (model.cutoff, state.cutoff))
    theta = None if flux is None else flux.accumulated_angle(model.trap,
                                                             duration)
    return SpectralState(_evolved(state, duration, model, theta))


def _evolved(state: SpectralState, durations, model: DispersionModel,
             theta: float | None = None) -> np.ndarray:
    """Amplitudes exp(-i E(ell) t - i theta ell) c_ell at durations t (s).

    One row per duration for an array of durations, one ladder for a
    scalar; the flux angle `theta` is for a scalar duration only.  The one
    arithmetic of `evolve_linear` and of the block rows of the linear
    revival search's scan, so a row is bitwise that duration's
    `evolve_linear`.
    """
    t_int = np.divide(durations, model.trap.time_unit)
    phases = np.multiply.outer(t_int, model.energies)
    if theta is not None:
        phases = phases + theta * state.ells
    return state.amplitudes * np.exp(-1j * phases)


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
    """Split-step FFT stepper for the ring GPE in internal units.

    i d psi / dt = E(-i d/dalpha) psi + [V(alpha, t) + g |psi|^2] psi

    with E the (possibly corrected) dispersion evaluated on the full FFT
    harmonic ladder and V an arbitrary time-dependent angular potential.
    Two loops step a copy of the caller's values in place, alternating
    local substeps, with the local term V + g |psi|^2 from `mean_field`,
    and kinetic substeps: `propagate` in real time, in the steps of a
    splitting scheme (STRANG by default), where the kinetic phase also
    carries the gauge-flux term linear in ell, and `relax` in imaginary
    time, in Strang steps, which builds its real kinetic factor once per
    call.  `kinetic_phase` keeps the last two real-time factors used: the
    exact kinetic steps between records take a few distinct durations,
    since equally spaced times round to unequal gaps, and most gaps repeat
    one of the last two.

    Values may be one state of shape (grid_n,) or a batch of shape
    (rows, grid_n), one state per row; the FFTs run along the last axis and
    a potential may differ per row.  A batch steps like its rows stepped one
    by one, except that the step guard takes the largest phase over all rows.
    """

    def __init__(self, model: DispersionModel, grid_n: int,
                 interaction: InteractionSpec | None = None,
                 flux: FluxSpec | None = None):
        _check_grid_size(grid_n, "grid_n")
        self.grid_n = grid_n
        self.mean_field = _MeanField.of(interaction, model.trap)
        self.angles = _angles(grid_n)
        # integer harmonics of the grid in FFT order
        self.harmonics = np.rint(np.fft.fftfreq(grid_n) * grid_n).astype(int)
        self.energies = model.internal_at(self.harmonics)
        # kinetic frequencies with the flux on
        rate = flux.angle_per_revival() / TWO_PI if flux is not None else 0.0
        self.flux_energies = self.energies + rate * self.harmonics
        # (dt, flux_on) -> factor, the last two used, least recent first
        self._kin = {}

    def kinetic_phase(self, dt: float, flux_on: bool = True) -> np.ndarray:
        key = (dt, flux_on)
        factor = self._kin.pop(key, None)
        if factor is None:
            w = self.flux_energies if flux_on else self.energies
            factor = np.exp(-1j * w * dt)
            if len(self._kin) == 2:
                del self._kin[next(iter(self._kin))]
        self._kin[key] = factor
        return factor

    @staticmethod
    def _check_step(local: np.ndarray, scale: float) -> None:
        peak = float(np.abs(local).max()) * scale
        if peak >= LOCAL_PHASE_LIMIT:
            raise StepSizeError(
                "local phase advance %.3g rad per substep reaches the limit "
                "%.2g rad; lower dt in step_nonlinear, or dt_factor (config "
                "key dt_rev_factor; auto derives it from the coupling and "
                "the pulse) in a protocol run" % (peak, LOCAL_PHASE_LIMIT))

    def propagate(self, values: np.ndarray, duration: float, dt: float,
                  potential=None, flux_on: bool = True,
                  scheme=STRANG) -> np.ndarray:
        """Step across `duration` (internal units) in equal steps of `scheme`.

        The steps tile the interval exactly, as the fewest equal steps no
        longer than dt (`step_count`), so the guard's phase at dt bounds
        every step; a non-positive duration is a no-op.  The local substeps
        keep the density, so the closing local substep of one step and the
        opening one of the next fuse into one.  The kinetic factors are
        built once per call, one per distinct coefficient.
        `potential` is the dimensionless angular potential sampled on the
        grid (or None); `flux_on` False drops the flux term, as before a
        delayed turn-on.  Before every FFT pair the step guard raises
        StepSizeError when the local phase advance |V + g n| c h, taken on
        the density in hand with c the scheme's largest fused local
        coefficient, exceeds the trust limit.  With no coupling and no
        potential the local substeps are the identity, so one kinetic step
        over the whole interval is exact.
        """
        if duration <= 0:
            return values
        if not self.mean_field.acts and potential is None:
            return _ifft(self.kinetic_phase(duration, flux_on) *
                         _fft(values))
        opening, closing = scheme[0][0], scheme[0][-1]
        fused = fused_local_coefficients(scheme)
        m = len(fused)
        n = step_count(duration, dt)
        h = duration / n
        guard = max(abs(c) for c in fused) * h
        factors = {c: self.kinetic_phase(c * h, flux_on)
                   for c in dict.fromkeys(scheme[1])}
        kinetic = [factors[c] for c in scheme[1]]
        values = values.copy()
        spectrum = np.empty_like(values)
        phase = np.empty_like(values)
        local = np.empty(values.shape)
        local_into = self.mean_field.local_into
        pairs = n * m
        for k in range(pairs + 1):
            local_into(values, potential, local)
            if k < pairs:
                self._check_step(local, guard)
            # cos and sin of -c h local, bitwise exp(-i c h local)
            c = opening if k == 0 else closing if k == pairs else fused[k % m]
            local *= -c * h
            np.cos(local, out=phase.real)
            np.sin(local, out=phase.imag)
            values *= phase
            if k < pairs:
                # kinetic * spectrum, not spectrum * kinetic: numpy's
                # complex product is not bitwise commutative
                _fft(values, out=spectrum)
                np.multiply(kinetic[k % m], spectrum, out=spectrum)
                _ifft(spectrum, out=values)
        return values

    def relax(self, values: np.ndarray, dtau: float, steps: int,
              potential=None) -> np.ndarray:
        """Take `steps` normalised imaginary-time Strang steps of `dtau`.

        The factors exp(-dtau/2 (V + g n)) and exp(-dtau E) are real, and
        every step ends at unit norm (measure 2 pi / grid_n).  The density
        then depends on the norm, so the halves do not fuse.  No step guard.
        """
        values = values.copy()
        kinetic = np.exp(-dtau * self.energies)
        spectrum = np.empty_like(values)
        local = np.empty(values.shape)
        local_into = self.mean_field.local_into
        for _ in range(steps):
            local_into(values, potential, local)
            local *= -0.5 * dtau
            values *= np.exp(local, out=local)
            _fft(values, out=spectrum)
            np.multiply(kinetic, spectrum, out=spectrum)
            _ifft(spectrum, out=values)
            local_into(values, potential, local)
            local *= -0.5 * dtau
            values *= np.exp(local, out=local)
            np.abs(values, out=local)
            local *= local
            values /= np.sqrt(TWO_PI / self.grid_n * np.sum(local))
        return values

    def energy(self, values: np.ndarray, potential=None) -> float:
        """Mean-field energy functional (internal units) of a unit-norm state."""
        dalpha = TWO_PI / self.grid_n
        coeff = _fft(values) / self.grid_n
        kinetic = TWO_PI * np.sum(self.energies * np.abs(coeff) ** 2)
        density = np.abs(values) ** 2
        pot = 0.0
        if potential is not None:
            pot = dalpha * np.sum(potential * density)
        inter = self.mean_field.energy(density, dalpha)
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
    if not (np.isfinite(dt) and dt > 0):
        raise InvalidParameterError("dt must be positive and finite")
    engine = _SplitStepEngine(model, state.size, interaction, flux)
    pot_int = None
    if potential is not None:
        pot_int = np.asarray(potential, dtype=float) / model.trap.energy_unit
        if pot_int.shape != (state.size,):
            raise InvalidParameterError("potential must match the grid size")
    dt_int = dt / model.trap.time_unit
    return GridState(engine.propagate(state.values, dt_int, dt_int, pot_int))


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
    if not tolerance > 0:
        raise ConvergenceError("tolerance must be positive: per-step energy "
                               "drift cannot reach a non-positive bound")
    if max_steps < 1:
        raise InvalidParameterError("max_steps must be >= 1")
    wf = trap.omega_perp if well_frequency is None else well_frequency
    if not 0 < wf < math.inf:
        raise InvalidParameterError("well_frequency must be finite and > 0")
    if not math.isfinite(well_center):
        raise InvalidParameterError("well_center must be finite")
    wf_int = wf * trap.time_unit
    dtau = 1e-3 / wf_int
    engine = _SplitStepEngine(DispersionModel(trap=trap, cutoff=1), grid_n,
                              interaction)
    pot = 0.5 * wf_int ** 2 * _wrapped_angle(engine.angles, well_center) ** 2

    guess = gaussian_packet(well_center, min(1.0 / np.sqrt(wf_int), 0.5),
                            cutoff=grid_n // 2 - 1)
    values = to_grid(guess, grid_n).values

    e_prev = engine.energy(values, pot)
    for steps in range(0, max_steps, 50):
        todo = min(50, max_steps - steps)
        values = engine.relax(values, dtau, todo, pot)
        e_now = engine.energy(values, pot)
        if abs(e_now - e_prev) / todo < tolerance:
            return GridState(values)
        e_prev = e_now
    raise ConvergenceError(
        "imaginary-time relaxation did not converge in %d steps "
        "(last per-step energy drift %.3g)" % (max_steps,
                                               abs(e_now - e_prev) / todo))

