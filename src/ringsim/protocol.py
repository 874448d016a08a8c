"""Matter-wave interference protocol on a ring: split, imprint, recombine.

The sequence driven here is the ring analogue of a Mach-Zehnder cycle:

1. release a localized packet into the ring at time zero;
2. free dispersion splits it into two counter-localized copies after half a
   revival period (an exact property of the quadratic spectrum, see
   `propagator.half_revival_superposition`);
3. a phase imprint on one half of the ring writes the signal phase between
   the copies, either instantaneously or as a finite potential pulse;
4. the second half-revival recombines the copies so the interferometric
   phase appears as a population imbalance between the two halves of the
   ring, imbalance = -cos(phase) for an ideal cycle.

The revival time is found by maximizing the overlap between the evolved and
the half-turn-rotated initial state with no imprint applied, which absorbs
spectrum corrections (tilt, centrifugal, ellipticity) and mean-field
self-interaction into an effective period.  A gauge flux rotates the revived
packet by (flux action)/hbar per ideal period; the search tracks that
rotation, so flux never biases the timing.

Everything here works in seconds at the interface and converts to internal
units (hbar = m = R = 1) only inside the revival objectives and the one
protocol driver, `_SplitStepDriver`, which every run uses whatever its solver.

A run and a scan (`sweep_phase`, `timing_sensitivity`) are one walk of that
driver: the runs share a single state to the first imprint, then step as
one batch with one fixed row per scanned value until the last readout, each
read out at its own time.  A split-step revival search returns checkpoints
from release to half the window's lower edge; the walk that follows it
resumes from the latest one no later than its first imprint, and measures
each earlier record or snapshot from the nearest earlier checkpoint, where
its step allows it (see `_walk`).  A walk reads its records and readouts in
blocks of up to SCAN_BLOCK rows.  Scans measure only the readout; they take
no records and no snapshots.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import (ConfigError, InvalidParameterError,
                     RevivalNotFoundError, require_finite)
from .observables import (WEIGHT_KINDS, _finite_window, _grid_fidelity,
                          _window_profile, circular_centroid,
                          density_profile, fidelity, population_imbalance)
from .propagator import (BLANES_MOAN, FluxSpec, InteractionSpec, _evolved,
                         _MeanField, _SplitStepEngine, evolve_linear,
                         ground_state_imaginary_time, local_phase_per_pair,
                         step_count)
from .spectrum import DispersionModel, TrapSpec, revival_time
from .states import (_INTEGER, TWO_PI, GridState, SpectralState,
                     _check_cutoff, _check_grid_size, _synthesize,
                     gaussian_packet, rotate, to_grid, to_spectral)

SOLVERS = ("linear", "splitstep")

# A coarse-scan fidelity below this means the window holds no revival.
SEARCH_FIDELITY_FLOOR = 0.1

# An unset dt_factor keeps the largest fused local phase of a substep at
# STEP_PHASE_TARGET (rad), below the step guard's LOCAL_PHASE_LIMIT, and the
# mean time per FFT pair no longer than DT_FACTOR_CAP ideal periods.  Both
# are set from the convergence tables in README ("Step size").
STEP_PHASE_TARGET = 0.088
DT_FACTOR_CAP = 3e-5

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_max(fn, lo: float, hi: float, resolution: float) -> float:
    """Deterministic golden-section maximizer on a unimodal bracket."""
    a, b = float(lo), float(hi)
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(200):
        if (b - a) <= resolution:
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


@dataclass(frozen=True)
class ImprintSpec:
    """One phase-imprint pulse over an angular window.

    `phase` is the peak phase (rad) multiplied onto the wavefunction as
    exp(+i phase * profile(alpha)).  `profile` shapes the imprint inside the
    open window (counterclockwise from the first edge to the second):
    "uniform" is a flat top, "cosine_squared" is cos^2(alpha - center) with
    the window's bisector as center, which falls smoothly to zero at the
    edges of a half-ring window.  Outside the window the profile vanishes.

    `application_time` is the pulse start in seconds after release; None
    means half of the optimized revival time, the symmetric point of the
    interferometer.  `duration` > 0 spreads the imprint over a potential
    pulse of that length, stepped in split steps with either solver; zero
    applies it instantaneously.
    """

    phase: float
    profile: str = "cosine_squared"
    window: tuple = (0.5 * np.pi, 1.5 * np.pi)
    application_time: float | None = None
    duration: float = 0.0

    def __post_init__(self) -> None:
        require_finite(self, "phase", "application_time", "duration")
        if self.profile not in WEIGHT_KINDS:
            raise InvalidParameterError(
                "profile must be one of %s" % (WEIGHT_KINDS,))
        lo, hi = _finite_window(self.window)
        if (hi - lo) % TWO_PI == 0.0:
            raise InvalidParameterError(
                "imprint window must be a proper arc, not empty or the "
                "full ring")
        if self.duration < 0:
            raise InvalidParameterError("duration must be >= 0")
        if self.application_time is not None and self.application_time < 0:
            raise InvalidParameterError("application_time must be >= 0")

    def profile_values(self, angles: np.ndarray) -> np.ndarray:
        """Imprint profile sampled at `angles` (dimensionless, peak 1)."""
        return _window_profile(angles, self.window, self.profile)[1]


@dataclass(frozen=True)
class ProtocolSpec:
    """Complete description of one interference run.

    The initial packet is localized at `packet_center` with spectral width
    parameter `packet_width` (amplitudes ~ exp(-(ell * width)^2 / 4), i.e.
    angular density std width/2); None selects the ground-state width of the
    transverse-frequency angular well, sqrt(2) * sigma_u / R.  The "linear"
    solver starts from that Gaussian packet, finds the revival from the
    analytic spectral objective and requires zero mean-field coupling;
    "splitstep" prepares the packet by imaginary-time relaxation in the
    matching angular well, so interaction broadening is included
    self-consistently.  Both run the protocol on the same `grid_n`-point
    grid: an interval with a coupling or a pulse potential takes fourth-
    order Blanes-Moan steps (`propagator.BLANES_MOAN`) of six FFT pairs, and
    any other interval one exact kinetic step.  `dt_factor` is the mean
    time per FFT pair in units of the ideal revival period, so a step spans
    six times it.  `dt_factor` None (the default) derives it once per run
    from the phase the step guard checks: the factor at which the peak
    local phase rate, |coupling| max|psi0|^2 plus the largest pulse rate,
    advances the largest fused local substep by STEP_PHASE_TARGET, capped
    at DT_FACTOR_CAP.  The result's spec carries the factor actually used.

    `revival_time_s` pins the recombination readout time; None searches for
    it (see `find_revival_time`) over `search_window` (in units of the ideal
    period) down to `search_resolution_factor` times the ideal period.
    `timing_offset` shifts the imprint pulse and the readout together by the
    same amount, leaving the second arm's length fixed while the total
    dephasing time grows, which is the experimentally relevant timing error.
    Spectrum corrections are switched per term with the include_* flags.

    `n_records` samples (time, fidelity, imbalance, centroid) along the run
    and `n_snapshots` stores full density profiles, both on an even grid
    from release to readout.  Only `run_protocol` takes them; the scans
    ignore both and measure each run at its readout alone.
    """

    trap: TrapSpec
    interaction: InteractionSpec | None = None
    flux: FluxSpec | None = None
    imprint: ImprintSpec = ImprintSpec(0.0)
    packet_center: float = 0.0
    packet_width: float | None = None
    solver: str = "linear"
    cutoff: int = 128
    grid_n: int = 512
    dt_factor: float | None = None
    revival_time_s: float | None = None
    search_window: tuple = (0.98, 1.02)
    search_resolution_factor: float = 1e-6
    timing_offset: float = 0.0
    include_tilt: bool = False
    include_centrifugal: bool = False
    include_ellipticity: bool = False
    readout_weight: str = "cosine_squared"
    n_records: int = 0
    n_snapshots: int = 0

    def __post_init__(self) -> None:
        require_finite(self, "packet_center", "dt_factor", "revival_time_s",
                       "search_resolution_factor", "timing_offset")
        if self.solver not in SOLVERS:
            raise InvalidParameterError(
                "solver must be one of %s" % (SOLVERS,))
        _check_cutoff(self.cutoff)
        _check_grid_size(self.grid_n, "grid_n", self.cutoff)
        if self.packet_width is not None and not 0 < self.packet_width < 1:
            raise InvalidParameterError("packet_width must be in (0, 1)")
        if self.dt_factor is not None and self.dt_factor <= 0:
            raise InvalidParameterError("dt_factor must be positive")
        if self.revival_time_s is not None and self.revival_time_s <= 0:
            raise InvalidParameterError("revival_time_s must be positive")
        lo, hi = self.search_window
        if not (0 < lo < hi and math.isfinite(hi)):
            raise InvalidParameterError(
                "search_window must be finite with 0 < low < high")
        if self.search_resolution_factor <= 0:
            raise InvalidParameterError(
                "search_resolution_factor must be positive")
        if self.readout_weight not in WEIGHT_KINDS:
            raise InvalidParameterError(
                "readout_weight must be one of %s" % (WEIGHT_KINDS,))
        if not all(isinstance(n, _INTEGER) and n >= 0
                   for n in (self.n_records, self.n_snapshots)):
            raise InvalidParameterError(
                "n_records and n_snapshots must be integers >= 0")
        if self.solver == "linear" and _MeanField.of(self.interaction,
                                                     self.trap).acts:
            raise ConfigError(
                "the linear solver cannot represent a mean-field coupling; "
                "use solver='splitstep' or zero the interaction")

    @property
    def effective_packet_width(self) -> float:
        """Packet width actually used (explicit value or well default)."""
        if self.packet_width is not None:
            return self.packet_width
        return math.sqrt(2.0) * self.trap.sigma_u / self.trap.radius

    def dispersion_model(self):
        """Dispersion with this run's correction terms switched in."""
        return DispersionModel(self.trap, self.cutoff, self.include_tilt,
                               self.include_centrifugal,
                               self.include_ellipticity)


@dataclass(frozen=True, eq=False)
class ProtocolResult:
    """Outcome of one interference run.

    `revival_fidelity` is the squared overlap with the flux-corotated
    half-turn image of the initial packet at readout; `imbalance` the
    weighted population difference between the ring half centered on the
    packet (right) and its antipode (left); `centroid_angle` the circular
    density centroid (NaN when the density has no direction), all three at
    the readout, `total_duration_s` after release.  `records` rows are
    (time s, fidelity, imbalance, centroid rad) with NaN for moments where
    a column is undefined.  `spec` is the run's spec with `dt_factor`
    resolved to the factor the run stepped with.
    """

    spec: ProtocolSpec
    revival_time_s: float
    total_duration_s: float
    revival_fidelity: float
    imbalance: float
    centroid_angle: float
    records: np.ndarray
    snapshot_times: tuple = ()
    snapshots: tuple = ()


@lru_cache(maxsize=8)
def _prepared_packet(trap: TrapSpec, interaction, solver: str, center: float,
                     width: float, cutoff: int, grid_n: int):
    """Initial packet in both representations, cached across runs.

    The split-step branch relaxes in the angular well whose noninteracting
    ground state has exactly the requested width (well frequency 2 / width^2
    internal), so linear and split-step runs start from the same packet when
    the coupling vanishes.
    """
    if solver == "splitstep":
        well = 2.0 / (width ** 2 * trap.time_unit)
        grid = ground_state_imaginary_time(trap, interaction, grid_n,
                                           well_frequency=well,
                                           well_center=center)
        return to_spectral(grid, cutoff), grid
    packet = gaussian_packet(center, width, cutoff)
    return packet, to_grid(packet, grid_n)


def _prepare(spec: ProtocolSpec):
    return _prepared_packet(spec.trap, spec.interaction, spec.solver,
                            spec.packet_center, spec.effective_packet_width,
                            spec.cutoff, spec.grid_n)


def _revival_target(spec: ProtocolSpec, psi0: SpectralState):
    """times -> the flux-corotated half-turn images of psi0, one row each.

    Row k is bitwise the values of `to_grid(rotate(psi0, pi + flux angle
    at times[k]), spec.grid_n)`, built from the amplitudes with one
    exponential over rows and modes ell >= 0, one scatter and one inverse
    FFT per block.  The modes ell < 0 take the conjugates: (-ell) x is
    exactly -(ell x), and numpy's complex exp of a purely imaginary
    argument is bitwise conjugate-symmetric.  Without a flux the image
    never moves, so it is built once, here, and every block of a walk or
    search reads it as a read-only broadcast.
    """
    cut = psi0.cutoff

    def images(angles: np.ndarray) -> np.ndarray:
        turn = np.empty((len(angles), 2 * cut + 1), dtype=np.complex128)
        turn[:, cut:] = np.exp(-1j * psi0.ells[cut:] *
                               (np.pi + angles)[:, None])
        turn[:, :cut] = np.conj(turn[:, :cut:-1])
        # in place, so no product array is held through the inverse FFT
        np.multiply(psi0.amplitudes, turn, out=turn)
        return _synthesize(turn, psi0.ells, spec.grid_n)

    if spec.flux is None:
        fixed = images(np.zeros(1))[0]
        fixed.flags.writeable = False
        return lambda times: np.broadcast_to(fixed, (len(times), len(fixed)))
    return lambda times: images(np.array(
        [spec.flux.accumulated_angle(spec.trap, t) for t in times]))


# ---------------------------------------------------------------------------
# revival search


# The search cuts its imprint-free advance from release to half the window's
# lower edge into this many segments of whole steps and keeps the state at
# each segment end, for the walk that follows the search (see `_walk`).
SEARCH_CHECKPOINTS = 200


@dataclass(frozen=True, eq=False)
class RevivalSearch:
    """Outcome of one revival search (see `find_revival_time`).

    `time_s` is the revival time.  A split-step search also returns its
    imprint-free trajectory: `times` (s) are release and the
    SEARCH_CHECKPOINTS segment ends up to half the window's lower edge,
    each a whole number of the search's steps of `dt_factor`, and `states`
    the read-only single-row values at those times.  A linear search keeps
    none: `dt_factor` is None and both tuples are empty.  `model` is the
    dispersion the search evolved with, which the walk that follows it
    reuses.
    """

    time_s: float
    dt_factor: float | None = None
    times: tuple = ()
    states: tuple = ()
    model: DispersionModel | None = None

    def before(self, t: float):
        """(time, values) of the latest checkpoint no later than t.

        Raises InvalidParameterError when there is none: t before release,
        or any t for a linear search, which keeps no checkpoints.
        """
        i = bisect_right(self.times, t) - 1
        if i < 0:
            raise InvalidParameterError(
                "t = %.6g s has no search checkpoint at or before it" % t)
        return self.times[i], self.states[i]


def _splitstep_objective(spec: ProtocolSpec, model: DispersionModel):
    """Checkpointed split-step fidelity for repeated revival queries.

    The advance from release to half the window's lower edge, before the
    default imprint time T*/2 of every T* in the window, is cut into
    SEARCH_CHECKPOINTS segments: of its n steps, segment k ends at step
    round(k n / SEARCH_CHECKPOINTS).  Returns (objective, (dt_factor,
    times, states)), the checkpoints of a `RevivalSearch`.  Every queried
    time then becomes a checkpoint too, so a golden-section search that
    keeps narrowing its bracket only ever propagates the short gap from the
    nearest earlier checkpoint instead of restarting from release.
    """
    psi0_s, psi0_g = _prepare(spec)
    target = _revival_target(spec, psi0_s)
    driver = _SplitStepDriver(spec, psi0_g, model)
    t_pre = 0.5 * spec.search_window[0] * revival_time(spec.trap)
    n = step_count(t_pre / driver.time_unit, driver.dt_int)
    times, states = [0.0], [driver.values]
    for k in range(1, SEARCH_CHECKPOINTS + 1):
        t = t_pre * (round(k * n / SEARCH_CHECKPOINTS) / n)
        driver.advance(times[-1], t)
        times.append(t)
        states.append(driver.values)
    for values in states:
        values.flags.writeable = False
    checkpoints = (driver.dt_factor, tuple(times), tuple(states))

    def objective(t: float) -> float:
        i = bisect_right(times, t) - 1
        driver.values = states[i]
        if t > times[i]:
            driver.advance(times[i], t)
            times.insert(i + 1, t)
            states.insert(i + 1, driver.values)
        return _grid_fidelity(target([t])[0], driver.values[0])

    return objective, checkpoints


# The linear search's coarse scan sums, and a walk measures, at most this
# many rows at once: a block holds SCAN_BLOCK states, not the whole window
# or run.
SCAN_BLOCK = 16


def _scan_estimates(psi0: SpectralState, target: SpectralState, times,
                    model: DispersionModel):
    """Estimates of fidelity(target, evolve_linear(psi0, t, model)) at each
    of `times`, and a bound on how far any estimate lies from that value.

    Each block of SCAN_BLOCK times evolves one exact row, at its first time
    s, and reaches s + j d, with d the mean spacing of `times`, through one
    offset table exp(-i E j d) built once: one overlap per time is a row of
    a matrix product, with no exponential per time.  The estimates are
    not bitwise the objective's values.  Per mode, the two phases differ by
    at most max|E| D + eps (2 X + Y), from rounding the phases and from
    s + j d missing t, with X the largest |t E| of the scan, Y the block's
    largest |j d E| and D the largest gap between s + j d and its t.  The
    exponentials, products and sums over n modes add eps (n + 16).  An
    overlap then moves by at most S times the sum, S = sum |target| |psi0|
    >= |overlap|, and a fidelity by at most S^2 delta (2 + delta), with
    delta = max|E| D + eps (3 X + Y + n + 16): the third X covers the
    rounding of D itself and of the overlaps.
    """
    eps = np.finfo(float).eps
    t_int = np.divide(times, model.trap.time_unit)
    step = (t_int[-1] - t_int[0]) / max(len(t_int) - 1, 1)
    offsets = step * np.arange(SCAN_BLOCK)
    weights = np.conj(target.amplitudes)
    rows = _evolved(psi0, times[::SCAN_BLOCK], model) * weights
    table = np.exp(-1j * np.multiply.outer(offsets, model.energies))
    estimates = np.abs((rows @ table.T).ravel()[:len(times)]) ** 2
    grid = (t_int[::SCAN_BLOCK, None] + offsets).ravel()[:len(times)]
    e_max = np.abs(model.energies).max()
    delta = e_max * (np.abs(t_int - grid).max()
                     + eps * (3 * np.abs(t_int).max() + abs(offsets[-1]))) \
        + eps * (len(weights) + 16)
    scale = float(np.abs(weights) @ np.abs(psi0.amplitudes)) ** 2
    return estimates, scale * delta * (2 + delta)


def _linear_scan(psi0: SpectralState, target: SpectralState, times,
                 model: DispersionModel, objective) -> tuple:
    """(index, value) of the first maximum of `objective` over `times`.

    `objective` is fidelity(target, evolve_linear(psi0, t, model)).  Every
    time whose estimate (`_scan_estimates`) lies within twice the bound of
    the best estimate is evaluated through `objective`; the bound holds for
    every estimate, so the maximum is among them.  The result is bitwise the
    argmax and max of `objective` at every time, ties to the first.
    """
    estimates, margin = _scan_estimates(psi0, target, times, model)
    near = np.flatnonzero(estimates >= estimates.max() - 2 * margin)
    exact = [objective(times[i]) for i in near]
    best = int(np.argmax(exact))
    return int(near[best]), exact[best]


def _search_times(spec: ProtocolSpec) -> tuple:
    """(lo s, hi s, count) of the revival search's coarse scan: its window
    at a pitch of a quarter of 1 / omega_perp, and at least 8 points."""
    ideal = revival_time(spec.trap)
    lo, hi = (edge * ideal for edge in spec.search_window)
    pitch = 0.25 / spec.trap.omega_perp
    return lo, hi, max(8, int(math.ceil((hi - lo) / pitch)) + 1)


def find_revival_time(spec: ProtocolSpec) -> RevivalSearch:
    """Locate the full-revival readout time by fidelity maximization.

    Runs the imprint-free protocol and maximizes the overlap with the
    half-turn (plus flux corotation) image of the initial packet.  The
    search covers `spec.search_window` times the ideal period, which must
    bracket a revival: a coarse scan at a quarter of the dephasing time
    1 / omega_perp brackets the highest sampled peak, then golden-section
    refines it to `spec.search_resolution_factor` times the ideal period.
    If the best coarse fidelity does not exceed SEARCH_FIDELITY_FLOOR a
    RevivalNotFoundError is raised rather than refining noise.  Returns the
    time (s) with a split-step search's checkpoints and the search's
    dispersion, as a `RevivalSearch`; a linear search evolves the packet
    spectrally, scans with estimates and re-checks its best coarse points
    through the exact objective (`_linear_scan`), and keeps no checkpoints.
    """
    lo, hi, count = _search_times(spec)
    resolution = spec.search_resolution_factor * revival_time(spec.trap)
    times = np.linspace(lo, hi, count)
    model = spec.dispersion_model()
    if spec.solver == "splitstep":
        objective, checkpoints = _splitstep_objective(spec, model)
        coarse = [objective(t) for t in times]
        best = int(np.argmax(coarse))
        peak = coarse[best]
    else:
        # the target corotates with the flux, so a constant flux cancels
        # exactly: evolve without it against the plain half-turn image
        psi0, _ = _prepare(spec)
        target = rotate(psi0, np.pi)
        objective = lambda t: fidelity(target, evolve_linear(psi0, t, model))
        best, peak = _linear_scan(psi0, target, times, model, objective)
        checkpoints = ()
    if peak <= SEARCH_FIDELITY_FLOOR:
        raise RevivalNotFoundError(
            "no revival above fidelity %.2f inside [%.6g, %.6g] s "
            "(best %.3g); widen the search window"
            % (SEARCH_FIDELITY_FLOOR, lo, hi, peak))
    bracket_lo = times[max(best - 1, 0)]
    bracket_hi = times[min(best + 1, count - 1)]
    return RevivalSearch(_golden_max(objective, bracket_lo, bracket_hi,
                                     resolution), *checkpoints, model=model)


# ---------------------------------------------------------------------------
# protocol driver


class _SplitStepDriver:
    """Grid evolution of protocol runs, switching the Hamiltonian on time.

    Both solvers run here; they differ only in the prepared packet and the
    revival objective.  The driver steps a batch of runs of one spec that
    differ only in imprint phase (`phases`) and pulse start (`starts`, in
    seconds after release; the default never starts, as in the imprint-free
    revival search).  `values` holds one row that all runs share until the
    first `imprint` spreads it to one row per run; from then on row i is run
    i, and no row leaves the batch.  `advance` cuts each interval at the
    flux turn-on and at the pulse edges of every run, so each pulse
    potential acts exactly over its window and the flux from its onset.

    The kinetic energies are those of `model`, the run's dispersion.
    Every interval with a coupling or a pulse takes steps of `scheme`, of
    `dt_factor` times the ideal period per FFT pair.  `dt_factor` is the
    spec's, or when that is unset the one derived from the peak local phase
    rate of the prepared packet and of the batch's pulse (see
    `ProtocolSpec`).
    """

    scheme = BLANES_MOAN

    def __init__(self, spec: ProtocolSpec, psi0_grid: GridState,
                 model: DispersionModel, phases=(0.0,), starts=(math.inf,)):
        self.time_unit = spec.trap.time_unit
        self.engine = _SplitStepEngine(model, spec.grid_n, spec.interaction,
                                       spec.flux)
        self.turn_on = 0.0 if spec.flux is None else spec.flux.turn_on
        self.duration = spec.imprint.duration
        self.profile = spec.imprint.profile_values(self.engine.angles)
        self.phases = np.array(phases, dtype=float)
        self.starts = np.array(starts, dtype=float)
        # every instant where the Hamiltonian may switch, in time order
        self.edges = sorted({self.turn_on, *self.starts,
                             *(self.starts + self.duration)})
        # evolution exp(-i V tau) must reproduce exp(+i phase * profile); an
        # instant imprint has no pulse
        self.rates = np.zeros_like(self.phases)
        if self.duration > 0:
            self.rates = -self.phases / (self.duration / self.time_unit)
        self.dt_factor = spec.dt_factor
        if self.dt_factor is None:
            peak = (self.engine.mean_field.peak_rate(psi0_grid.values)
                    + float(np.max(np.abs(self.rates))))
            self.dt_factor = DT_FACTOR_CAP
            if peak > 0:
                self.dt_factor = min(DT_FACTOR_CAP, STEP_PHASE_TARGET / (
                    TWO_PI * peak * local_phase_per_pair(self.scheme)))
        # one step of the scheme: one dt_factor per FFT pair
        self.dt_int = self.dt_factor * TWO_PI * len(self.scheme[1])
        self.values = psi0_grid.values[None, :].copy()

    def _pulse(self, a: float, b: float):
        """Pulse potential over [a, b], one row per run, or None if none acts.

        A run whose pulse does not cover [a, b], or whose phase is zero,
        gets a zero row.  No pulse acts before the first imprint, and none
        at all with an instant imprint.
        """
        if self.duration == 0:
            return None
        on = (self.starts <= a) & (b <= self.starts + self.duration)
        rates = np.where(on, self.rates, 0.0)
        if not rates.any():
            return None
        return rates[:, None] * self.profile

    def advance(self, ta: float, tb: float) -> None:
        cuts = [ta] + [e for e in self.edges if ta < e < tb] + [tb]
        for a, b in zip(cuts[:-1], cuts[1:]):
            self.values = self.engine.propagate(
                self.values, (b - a) / self.time_unit, self.dt_int,
                self._pulse(a, b), a >= self.turn_on, self.scheme)

    def imprint(self, run: int) -> None:
        if len(self.values) < len(self.phases):
            self.values = np.repeat(self.values, len(self.phases), axis=0)
        if self.duration == 0 and self.phases[run] != 0.0:
            self.values[run] *= np.exp(1j * self.phases[run] * self.profile)


def _schedule(spec: ProtocolSpec, t_star: float):
    """(imprint pulse start, readout time) in s for revival time t_star."""
    imp = spec.imprint
    start = 0.5 * t_star if imp.application_time is None \
        else imp.application_time
    t_imp = start + spec.timing_offset
    total = t_star + spec.timing_offset + imp.duration
    if t_imp < 0:
        raise InvalidParameterError(
            "imprint pulse would start %.3g s before release; raise the "
            "timing offset" % t_imp)
    if t_imp + imp.duration > total:
        raise InvalidParameterError(
            "imprint pulse ends %.3g s after the readout time"
            % (t_imp + imp.duration - total))
    return t_imp, total


def _measure(rows: np.ndarray, times, spec: ProtocolSpec, targets):
    """One (t, fidelity, imbalance, centroid) per row, NaN-tolerant.

    Row k of `rows` is a state at protocol time times[k]; `targets` is the
    walk's `_revival_target`.  Each value is bitwise that of the public
    observable on the row as one GridState, with NaN where that raises.
    """
    center = spec.packet_center
    imbalance = population_imbalance(
        rows, weight=spec.readout_weight,
        right_window=(center - 0.5 * np.pi, center + 0.5 * np.pi),
        left_window=(center + 0.5 * np.pi, center + 1.5 * np.pi))
    # a list, so the targets are freed before the centroid's temporaries
    fidelities = list(map(_grid_fidelity, targets(times), rows))
    return list(zip(times, fidelities, imbalance.tolist(),
                    circular_centroid(rows).tolist()))


def _walk(runs):
    """Step `runs` as one batch to the last readout.

    The runs share every field of `runs[0]` except the imprint phase and
    the timing offset; the revival time is resolved once, from `runs[0]`.
    When the walk searched for it and steps at the search's dt_factor, it
    resumes from the search's latest checkpoint no later than the first
    imprint or readout (see `RevivalSearch`); otherwise it walks from
    release.  A record or snapshot before that checkpoint is measured
    by stepping the nearest earlier checkpoint to its own time.  A resumed
    or replayed state differs from one walked from release by the
    re-tiling of its steps at the checkpoint, the O(dt^4) step error.  Each
    run is imprinted at its pulse start and read out at its readout time;
    at one instant the imprints act first, then the readouts, records and
    snapshots.  The `n_records` records and `n_snapshots` snapshots of
    `runs[0]` are taken evenly from release to its readout; `_scan` passes
    runs that ask for none.  The walk copies each readout and record row
    into a block and measures the block when it holds SCAN_BLOCK rows and
    at the end; a snapshot is measured at once.  The search's dispersion,
    when it ran, is the walk's.

    Returns (revival time, dt_factor, measured): `measured` maps "readout"
    to one (t, fidelity, imbalance, centroid) of `_measure` per run, in the
    order of `runs`, "record" to one such row per record and "snapshot" to
    one (t, density profile) per snapshot, both in time order.
    """
    spec = runs[0]
    store = find_revival_time(spec) if spec.revival_time_s is None else None
    t_star = spec.revival_time_s if store is None else store.time_s
    model = spec.dispersion_model() if store is None else store.model
    schedule = [_schedule(run, t_star) for run in runs]
    psi0_s, psi0_g = _prepare(spec)
    targets = _revival_target(spec, psi0_s)
    driver = _SplitStepDriver(spec, psi0_g, model,
                              [run.imprint.phase for run in runs],
                              [t_imp for t_imp, _ in schedule])
    end = schedule[0][1]
    times = {"imprint": [t_imp for t_imp, _ in schedule],
             "readout": [total for _, total in schedule],
             "record": np.linspace(0.0, end, spec.n_records),
             "snapshot": np.linspace(0.0, end, spec.n_snapshots)}
    # a stable sort keeps the kinds at one instant in the order of `times`
    events = sorted(((t, kind, i) for kind, ts in times.items()
                     for i, t in enumerate(ts)),
                    key=lambda e: (e[0], e[1] != "imprint"))
    measured = {kind: [None] * len(times[kind])
                for kind in ("readout", "record", "snapshot")}
    now, resume = 0.0, None
    if store is not None and store.dt_factor == driver.dt_factor:
        resume = store.before(min(times["imprint"] + times["readout"]))
    # copies: an instant imprint multiplies one row of the driver in place
    block = np.empty((SCAN_BLOCK, spec.grid_n), dtype=np.complex128)
    pending = []    # (kind, index, time) of each filled row of `block`

    def measure_block():
        rows = _measure(block[:len(pending)], [t for _, _, t in pending],
                        spec, targets)
        for (kind, i, _), row in zip(pending, rows):
            measured[kind][i] = row
        pending.clear()

    for t, kind, i in events:
        if resume is not None and t < resume[0]:
            # a record or snapshot before the resume point
            now, driver.values = store.before(t)
        elif resume is not None:
            # a copy: the stored states are read-only, and an instant
            # imprint multiplies one row in place
            now, driver.values = resume[0], resume[1].copy()
            resume = None
        if t > now:
            driver.advance(now, t)
            now = t
        if kind == "imprint":
            driver.imprint(i)
        elif kind == "snapshot":
            measured[kind][i] = (t, density_profile(GridState(
                driver.values[0])))
        else:
            block[len(pending)] = driver.values[i if kind == "readout" else 0]
            pending.append((kind, i, t))
            if len(pending) == SCAN_BLOCK:
                measure_block()
    if pending:
        measure_block()
    return t_star, driver.dt_factor, measured


def run_protocol(spec: ProtocolSpec) -> ProtocolResult:
    """Drive one full interference run and read out the fringe.

    Timing: the imprint pulse starts at its `application_time` (default half
    the optimized revival time) plus `timing_offset`; readout happens at the
    optimized revival time plus the same offset plus the pulse duration, so
    an offset models a late (or early, if negative) imprint-and-readout
    pair.  The run is one `_walk` of one run with its records and
    snapshots, whose single readout gives the result's time, fidelity,
    imbalance and centroid.  Raises RevivalNotFoundError via the search
    when no revival lies in the window, and InvalidParameterError when the
    pulse would fall outside the run.
    """
    t_star, dt_factor, measured = _walk([spec])
    [(total, fid, imbalance, centroid)] = measured["readout"]
    snapshots = measured["snapshot"]
    return ProtocolResult(
        spec=replace(spec, dt_factor=dt_factor),
        revival_time_s=t_star,
        total_duration_s=total,
        revival_fidelity=fid,
        imbalance=imbalance,
        centroid_angle=centroid,
        records=np.array(measured["record"], dtype=float).reshape(-1, 4),
        snapshot_times=tuple(float(t) for t, _ in snapshots),
        snapshots=tuple(profile for _, profile in snapshots),
    )


def _scan(spec: ProtocolSpec, values, name: str, vary):
    """(values, readouts) of the runs `vary(spec, value)`.

    `values` as floats and one (t, fidelity, imbalance, centroid) readout
    per value, both in the order given, from one walk of all the runs (see
    `_walk`).  The runs take no records or snapshots: `spec` is stripped of
    them before `vary`.
    """
    try:
        values = [float(v) for v in np.asarray(values, dtype=float)]
    except (TypeError, ValueError):
        raise InvalidParameterError(
            "%s must be a sequence of numbers" % name) from None
    if not values:
        raise InvalidParameterError("%s must not be empty" % name)
    if not all(np.isfinite(values)):
        raise InvalidParameterError("%s must be finite" % name)
    spec = replace(spec, n_records=0, n_snapshots=0)
    _, _, measured = _walk([vary(spec, v) for v in values])
    return values, measured["readout"]


def sweep_phase(spec: ProtocolSpec, phases) -> np.ndarray:
    """Imbalance fringe over imprint phases: rows (phase rad, imbalance).

    The revival time is resolved once and shared by every run, matching an
    experiment that calibrates timing before scanning the signal phase.
    The runs share their walk to the imprint, from the revival search's
    latest checkpoint before it when the search ran (see `_walk`), and then
    step as one batch, one row per phase.  `_scan` strips the spec's
    records and snapshots, so none are taken.  Each row equals
    the record-free `run_protocol` of its phase to rounding: bitwise with a
    mean-field coupling, since every row then takes the same steps.  A row
    moves from its own run by the O(dt^4) step error where the two step
    differently (a run with records cuts its steps at the record times; a
    finite pulse with `dt_factor` unset: the batch derives its step from
    its largest pulse rate).  Rows keep the order of `phases`.
    """
    phases, measured = _scan(spec, phases, "phases", lambda base, p: replace(
        base, imprint=replace(base.imprint, phase=p)))
    return np.array([[p, m[2]] for p, m in zip(phases, measured)])


def timing_sensitivity(spec: ProtocolSpec, offsets) -> np.ndarray:
    """Fringe degradation against imprint timing error.

    Rows are (offset s, revival fidelity, imbalance) in the order of
    `offsets`; the zero-offset revival time is resolved once and reused, so
    the scan isolates pure timing error from retiming.  The runs share their
    walk to the earliest imprint, from the revival search's latest
    checkpoint before it when the search ran (see `_walk`), and then step
    as one batch, each imprinted and read out at its own time.  `_scan`
    strips the spec's records and snapshots, so none are taken.  No row
    leaves the batch at its readout: every row steps on until the latest
    one, so the scan takes extra steps over the spread of `offsets`.  Every
    row's interval is cut at every other row's instants, so where split
    steps are taken (a coupling or a pulse) a row differs from its own
    `run_protocol` by the O(dt^4) step error, not by rounding only.
    """
    offsets, measured = _scan(spec, offsets, "offsets", lambda base, o:
                              replace(base, timing_offset=o))
    return np.array([[o, m[1], m[2]] for o, m in zip(offsets, measured)])
