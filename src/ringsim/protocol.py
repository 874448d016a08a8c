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
units (hbar = m = R = 1) only inside the drivers.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import (CentroidUndefinedError, ConfigError,
                     IndeterminateImbalanceError, InvalidParameterError,
                     RevivalNotFoundError, require_finite)
from .observables import (WEIGHT_KINDS, _window_profile, circular_centroid,
                          density_profile, fidelity, population_imbalance)
from .propagator import (TWO_PI, FluxSpec, InteractionSpec, _SplitStepEngine,
                         evolve_linear, ground_state_imaginary_time)
from .spectrum import TrapSpec, corrected_dispersion, revival_time
from .states import (GridState, SpectralState, gaussian_packet, rotate,
                     to_grid, to_spectral)

SOLVERS = ("linear", "splitstep")

# A coarse-scan fidelity below this means the window holds no revival.
SEARCH_FIDELITY_FLOOR = 0.1

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
    pulse of that length (split-step solver only); zero applies it
    instantaneously.
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
        lo, hi = self.window
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise InvalidParameterError("window edges must be finite")
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
    solver evolves amplitudes exactly and requires zero mean-field coupling
    and an instantaneous imprint; "splitstep" runs the Strang-split GPE on a
    `grid_n`-point grid with step `dt_factor` times the ideal revival period
    and prepares the packet by imaginary-time relaxation in the matching
    angular well, so interaction broadening is included self-consistently.

    `revival_time_s` pins the recombination readout time; None searches for
    it (see `find_revival_time`) over `search_window` (in units of the ideal
    period) down to `search_resolution_factor` times the ideal period.
    `timing_offset` shifts the imprint pulse and the readout together by the
    same amount, leaving the second arm's length fixed while the total
    dephasing time grows, which is the experimentally relevant timing error.
    Spectrum corrections are switched per term with the include_* flags.

    `n_records` samples (time, fidelity, imbalance, centroid) along the run
    and `n_snapshots` stores full density profiles, both on an even grid
    from release to readout.
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
    dt_factor: float = 5e-6
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
        if self.cutoff < 1:
            raise InvalidParameterError("cutoff must be >= 1")
        if self.grid_n < 4 or self.grid_n & (self.grid_n - 1):
            raise InvalidParameterError("grid_n must be a power of two >= 4")
        if self.grid_n < 2 * self.cutoff + 2:
            raise InvalidParameterError(
                "grid_n must be at least 2 * cutoff + 2 so the grid resolves "
                "every ladder mode")
        if self.packet_width is not None and not 0 < self.packet_width < 1:
            raise InvalidParameterError("packet_width must be in (0, 1)")
        if self.dt_factor <= 0:
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
        if self.n_records < 0 or self.n_snapshots < 0:
            raise InvalidParameterError(
                "n_records and n_snapshots must be >= 0")
        if self.solver == "linear":
            if self._coupling() != 0.0:
                raise ConfigError(
                    "the linear solver cannot represent a mean-field "
                    "coupling; use solver='splitstep' or zero the "
                    "interaction")
            if self.imprint.duration > 0:
                raise ConfigError(
                    "finite-duration imprints need the split-step solver; "
                    "the linear solver only supports instantaneous ones")

    def _coupling(self) -> float:
        if self.interaction is None:
            return 0.0
        return self.interaction.coupling(self.trap)

    @property
    def effective_packet_width(self) -> float:
        """Packet width actually used (explicit value or well default)."""
        if self.packet_width is not None:
            return self.packet_width
        return math.sqrt(2.0) * self.trap.sigma_u / self.trap.radius

    def dispersion_model(self):
        """Dispersion with this run's correction terms switched in."""
        return corrected_dispersion(self.trap, self.cutoff,
                                    tilt=self.include_tilt,
                                    centrifugal=self.include_centrifugal,
                                    ellipticity=self.include_ellipticity)


@dataclass(frozen=True, eq=False)
class ProtocolResult:
    """Outcome of one interference run.

    `revival_fidelity` is the squared overlap with the flux-corotated
    half-turn image of the initial packet at readout; `imbalance` the
    weighted population difference between the ring half centered on the
    packet (right) and its antipode (left); `centroid_angle` the circular
    density centroid (NaN when the density has no direction).  `records`
    rows are (time s, fidelity, imbalance, centroid rad) with NaN for
    moments where a column is undefined.
    """

    spec: ProtocolSpec
    revival_time_s: float
    total_duration_s: float
    initial_spectral: SpectralState
    final_spectral: SpectralState
    final_grid: GridState
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


def _flux_angle(spec: ProtocolSpec, t: float) -> float:
    if spec.flux is None:
        return 0.0
    return spec.flux.accumulated_angle(spec.trap, t)


# ---------------------------------------------------------------------------
# revival search


def _splitstep_objective(spec: ProtocolSpec):
    """Checkpointed split-step fidelity for repeated revival queries.

    Every queried time becomes a checkpoint, so a golden-section search that
    keeps narrowing its bracket only ever propagates the short gap from the
    nearest earlier checkpoint instead of restarting from release.
    """
    psi0_s, psi0_g = _prepare(spec)
    driver = _SplitStepDriver(spec, psi0_g)
    times, states = [0.0], [driver.values]

    def objective(t: float) -> float:
        i = bisect_right(times, t) - 1
        driver.values = states[i]
        if t > times[i]:
            driver.advance(times[i], t)
            times.insert(i + 1, t)
            states.insert(i + 1, driver.values)
        return driver.overlap_fidelity(
            rotate(psi0_s, np.pi + _flux_angle(spec, t)))

    return objective


def _revival_objective(spec: ProtocolSpec):
    """Fidelity-vs-time callable for the phase-free revival search.

    The target corotates with the flux, so a constant flux cancels exactly
    from the objective; for the linear branch that cancellation is applied
    analytically and only the spectrum phases survive.
    """
    if spec.solver == "splitstep":
        return _splitstep_objective(spec)
    model = spec.dispersion_model()
    psi0, _ = _prepare(spec)
    weights = np.abs(psi0.amplitudes) ** 2
    base = np.pi * psi0.ells.astype(float)

    def objective(t: float) -> float:
        phases = base - model.energies * (t / model.trap.time_unit)
        return float(abs(np.sum(weights * np.exp(1j * phases))) ** 2)

    return objective


def find_revival_time(spec: ProtocolSpec) -> float:
    """Locate the full-revival readout time (s) by fidelity maximization.

    Runs the imprint-free protocol and maximizes the overlap with the
    half-turn (plus flux corotation) image of the initial packet.  The
    search covers `spec.search_window` times the ideal period, which must
    bracket a revival: a coarse scan at a quarter of the dephasing time
    1 / omega_perp brackets the highest sampled peak, then golden-section
    refines it to `spec.search_resolution_factor` times the ideal period.
    If the best coarse fidelity does not exceed SEARCH_FIDELITY_FLOOR a
    RevivalNotFoundError is raised rather than refining noise.
    """
    ideal = revival_time(spec.trap)
    lo, hi = (edge * ideal for edge in spec.search_window)
    resolution = spec.search_resolution_factor * ideal
    objective = _revival_objective(spec)
    pitch = 0.25 / spec.trap.omega_perp
    count = max(8, int(math.ceil((hi - lo) / pitch)) + 1)
    times = np.linspace(lo, hi, count)
    coarse = [objective(t) for t in times]
    best = int(np.argmax(coarse))
    if coarse[best] <= SEARCH_FIDELITY_FLOOR:
        raise RevivalNotFoundError(
            "no revival above fidelity %.2f inside [%.6g, %.6g] s "
            "(best %.3g); widen the search window"
            % (SEARCH_FIDELITY_FLOOR, lo, hi, coarse[best]))
    bracket_lo = times[max(best - 1, 0)]
    bracket_hi = times[min(best + 1, count - 1)]
    return _golden_max(objective, bracket_lo, bracket_hi, resolution)


# ---------------------------------------------------------------------------
# protocol drivers

class _LinearDriver:
    """Exact spectral evolution; the flux rotates the state from turn-on."""

    def __init__(self, spec: ProtocolSpec, psi0: SpectralState):
        self.spec = spec
        self.model = spec.dispersion_model()
        self.ideal = revival_time(spec.trap)
        self.state = psi0

    def advance(self, ta: float, tb: float) -> None:
        self.state = evolve_linear(self.state, tb - ta, self.model)
        flux = self.spec.flux
        if flux is not None and tb > flux.turn_on:
            theta = flux.angle_per_revival() * \
                (tb - max(ta, flux.turn_on)) / self.ideal
            self.state = rotate(self.state, theta)

    def apply_imprint(self) -> None:
        imp = self.spec.imprint
        grid = to_grid(self.state, self.spec.grid_n)
        phase = np.exp(1j * imp.phase * imp.profile_values(grid.angles))
        self.state = to_spectral(GridState(grid.values * phase),
                                 self.spec.cutoff)

    def grid(self) -> GridState:
        return to_grid(self.state, self.spec.grid_n)

    def spectral(self) -> SpectralState:
        return self.state

    def overlap_fidelity(self, target: SpectralState) -> float:
        return fidelity(target, self.state)


class _SplitStepDriver:
    """Strang-split GPE evolution that switches the Hamiltonian on time.

    `pulse` is the (start, end) of the imprint pulse in seconds after
    release; the default never starts, as in the imprint-free revival
    search.  `advance` cuts each interval at the pulse edges and at the flux
    turn-on, so the pulse potential acts exactly over its window and the
    flux from exactly its onset.
    """

    def __init__(self, spec: ProtocolSpec, psi0_grid: GridState,
                 pulse: tuple = (math.inf, math.inf)):
        self.spec = spec
        self.time_unit = spec.trap.time_unit
        self.engine = _SplitStepEngine(spec.dispersion_model(), spec.grid_n,
                                       spec.interaction, spec.flux)
        self.dt_int = spec.dt_factor * TWO_PI
        self.turn_on = 0.0 if spec.flux is None else spec.flux.turn_on
        self.pulse = pulse
        imp = spec.imprint
        self.pulse_potential = None
        if imp.duration > 0 and imp.phase != 0.0:
            # evolution exp(-i V tau) must reproduce exp(+i phase * profile)
            rate = -imp.phase / (imp.duration / self.time_unit)
            self.pulse_potential = rate * imp.profile_values(
                self.engine.angles)
        self.values = psi0_grid.values.copy()

    def advance(self, ta: float, tb: float) -> None:
        edges = (self.turn_on,) + self.pulse
        cuts = [ta] + sorted({e for e in edges if ta < e < tb}) + [tb]
        start, end = self.pulse
        for a, b in zip(cuts[:-1], cuts[1:]):
            pot = self.pulse_potential if start <= a and b <= end else None
            self.values = self.engine.propagate(
                self.values, (b - a) / self.time_unit, self.dt_int,
                pot, a >= self.turn_on)

    def apply_imprint(self) -> None:
        imp = self.spec.imprint
        profile = imp.profile_values(self.engine.angles)
        self.values = self.values * np.exp(1j * imp.phase * profile)

    def grid(self) -> GridState:
        return GridState(self.values)

    def spectral(self) -> SpectralState:
        return to_spectral(self.grid(), self.spec.cutoff)

    def overlap_fidelity(self, target: SpectralState) -> float:
        tvals = to_grid(target, self.spec.grid_n).values
        overlap = TWO_PI / self.spec.grid_n * np.vdot(tvals, self.values)
        return float(abs(overlap) ** 2)


def _measure(driver, spec: ProtocolSpec, psi0: SpectralState, t: float):
    """(fidelity, imbalance, centroid) at protocol time t, NaN-tolerant."""
    target = rotate(psi0, np.pi + _flux_angle(spec, t))
    fid = driver.overlap_fidelity(target)
    grid = driver.grid()
    center = spec.packet_center
    try:
        imbalance = population_imbalance(
            grid, weight=spec.readout_weight,
            right_window=(center - 0.5 * np.pi, center + 0.5 * np.pi),
            left_window=(center + 0.5 * np.pi, center + 1.5 * np.pi))
    except IndeterminateImbalanceError:
        imbalance = math.nan
    try:
        centroid = circular_centroid(grid)
    except CentroidUndefinedError:
        centroid = math.nan
    return fid, imbalance, centroid


def run_protocol(spec: ProtocolSpec) -> ProtocolResult:
    """Drive one full interference run and read out the fringe.

    Timing: the imprint pulse starts at its `application_time` (default half
    the optimized revival time) plus `timing_offset`; readout happens at the
    optimized revival time plus the same offset plus the pulse duration, so
    an offset models a late (or early, if negative) imprint-and-readout
    pair.  Raises RevivalNotFoundError via the search when no revival lies
    in the window, and InvalidParameterError when the pulse would fall
    outside the run.
    """
    t_star = spec.revival_time_s
    if t_star is None:
        t_star = find_revival_time(spec)
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

    psi0_s, psi0_g = _prepare(spec)
    if spec.solver == "splitstep":
        driver = _SplitStepDriver(spec, psi0_g, (t_imp, t_imp + imp.duration))
    else:
        driver = _LinearDriver(spec, psi0_s)

    record_times = np.linspace(0.0, total, spec.n_records)
    snapshot_times = np.linspace(0.0, total, spec.n_snapshots)
    # kinds sort alphabetically, so an imprint acts before any same-instant
    # measurement; t_imp stays a segment boundary even at zero phase
    events = sorted([(t_imp, "imprint", 0), (total, "readout", 0)] +
                    [(t, "record", i) for i, t in enumerate(record_times)] +
                    [(t, "snapshot", i) for i, t in enumerate(snapshot_times)])
    records = np.full((spec.n_records, 4), np.nan)
    snapshots: list = [None] * spec.n_snapshots
    now = 0.0
    for t, kind, i in events:
        if t > now:
            driver.advance(now, t)
            now = t
        if kind == "imprint" and imp.duration == 0 and imp.phase != 0.0:
            driver.apply_imprint()
        elif kind == "record":
            records[i] = (t,) + _measure(driver, spec, psi0_s, t)
        elif kind == "snapshot":
            snapshots[i] = density_profile(driver.grid())

    final_fid, final_imb, final_cen = _measure(driver, spec, psi0_s, total)
    final_grid = driver.grid()
    return ProtocolResult(
        spec=spec,
        revival_time_s=t_star,
        total_duration_s=total,
        initial_spectral=psi0_s,
        final_spectral=driver.spectral(),
        final_grid=final_grid,
        revival_fidelity=final_fid,
        imbalance=final_imb,
        centroid_angle=final_cen,
        records=records,
        snapshot_times=tuple(float(t) for t in snapshot_times),
        snapshots=tuple(snapshots),
    )


def _scan(spec: ProtocolSpec, values, name: str, vary):
    """One run of `vary(base, value)` per value, sharing one revival time."""
    values = [float(v) for v in values]
    if not values:
        raise InvalidParameterError("%s must not be empty" % name)
    if not all(np.isfinite(values)):
        raise InvalidParameterError("%s must be finite" % name)
    base = spec
    if spec.revival_time_s is None:
        base = replace(spec, revival_time_s=find_revival_time(spec))
    return values, [run_protocol(vary(base, v)) for v in values]


def sweep_phase(spec: ProtocolSpec, phases) -> np.ndarray:
    """Imbalance fringe over imprint phases: rows (phase rad, imbalance).

    The revival time is resolved once and shared by every run, matching an
    experiment that calibrates timing before scanning the signal phase.
    Rows keep the order of `phases`.
    """
    phases, results = _scan(spec, phases, "phases", lambda base, p: replace(
        base, imprint=replace(base.imprint, phase=p)))
    return np.array([[p, r.imbalance] for p, r in zip(phases, results)])


def timing_sensitivity(spec: ProtocolSpec, offsets) -> np.ndarray:
    """Fringe degradation against imprint timing error.

    Rows are (offset s, revival fidelity, imbalance) in the order of
    `offsets`; the zero-offset revival time is resolved once and reused, so
    the scan isolates pure timing error from retiming.
    """
    offsets, results = _scan(spec, offsets, "offsets", lambda base, o:
                             replace(base, timing_offset=o))
    return np.array([[o, r.revival_fidelity, r.imbalance]
                     for o, r in zip(offsets, results)])
