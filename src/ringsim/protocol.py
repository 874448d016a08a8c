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

A scan (`sweep_phase`, `timing_sensitivity`) is one walk of that driver: the
runs share a single state from release to the first imprint, then step as
one batch, one row per scanned value, each read out at its own time.  Scans
measure only the readout; they take no records and no snapshots.
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
    pulse of that length, stepped in Strang steps with either solver; zero
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
    solver starts from that Gaussian packet, finds the revival from the
    analytic spectral objective and requires zero mean-field coupling;
    "splitstep" prepares the packet by imaginary-time relaxation in the
    matching angular well, so interaction broadening is included
    self-consistently.  Both run the protocol on the same `grid_n`-point
    grid: an interval with a coupling or a pulse potential takes Strang
    steps of `dt_factor` times the ideal revival period, and any other
    interval one exact kinetic step.

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
        if self.solver == "linear" and self._coupling() != 0.0:
            raise ConfigError(
                "the linear solver cannot represent a mean-field coupling; "
                "use solver='splitstep' or zero the interaction")

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
        return _overlap_fidelity(
            rotate(psi0_s, np.pi + _flux_angle(spec, t)), driver.values,
            spec.grid_n)

    return objective


def _revival_objective(spec: ProtocolSpec):
    """Fidelity-vs-time callable for the phase-free revival search.

    The target corotates with the flux, so a constant flux cancels exactly
    from the objective; the linear branch therefore evolves the packet
    spectrally without it and compares with the plain half-turn image.
    """
    if spec.solver == "splitstep":
        return _splitstep_objective(spec)
    model = spec.dispersion_model()
    psi0, _ = _prepare(spec)
    target = rotate(psi0, np.pi)
    return lambda t: fidelity(target, evolve_linear(psi0, t, model))


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
# protocol driver


def _overlap_fidelity(target: SpectralState, values: np.ndarray,
                      grid_n: int) -> float:
    tvals = to_grid(target, grid_n).values
    overlap = TWO_PI / grid_n * np.vdot(tvals, values)
    return float(abs(overlap) ** 2)


class _SplitStepDriver:
    """Grid evolution of protocol runs, switching the Hamiltonian on time.

    Both solvers run here; they differ only in the prepared packet and the
    revival objective.  The driver steps a batch of runs of one spec that
    differ only in imprint phase (`phases`) and pulse start (`starts`, in
    seconds after release; the default never starts, as in the imprint-free
    revival search).  `values` holds one row that all runs share until the
    first `imprint` spreads it to one row per run; `read_out` takes a run's
    row out of the batch.  `advance` cuts each interval at the flux turn-on
    and at the pulse edges of every run still in the batch, so each pulse
    potential acts exactly over its window and the flux from its onset.
    """

    def __init__(self, spec: ProtocolSpec, psi0_grid: GridState,
                 phases=(0.0,), starts=(math.inf,)):
        self.time_unit = spec.trap.time_unit
        self.engine = _SplitStepEngine(spec.dispersion_model(), spec.grid_n,
                                       spec.interaction, spec.flux)
        self.dt_int = spec.dt_factor * TWO_PI
        self.turn_on = 0.0 if spec.flux is None else spec.flux.turn_on
        self.duration = spec.imprint.duration
        self.profile = spec.imprint.profile_values(self.engine.angles)
        self.phases = np.array(phases, dtype=float)
        self.starts = np.array(starts, dtype=float)
        # evolution exp(-i V tau) must reproduce exp(+i phase * profile)
        self.rates = None
        if self.duration > 0:
            self.rates = -self.phases / (self.duration / self.time_unit)
        self.values = psi0_grid.values[None, :].copy()
        self.runs = None        # run of each row; None while all share one

    def _pulse(self, a: float, b: float):
        """Pulse potential over [a, b], one row per run, or None if none acts.

        A run whose pulse does not cover [a, b], or whose phase is zero,
        gets a zero row.
        """
        if self.rates is None or self.runs is None:
            return None
        starts = self.starts[self.runs]
        on = (starts <= a) & (b <= starts + self.duration)
        rates = np.where(on, self.rates[self.runs], 0.0)
        if not rates.any():
            return None
        return rates[:, None] * self.profile

    def advance(self, ta: float, tb: float) -> None:
        starts = self.starts if self.runs is None else self.starts[self.runs]
        edges = {self.turn_on, *starts, *(starts + self.duration)}
        cuts = [ta] + sorted(e for e in edges if ta < e < tb) + [tb]
        for a, b in zip(cuts[:-1], cuts[1:]):
            self.values = self.engine.propagate(
                self.values, (b - a) / self.time_unit, self.dt_int,
                self._pulse(a, b), a >= self.turn_on)

    def imprint(self, run: int) -> None:
        if self.runs is None:
            self.runs = np.arange(len(self.phases))
            self.values = np.repeat(self.values, len(self.runs), axis=0)
        phase = self.phases[run]
        if self.duration == 0 and phase != 0.0:
            row = int(np.flatnonzero(self.runs == run)[0])
            self.values[row] = self.values[row] * np.exp(
                1j * phase * self.profile)

    def read_out(self, run: int) -> np.ndarray:
        """Grid values of `run`, which leaves the batch."""
        keep = self.runs != run
        values = self.values[~keep][0]
        self.runs, self.values = self.runs[keep], self.values[keep]
        return values


# same-instant events: an imprint acts before any measurement, and a run
# leaves the batch after its last sample
_EVENT_ORDER = {"imprint": 0, "record": 1, "snapshot": 2, "readout": 3}


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


def _walk(runs, t_star: float, samples=()):
    """Step `runs` as one batch; yield (t, kind, index, grid values).

    The runs share every field of `runs[0]` except the imprint phase and
    the timing offset.  They share one row from release to the first
    imprint, then take one row each.  Each run yields a "readout" at its own
    readout time, when it leaves the batch; `samples` are (t, "record" or
    "snapshot", index) instants at which the first row is yielded, which
    only a single run takes.
    """
    schedule = [_schedule(run, t_star) for run in runs]
    _, psi0_g = _prepare(runs[0])
    driver = _SplitStepDriver(runs[0], psi0_g,
                              [run.imprint.phase for run in runs],
                              [t_imp for t_imp, _ in schedule])
    events = ([(t_imp, "imprint", i) for i, (t_imp, _) in enumerate(schedule)]
              + [(total, "readout", i) for i, (_, total) in enumerate(schedule)]
              + list(samples))
    events.sort(key=lambda e: (e[0], _EVENT_ORDER[e[1]], e[2]))
    now = 0.0
    for t, kind, i in events:
        if t > now:
            driver.advance(now, t)
            now = t
        if kind == "imprint":
            driver.imprint(i)
        elif kind == "readout":
            yield t, kind, i, driver.read_out(i)
        else:
            yield t, kind, i, driver.values[0]


def _measure(values: np.ndarray, spec: ProtocolSpec, psi0: SpectralState,
             t: float):
    """(fidelity, imbalance, centroid) at protocol time t, NaN-tolerant."""
    target = rotate(psi0, np.pi + _flux_angle(spec, t))
    fid = _overlap_fidelity(target, values, spec.grid_n)
    grid = GridState(values)
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
    _, total = _schedule(spec, t_star)
    psi0_s, _ = _prepare(spec)
    record_times = np.linspace(0.0, total, spec.n_records)
    snapshot_times = np.linspace(0.0, total, spec.n_snapshots)
    samples = ([(t, "record", i) for i, t in enumerate(record_times)] +
               [(t, "snapshot", i) for i, t in enumerate(snapshot_times)])
    records = np.full((spec.n_records, 4), np.nan)
    snapshots: list = [None] * spec.n_snapshots
    for t, kind, i, values in _walk([spec], t_star, samples):
        if kind == "record":
            records[i] = (t,) + _measure(values, spec, psi0_s, t)
        elif kind == "snapshot":
            snapshots[i] = density_profile(GridState(values))
        else:
            final = values

    final_fid, final_imb, final_cen = _measure(final, spec, psi0_s, total)
    final_grid = GridState(final)
    return ProtocolResult(
        spec=spec,
        revival_time_s=t_star,
        total_duration_s=total,
        initial_spectral=psi0_s,
        final_spectral=to_spectral(final_grid, spec.cutoff),
        final_grid=final_grid,
        revival_fidelity=final_fid,
        imbalance=final_imb,
        centroid_angle=final_cen,
        records=records,
        snapshot_times=tuple(float(t) for t in snapshot_times),
        snapshots=tuple(snapshots),
    )


def _scan(spec: ProtocolSpec, values, name: str, vary):
    """(fidelity, imbalance, centroid) at the readout of `vary(spec, value)`.

    One row per value, in order.  The revival time is resolved once, and
    the runs are stepped as one batch (see `_walk`), taking no records.
    """
    values = [float(v) for v in values]
    if not values:
        raise InvalidParameterError("%s must not be empty" % name)
    if not all(np.isfinite(values)):
        raise InvalidParameterError("%s must be finite" % name)
    t_star = spec.revival_time_s
    if t_star is None:
        t_star = find_revival_time(spec)
    psi0_s, _ = _prepare(spec)
    measured = [None] * len(values)
    for t, _, i, row in _walk([vary(spec, v) for v in values], t_star):
        measured[i] = _measure(row, spec, psi0_s, t)
    return values, measured


def sweep_phase(spec: ProtocolSpec, phases) -> np.ndarray:
    """Imbalance fringe over imprint phases: rows (phase rad, imbalance).

    The revival time is resolved once and shared by every run, matching an
    experiment that calibrates timing before scanning the signal phase.
    The runs share their walk from release to the imprint and then step as
    one batch, one row per phase, taking no records or snapshots whatever
    `spec.n_records` and `spec.n_snapshots` say.  Each row equals
    `run_protocol` of its phase to rounding: bitwise with a mean-field
    coupling, since every row then takes the same steps.  Rows keep the
    order of `phases`.
    """
    phases, measured = _scan(spec, phases, "phases", lambda base, p: replace(
        base, imprint=replace(base.imprint, phase=p)))
    return np.array([[p, m[1]] for p, m in zip(phases, measured)])


def timing_sensitivity(spec: ProtocolSpec, offsets) -> np.ndarray:
    """Fringe degradation against imprint timing error.

    Rows are (offset s, revival fidelity, imbalance) in the order of
    `offsets`; the zero-offset revival time is resolved once and reused, so
    the scan isolates pure timing error from retiming.  The runs share their
    walk from release to the earliest imprint and then step as one batch,
    each imprinted and read out at its own time, taking no records or
    snapshots whatever `spec.n_records` and `spec.n_snapshots` say.  Every
    row's interval is cut at every other row's instants, so where Strang
    steps are taken (a coupling or a pulse) a row differs from its own
    `run_protocol` by the O(dt^2) step error, not by rounding only.
    """
    offsets, measured = _scan(spec, offsets, "offsets", lambda base, o:
                              replace(base, timing_offset=o))
    return np.array([[o, m[0], m[1]] for o, m in zip(offsets, measured)])
