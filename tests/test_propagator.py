"""Propagators: exact spectral evolution and the split-step engine."""
import math
import re
import warnings

import numpy as np
import pytest

import ringsim as rs
from ringsim.propagator import (BLANES_MOAN, LOCAL_PHASE_LIMIT, STRANG,
                                _SplitStepEngine, fused_local_coefficients,
                                step_count)


@pytest.fixture(scope="module")
def model(trap):
    return rs.DispersionModel(trap, 128)


@pytest.fixture(scope="module")
def packet():
    return rs.gaussian_packet(0.3, 0.121, 128)


def test_two_periods_are_the_identity(trap, model, packet, revival_s):
    evolved = rs.evolve_linear(packet, 2.0 * revival_s, model)
    assert rs.fidelity(packet, evolved) >= 1.0 - 1e-12


def test_one_period_is_a_half_turn(trap, model, packet, revival_s):
    evolved = rs.evolve_linear(packet, revival_s, model)
    target = rs.rotate(packet, math.pi)
    assert rs.fidelity(target, evolved) >= 1.0 - 1e-12


def test_half_period_is_a_balanced_splitter(trap, model, packet, revival_s):
    evolved = rs.evolve_linear(packet, 0.5 * revival_s, model)
    target = (np.exp(-1j * math.pi / 4.0)
              * (packet.amplitudes
                 + 1j * rs.rotate(packet, math.pi).amplitudes)
              / math.sqrt(2.0))
    assert np.max(np.abs(evolved.amplitudes - target)) < 1e-10
    helper = rs.half_revival_superposition(packet)
    assert np.max(np.abs(helper.amplitudes - target)) < 1e-10
    # mode-by-mode: even components pick up 1, odd components -i
    parity = np.where(packet.ells % 2 == 0, 1.0 + 0.0j, -1j)
    assert np.max(np.abs(evolved.amplitudes
                         - parity * packet.amplitudes)) < 1e-10


def test_splitter_identity_holds_for_arbitrary_states(trap, model, revival_s):
    rng = np.random.default_rng(7)
    amps = rng.normal(size=257) + 1j * rng.normal(size=257)
    state = rs.SpectralState(amps / np.linalg.norm(amps))
    evolved = rs.evolve_linear(state, 0.5 * revival_s, model)
    helper = rs.half_revival_superposition(state)
    assert np.max(np.abs(evolved.amplitudes - helper.amplitudes)) < 1e-10


def test_flux_rotates_the_revival(trap, model, packet, revival_s):
    flux = rs.FluxSpec(action=0.37 * rs.HBAR)
    with_flux = rs.evolve_linear(packet, revival_s, model, flux=flux)
    without = rs.evolve_linear(packet, revival_s, model)
    target = rs.rotate(without, 0.37)
    assert np.max(np.abs(with_flux.amplitudes - target.amplitudes)) < 1e-10


def test_flux_bookkeeping(trap, revival_s):
    flux = rs.FluxSpec(action=0.5 * rs.HBAR, turn_on=0.01)
    assert flux.angle_per_revival() == pytest.approx(0.5, rel=1e-12)
    assert flux.accumulated_angle(trap, 0.01 + 0.5 * revival_s) == \
        pytest.approx(0.25, abs=1e-15)
    assert flux.accumulated_angle(trap, 0.005) == 0.0


def test_cutoff_mismatch_rejected(trap, packet):
    small = rs.DispersionModel(trap, 40)
    with pytest.raises(rs.InvalidParameterError):
        rs.evolve_linear(packet, 1e-3, small)


def test_interaction_coupling_values(trap):
    inter = rs.InteractionSpec(scattering_length=rs.BOHR_RADIUS,
                               atom_number=2e4)
    direct = 2.0 * rs.HBAR * trap.omega_perp * rs.BOHR_RADIUS * 2e4
    assert inter.coupling(trap) == pytest.approx(direct, rel=1e-12)
    assert inter.coupling_internal(trap) == pytest.approx(
        49.03727312854568, rel=1e-11)
    assert inter.coupling_internal(trap) == pytest.approx(
        direct * trap.mass * trap.radius / rs.HBAR ** 2, rel=1e-12)


def test_no_atoms_couple_with_plus_zero_at_an_attractive_length(trap):
    empty = rs.InteractionSpec(-rs.BOHR_RADIUS, 0)
    assert math.copysign(1.0, empty.coupling(trap)) == 1.0
    assert math.copysign(1.0, empty.coupling_internal(trap)) == 1.0


def test_attractive_coupling_warns():
    with pytest.warns(rs.AttractiveCouplingWarning) as caught:
        rs.InteractionSpec(scattering_length=-1e-10, atom_number=100.0)
    assert [w.filename for w in caught] == [__file__]
    with pytest.raises(rs.InvalidParameterError):
        rs.InteractionSpec(scattering_length=1e-10, atom_number=-5.0)


@pytest.mark.parametrize("sign", [1.0, -1.0, None],
                         ids=["repulsive", "attractive", "none"])
def test_the_mean_field_term_has_one_owner(trap, sign):
    inter = None
    if sign is not None:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", rs.AttractiveCouplingWarning)
            inter = rs.InteractionSpec(scattering_length=sign *
                                       rs.BOHR_RADIUS, atom_number=2e4)
    g = 0.0 if inter is None else inter.coupling_internal(trap)
    engine = _SplitStepEngine(rs.DispersionModel(trap, 20), 64, inter)
    mean_field = engine.mean_field
    values = np.random.default_rng(5).normal(size=(3, 128)).view(complex)
    density = np.abs(values) ** 2
    potential = np.cos(engine.angles)
    local = np.empty(values.shape)
    mean_field.local_into(values, None, local)
    np.testing.assert_array_equal(local, g * density)
    mean_field.local_into(values, potential, local)
    np.testing.assert_array_equal(local, g * density + potential)
    dalpha = 2.0 * math.pi / 64
    assert mean_field.energy(density, dalpha) == \
        0.5 * g * dalpha * np.sum(density ** 2)
    assert mean_field.peak_rate(values) == abs(g) * density.max()
    assert mean_field.acts == (g != 0.0)
    # one Strang step of h advances the peak local phase |g| max n h, the
    # same for either sign of g; with no coupling it is one exact kinetic
    # step, which no guard checks
    state = values[0]
    if inter is None:
        engine.propagate(state, 1.0, 1.0)
    else:
        limit = LOCAL_PHASE_LIMIT / (abs(g) * density[0].max())
        engine.propagate(state, 0.99 * limit, 0.99 * limit)
        with pytest.raises(rs.StepSizeError, match="reaches the limit"):
            engine.propagate(state, 1.01 * limit, 1.01 * limit)
    # the linear solver refuses any coupling that acts
    if inter is None:
        rs.ProtocolSpec(trap=trap, interaction=inter, solver="linear")
    else:
        with pytest.raises(rs.ConfigError, match="mean-field coupling"):
            rs.ProtocolSpec(trap=trap, interaction=inter, solver="linear")


def test_a_coupling_that_underflows_internally_does_not_act(trap):
    # a N of 1e-280 m: g1 is nonzero in J m but its internal value rounds
    # to 0, so the split-step engine steps it as free and the linear
    # solver accepts it
    inter = rs.InteractionSpec(scattering_length=1e-280, atom_number=1.0)
    assert inter.coupling(trap) != 0.0
    assert inter.coupling_internal(trap) == 0.0
    engine = _SplitStepEngine(rs.DispersionModel(trap, 20), 64, inter)
    assert not engine.mean_field.acts
    spec = rs.ProtocolSpec(trap=trap, interaction=inter, solver="linear")
    assert spec.solver == "linear"


def test_single_step_matches_exact_evolution_without_coupling(trap):
    model = rs.DispersionModel(trap, 40)
    packet = rs.gaussian_packet(0.0, 0.35, 40)
    grid = rs.to_grid(packet, 128)
    dt = 2e-7
    stepped = rs.to_spectral(rs.step_nonlinear(grid, dt, model), 40)
    exact = rs.evolve_linear(packet, dt, model)
    assert np.max(np.abs(stepped.amplitudes - exact.amplitudes)) < 1e-10


@pytest.fixture(scope="module", params=[False, True],
                ids=["ideal", "centrifugal"])
def free_engine(request, trap):
    """Coupling-free engine with a flux, with its model and flux."""
    model = rs.DispersionModel(trap, 100, includes_centrifugal=request.param)
    flux = rs.FluxSpec(action=0.37 * rs.HBAR)
    return model, flux, _SplitStepEngine(model, 256, flux=flux)


@pytest.mark.parametrize("n", [10, 100, 1000])
def test_exact_kinetic_step_equals_evolve_linear(free_engine, revival_s, n):
    # a zero potential sends `propagate` through its Strang loop of n steps
    model, flux, engine = free_engine
    packet = rs.gaussian_packet(0.3, 0.121, 100)
    values = rs.to_grid(packet, 256).values
    spectral = rs.evolve_linear(packet, 0.37 * revival_s, model, flux=flux)
    reference = rs.to_grid(spectral, 256).values
    duration = 0.37 * 2.0 * math.pi
    exact = engine.propagate(values, duration, duration / n)
    looped = engine.propagate(values, duration, duration / n, np.zeros(256))
    assert np.max(np.abs(exact - reference)) < 1e-12
    assert np.max(np.abs(looped - reference)) < 1e-12


def test_the_kinetic_cache_keeps_the_last_two_factors(trap):
    # records at equally spaced times take gaps of a few rounded durations
    engine = _SplitStepEngine(rs.DispersionModel(trap, 100), 256,
                              flux=rs.FluxSpec(action=0.37 * rs.HBAR))
    short, long = 0.01, 0.01 * (1 + 2 ** -52)
    first = engine.kinetic_phase(short)
    second = engine.kinetic_phase(long)
    for _ in range(3):
        assert engine.kinetic_phase(short) is first
        assert engine.kinetic_phase(long) is second
    # a third key evicts the least recently used, and an evicted factor
    # is rebuilt bitwise
    unflux = engine.kinetic_phase(short, flux_on=False)
    assert engine.kinetic_phase(long) is second
    rebuilt = engine.kinetic_phase(short)
    assert rebuilt is not first
    assert np.array_equal(rebuilt, first)
    assert engine.kinetic_phase(short, flux_on=False) is not unflux


def _coupled(trap, grid_n):
    inter = rs.InteractionSpec(scattering_length=rs.BOHR_RADIUS,
                               atom_number=2e4)
    flux = rs.FluxSpec(action=0.37 * rs.HBAR)
    engine = _SplitStepEngine(rs.DispersionModel(trap, 100), grid_n, inter,
                              flux)
    values = rs.to_grid(rs.gaussian_packet(0.3, 0.3, 100), grid_n).values
    return engine, values


@pytest.fixture(scope="module")
def coupled_engine(trap):
    """Engine with the mean-field coupling and a flux, and a start state."""
    return _coupled(trap, 256)


def _strang_step(engine, values, h, potential, flux_on):
    # one explicit local half / kinetic full / local half step
    def local_term(vals):
        local = engine.mean_field.g * np.abs(vals) ** 2
        return local if potential is None else local + potential

    values = values * np.exp(-0.5j * h * local_term(values))
    values = np.fft.ifft(engine.kinetic_phase(h, flux_on) *
                         np.fft.fft(values))
    return values * np.exp(-0.5j * h * local_term(values))


@pytest.mark.parametrize("flux_on", [True, False], ids=["flux", "no-flux"])
@pytest.mark.parametrize("with_potential", [False, True],
                         ids=["free", "potential"])
@pytest.mark.parametrize("n", [1, 2, 1000])
def test_fused_steps_equal_explicit_strang_steps(coupled_engine, n,
                                                 with_potential, flux_on):
    engine, values = coupled_engine
    potential = 30.0 * np.cos(engine.angles) if with_potential else None
    h = 2e-5 * 2.0 * math.pi
    stepped = values
    for _ in range(n):
        stepped = _strang_step(engine, stepped, h, potential, flux_on)
    fused = engine.propagate(values, n * h, h, potential, flux_on)
    assert np.max(np.abs(fused - stepped)) < 1e-12


def test_a_batch_steps_like_its_rows_stepped_alone(coupled_engine):
    engine, _ = coupled_engine
    rows = np.array([rs.to_grid(rs.gaussian_packet(c, 0.3, 100), 256).values
                     for c in (0.0, 1.0, 2.5)])
    potential = np.array([s * np.cos(engine.angles) for s in (0.0, 20, -40)])
    h = 2e-5 * 2.0 * math.pi
    batch = engine.propagate(rows, 500 * h, h, potential)
    for row, pot, out in zip(rows, potential, batch):
        alone = engine.propagate(row, 500 * h, h, pot)
        assert np.max(np.abs(out - alone)) < 1e-12


def _reference_propagate(engine, values, duration, dt, potential, flux_on):
    # the fused Strang loop as it was written before it ran in place
    n = max(1, int(round(duration / dt)))
    h = duration / n
    kinetic = engine.kinetic_phase(h, flux_on)

    def local_term(vals):
        local = engine.mean_field.g * np.abs(vals) ** 2
        return local if potential is None else local + potential

    values = values * np.exp(-0.5j * h * local_term(values))
    for _ in range(n - 1):
        values = np.fft.ifft(kinetic * np.fft.fft(values))
        values *= np.exp(-1j * h * local_term(values))
    values = np.fft.ifft(kinetic * np.fft.fft(values))
    return values * np.exp(-0.5j * h * local_term(values))


@pytest.mark.parametrize("flux_on", [True, False], ids=["flux", "no-flux"])
@pytest.mark.parametrize("with_potential", [False, True],
                         ids=["free", "potential"])
# the 512-point shapes are the reference scenario's: one row, as in a
# revival search, and the seven rows of a phase sweep
@pytest.mark.parametrize("grid_n, rows", [(256, 1), (256, 3), (512, 1),
                                          (512, 7)],
                         ids=["1", "3", "512x1", "512x7"])
@pytest.mark.parametrize("n", [1, 2, 50])
def test_in_place_steps_are_bitwise_the_reference_loop(
        trap, n, grid_n, rows, with_potential, flux_on):
    engine, values = _coupled(trap, grid_n)
    if rows > 1:
        values = np.array([values * np.exp(1j * k * np.cos(engine.angles))
                           for k in range(rows)])
    potential = None
    if with_potential:
        # one row per state: a different potential on each row
        scales = np.linspace(30.0, -40.0, rows)[:, None]
        potential = (scales * np.cos(engine.angles)).reshape(values.shape)
    h = 2e-5 * 2.0 * math.pi
    before = values.copy()
    fused = engine.propagate(values, n * h, h, potential, flux_on)
    np.testing.assert_array_equal(values, before)
    np.testing.assert_array_equal(
        fused, _reference_propagate(engine, values, n * h, h, potential,
                                    flux_on))


def _explicit_step(engine, values, h, potential, scheme):
    # one step of `scheme`, unfused: local a_0 h, kinetic b_0 h, ..., local
    # a_m h
    def local_phase(vals, a):
        local = engine.mean_field.g * np.abs(vals) ** 2
        if potential is not None:
            local = local + potential
        return np.exp(-1j * a * h * local)

    local, kinetic = scheme
    values = values * local_phase(values, local[0])
    for a, b in zip(local[1:], kinetic):
        values = np.fft.ifft(engine.kinetic_phase(b * h) * np.fft.fft(values))
        values = values * local_phase(values, a)
    return values


@pytest.mark.parametrize("with_potential", [False, True],
                         ids=["free", "potential"])
@pytest.mark.parametrize("n", [1, 2, 200])
def test_fused_blanes_moan_steps_equal_explicit_steps(coupled_engine, n,
                                                      with_potential):
    engine, values = coupled_engine
    potential = 30.0 * np.cos(engine.angles) if with_potential else None
    h = 6 * 2e-5 * 2.0 * math.pi
    stepped = values
    for _ in range(n):
        stepped = _explicit_step(engine, stepped, h, potential, BLANES_MOAN)
    fused = engine.propagate(values, n * h, h, potential, True, BLANES_MOAN)
    assert np.max(np.abs(fused - stepped)) < 1e-12


def test_blanes_moan_is_fourth_order(coupled_engine):
    # against a step 40 times finer, halving the step cuts the error 16
    # fold; at equal FFT pairs (a Strang step of h / 6) it is far below
    # Strang's error (9.3e-9 against 8.3e-6 at the coarse step)
    engine, values = coupled_engine
    potential = 30.0 * np.cos(engine.angles)
    duration = 0.01 * 2.0 * math.pi
    reference = engine.propagate(values, duration, duration / 4000,
                                 potential, True, BLANES_MOAN)

    def error(h, scheme=BLANES_MOAN):
        stepped = engine.propagate(values, duration, h, potential, True,
                                   scheme)
        return np.max(np.abs(stepped - reference))

    h = duration / 50
    assert 15.0 < error(h) / error(h / 2) < 17.0
    assert 100 * error(h) < error(h / 6, STRANG)


def test_an_interval_takes_no_step_longer_than_dt(coupled_engine):
    # at dt the largest fused local substep advances 0.09 rad: an interval
    # of 1.4 dt takes two steps of 0.7 dt, where one step of 1.4 dt would
    # trip the guard
    engine, values = coupled_engine
    h = 6 * 2e-5 * 2.0 * math.pi
    c = max(abs(a) for a in fused_local_coefficients(BLANES_MOAN))
    density = engine.mean_field.g * np.abs(values) ** 2
    potential = np.full(engine.grid_n, 0.09 / (c * h) - density.max())
    assert potential[0] > 0
    engine.propagate(values, 1.4 * h, h, potential, True, BLANES_MOAN)
    with pytest.raises(rs.StepSizeError):
        engine.propagate(values, 1.4 * h, 1.4 * h, potential, True,
                         BLANES_MOAN)
    assert [step_count(d, 0.1) for d in (0.14, 0.3, 0.1)] == [2, 3, 1]


def _imaginary_strang_step(engine, values, dtau, potential):
    # one explicit normalised imaginary-time step: local half / kinetic
    # full / local half, then unit norm with measure 2 pi / N
    def local_term(vals):
        return engine.mean_field.g * np.abs(vals) ** 2 + potential

    values = values * np.exp(-0.5 * dtau * local_term(values))
    values = np.fft.ifft(np.exp(-dtau * engine.energies) *
                         np.fft.fft(values))
    values = values * np.exp(-0.5 * dtau * local_term(values))
    norm = np.sqrt(2.0 * math.pi / engine.grid_n *
                   np.sum(np.abs(values) ** 2))
    return values / norm


@pytest.mark.parametrize("coupled", [False, True], ids=["free", "coupled"])
@pytest.mark.parametrize("k", [1, 2, 50])
def test_relaxation_is_bitwise_explicit_imaginary_time_steps(trap, k,
                                                            coupled):
    inter = (rs.InteractionSpec(scattering_length=rs.BOHR_RADIUS,
                                atom_number=2e4) if coupled else None)
    engine = _SplitStepEngine(rs.DispersionModel(trap=trap, cutoff=1), 256,
                              inter)
    well = 400.0    # internal angular well frequency
    angle = (engine.angles + math.pi) % (2.0 * math.pi) - math.pi
    potential = 0.5 * well ** 2 * angle ** 2
    dtau = 1e-3 / well
    # off the well's centre, so every step moves the state
    values = rs.to_grid(rs.gaussian_packet(0.3, 0.3, 100), 256).values
    before = values.copy()
    relaxed = engine.relax(values, dtau, k, potential)
    np.testing.assert_array_equal(values, before)
    stepped = values
    for _ in range(k):
        stepped = _imaginary_strang_step(engine, stepped, dtau, potential)
    np.testing.assert_array_equal(relaxed, stepped)


def test_split_step_is_second_order(trap):
    # Richardson check: each run is compared against its own quarter-step
    # reference, so halving the step must shrink the error fourfold.
    model = rs.DispersionModel(trap, 40)
    inter = rs.InteractionSpec(scattering_length=rs.BOHR_RADIUS,
                               atom_number=2e4)
    grid = rs.to_grid(rs.gaussian_packet(0.0, 0.35, 40), 128)
    duration = 0.02 * rs.revival_time(trap)

    def run(n):
        vals = grid
        for _ in range(n):
            vals = rs.step_nonlinear(vals, duration / n, model,
                                     interaction=inter)
        return vals.values

    err_h = np.linalg.norm(run(400) - run(1600))
    err_h2 = np.linalg.norm(run(800) - run(3200))
    assert 3.5 < err_h / err_h2 < 4.5


def test_split_step_conserves_norm(trap):
    model = rs.DispersionModel(trap, 40)
    inter = rs.InteractionSpec(scattering_length=rs.BOHR_RADIUS,
                               atom_number=2e4)
    vals = rs.to_grid(rs.gaussian_packet(0.0, 0.35, 40), 128)
    dt = 0.02 * rs.revival_time(trap) / 1e4
    for _ in range(10000):
        vals = rs.step_nonlinear(vals, dt, model, interaction=inter)
    assert abs(vals.norm - 1.0) < 1e-9


def test_oversized_step_rejected(trap):
    model = rs.DispersionModel(trap, 40)
    inter = rs.InteractionSpec(scattering_length=rs.BOHR_RADIUS,
                               atom_number=2e4)
    grid = rs.to_grid(rs.gaussian_packet(0.0, 0.35, 40), 128)
    with pytest.raises(rs.StepSizeError, match="lower dt in step_nonlinear"):
        rs.step_nonlinear(grid, 5e-3, model, interaction=inter)


@pytest.mark.parametrize("with_potential", [False, True],
                         ids=["free", "potential"])
def test_single_step_is_one_explicit_strang_step(trap, with_potential):
    model = rs.DispersionModel(trap, 40)
    inter = rs.InteractionSpec(scattering_length=rs.BOHR_RADIUS,
                               atom_number=2e4)
    flux = rs.FluxSpec(action=0.37 * rs.HBAR)
    grid = rs.to_grid(rs.gaussian_packet(0.0, 0.35, 40), 128)
    engine = _SplitStepEngine(model, 128, inter, flux)
    potential = None
    if with_potential:
        potential = 1e-33 * np.cos(engine.angles)
    dt = 2e-7
    stepped = rs.step_nonlinear(grid, dt, model, inter, flux, potential)
    explicit = _strang_step(
        engine, grid.values, dt / trap.time_unit,
        None if potential is None else potential / trap.energy_unit, True)
    np.testing.assert_array_equal(stepped.values, explicit)


@pytest.mark.parametrize("dt", [0.0, -1e-7, math.nan])
def test_single_step_refuses_a_step_that_is_not_positive(trap, dt):
    model = rs.DispersionModel(trap, 40)
    grid = rs.to_grid(rs.gaussian_packet(0.0, 0.35, 40), 128)
    with pytest.raises(rs.InvalidParameterError):
        rs.step_nonlinear(grid, dt, model)


def test_potential_shape_validated(trap):
    model = rs.DispersionModel(trap, 40)
    grid = rs.to_grid(rs.gaussian_packet(0.0, 0.35, 40), 128)
    with pytest.raises(rs.InvalidParameterError):
        rs.step_nonlinear(grid, 1e-7, model, potential=np.zeros(64))


# each starts the relaxation or the spectral evolution with one non-finite
# argument: (error, the argument's name in its message, call); a small
# max_steps keeps a missed tolerance check from running for seconds
_NON_FINITE_ARGUMENTS = {
    "tolerance-nan": (rs.ConvergenceError, "tolerance", lambda trap: (
        rs.ground_state_imaginary_time(trap, grid_n=64, tolerance=math.nan,
                                       max_steps=100))),
    "well-frequency-nan": (rs.InvalidParameterError, "well_frequency",
                           lambda trap: rs.ground_state_imaginary_time(
                               trap, grid_n=64, well_frequency=math.nan)),
    "well-frequency-inf": (rs.InvalidParameterError, "well_frequency",
                           lambda trap: rs.ground_state_imaginary_time(
                               trap, grid_n=64, well_frequency=math.inf)),
    "well-center-nan": (rs.InvalidParameterError, "well_center",
                        lambda trap: rs.ground_state_imaginary_time(
                            trap, grid_n=64, well_center=math.nan)),
    "duration-nan": (rs.InvalidParameterError, "duration", lambda trap: (
        rs.evolve_linear(rs.gaussian_packet(0.0, 0.3, 16), math.nan,
                         rs.DispersionModel(trap, 16)))),
    "duration-inf": (rs.InvalidParameterError, "duration", lambda trap: (
        rs.evolve_linear(rs.gaussian_packet(0.0, 0.3, 16), math.inf,
                         rs.DispersionModel(trap, 16)))),
}


@pytest.mark.parametrize("case", sorted(_NON_FINITE_ARGUMENTS))
def test_non_finite_arguments_fail_where_the_evolution_starts(trap, case):
    error, name, call = _NON_FINITE_ARGUMENTS[case]
    with pytest.raises(error, match=name):
        call(trap)


def test_ground_state_of_release_well_is_gaussian(trap, default_packet_width):
    # with the interaction off, relaxing in a well of frequency omega_perp
    # must return the packet the linear pipeline starts from
    ground = rs.ground_state_imaginary_time(trap, grid_n=256,
                                            well_frequency=trap.omega_perp)
    target = rs.gaussian_packet(0.0, default_packet_width, 100)
    assert rs.fidelity(target, rs.to_spectral(ground, 100)) >= 1.0 - 1e-9
    assert ground.norm == pytest.approx(1.0, abs=1e-12)


def test_ground_state_repulsion_broadens(trap):
    inter = rs.InteractionSpec(scattering_length=rs.BOHR_RADIUS,
                               atom_number=2e4)
    free = rs.ground_state_imaginary_time(trap, grid_n=256,
                                          well_frequency=trap.omega_perp)
    withg = rs.ground_state_imaginary_time(trap, inter, 256,
                                           well_frequency=trap.omega_perp)
    assert withg.norm == pytest.approx(1.0, abs=1e-12)
    # repulsion flattens and widens the cloud: lower peak density
    assert np.max(np.abs(withg.values) ** 2) < np.max(np.abs(free.values) ** 2)


def test_ground_state_convergence_guards(trap):
    with pytest.raises(rs.ConvergenceError):
        rs.ground_state_imaginary_time(trap, grid_n=128,
                                       well_frequency=trap.omega_perp,
                                       tolerance=0.0)
    with pytest.raises(rs.ConvergenceError):
        rs.ground_state_imaginary_time(trap, grid_n=128,
                                       well_frequency=trap.omega_perp,
                                       max_steps=60)


# each bad input with the message it raises: (message, call)
_GUARDS = {
    "flux-before-release": ("turn_on must be >= 0",
                            lambda trap: rs.FluxSpec(1e-34, turn_on=-1.0)),
    "grid-not-power-of-two": ("grid_n must be a power of two >= 4",
                              lambda trap: rs.ground_state_imaginary_time(
                                  trap, grid_n=100)),
    "grid-float": ("grid_n must be a power of two >= 4",
                   lambda trap: rs.ground_state_imaginary_time(
                       trap, grid_n=512.0)),
    "no-step-budget": ("max_steps must be >= 1",
                       lambda trap: rs.ground_state_imaginary_time(
                           trap, grid_n=64, max_steps=0)),
}


@pytest.mark.parametrize("case", sorted(_GUARDS))
def test_guards_refuse_bad_flux_grid_and_budget(trap, case):
    message, call = _GUARDS[case]
    with pytest.raises(rs.InvalidParameterError, match=re.escape(message)):
        call(trap)
