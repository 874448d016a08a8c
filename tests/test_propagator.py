"""Propagators: exact spectral evolution and the split-step engine."""
import math

import numpy as np
import pytest

import ringsim as rs
from ringsim.propagator import _SplitStepEngine


@pytest.fixture(scope="module")
def model(trap):
    return rs.ideal_dispersion(trap, 128)


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
    small = rs.ideal_dispersion(trap, 40)
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


def test_attractive_coupling_warns():
    with pytest.warns(rs.AttractiveCouplingWarning):
        rs.InteractionSpec(scattering_length=-1e-10, atom_number=100.0)
    with pytest.raises(rs.InvalidParameterError):
        rs.InteractionSpec(scattering_length=1e-10, atom_number=-5.0)


def test_single_step_matches_exact_evolution_without_coupling(trap):
    model = rs.ideal_dispersion(trap, 40)
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
    model = rs.corrected_dispersion(trap, 100, centrifugal=request.param)
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


@pytest.fixture(scope="module")
def coupled_engine(trap):
    """Engine with the mean-field coupling and a flux, and a start state."""
    inter = rs.InteractionSpec(scattering_length=rs.BOHR_RADIUS,
                               atom_number=2e4)
    flux = rs.FluxSpec(action=0.37 * rs.HBAR)
    engine = _SplitStepEngine(rs.ideal_dispersion(trap, 100), 256, inter,
                              flux)
    values = rs.to_grid(rs.gaussian_packet(0.3, 0.3, 100), 256).values
    return engine, values


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
        stepped = engine.step(stepped, h, potential, flux_on)
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


def test_split_step_is_second_order(trap):
    # Richardson check: each run is compared against its own quarter-step
    # reference, so halving the step must shrink the error fourfold.
    model = rs.ideal_dispersion(trap, 40)
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
    model = rs.ideal_dispersion(trap, 40)
    inter = rs.InteractionSpec(scattering_length=rs.BOHR_RADIUS,
                               atom_number=2e4)
    vals = rs.to_grid(rs.gaussian_packet(0.0, 0.35, 40), 128)
    dt = 0.02 * rs.revival_time(trap) / 1e4
    for _ in range(10000):
        vals = rs.step_nonlinear(vals, dt, model, interaction=inter)
    assert abs(vals.norm - 1.0) < 1e-9


def test_oversized_step_rejected(trap):
    model = rs.ideal_dispersion(trap, 40)
    inter = rs.InteractionSpec(scattering_length=rs.BOHR_RADIUS,
                               atom_number=2e4)
    grid = rs.to_grid(rs.gaussian_packet(0.0, 0.35, 40), 128)
    with pytest.raises(rs.StepSizeError):
        rs.step_nonlinear(grid, 5e-3, model, interaction=inter)


def test_potential_shape_validated(trap):
    model = rs.ideal_dispersion(trap, 40)
    grid = rs.to_grid(rs.gaussian_packet(0.0, 0.35, 40), 128)
    with pytest.raises(rs.InvalidParameterError):
        rs.step_nonlinear(grid, 1e-7, model, potential=np.zeros(64))


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
