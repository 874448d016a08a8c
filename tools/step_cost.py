"""Time one FFT pair, the packet preparation and the readouts of the
reference scenario.

    python3 tools/step_cost.py [--steps 10000] [--repeats 5]

Builds the protocol driver of the built-in reference scenario (2e4 K-39
atoms at 1 a0, `grid_n` 512, the derived step), then times
`_SplitStepEngine.propagate` over `--steps` coupled steps of the driver's
scheme for batches of 1, 7 and 13 rows (the shared prefix, the
`sweep_splitstep` batch and a 13-phase sweep).  Prints the best of
`--repeats` timings per batch, in microseconds per FFT pair (one kinetic
substep, the unit of cost) and per state-pair, and then four lines, each
the best of `--repeats`:

    prepare        one uncached preparation of the reference packet (the
                   imaginary-time relaxation every split-step run starts
                   with), in s
    search-point   one coarse point of the linear revival search's scan
                   (estimates, then the exact objective at the best ones),
                   on an interaction-free linear copy of the scenario, in us
    readout        one record of a walk's readout (`_measure`: fidelity,
                   imbalance and centroid), timed over blocks of SCAN_BLOCK
                   records of the prepared packet, in us per record
    readout-flux   the same readout on a copy of the scenario with a 0.3 rad
                   gauge flux, whose half-turn target moves with t, in us
                   per record
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from dataclasses import replace

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from ringsim.config import build_protocol, from_defaults  # noqa: E402
from ringsim.constants import HBAR  # noqa: E402
from ringsim.observables import fidelity  # noqa: E402
from ringsim.propagator import FluxSpec, evolve_linear  # noqa: E402
from ringsim.protocol import (SCAN_BLOCK, _linear_scan,  # noqa: E402
                              _measure, _prepare, _prepared_packet,
                              _revival_target, _search_times,
                              _SplitStepDriver)
from ringsim.states import rotate  # noqa: E402

ROWS = (1, 7, 13)
BLOCKS = 12
FLUX_RAD = 0.3


def _best_of(repeats: int, run) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best


def pair_costs(spec, steps: int, repeats: int) -> dict:
    """Best-of-`repeats` seconds per FFT pair of `propagate`, per batch."""
    driver = _SplitStepDriver(spec, _prepare(spec)[1],
                              spec.dispersion_model())
    engine, dt, scheme = driver.engine, driver.dt_int, driver.scheme
    pairs = steps * len(scheme[1])
    costs = {}
    for rows in ROWS:
        values = np.repeat(driver.values, rows, axis=0)
        costs[rows] = _best_of(repeats, lambda: engine.propagate(
            values, steps * dt, dt, None, True, scheme)) / pairs
    return costs


def prepare_cost(spec, repeats: int) -> float:
    """Best-of-`repeats` seconds of one relaxation, past the packet cache."""
    return _best_of(repeats, lambda: _prepared_packet.__wrapped__(
        spec.trap, spec.interaction, spec.solver, spec.packet_center,
        spec.effective_packet_width, spec.cutoff, spec.grid_n))


def search_point_cost(spec, repeats: int) -> float:
    """Best-of-`repeats` seconds per point of the linear search's coarse
    scan, its exact re-check of the best points included, on the search's
    own grid of a linear copy of `spec`."""
    spec = replace(spec, solver="linear", interaction=None)
    model = spec.dispersion_model()
    psi0, _ = _prepare(spec)
    target = rotate(psi0, math.pi)
    lo, hi, count = _search_times(spec)
    times = np.linspace(lo, hi, count)
    objective = lambda t: fidelity(target, evolve_linear(psi0, t, model))
    return _best_of(repeats, lambda: _linear_scan(
        psi0, target, times, model, objective)) / count


def readout_cost(spec, repeats: int) -> float:
    """Best-of-`repeats` seconds per record of a walk's readout: BLOCKS
    blocks of SCAN_BLOCK records of the prepared packet, at distinct times,
    against the walk's target."""
    psi0_s, psi0_g = _prepare(spec)
    targets = _revival_target(spec, psi0_s)
    rows = np.repeat(psi0_g.values[None, :], SCAN_BLOCK, axis=0)
    times = [1e-3 * (np.arange(SCAN_BLOCK) + k * SCAN_BLOCK)
             for k in range(BLOCKS)]

    def readouts():
        for block_times in times:
            _measure(rows, block_times, spec, targets)
    return _best_of(repeats, readouts) / (BLOCKS * SCAN_BLOCK)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=10000)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    if args.steps < 1 or args.repeats < 1:
        parser.error("--steps and --repeats must be >= 1")
    print("numpy %s, %d cores, %d steps, best of %d"
          % (np.__version__, os.cpu_count(), args.steps, args.repeats))
    spec = build_protocol(from_defaults())
    print("rows  us/pair  us/state-pair")
    for rows, cost in pair_costs(spec, args.steps, args.repeats).items():
        print("%4d  %7.1f  %13.1f" % (rows, 1e6 * cost, 1e6 * cost / rows))
    print("prepare  %.3f s" % prepare_cost(spec, args.repeats))
    print("search-point  %.1f us" % (1e6 * search_point_cost(
        spec, args.repeats)))
    print("readout  %.1f us" % (1e6 * readout_cost(spec, args.repeats)))
    flux = replace(spec, flux=FluxSpec(FLUX_RAD * HBAR))
    print("readout-flux  %.1f us" % (1e6 * readout_cost(flux, args.repeats)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
