"""Time one FFT pair and the packet preparation of the reference scenario.

    python3 tools/step_cost.py [--steps 10000] [--repeats 5]

Builds the protocol driver of the built-in reference scenario (2e4 K-39
atoms at 1 a0, `grid_n` 512, the derived step), then times
`_SplitStepEngine.propagate` over `--steps` coupled steps of the driver's
scheme for batches of 1, 7 and 13 rows (the shared prefix, the
`sweep_splitstep` batch and a 13-phase sweep).  Prints the best of
`--repeats` timings per batch, in microseconds per FFT pair (one kinetic
substep, the unit of cost) and per state-pair, and then the best of
`--repeats` wall times of one uncached preparation of the reference
packet (the imaginary-time relaxation every split-step run starts with).
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from ringsim.config import build_protocol, from_defaults  # noqa: E402
from ringsim.protocol import (_prepare, _prepared_packet,  # noqa: E402
                              _SplitStepDriver)

ROWS = (1, 7, 13)


def _best_of(repeats: int, run) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best


def pair_costs(spec, steps: int, repeats: int) -> dict:
    """Best-of-`repeats` seconds per FFT pair of `propagate`, per batch."""
    driver = _SplitStepDriver(spec, _prepare(spec)[1])
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
