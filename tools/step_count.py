"""Count the FFT pairs of one `ringsim revival` run, per phase.

    python3 tools/step_count.py [--config PATH]

Runs `ringsim revival` on PATH, or on the built-in reference scenario
without `--config`, writing its CSV into a temporary directory.  Every
`_SplitStepEngine.propagate` and `_SplitStepEngine.relax` call is wrapped
from outside the package and counted in FFT pairs, the unit of cost: rows
times the engine's FFT pairs per step (`pairs_per_step`) times its
`step_count(duration, dt)` for split steps, rows for one exact kinetic
step, and rows times its step count for a relaxation.  Each call is
charged to one phase:

    prepare         the imaginary-time relaxation of the initial packet
                    (`relax`; none on the linear solver)
    search prefix   the search's advance from release to half its window's
                    lower edge, which it keeps as checkpoints
    search window   the search's fidelity queries, from those checkpoints on
    record replay   a record or snapshot stepped from a stored checkpoint
    walk            the run itself, from release or its resume checkpoint

A replay starts from a stored checkpoint, which is read-only; a replay cut
at the flux turn-on continues from the output of its first call.  Prints
one table of calls and FFT pairs per phase.  Exits with the CLI's code,
and prints the CLI's output to stderr when that is not 0.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import io
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from ringsim import cli, protocol  # noqa: E402
from ringsim.propagator import _SplitStepEngine, step_count  # noqa: E402

PHASES = ("prepare", "search prefix", "search window", "record replay", "walk")


def _rows(values) -> int:
    return values.shape[0] if values.ndim == 2 else 1


def _arguments(fn, args, kwargs) -> dict:
    """Every parameter of the call `fn(*args, **kwargs)` by name, defaults
    filled in, so a wrapper reads the call as the engine sees it."""
    call = inspect.signature(fn).bind(*args, **kwargs)
    call.apply_defaults()
    return call.arguments


class StepCounter:
    """Wraps `propagate`, `relax` and the search objective; counts phases."""

    def __init__(self):
        self.pairs = dict.fromkeys(PHASES, 0)
        self.calls = dict.fromkeys(PHASES, 0)
        self._search = None
        self._last = None

    def _phase(self, values) -> str:
        if self._search is not None:
            return self._search
        last_out, last_phase = self._last or (None, None)
        replay = not values.flags.writeable or (
            values is last_out and last_phase == "record replay")
        return "record replay" if replay else "walk"

    def _propagate(self, original):
        def propagate(*args, **kwargs):
            call = _arguments(original, args, kwargs)
            phase = self._phase(call["values"])
            out = original(*args, **kwargs)
            engine, duration, dt = call["self"], call["duration"], call["dt"]
            if duration <= 0:
                pairs = 0
            elif not engine.mean_field.acts and call["potential"] is None:
                pairs = 1
            else:
                pairs = engine.pairs_per_step * step_count(duration, dt)
            self.pairs[phase] += _rows(call["values"]) * pairs
            self.calls[phase] += 1
            self._last = (out, phase)
            return out
        return propagate

    def _relax(self, original):
        def relax(*args, **kwargs):
            call = _arguments(original, args, kwargs)
            self.pairs["prepare"] += _rows(call["values"]) * call["steps"]
            self.calls["prepare"] += 1
            return original(*args, **kwargs)
        return relax

    def _in_phase(self, phase, fn):
        def wrapped(*args):
            outer, self._search = self._search, phase
            try:
                return fn(*args)
            finally:
                self._search = outer
        return wrapped

    def _objective(self, original):
        def splitstep_objective(*args):
            objective, checkpoints = self._in_phase("search prefix",
                                                    original)(*args)
            return self._in_phase("search window", objective), checkpoints
        return splitstep_objective

    @contextlib.contextmanager
    def installed(self):
        propagate = _SplitStepEngine.propagate
        relax = _SplitStepEngine.relax
        objective = protocol._splitstep_objective
        _SplitStepEngine.propagate = self._propagate(propagate)
        _SplitStepEngine.relax = self._relax(relax)
        protocol._splitstep_objective = self._objective(objective)
        try:
            yield self
        finally:
            _SplitStepEngine.propagate = propagate
            _SplitStepEngine.relax = relax
            protocol._splitstep_objective = objective


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", metavar="PATH", default=None,
                        help="key = value config file (default: built-in "
                             "reference scenario)")
    args = parser.parse_args(argv)
    counter = StepCounter()
    log = io.StringIO()
    with tempfile.TemporaryDirectory() as out, counter.installed(), \
            contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        argv = ["revival", "--out", out]
        if args.config is not None:
            argv += ["--config", args.config]
        code = cli.main(argv)
    if code != 0:
        sys.stderr.write(log.getvalue())
        return code
    print("phase           calls  fft-pairs")
    for phase in PHASES:
        print("%-14s %6d %10d" % (phase, counter.calls[phase],
                                  counter.pairs[phase]))
    print("%-14s %6d %10d" % ("total", sum(counter.calls.values()),
                              sum(counter.pairs.values())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
