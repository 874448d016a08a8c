"""Per-layer spans recorded from outside the program.

`Tracer.install` replaces every public function of the layer modules with a
timing wrapper, in every `ringsim.*` namespace that holds a reference to it,
so calls between modules (`run_protocol` -> `find_revival_time`,
`_measure` -> `population_imbalance`) are seen without touching `src/`.
Spans are kept in memory as flat lists (function, start, end, parent) and
reduced to per-layer self times when the run ends.  `Tracer.remove` puts
every original back.

The span stack is a plain list, so the wrappers assume one thread, which
is what the CLI runs with its default `--threads 1`.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

# modules that do work; `constants` and `errors` do no measurable work
LAYERS = ("cli", "config", "protocol", "propagator", "states",
          "observables", "spectrum", "sensing")

# functions that get a metric of their own inside their layer
BUCKETS = {
    "protocol.find_revival_time": "protocol.search",
    "protocol.run_protocol": "protocol.run",
    "protocol.sweep_phase": "protocol.sweep",
    "protocol.timing_sensitivity": "protocol.sweep",
    "propagator.ground_state_imaginary_time": "propagator.prepare",
    "propagator.evolve_linear": "propagator.evolve_linear",
}


def _public_functions(module):
    for name, obj in vars(module).items():
        if (not name.startswith("_") and inspect.isfunction(obj)
                and obj.__module__ == module.__name__):
            yield obj


class Tracer:
    """Wraps the layer functions of an imported `ringsim` package."""

    def __init__(self):
        self.names = []       # "layer.function" per traced function
        self.fids = []        # per span: index into names
        self.starts = []
        self.ends = []
        self.parents = []     # per span: index of the enclosing span, or -1
        self._stack = []
        self._patched = []    # (module, attribute, original)
        # (spec, total_duration_s) of every run_protocol call
        self.protocol_runs = []

    def _wrap(self, fn, fid: int, keep_result: bool):
        clock = time.perf_counter
        stack, fids, starts, ends, parents = (
            self._stack, self.fids, self.starts, self.ends, self.parents)
        runs = self.protocol_runs

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            fids.append(fid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if keep_result:
                runs.append((out.spec, out.total_duration_s))
            return out

        return wrapper

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules["ringsim." + layer]
            for fn in _public_functions(module):
                fid = len(self.names)
                self.names.append("%s.%s" % (layer, fn.__name__))
                keep = fn.__name__ == "run_protocol"
                wrappers[id(fn)] = (fn, self._wrap(fn, fid, keep))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "ringsim" and not mod_name.startswith("ringsim."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def remove(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []

    def summary(self) -> dict:
        """Self time and calls per function, plus the top-level total.

        Self time is a span's duration minus the durations of its direct
        children, so the self times of all spans add up to the summed
        duration of the top-level spans.
        """
        n = len(self.starts)
        duration = [self.ends[i] - self.starts[i] for i in range(n)]
        self_time = list(duration)
        top = 0.0
        for i in range(n):
            parent = self.parents[i]
            if parent < 0:
                top += duration[i]
            else:
                self_time[parent] -= duration[i]
        per_function = {name: {"calls": 0, "self_s": 0.0}
                        for name in self.names}
        for i in range(n):
            entry = per_function[self.names[self.fids[i]]]
            entry["calls"] += 1
            entry["self_s"] += self_time[i]
        return {"spans": n, "top_level_s": top, "functions": per_function}


def layer_metrics(functions: dict) -> dict:
    """Per-layer and per-bucket self time and call counts."""
    out = {}
    for layer in LAYERS:
        out[layer + ".s"] = 0.0
        out[layer + ".calls"] = 0
    for bucket in set(BUCKETS.values()):
        out[bucket + "_s"] = 0.0
        out[bucket + "_calls"] = 0
    for name, entry in functions.items():
        layer = name.split(".", 1)[0]
        out[layer + ".s"] += entry["self_s"]
        out[layer + ".calls"] += entry["calls"]
        bucket = BUCKETS.get(name)
        if bucket is not None:
            out[bucket + "_s"] += entry["self_s"]
            out[bucket + "_calls"] += entry["calls"]
    return out
