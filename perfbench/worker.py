"""One pass of one workload in a fresh interpreter.

Run by `run.py`, never imported by it.  The pass imports `ringsim` from the
checkout's `src/`, writes and parses the workload's configs (set-up), then
drives every subcommand through `ringsim.cli.main` in this process, one
after another, checking each output as it lands.  With `--trace` the layer
functions are wrapped before set-up and the span summary is returned too.
The result is written as JSON to `--result`.

    python3 perfbench/worker.py --root . --workload cli_linear --seed 1 \
        --work perfbench_out/w --result perfbench_out/w.json --t0 <ns>

`--t0` is the caller's `time.monotonic_ns()` just before it started this
process, so set-up time includes interpreter start.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import sys
import time
import traceback

import workloads
from spans import Tracer, layer_metrics


def _import_ringsim(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import ringsim
    import ringsim.cli
    here = os.path.realpath(ringsim.__file__)
    if not here.startswith(os.path.realpath(src) + os.sep):
        raise ImportError("ringsim imported from %s, not from %s"
                          % (here, src))
    return ringsim


def _run_operation(ringsim, op) -> list:
    """Problems with one subcommand: exit code, exception, output check."""
    os.makedirs(op.out_dir, exist_ok=True)
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            code = ringsim.cli.main(op.argv)
    except Exception:
        return ["raised: " + traceback.format_exc(limit=3)]
    if code != 0:
        return ["exit code %s: %s" % (code, sink.getvalue()[-500:])]
    try:
        return op.check(op.out_dir)
    except (OSError, KeyError, ValueError, IndexError) as exc:
        return ["output unreadable: %r" % exc]


def _physics(op) -> dict:
    """Headline outputs of an operation's main CSV, for the run record."""
    path = os.path.join(op.out_dir, op.headline)
    if not os.path.exists(path):
        return {"file": op.headline, "missing": True}
    header, columns, rows = workloads.read_csv(path)
    out = {"file": op.headline, "config_sha256": header["config_sha256"]}
    for key in ("optimized_revival_s", "revival_fidelity",
                "readout_imbalance"):
        if key in header:
            out[key] = float(header[key])
    if "imbalance" in columns and "fidelity" not in columns:
        out["imbalance"] = [row[columns.index("imbalance")] for row in rows]
    return out


def _bytes_written(work_dir: str) -> int:
    total = 0
    for dirpath, _, files in os.walk(os.path.join(work_dir, "out")):
        total += sum(os.path.getsize(os.path.join(dirpath, f))
                     for f in files if f.endswith(".csv"))
    return total


def run_pass(args) -> dict:
    ringsim = _import_ringsim(args.root)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
        trace_start = time.perf_counter()

    shutil.rmtree(args.work, ignore_errors=True)
    os.makedirs(args.work)
    configs, ops = workloads.build(args.workload, args.seed, args.work)
    for path, text in configs.items():
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        ringsim.config.from_file(path)
    setup_done = time.monotonic_ns()
    result = {"setup_s": (setup_done - args.t0) * 1e-9}
    if args.setup_only:
        return result

    problems, failed = [], 0
    for op in ops:
        found = _run_operation(ringsim, op)
        failed += bool(found)
        problems += ["%s: %s" % (" ".join(op.argv), p) for p in found]
    result["wall_s"] = (time.monotonic_ns() - setup_done) * 1e-9

    if tracer is not None:
        result["trace_wall_s"] = time.perf_counter() - trace_start
        tracer.remove()
        summary = tracer.summary()
        steps = 0.0
        for spec, duration in tracer.protocol_runs:
            if spec.solver == "splitstep":
                period = ringsim.spectrum.revival_time(spec.trap)
                steps += duration / (spec.dt_factor * period)
        result["trace"] = {
            "spans": summary["spans"],
            "top_level_s": summary["top_level_s"],
            "functions": summary["functions"],
            "layers": layer_metrics(summary["functions"]),
            "nominal_steps": steps,
        }

    import numpy
    result.update({
        "attempted": len(ops),
        "failed": failed,
        "problems": problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "bytes_written": _bytes_written(args.work),
        "physics": [_physics(op) for op in ops if op.headline],
        "numpy": numpy.__version__,
    })
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--t0", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    result = run_pass(args)
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
