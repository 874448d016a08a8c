"""ringsim benchmark: end-to-end timings and per-layer traced spans.

    python3 perfbench/run.py --workload revival_splitstep --seed 1 \
        --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, table

Run from the root of a checkout; the program is imported from `src/`.
Every pass of a workload runs in a fresh interpreter (`worker.py`), so the
program's module-level caches start empty, as in any CLI user's run.  The
load is a closed loop with one client: each subcommand starts after the
previous one returns, and passes run one at a time.

`--trace 0` makes set-up-only starts plus measured passes, repeating passes
while another one still fits in `--seconds` (at least one), and reports the
medians of the end-to-end metrics.  `--trace 1` makes one untraced and one
traced pass, checks that both wrote the same bytes, and reports per-layer
metrics.  The last line of stdout is the JSON result; each run's full record
(context, physics outputs, timings) is written under `perfbench_out/`.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, "perfbench_out")

import workloads

SETUP_ONLY_STARTS = 6
RUN_BUDGET_S = 175.0

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    _DECLARED = json.load(_f)
# metric name -> unit, in the order BENCHMARK.json lists them
END_TO_END = {m["name"]: m["unit"] for m in _DECLARED["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _DECLARED["per_layer"]}


class BenchError(Exception):
    """The harness itself could not run; no result is printed."""


def _declared(units: dict, values: dict) -> dict:
    """The metrics BENCHMARK.json declares, with their units."""
    missing = sorted(set(units) - set(values))
    if missing:
        raise BenchError("no value for declared metrics %s" % missing)
    return {name: {"value": values[name], "unit": unit}
            for name, unit in units.items()}


def _src_lines() -> int:
    total = 0
    for dirpath, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as handle:
                    total += handle.read().count(b"\n")
    return total


def _worker(workload, seed, tag, deadline, trace=False, setup_only=False):
    """Run one pass in a fresh interpreter and return its result dict."""
    work = os.path.join(OUT, workload, tag)
    result_path = work + ".json"
    if os.path.exists(result_path):
        os.remove(result_path)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--root", ROOT, "--workload", workload, "--seed", str(seed),
           "--work", work, "--result", result_path]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before pass %s" % tag)
    t0 = time.monotonic_ns()
    try:
        proc = subprocess.run(cmd + ["--t0", str(t0)], capture_output=True,
                              text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise BenchError("pass %s did not finish in time" % tag)
    if proc.returncode != 0:
        raise BenchError("pass %s exited with %d:\n%s"
                         % (tag, proc.returncode, proc.stderr[-2000:]))
    with open(result_path, encoding="utf-8") as handle:
        return json.load(handle)


def _same_outputs(a: str, b: str) -> list:
    """Relative paths of output files that differ between two passes."""
    differ = []
    for dirpath, _, files in os.walk(a):
        for name in files:
            left = os.path.join(dirpath, name)
            right = os.path.join(b, os.path.relpath(left, a))
            if not (os.path.exists(right)
                    and filecmp.cmp(left, right, shallow=False)):
                differ.append(os.path.relpath(left, a))
    return sorted(differ)


def measure(workload: str, seed: int, seconds: float) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    setups = [_worker(workload, seed, "setup%d" % i, deadline,
                      setup_only=True)["setup_s"]
              for i in range(SETUP_ONLY_STARTS)]
    passes = []
    start = time.monotonic()
    while True:
        passes.append(_worker(workload, seed, "pass%d" % len(passes),
                              deadline))
        elapsed = time.monotonic() - start
        if elapsed + passes[-1]["wall_s"] > seconds:
            break
    setups += [p["setup_s"] for p in passes]
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    return {
        "metrics": _declared(END_TO_END, metrics),
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "problems": [q for p in passes for q in p["problems"]],
        "passes": passes,
        "setup_samples": setups,
    }


def measure_traced(workload: str, seed: int) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    plain = _worker(workload, seed, "untraced", deadline)
    traced = _worker(workload, seed, "traced", deadline, trace=True)
    differ = _same_outputs(os.path.join(OUT, workload, "untraced", "out"),
                           os.path.join(OUT, workload, "traced", "out"))
    tr = traced["trace"]
    values = dict(tr["layers"])
    values["cli.self_s"] = values["cli.s"]
    steps = tr["nominal_steps"]
    values.update({
        "protocol.nominal_steps": steps,
        "protocol.us_per_nominal_step":
            1e6 * values["protocol.run_s"] / steps if steps else 0.0,
        "cli.bytes_written": traced["bytes_written"],
        "trace.wall_s": traced["trace_wall_s"],
        "trace.overhead_frac": traced["wall_s"] / plain["wall_s"] - 1.0,
        "trace.unattributed_s": traced["trace_wall_s"] - tr["top_level_s"],
        "trace.spans": tr["spans"],
    })
    attempted = plain["attempted"] + traced["attempted"]
    return {
        "metrics": _declared(PER_LAYER, values),
        "attempted": attempted,
        "failed": min(attempted,
                      plain["failed"] + traced["failed"] + len(differ)),
        "problems": plain["problems"] + traced["problems"]
        + ["traced output differs: " + d for d in differ],
        "passes": [plain, traced],
    }


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if trace:
        outcome = measure_traced(workload, seed)
    else:
        outcome = measure(workload, seed, seconds)
    first = outcome["passes"][0]
    outcome["context"] = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": first["numpy"],
        "src_lines": _src_lines(),
    }
    outcome["physics"] = first["physics"]
    os.makedirs(OUT, exist_ok=True)
    record = os.path.join(OUT, "%s-seed%d-trace%d.json"
                          % (workload, seed, int(trace)))
    with open(record, "w", encoding="utf-8") as handle:
        json.dump(outcome, handle, indent=1)
    return outcome


def _print_table(rows) -> None:
    for workload, outcome in rows:
        print("%s (%d of %d operations failed)" % (
            workload, outcome["failed"], outcome["attempted"]))
        metrics = dict(outcome["metrics"])
        metrics["failed_frac"] = {
            "value": outcome["failed"] / outcome["attempted"],
            "unit": "fraction"}
        for name, m in metrics.items():
            print("  %-32s %14.6g %s" % (name, m["value"], m["unit"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="ringsim benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "ringsim",
                                       "__init__.py")):
        print("perfbench: no src/ringsim under %s" % ROOT, file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" \
        else [args.workload]
    try:
        rows = [(name, run_one(name, args.seed, args.seconds,
                               bool(args.trace))) for name in names]
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    for _, outcome in rows:
        print("context " + json.dumps(outcome["context"]))
        print("physics " + json.dumps(outcome["physics"]))
        for problem in outcome["problems"]:
            print("problem " + problem)
    if args.workload == "all":
        _print_table(rows)
    print(json.dumps({
        "correct": all(o["failed"] == 0 for _, o in rows),
        "attempted": sum(o["attempted"] for _, o in rows),
        "failed": sum(o["failed"] for _, o in rows),
        "metrics": rows[0][1]["metrics"] if len(rows) == 1 else {
            "%s.%s" % (w, k): v for w, o in rows
            for k, v in o["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
