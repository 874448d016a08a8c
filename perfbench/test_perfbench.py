"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

They run the first `cli_linear` config (five subcommands, a few seconds)
in this process, once plain and once traced.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import ringsim  # noqa: E402
import ringsim.cli  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _ringsim_namespaces():
    return {name: dict(vars(module)) for name, module in sys.modules.items()
            if name == "ringsim" or name.startswith("ringsim.")}


def _run_first_config(work_dir):
    """Write the first cli_linear config and run its five subcommands."""
    configs, ops = workloads.build("cli_linear", 0, str(work_dir))
    path = next(iter(configs))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(configs[path])
    ops = ops[:len(workloads.LINEAR_COMMANDS)]
    for op in ops:
        os.makedirs(op.out_dir)
        with contextlib.redirect_stdout(io.StringIO()):
            assert ringsim.cli.main(op.argv) == 0
        assert op.check(op.out_dir) == []
    return {os.path.relpath(os.path.join(d, f), str(work_dir)):
            open(os.path.join(d, f), "rb").read()
            for d, _, files in os.walk(os.path.join(str(work_dir), "out"))
            for f in files}


def test_same_seed_gives_byte_identical_configs(tmp_path):
    first, _ = workloads.build("cli_linear", 7, str(tmp_path))
    again, _ = workloads.build("cli_linear", 7, str(tmp_path))
    other, _ = workloads.build("cli_linear", 8, str(tmp_path))
    assert first == again
    assert len(set(first.values())) == workloads.LINEAR_CONFIGS
    assert first != other
    for text in first.values():
        ringsim.from_text(text)


@pytest.fixture(scope="module")
def traced_and_plain(tmp_path_factory):
    plain = _run_first_config(tmp_path_factory.mktemp("plain"))
    before = _ringsim_namespaces()
    tracer = spans.Tracer()
    start = time.perf_counter()
    tracer.install()
    try:
        traced = _run_first_config(tmp_path_factory.mktemp("traced"))
    finally:
        tracer.remove()
    wall = time.perf_counter() - start
    return plain, traced, before, tracer, wall


def test_tracing_changes_no_output_and_is_removed(traced_and_plain):
    plain, traced, before, tracer, _ = traced_and_plain
    assert len(plain) == 7
    assert plain == traced
    after = _ringsim_namespaces()
    assert after.keys() == before.keys()
    for name, attrs in before.items():
        for attr, value in attrs.items():
            assert after[name][attr] is value, (name, attr)


def test_tracer_sees_calls_between_modules(traced_and_plain):
    functions = traced_and_plain[3].summary()["functions"]
    # run_protocol reaches these through protocol's own namespace
    for name in ("protocol.find_revival_time", "observables.fidelity",
                 "observables.population_imbalance",
                 "propagator.evolve_linear", "config.from_file",
                 "spectrum.revival_time", "sensing.flux_action"):
        assert functions[name]["calls"] > 0, name
    assert functions["cli.main"]["calls"] == len(workloads.LINEAR_COMMANDS)


def test_self_times_add_up_to_the_traced_wall(traced_and_plain):
    _, _, _, tracer, wall = traced_and_plain
    summary = tracer.summary()
    layers = spans.layer_metrics(summary["functions"])
    unattributed = wall - summary["top_level_s"]
    total = sum(layers[layer + ".s"] for layer in spans.LAYERS)
    assert unattributed >= 0
    assert abs(total + unattributed - wall) <= 0.01 * wall
    assert min(layers[layer + ".s"] for layer in spans.LAYERS) >= 0


def test_harness_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli_linear",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)
