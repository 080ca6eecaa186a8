"""Tests of the benchmark itself: seeding, wrapper transparency, names.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from perfbench import environment, tracing, workloads  # noqa: E402
from repro.runner import build_workload  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _trace(specs):
    return [
        [(r.deployment, r.arrival, r.input_len, r.output_len) for r in build_workload(spec).requests]
        for spec in workloads.warmup_specs(specs)
    ]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_reproduces_inputs_and_another_seed_changes_them(name):
    workload = workloads.WORKLOADS[name]
    first = _trace(workload.specs(3))
    assert first == _trace(workload.specs(3))
    assert first != _trace(workload.specs(4))


def _short(name):
    return workloads.warmup_specs(workloads.WORKLOADS[name].specs(workloads.COMMITTED_SEED))


@pytest.mark.parametrize("name", ["fig22-grid", "spike-overload", "fleet-storm"])
def test_wrappers_are_transparent(name):
    specs = _short(name)
    plain = workloads.digest(specs, workloads.run_job(specs, workers=1))
    tracer = tracing.Tracer()
    originals = [vars(owner).get(attr) for _, owner, attr in tracing._targets()]
    with tracer.traced_round("test") as stats:
        reports = workloads.run_job(specs, workers=1)
    assert workloads.digest(specs, reports) == plain
    assert [vars(owner).get(attr) for _, owner, attr in tracing._targets()] == originals
    layers = tracing.layer_metrics(stats, reports, sum(r.total_requests for r in reports))
    assert layers["sim.events"] > 0 and layers["placement.calls"] > 0
    if name == "fleet-storm":
        assert layers["federation.shard_wall_sum_s"] > 0
    else:
        assert layers["shadow.calls"] > 0


def test_fleet_output_is_identical_at_one_and_two_workers():
    specs = _short("fleet-storm")
    one = [r.to_dict(include_volatile=False) for r in workloads.run_job(specs, workers=1)]
    two = [r.to_dict(include_volatile=False) for r in workloads.run_job(specs, workers=2)]
    assert json.dumps(one, sort_keys=True) == json.dumps(two, sort_keys=True)


def test_names_and_units_follow_the_contract():
    assert set(DECLARED) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    names = [w["name"] for w in DECLARED["workloads"]]
    assert names == list(workloads.WORKLOADS)
    metrics = DECLARED["end_to_end"] + DECLARED["per_layer"]
    every = names + [m["name"] for m in metrics]
    assert all(NAME.match(name) for name in every)
    assert len(set(every)) == len(every)
    assert all(UNIT.match(m["unit"]) for m in metrics)
    setup = [m for m in DECLARED["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in DECLARED["end_to_end"])


def test_tail_percentile_leaves_ten_samples_beyond():
    assert workloads.tail_percentile(999) == 90.0
    assert workloads.tail_percentile(1000) == 99.0
    assert workloads.tail_percentile(10_000) == 99.9
    assert workloads.tail_percentile(10) == 50.0
    for samples in (25, 333, 841, 12345):
        q = workloads.tail_percentile(samples)
        assert round(samples * (100 - q) / 100, 6) >= workloads.TAIL_SAMPLES


def test_conservation_check_catches_a_lost_request():
    specs = _short("spike-overload")[:1]
    reports = workloads.run_job(specs)
    arrivals = workloads.trace_arrivals(specs)
    assert workloads.conservation_failures(specs, reports, arrivals) == []
    assert workloads.conservation_failures(specs, reports, [arrivals[0] + 1])
    reports[0].requests.pop()
    assert workloads.conservation_failures(specs, reports, arrivals)


def test_ordering_check_flags_a_reversed_pair():
    specs = _short("fig22-grid")
    reports = workloads.run_job(specs)
    assert workloads.ordering_failures(specs, reports) == []
    swapped = [replace(specs[0], system="slinfer"), *specs[1:3], replace(specs[3], system="sllm")]
    assert workloads.ordering_failures(swapped, reports)


def test_repro_environment_is_cleared():
    environ = {"REPRO_ENGINE": "vectorized", "REPRO_BENCH_REPEATS": "3", "HOME": "/x"}
    assert environment.clear_repro_env(environ) == ["REPRO_BENCH_REPEATS", "REPRO_ENGINE"]
    assert environ == {"HOME": "/x"}


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig22-grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert out.returncode != 0
    assert out.stdout == ""
