"""The measurement loop behind ``run.py``: rounds, set-up samples, results.

Imported only after ``run.py`` has put ``src`` on the path and cleared
the simulator-selecting environment variables.
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from perfbench import environment, tracing, workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
EXPECTED = Path(__file__).resolve().parent / "expected.json"

#: fresh-interpreter set-up samples per untraced run (median reported)
SETUP_SAMPLES = 5


def _setup_samples(workload: str, seed: int) -> list[dict]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(
            [sys.executable, "-m", "perfbench.setup_probe", workload, str(seed)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(json.loads(out.stdout.strip().splitlines()[-1]))
    return samples


def _peak_rss_mb() -> float:
    peak = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak / 1024.0  # ru_maxrss is in KiB on Linux


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _keep(rounds: list, outcome: dict | None) -> None:
    if outcome is not None:
        rounds.append(outcome)


def _walls(rounds: list) -> list[float]:
    return [r["wall"] for r in rounds]


def _job_seconds(rounds: list, key: str) -> float:
    """The job's time: each spec's median over the rounds, summed.

    One slow trace in a round then leaves the total alone, where the
    median of whole rounds (two or three per run) would take it in.
    """
    if not rounds:
        return 0.0
    return math.fsum(statistics.median(column) for column in zip(*(r[key] for r in rounds)))


def _untraced(args, job, workers: int) -> tuple[dict, dict]:
    samples = _setup_samples(args.workload, args.seed)
    rounds: list = []
    start = time.perf_counter()
    while True:
        outcome = job.round(workers)
        _keep(rounds, outcome)
        elapsed = time.perf_counter() - start
        last = outcome["wall"] if outcome is not None else elapsed / job.attempted
        if elapsed + last > args.seconds:
            break
    sim = job.simulated or {}
    metrics = {
        "wall_s": _job_seconds(rounds, "walls"),
        "cpu_s": _job_seconds(rounds, "cpus"),
        "setup_s": _median([sum(sample.values()) for sample in samples]),
        "peak_rss_mb": _peak_rss_mb(),
        **{
            name: sim.get(name, 0.0)
            for name in (
                "slo_attainment", "ttft_p50_s", "ttft_tail_s", "gpu_nodes_avg", "cpu_nodes_avg",
            )
        },
    }
    detail = {
        "round_walls_s": _walls(rounds),
        "spec_walls_s": [r["walls"] for r in rounds],
        "setup_samples": samples,
    }
    return metrics, detail


def _traced(args, job, workers: int, effective_cores: float, federated: bool):
    """Untraced and traced rounds in turn; the fleet adds a round at ``workers``."""
    tracer = tracing.Tracer()
    untraced, wide, traced = [], [], []
    start = time.perf_counter()
    while True:
        cycle = time.perf_counter()
        _keep(untraced, job.round(1))
        if federated:
            _keep(wide, job.round(workers))
        _keep(traced, job.round(1, tracer=tracer, label=f"traced round {len(traced) + 1}"))
        now = time.perf_counter()
        if (now - start) + (now - cycle) > args.seconds:
            break
    per_round = [
        tracing.layer_metrics(r["stats"], r["reports"], sum(job.arrivals)) for r in traced
    ]
    metrics = {
        name: _median([values[name] for values in per_round])
        for name in (per_round[0] if per_round else {})
    }
    base_wall = _median(_walls(untraced))
    metrics["trace.overhead_ratio"] = _median(_walls(traced)) / base_wall if base_wall else 0.0
    metrics["federation.effective_cores"] = effective_cores
    wide_wall = _median(_walls(wide))
    metrics["federation.speedup_equal_work"] = base_wall / wide_wall if wide_wall else 0.0
    metrics["federation.wall_x_workers_s"] = wide_wall * workers if federated else 0.0
    metrics["federation.report_wall_sum_s"] = (
        _median([sum(report.wall_seconds for report in r["reports"]) for r in untraced])
        if federated
        else 0.0
    )
    run_key = f"{args.workload}-seed{args.seed}"
    trace_path = OUT / f"trace-{run_key}.json"
    tracer.write_chrome_trace(trace_path, run_key, {"workload": args.workload, "seed": args.seed})
    detail = {
        "untraced_walls_s": _walls(untraced),
        "wide_walls_s": _walls(wide),
        "traced_walls_s": _walls(traced),
        "chrome_trace": str(trace_path.relative_to(ROOT)),
        "trace_events_dropped": tracer.dropped_events,
    }
    return metrics, detail


def run(args, cleared: list[str]) -> int:
    """Run one workload as ``run.py`` describes; print and return the result."""
    if args.workload not in workloads.WORKLOADS:
        known = ", ".join(workloads.WORKLOADS)
        print(f"error: unknown workload {args.workload!r} (known: {known})", file=sys.stderr)
        return 2
    if args.write_expected and args.seed != workloads.COMMITTED_SEED:
        print(f"error: --write-expected needs --seed {workloads.COMMITTED_SEED}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workload = workloads.WORKLOADS[args.workload]
    specs = workload.specs(args.seed)
    federated = workload.federated
    workers = workloads.FLEET_WORKERS if federated else 1

    env_block = environment.collect(ROOT, cleared)
    expected = json.loads(EXPECTED.read_text(encoding="utf-8")) if EXPECTED.is_file() else {}
    reference = None
    if args.seed == workloads.COMMITTED_SEED and not args.write_expected:
        reference = expected.get(args.workload, {}).get("digest", "missing from expected.json")
    job = workloads.Job(specs, reference)
    workloads.run_job(workloads.warmup_specs(specs[:1]), workers)  # lazy imports, untimed

    if args.trace:
        metrics, detail = _traced(args, job, workers, env_block["effective_cores"], federated)
        section = "per_layer"
    else:
        metrics, detail = _untraced(args, job, workers)
        section = "end_to_end"

    units = {entry["name"]: entry["unit"] for entry in declared[section]}
    missing = sorted(set(units) - set(metrics))
    if missing:
        job.fail([f"metrics not produced: {missing}"])
    if args.write_expected and job.failed == 0:
        expected[args.workload] = {"digest": job.reference, "simulated": job.simulated}
        EXPECTED.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": env_block,
        "specs": [spec.label() for spec in specs],
        "digest": job.reference,
        "simulated": job.simulated,
        "fig22_strict_ordering": job.strict_ordering,
        "failures": job.failures,
        **detail,
    }
    OUT.mkdir(exist_ok=True)
    suffix = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{suffix}.json").write_text(json.dumps(detail, indent=2), encoding="utf-8")
    result = {
        "correct": job.failed == 0,
        "attempted": job.attempted,
        "failed": job.failed,
        "metrics": {
            name: {"value": metrics.get(name, 0.0), "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1
