"""The benchmark's workloads: seeded jobs, one round of each, and its checks.

A workload is an offline job: a fixed list of :class:`RunSpec` built from
the workload seed, executed through the public ``repro`` API
(``execute_spec`` for single-cluster specs, ``run_federation`` for fleets)
with the default engine.  Arrivals are open-loop in virtual time: every
trace is synthesized up front by the scenario generators, so a slow
simulator finishes the same job later but never receives less work.

Jobs pool ``K`` independent traces (sub-seeds of the workload seed) where
one trace is too short for its aggregate figures to be steady from seed
to seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from repro.engine.request import RequestState
from repro.federation.runner import run_federation
from repro.metrics.report import RunReport
from repro.metrics.streaming import QuantileSketch
from repro.registry import STANDARD_SYSTEMS
from repro.runner import RunSpec, build_workload, execute_spec

#: the seed whose simulated digests are recorded in ``expected.json``
COMMITTED_SEED = 1

#: virtual seconds per trace (the ``quick`` scale window, pinned here so a
#: change to the scale table cannot silently change the benchmark)
TRACE_SECONDS = 600.0

#: worker processes for untraced federated rounds (traced rounds use 1)
FLEET_WORKERS = 2

#: virtual seconds per trace in the untimed warm-up round
WARMUP_SECONDS = 60.0

#: tail samples the tail-latency percentile must leave beyond it
TAIL_SAMPLES = 10

#: percentiles the tail latency is read at, highest first
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)

#: standard errors of slack allowed in the fig22-grid ordering check
ORDER_SLACK_SE = 2.0

#: (lower, higher) SLO-attainment pairs the fig22-grid check enforces.  The
#: paper also ranks sllm+c above sllm, but on one quick-scale trace sllm+c
#: falls below sllm on a few seeds in twenty, once beyond the slack (seed
#: 301: 0.732 against 0.781), so that pair is reported, not checked.
CHECKED_ORDER = (("sllm+c", "sllm+c+s"), ("sllm", "sllm+c+s"), ("sllm+c+s", "slinfer"))

_TERMINAL = (RequestState.COMPLETED, RequestState.DROPPED)


def job_seeds(seed: int, count: int) -> list[int]:
    """The ``count`` trace seeds one job derives from its workload seed."""
    return [seed * count + index for index in range(count)]


def _fig22_grid(seed: int) -> list[RunSpec]:
    return [
        RunSpec(system=system, seed=sub, duration=TRACE_SECONDS)
        for sub in job_seeds(seed, 1)
        for system in STANDARD_SYSTEMS
    ]


def _slinfer_job(scenario: str, traces: int, seconds: float, **axes) -> Callable[[int], list]:
    """A job of ``traces`` independent SLINFER runs of one scenario."""

    def specs(seed: int) -> list[RunSpec]:
        return [
            RunSpec(system="slinfer", scenario=scenario, seed=sub, duration=seconds, **axes)
            for sub in job_seeds(seed, traces)
        ]

    return specs


_spike_overload = _slinfer_job(
    "bursty-spike", 6, TRACE_SECONDS, n_models=8, cluster="cpu2-gpu2"
)

# decode-shared runs many short traces.  On 600 s traces its first tokens
# split between two modes (about 0.02 s and 0.06 s) close to half and
# half, so the median flips from seed to seed; and on traces of 300 s or
# more, one in five or so tips into overload and costs two to four times
# as much to simulate.  Eight 150 s traces keep both the simulated figures
# and the job's cost steady.
_decode_shared = _slinfer_job(
    "decode-marathon", 8, TRACE_SECONDS / 4, n_models=8, cluster="cpu2-gpu2"
)

# Two CPUs per shard keep cpu_nodes_avg above zero and the TTFT median off
# the steep middle of the distribution, where one CPU per shard puts it.
_fleet_storm = _slinfer_job(
    "global-storm",
    2,
    TRACE_SECONDS,
    n_models=16,
    cluster="cpu2-gpu1",
    scenario_params={"load_factor": 7.0},
    metrics="streaming",
    federation="sticky4",
)


@dataclass(frozen=True)
class Workload:
    name: str
    specs: Callable[[int], list[RunSpec]]

    @property
    def federated(self) -> bool:
        return any(spec.federation is not None for spec in self.specs(COMMITTED_SEED))


#: the workloads by name; BENCHMARK.json says why each exists
WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("fig22-grid", _fig22_grid),
        Workload("spike-overload", _spike_overload),
        Workload("decode-shared", _decode_shared),
        Workload("fleet-storm", _fleet_storm),
    )
}


# ----------------------------------------------------------------------
# Running one round
# ----------------------------------------------------------------------
def run_spec(spec: RunSpec, workers: int = 1) -> RunReport:
    """Execute one spec; a federated one uses ``workers`` processes."""
    if spec.federation is None:
        return execute_spec(spec).report
    return run_federation(spec, workers=workers).report


def run_job(specs: Sequence[RunSpec], workers: int = 1) -> list[RunReport]:
    """Execute every spec of a job, in order."""
    return [run_spec(spec, workers) for spec in specs]


def warmup_specs(specs: Sequence[RunSpec]) -> list[RunSpec]:
    """The job's specs on a short window, to finish lazy imports untimed."""
    return [replace(spec, duration=WARMUP_SECONDS) for spec in specs]


def trace_arrivals(specs: Sequence[RunSpec]) -> list[int]:
    """Requests each spec's generated trace holds (the conservation base)."""
    return [len(build_workload(spec).requests) for spec in specs]


# ----------------------------------------------------------------------
# Simulated (virtual-time) results
# ----------------------------------------------------------------------
def _ttft_distribution(reports: Sequence[RunReport]) -> tuple[Callable[[float], float], int]:
    """Pooled TTFT percentile function and sample count over ``reports``."""
    if all(report.metrics_mode == "exact" for report in reports):
        values = np.array(
            [r.ttft for report in reports for r in report.requests if r.ttft is not None],
            dtype=float,
        )
        return (lambda q: float(np.percentile(values, q))), len(values)
    sketch = QuantileSketch()
    for report in reports:
        sketch.merge(report.ttft_cdf())
    return sketch.percentile, len(sketch)


def tail_percentile(samples: int) -> float:
    """The highest of ``TAIL_PERCENTILES`` with ``TAIL_SAMPLES`` samples beyond it.

    A fixed ladder rather than the exact cut (``100 * (1 - 10/n)``): the
    exact cut reads the tenth-worst sample, which swings by a third from
    seed to seed on the fig22 grid, where p99 moves by a tenth.
    """
    for q in TAIL_PERCENTILES:
        if round(samples * (100.0 - q) / 100.0, 6) >= TAIL_SAMPLES:
            return q
    return TAIL_PERCENTILES[-1]


def _in_flight(report: RunReport) -> int:
    if report.metrics_mode == "exact":
        return sum(1 for r in report.requests if r.state not in _TERMINAL)
    return report.total_requests - report.completed_count - report.dropped_count


def simulated_metrics(specs: Sequence[RunSpec], reports: Sequence[RunReport]) -> dict:
    """Virtual-time outcomes of one round, pooled over the job's reports.

    Dropped requests count as SLO misses.  Node averages are fleet totals
    over the trace window (federated reports sum their shards).
    """
    percentile, samples = _ttft_distribution(reports)
    tail_q = tail_percentile(samples)
    window = math.fsum(spec.duration for spec in specs)
    arrivals = sum(report.total_requests for report in reports)
    return {
        "requests": arrivals,
        "completed": sum(report.completed_count for report in reports),
        "dropped": sum(report.dropped_count for report in reports),
        "in_flight": sum(_in_flight(report) for report in reports),
        "slo_met": sum(report.slo_met_count for report in reports),
        "slo_attainment": sum(report.slo_met_count for report in reports) / arrivals,
        "ttft_samples": samples,
        "ttft_p50_s": percentile(50.0),
        "ttft_tail_percentile": tail_q,
        "ttft_tail_s": percentile(tail_q),
        "gpu_nodes_avg": math.fsum(report.node_seconds_gpu for report in reports) / window,
        "cpu_nodes_avg": math.fsum(report.node_seconds_cpu for report in reports) / window,
        "events": sum(report.events_processed for report in reports),
    }


def digest(specs: Sequence[RunSpec], reports: Sequence[RunReport]) -> str:
    """Hash of every simulated outcome the benchmark reports, per spec."""
    rows = []
    for spec, report in zip(specs, reports):
        row = simulated_metrics([spec], [report])
        rows.append({"spec": spec.label(), **row})
    canonical = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def conservation_failures(
    specs: Sequence[RunSpec], reports: Sequence[RunReport], arrivals: Sequence[int]
) -> list[str]:
    """Arrived = completed + dropped + in flight, against the generated trace."""
    failures = []
    for spec, report, expected in zip(specs, reports, arrivals):
        in_flight = _in_flight(report)
        total = report.completed_count + report.dropped_count + in_flight
        if report.total_requests != expected or total != expected or in_flight < 0:
            failures.append(
                f"conservation: {spec.label()}: trace={expected} "
                f"arrived={report.total_requests} completed={report.completed_count} "
                f"dropped={report.dropped_count} in_flight={in_flight}"
            )
    return failures


def _attainment(specs: Sequence[RunSpec], reports: Sequence[RunReport]) -> dict[str, tuple]:
    """``system -> (SLO-met, arrived)`` over the job, when it runs every standard system."""
    counts: dict[str, tuple[int, int]] = {}
    for spec, report in zip(specs, reports):
        met, total = counts.get(spec.system, (0, 0))
        counts[spec.system] = (met + report.slo_met_count, total + report.total_requests)
    return counts if all(system in counts for system in STANDARD_SYSTEMS) else {}


def ordering_failures(specs: Sequence[RunSpec], reports: Sequence[RunReport]) -> list[str]:
    """The paper's SLO ordering (``CHECKED_ORDER``), within sampling error.

    In each pair the higher system must reach at least the lower one's
    attainment less ``ORDER_SLACK_SE`` standard errors of the difference
    of the two proportions.
    """
    counts = _attainment(specs, reports)
    if not counts:
        return []
    failures = []
    for lower, higher in CHECKED_ORDER:
        (met_low, n_low), (met_high, n_high) = counts[lower], counts[higher]
        p_low, p_high = met_low / n_low, met_high / n_high
        se = math.sqrt(p_low * (1 - p_low) / n_low + p_high * (1 - p_high) / n_high)
        if p_high < p_low - ORDER_SLACK_SE * se:
            failures.append(
                f"ordering: {higher} attains {p_high:.4f} < {lower} {p_low:.4f} "
                f"(slack {ORDER_SLACK_SE:g} x se {se:.4f})"
            )
    return failures


def strict_ordering(specs: Sequence[RunSpec], reports: Sequence[RunReport]) -> bool | None:
    """Whether sllm <= sllm+c <= sllm+c+s <= slinfer holds exactly (None off fig22-grid)."""
    counts = _attainment(specs, reports)
    if not counts:
        return None
    rates = [counts[system][0] / counts[system][1] for system in STANDARD_SYSTEMS]
    return all(a <= b for a, b in zip(rates, rates[1:]))


# ----------------------------------------------------------------------
# Checked rounds
# ----------------------------------------------------------------------
def _payload_hash(reports: Sequence[RunReport]) -> str:
    canonical = json.dumps(
        [report.to_dict(include_volatile=False) for report in reports], sort_keys=True
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class Job:
    """Runs rounds of one job and checks every round's output.

    ``reference`` is the digest each round must reproduce (the recorded
    one at the committed seed); ``None`` adopts the first round's.  A
    round that raises or fails a check counts as failed and yields None.
    """

    def __init__(self, specs: Sequence[RunSpec], reference: str | None = None) -> None:
        self.specs = list(specs)
        self.arrivals = trace_arrivals(self.specs)
        self.reference = reference
        self._payload: str | None = None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.simulated: dict | None = None
        self.strict_ordering: bool | None = None

    def round(self, workers: int = 1, tracer=None, label: str = "") -> dict | None:
        """One timed round of the whole job.

        Returns the reports and, per spec, wall and CPU seconds (CPU
        includes reaped child processes), or None if the round failed.
        """
        self.attempted += 1
        reports, walls, cpus = [], [], []
        stats = None
        try:
            with tracer.traced_round(label) if tracer else nullcontext() as stats:
                for spec in self.specs:
                    before = os.times()
                    start = time.perf_counter()
                    reports.append(run_spec(spec, workers))
                    walls.append(time.perf_counter() - start)
                    cpus.append(sum(os.times()[:4]) - sum(before[:4]))
        except Exception:  # a crashing round is a failed operation, not a crash
            self.fail([f"round {self.attempted} raised:\n{traceback.format_exc()}"])
            return None
        problems = self._check(reports)
        if problems:
            self.fail(problems)
            return None
        return {
            "wall": sum(walls), "walls": walls, "cpus": cpus, "reports": reports, "stats": stats
        }

    def fail(self, problems: list[str]) -> None:
        self.failed += 1
        self.failures.extend(problems)

    def _check(self, reports: Sequence[RunReport]) -> list[str]:
        problems = conservation_failures(self.specs, reports, self.arrivals)
        problems += ordering_failures(self.specs, reports)
        found = digest(self.specs, reports)
        if self.reference is None:
            self.reference = found
        elif found != self.reference:
            problems.append(f"digest {found} differs from reference {self.reference}")
        payload = _payload_hash(reports)
        if self._payload is None:
            self._payload = payload
        elif payload != self._payload:
            problems.append("canonical reports differ from the first round's")
        if self.simulated is None:
            self.simulated = simulated_metrics(self.specs, reports)
            self.strict_ordering = strict_ordering(self.specs, reports)
        return problems
