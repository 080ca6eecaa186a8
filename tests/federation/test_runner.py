"""Determinism, worker-invariance, and spec contracts of the federation.

The conservative time-window runner promises that a federated run is a
pure function of its spec: repetitions are byte-identical, the host
layout (``workers=1`` in-process vs. pipe-connected worker processes)
is unobservable in the results, and the dynamic router's epoch ladder
is reproducible including its KV-migration count.
"""

from __future__ import annotations

import json
import math
import os
import signal
import time

import pytest

from repro.engine.request import RequestState
from repro.federation import ShardWorkerError
from repro.federation.router import StickySessionRouter, deployment_hash, make_router
from repro.federation.runner import PipeHost, ShardRunner, run_federation
from repro.federation.spec import FEDERATIONS, Federation, FederationError, resolve_federation
from repro.runner import RunSpec, build_system, build_workload, execute_spec
from repro.workloads import Workload


def _spec(federation: str, scenario: str = "global-storm", **kwargs) -> RunSpec:
    axes = dict(
        system="slinfer",
        scenario=scenario,
        n_models=4,
        cluster="cpu2-gpu2",
        seed=1,
        scale="smoke",
        federation=federation,
    )
    axes.update(kwargs)
    return RunSpec(**axes)


def _canonical(report) -> str:
    return json.dumps(report.to_dict(include_volatile=False), sort_keys=True)


# ----------------------------------------------------------------------
# Determinism and worker invariance
# ----------------------------------------------------------------------
def test_sharded_run_byte_identical_across_repeats():
    first = run_federation(_spec("sticky4"), workers=1)
    second = run_federation(_spec("sticky4"), workers=1)
    assert first.report.events_processed == second.report.events_processed
    assert _canonical(first.report) == _canonical(second.report)


@pytest.mark.parametrize(
    ("federation", "workers"),
    [
        pytest.param("sticky4", 4, id="sticky4"),
        pytest.param("balanced4", 4, id="balanced4"),
        pytest.param("sticky4", 2, id="sticky4-workers2"),
        pytest.param("balanced4", 2, id="balanced4-workers2"),
    ],
)
def test_results_independent_of_worker_count(federation, workers):
    """One in-process host and pipe-connected subprocesses — two shards
    per worker at ``workers=2``, one at ``workers=4`` — must produce the
    same merged report: the host layout is transport, not semantics
    (static and dynamic sync paths alike)."""
    inproc = run_federation(_spec(federation), workers=1)
    piped = run_federation(_spec(federation), workers=workers)
    assert piped.processes > 1  # really exercised the subprocess hosts
    assert _canonical(inproc.report) == _canonical(piped.report)
    assert inproc.kv_migrations == piped.kv_migrations
    assert inproc.epochs == piped.epochs


def test_shard_wall_seconds_count_only_their_own_steps():
    """In-process shards are built together and then stepped one after
    another; each shard's report must charge only the host time spent
    inside its own run steps, not the time of the shards stepped before
    it, so the merged wall time stays within wall × processes."""
    start = time.perf_counter()
    outcome = run_federation(_spec("sticky4"), workers=1)
    wall = time.perf_counter() - start
    assert outcome.processes == 1
    walls = [report.wall_seconds for report in outcome.shard_reports]
    assert len(walls) == 4
    assert all(0.0 < shard_wall <= wall for shard_wall in walls)
    assert math.fsum(walls) <= wall * outcome.processes
    assert outcome.report.wall_seconds <= wall * outcome.processes


def test_dynamic_router_epochs_and_migrations_deterministic():
    outcome = run_federation(_spec("balanced4"), workers=1)
    again = run_federation(_spec("balanced4"), workers=1)
    assert outcome.epochs > 1  # the epoch ladder actually ran
    assert outcome.epochs == again.epochs
    assert outcome.kv_migrations == again.kv_migrations
    assert _canonical(outcome.report) == _canonical(again.report)


@pytest.mark.parametrize("workers", [1, 2])
def test_dynamic_routing_identical_in_both_metrics_modes(workers):
    """The least-loaded router reads each shard's in-flight load off the
    shard's metrics ledger, which counts outcomes the same way in both
    modes: every shard receives the same arrivals and reaches the same
    outcomes whichever mode is accumulating."""

    def shards(metrics: str):
        outcome = run_federation(_spec("balanced4", metrics=metrics), workers=workers)
        counts = [
            (r.total_requests, r.completed_count, r.dropped_count, r.events_processed)
            for r in outcome.shard_reports
        ]
        return outcome.epochs, outcome.kv_migrations, counts

    exact, streaming = shards("exact"), shards("streaming")
    assert all(arrivals for arrivals, *_ in exact[2])  # every shard got traffic
    assert exact == streaming


def test_shard_advance_reports_its_collector_counts():
    """Between barriers, ``advance`` returns the shard's (arrivals,
    completed, dropped), equal to a recount of the requests its exact
    collector retains."""
    spec = _spec("sticky4")
    workload = build_workload(RunSpec.from_dict({**spec.to_dict(), "federation": None}))
    runner = ShardRunner(spec, workload)
    for until in (30.0, 90.0, runner.horizon):
        counts = runner.advance(until)
        requests = runner.system.metrics.outcomes.requests
        assert counts == (
            len(requests),
            sum(r.state is RequestState.COMPLETED for r in requests),
            sum(r.state is RequestState.DROPPED for r in requests),
        )
    assert counts[0] == workload.total_requests and counts[1] > 0


def test_shard_partition_conserves_the_trace():
    """Static sharding is a partition: every trace request lands on
    exactly one shard, none invented, none lost."""
    spec = _spec("sticky4")
    workload = build_workload(RunSpec.from_dict({**spec.to_dict(), "federation": None}))
    outcome = run_federation(spec, workers=1)
    assert sum(r.total_requests for r in outcome.shard_reports) == workload.total_requests
    assert outcome.report.total_requests == workload.total_requests


def test_stream_ingest_matches_materialized():
    """Each static shard ingests a lazy slice of the trace stream; its
    report must equal the reference run over the shard's materialized
    slice of the same trace."""
    spec = _spec("sticky2", n_models=8)
    outcome = run_federation(spec, workers=1)
    workload = build_workload(spec)
    assignment = make_router(resolve_federation(spec.federation)).assign(workload.deployments)
    for shard_id, shard_report in enumerate(outcome.shard_reports):
        shard = Workload(
            name=f"{workload.name}#{shard_id}",
            deployments={
                name: deployment
                for name, deployment in workload.deployments.items()
                if assignment[name] == shard_id
            },
            requests=[r for r in workload.requests if assignment[r.deployment] == shard_id],
            duration=workload.duration,
        )
        assert shard.requests  # both shards carry traffic
        reference = build_system(spec).run(shard)
        assert _canonical(shard_report) == _canonical(reference)


# ----------------------------------------------------------------------
# Worker failures
# ----------------------------------------------------------------------
def test_killed_shard_worker_raises_typed_error(monkeypatch):
    """A worker SIGKILLed mid-run surfaces as one typed error naming its
    shards and exit code, promptly, instead of a bare EOFError."""
    send = PipeHost.send

    def stuck_run(runner):
        time.sleep(60.0)  # forked workers stay mid-run until killed

    def send_then_kill(host, command):
        send(host, command)
        if command[0] == "run" and 0 in host.shard_ids:
            os.kill(host.process.pid, signal.SIGKILL)

    monkeypatch.setattr(ShardRunner, "run", stuck_run)
    monkeypatch.setattr(PipeHost, "send", send_then_kill)
    start = time.perf_counter()
    with pytest.raises(ShardWorkerError, match=r"shards \[0, 2\] \(exit code -9\) died"):
        run_federation(_spec("sticky4"), workers=2)
    assert time.perf_counter() - start < 10.0
    assert issubclass(ShardWorkerError, RuntimeError)


def test_shard_worker_error_reply_raises_typed_error():
    host = PipeHost(_spec("sticky4"), [1, 3])
    try:
        host.send(("bogus", None))
        with pytest.raises(
            ShardWorkerError,
            match=r"(?s)shards \[1, 3\] \(exit code 1\) failed:.*unknown shard command",
        ):
            host.recv()
    finally:
        host.close(graceful=False)


# ----------------------------------------------------------------------
# Routers
# ----------------------------------------------------------------------
def test_sticky_router_keeps_regions_whole():
    """crc32 mod nesting: the 2-shard assignment is the 4-shard
    assignment folded mod 2, so a 4-region trace never splits a region
    at any shard count dividing 4."""
    names = [f"m{i:03d}" for i in range(64)]
    four = StickySessionRouter(Federation(name="s4", shards=4, router="sticky-session"))
    two = StickySessionRouter(Federation(name="s2", shards=2, router="sticky-session"))
    a4 = four.assign(names)
    a2 = two.assign(names)
    for name in names:
        assert a4[name] == deployment_hash(name) % 4
        assert a2[name] == a4[name] % 2


def test_least_loaded_routes_to_smallest_backlog():
    router = make_router(resolve_federation("balanced4"))
    assert router.dynamic
    assert router.route("m0", [3, 1, 2, 1]) == 1  # ties break on shard id
    assert router.route("m0", [0, 0, 0, 0]) == 0
    with pytest.raises(RuntimeError):
        router.assign(["m0"])  # dynamic routers have no static assignment


# ----------------------------------------------------------------------
# Registry and validation
# ----------------------------------------------------------------------
def test_registry_patterns_resolve():
    assert resolve_federation("fleet4").shards == 4
    assert resolve_federation("fleet4").router == "round-robin"
    assert resolve_federation("sticky2").router == "sticky-session"
    assert resolve_federation("balanced8").router == "least-loaded"
    assert resolve_federation("wan4").router == "least-loaded"
    assert "wan4" in FEDERATIONS.names()


def test_unknown_federation_raises():
    with pytest.raises(FederationError):
        resolve_federation("mesh3")


def test_federation_validation():
    with pytest.raises(FederationError):
        Federation(name="bad", shards=0)
    with pytest.raises(FederationError):
        Federation(name="bad", shards=2, router="banana")
    with pytest.raises(FederationError):
        Federation(name="bad", shards=2, router_latency=0.0)
    with pytest.raises(FederationError):
        # The epoch may not exceed the lookahead bound min(latencies).
        Federation(name="bad", shards=2, epoch=1.0, router_latency=0.05)


def test_resolved_epoch_defaults_to_min_latency():
    fed = Federation(name="f", shards=2, router_latency=0.1, kv_migration_latency=0.3)
    assert fed.resolved_epoch() == pytest.approx(0.1)
    pinned = Federation(name="f", shards=2, epoch=0.02)
    assert pinned.resolved_epoch() == pytest.approx(0.02)


# ----------------------------------------------------------------------
# Executor dispatch
# ----------------------------------------------------------------------
def test_execute_spec_dispatches_federated_specs():
    result = execute_spec(_spec("sticky2"))
    assert result.fingerprint == _spec("sticky2").fingerprint()
    assert result.report.total_requests > 0


def test_execute_spec_rejects_caller_workloads_for_federated_specs():
    spec = _spec("sticky2")
    workload = build_workload(RunSpec.from_dict({**spec.to_dict(), "federation": None}))
    with pytest.raises(ValueError):
        execute_spec(spec, workload=workload)
    with pytest.raises(ValueError):
        execute_spec(spec, metrics="streaming")
