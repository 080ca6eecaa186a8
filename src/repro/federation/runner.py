"""Federated execution: shard runners, worker hosts, the epoch controller.

One federated run executes ``federation.shards`` independent
:class:`~repro.core.system.ServingSystem` instances — one per cluster
shard — under conservative time-window synchronization and folds their
shard reports with
:func:`~repro.metrics.report.merge_run_reports`.

**Synchronization model.**  The epoch width Δ is bounded by the minimum
cross-shard latency (:meth:`Federation.resolved_epoch`), so a boundary
message emitted inside epoch *k* cannot take effect on any shard before
the *k+1* barrier — each shard simulates a whole window with zero
coordination.  Static routers (round-robin, sticky-session) partition
deployments up front and exchange *no* boundary messages, so every
shard's lookahead extends to the entire horizon and the ladder
collapses to a single window per shard (the null-message optimization);
the dynamic least-loaded router walks the full ladder, routing each
epoch's arrivals at the barrier that opens it from the in-flight counts
measured there.

**Determinism.**  Shard workloads are synthesized locally from the
seeded generators and lazily filtered from the trace stream (static),
or routed by a sequential controller scanning the materialized trace in
``(arrival, trace index)`` order with lowest-shard tie-breaks
(dynamic); boundary deliveries are applied per shard in that same order
before the barrier's advance; and shard reports always travel through
the same ``to_dict``/``from_dict`` round-trip whether a shard ran
in-process or behind a pipe.  A federated run is therefore
byte-identical across repetitions *and* worker counts.

**Process model.**  ``workers`` (default ``REPRO_WORKERS``) bounds the
process count: ``min(shards, workers)`` hosts, shards dealt round-robin.
Every host speaks one protocol — ``send(command)`` then ``recv()`` —
and :meth:`InProcessHost.send` is the only code that turns a command
into :class:`ShardRunner` calls.  A single worker is one
:class:`InProcessHost` (no subprocesses at all); more workers make each
host a :class:`PipeHost`, a ``multiprocessing`` child that runs an
``InProcessHost`` and relays every command and reply over its pipe.
"""

from __future__ import annotations

import multiprocessing
import sys
import traceback
from collections import defaultdict, deque
from dataclasses import dataclass, replace
from typing import Any, NoReturn, Optional, Sequence

from repro.federation.partition import shard_stream
from repro.federation.router import GlobalRouter, make_router
from repro.federation.spec import Federation, ShardWorkerError, resolve_federation
from repro.metrics.report import RunReport, merge_run_reports
from repro.runner.executor import build_system, check_workers, default_workers
from repro.runner.spec import (
    RunResult,
    RunSpec,
    build_workload,
    build_workload_stream,
)
from repro.workloads.spec import RequestSpec, Workload

__all__ = [
    "FederationOutcome",
    "ShardRunner",
    "execute_federated",
    "run_federation",
]


@dataclass
class FederationOutcome:
    """Everything a federated run produced, shard-resolved."""

    federation: Federation
    #: per-shard reports, in shard-id order
    shard_reports: list[RunReport]
    #: the merged report (``merge_run_reports`` over the shards)
    report: RunReport
    #: cross-shard KV migrations the router induced (dynamic only)
    kv_migrations: int
    #: epoch barriers executed (1 for static routers: full lookahead)
    epochs: int
    #: processes the run actually used (after the min(shards, workers) cap)
    processes: int


class ShardRunner:
    """One shard's serving system, driven by controller commands.

    Wraps the stepped run primitives (``begin_run`` / ``advance`` /
    ``finish_run``); ``advance`` reports the shard's arrival, completion
    and drop counts from its metrics ledger, so the controller reads
    in-flight load at epoch barriers without touching simulator
    internals.
    """

    def __init__(self, spec: RunSpec, workload) -> None:
        self.system = build_system(spec)
        self.system.begin_run(workload)

    @property
    def horizon(self) -> Optional[float]:
        return self.system.run_horizon

    def deliver(self, specs: Sequence[RequestSpec]) -> None:
        for spec in specs:
            self.system.inject_arrival(spec)

    def advance(self, until: Optional[float]) -> tuple[int, int, int]:
        self.system.advance(until)
        outcomes = self.system.metrics.outcomes
        return (outcomes.arrivals, outcomes.completed, outcomes.dropped)

    def finish(self) -> dict[str, Any]:
        report = self.system.finish_run().to_dict(include_volatile=True)
        self.system.release()
        return report

    def run(self) -> dict[str, Any]:
        """Full-lookahead execution: one window to the horizon (static)."""
        self.advance(self.horizon)
        return self.finish()


def _whole_trace(federation: Federation, router: GlobalRouter) -> bool:
    """Whether each shard ingests its own slice of the trace stream.

    True for static routers, and for a 1-shard federation whatever the
    router, so that one shard is the unsharded run by construction;
    otherwise the controller routes every arrival at the epoch barriers.
    """
    return federation.shards == 1 or not router.dynamic


def _build_runners(
    spec: RunSpec,
    federation: Federation,
    router: GlobalRouter,
    shard_ids: Sequence[int],
    workload: Optional[Workload] = None,
) -> dict[int, ShardRunner]:
    """Construct this host's shard runners over one trace stream.

    Whole-trace shards get a lazy slice of the (locally re-synthesized,
    seeded) full trace stream — the whole stream at one shard; routed
    shards get the full deployment set with an empty preload — their
    arrivals come from the controller, which may pass the workload it
    already materialized (and checked for a bounded horizon).
    """
    trace = workload if workload is not None else build_workload_stream(spec)
    if federation.shards == 1:
        return {0: ShardRunner(spec, trace)}
    if _whole_trace(federation, router):
        assignment = router.assign(trace.deployments)
        return {
            shard_id: ShardRunner(spec, shard_stream(trace, assignment, shard_id))
            for shard_id in shard_ids
        }
    empty = Workload(
        name=f"{trace.name}#fed",
        deployments=dict(trace.deployments),
        requests=[],
        duration=trace.duration,
    )
    return {shard_id: ShardRunner(spec, empty) for shard_id in shard_ids}


# ----------------------------------------------------------------------
# Hosts: the controller's view of a group of shards
# ----------------------------------------------------------------------
class InProcessHost:
    """A group of shards running in this process.

    :meth:`send` is the one place a command becomes :class:`ShardRunner`
    calls: ``("deliver", {shard: specs})`` injects routed arrivals and
    queues no reply; ``("advance", until)``, ``("run", None)`` and
    ``("finish", None)`` step every shard and queue one reply, keyed by
    shard id, for :meth:`recv`.
    """

    def __init__(
        self,
        spec: RunSpec,
        federation: Federation,
        router: GlobalRouter,
        shard_ids: Sequence[int],
        workload: Optional[Workload] = None,
    ) -> None:
        self.shard_ids = list(shard_ids)
        self._runners = _build_runners(spec, federation, router, shard_ids, workload)
        self.horizons = {sid: runner.horizon for sid, runner in self._runners.items()}
        self._replies: deque[dict[int, Any]] = deque()

    def send(self, command: tuple) -> None:
        op, arg = command
        runners = self._runners
        if op == "deliver":
            for sid, specs in arg.items():
                runners[sid].deliver(specs)
            return
        if op == "advance":
            reply = {sid: runner.advance(arg) for sid, runner in runners.items()}
        elif op == "run":
            reply = {sid: runner.run() for sid, runner in runners.items()}
        elif op == "finish":
            reply = {sid: runner.finish() for sid, runner in runners.items()}
        else:
            raise ValueError(f"unknown shard command {op!r}")
        self._replies.append(reply)

    def recv(self) -> dict[int, Any]:
        return self._replies.popleft()

    def close(self, graceful: bool = True) -> None:
        pass


def _shard_worker_main(conn, spec_payload: dict, shard_ids: list[int]) -> None:
    """Child-process entry point: relay pipe commands to an in-process host."""
    try:
        spec = RunSpec.from_dict(spec_payload)
        federation = resolve_federation(spec.federation)
        host = InProcessHost(spec, federation, make_router(federation), shard_ids)
        conn.send(("ok", host.horizons))
        while True:
            command = conn.recv()
            if command[0] == "exit":
                return
            host.send(command)
            while host._replies:
                conn.send(("ok", host.recv()))
    except EOFError:
        return
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except OSError:
            pass
        sys.exit(1)
    finally:
        conn.close()


class PipeHost:
    """A group of shards behind one ``multiprocessing`` worker.

    The worker runs an :class:`InProcessHost` and relays each command
    and reply over the pipe, so both host kinds speak one protocol;
    requests cross as pickled :class:`RequestSpec` and reports as their
    ``to_dict`` payloads.  A dead worker, or one that replies with an
    error, raises :class:`ShardWorkerError` naming its shards.
    """

    def __init__(self, spec: RunSpec, shard_ids: Sequence[int]) -> None:
        self.shard_ids = list(shard_ids)
        ctx = _mp_context()
        self.conn, child = ctx.Pipe()
        self.process = ctx.Process(
            target=_shard_worker_main,
            args=(child, spec.to_dict(), list(shard_ids)),
            daemon=True,
        )
        self.process.start()
        child.close()
        self.horizons: dict[int, Optional[float]] = self.recv()

    def send(self, command: tuple) -> None:
        try:
            self.conn.send(command)
        except OSError:  # BrokenPipeError, ConnectionResetError: worker gone
            self._fail("died")

    def recv(self) -> Any:
        try:
            status, payload = self.conn.recv()
        except (EOFError, OSError):
            self._fail("died")
        if status != "ok":
            self._fail(f"failed:\n{payload}")
        return payload

    def _fail(self, what: str) -> NoReturn:
        self.process.join(timeout=5.0)
        raise ShardWorkerError(
            f"federation shard worker for shards {self.shard_ids} "
            f"(exit code {self.process.exitcode}) {what}"
        )

    def close(self, graceful: bool = True) -> None:
        """Stop the worker: ask it to exit, or (after a failure) kill it."""
        if graceful:
            try:
                self.conn.send(("exit", None))
            except OSError:
                pass
            self.process.join(timeout=30.0)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=5.0)
        self.conn.close()


def _mp_context():
    """Fork where available (cheap, inherits the import state), else spawn."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context("spawn")


def _exchange(
    hosts: Sequence[InProcessHost | PipeHost],
    command: tuple,
    routed: Optional[dict[int, list[RequestSpec]]] = None,
) -> dict[int, Any]:
    """Send ``command`` to every host, then collect every reply.

    Issuing to all hosts before collecting any reply is the only
    process-level parallelism a federated run has.  ``routed`` arrivals
    are delivered to their shards' hosts ahead of the command.
    """
    for host in hosts:
        if routed:
            owned = {sid: routed[sid] for sid in host.shard_ids if sid in routed}
            if owned:
                host.send(("deliver", owned))
        host.send(command)
    replies: dict[int, Any] = {}
    for host in hosts:
        replies.update(host.recv())
    return replies


# ----------------------------------------------------------------------
# The controller
# ----------------------------------------------------------------------
def run_federation(
    spec: RunSpec,
    *,
    workers: Optional[int] = None,
) -> FederationOutcome:
    """Execute ``spec`` across its federation's shards and merge.

    ``workers`` caps the process count (``None`` = ``REPRO_WORKERS``);
    shard *results* are independent of it.  Whole-trace shards ingest
    lazy slices of the trace stream; the dynamic router materializes the
    trace in the controller, because routing scans the full list.
    """
    if spec.federation is None:
        raise ValueError("run_federation needs a spec with a federation axis")
    federation = resolve_federation(spec.federation)
    router = make_router(federation)
    worker_cap = default_workers() if workers is None else check_workers(workers)
    processes = min(federation.shards, worker_cap)
    shard_ids = list(range(federation.shards))

    whole_trace = _whole_trace(federation, router)
    controller_workload: Optional[Workload] = None
    if not whole_trace:
        controller_workload = build_workload(spec)
        if controller_workload.duration is None:
            raise ValueError(
                "dynamic federation routing needs a bounded workload horizon"
            )

    hosts: list[InProcessHost | PipeHost]
    if processes <= 1:
        hosts = [
            InProcessHost(spec, federation, router, shard_ids, workload=controller_workload)
        ]
    else:
        hosts = [PipeHost(spec, shard_ids[chunk::processes]) for chunk in range(processes)]

    finished = False
    try:
        if whole_trace:
            # Full lookahead: every shard runs its slice to the end.
            report_dicts, epochs, kv_migrations = _exchange(hosts, ("run", None)), 1, 0
        else:
            assert controller_workload is not None
            report_dicts, epochs, kv_migrations = _run_dynamic(
                hosts, federation, router, controller_workload
            )
        finished = True
    finally:
        # After a failure the surviving workers may be mid-command: kill
        # them instead of waiting for a reply nobody will read.
        for host in hosts:
            host.close(graceful=finished)

    shard_reports = [
        RunReport.from_dict(report_dicts[shard_id]) for shard_id in shard_ids
    ]
    merged = merge_run_reports(shard_reports)
    return FederationOutcome(
        federation=federation,
        shard_reports=shard_reports,
        report=merged,
        kv_migrations=kv_migrations,
        epochs=epochs,
        processes=processes,
    )


def _run_dynamic(
    hosts: Sequence[InProcessHost | PipeHost],
    federation: Federation,
    router: GlobalRouter,
    workload: Workload,
) -> tuple[dict[int, dict], int, int]:
    """The conservative epoch ladder with barrier-time routing.

    Each barrier at ``T`` routes the arrivals of ``[T, T + Δ)`` — in
    ``(arrival, trace index)`` order — using the in-flight counts the
    shards reported at ``T`` plus a running estimate of this epoch's own
    assignments, then advances every shard to ``T + Δ``.  Routed
    requests are delivered at ``arrival + router_latency`` (or
    ``+ kv_migration_latency`` when their KV prefix must follow them
    from another shard), which the Δ bound guarantees lies at or beyond
    the next barrier — injection never rewinds a shard's clock.
    """
    shards = federation.shards
    delta = federation.resolved_epoch()
    duration = workload.duration
    assert duration is not None
    # Every shard hosts the same deployments over the same trace, so
    # their run horizons are identical by construction.
    shard_horizon = next(iter(hosts[0].horizons.values()))

    in_flight = [0] * shards
    prefix_home: dict[str, int] = {}
    kv_migrations = 0
    epochs = 0
    requests = workload.requests
    index = 0
    now = 0.0
    while now < duration:
        barrier = min(now + delta, duration)
        epochs += 1
        routed: dict[int, list[RequestSpec]] = defaultdict(list)
        estimate = list(in_flight)
        while index < len(requests) and requests[index].arrival < barrier:
            request = requests[index]
            shard = router.route(request.deployment, estimate)
            latency = federation.router_latency
            if request.prefix_id is not None:
                home = prefix_home.get(request.prefix_id)
                if home is not None and home != shard:
                    kv_migrations += 1
                    latency = federation.kv_migration_latency
                prefix_home[request.prefix_id] = shard
            routed[shard].append(replace(request, arrival=request.arrival + latency))
            estimate[shard] += 1
            index += 1
        summaries = _exchange(hosts, ("advance", barrier), routed)
        for shard_id, (arrived, completed, dropped) in summaries.items():
            in_flight[shard_id] = arrived - completed - dropped
        now = barrier

    # Drain: one final window to the shards' (uniform) run horizon.
    _exchange(hosts, ("advance", shard_horizon))
    return _exchange(hosts, ("finish", None)), epochs + 1, kv_migrations


def execute_federated(
    spec: RunSpec,
    *,
    workers: Optional[int] = None,
) -> RunResult:
    """Run a federated spec and wrap the merged report as a RunResult.

    The result's wall-clock envelope is the fsum of the shard systems'
    own run timers (``merge_run_reports`` folds them): the federation
    layer itself reads no clocks, keeping it inside the ``no-wall-clock``
    lint scope.
    """
    outcome = run_federation(spec, workers=workers)
    return RunResult(
        spec=spec,
        fingerprint=spec.fingerprint(),
        report=outcome.report,
        wall_seconds=outcome.report.wall_seconds,
    )
