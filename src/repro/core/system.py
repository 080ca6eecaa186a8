"""The composable serving-system core.

Every serving scheme drives the same event-driven loop: requests
arrive, are placed onto instances (or queued and eventually dropped
when their queuing delay exceeds the TTFT SLO, §IX-B), executors run
prefill/decode iterations one at a time, idle instances are reclaimed
after the keep-alive threshold.

What *varies* between schemes is expressed as a
:class:`~repro.policies.base.PolicyBundle` — placement, reclaim,
admission, and work-selection policies — instead of subclass hook
overrides.  The core owns the simulator, the queue/drop/retry
machinery, the executor loop, and request lifecycle bookkeeping; it
publishes typed events (:mod:`repro.policies.events`) at each lifecycle
point, and everything that merely observes a run (metrics, overhead
accounting, memory sampling) attaches as a bus subscriber.

Queue bookkeeping is O(1) per request: the deque holds
``(request, entry_serial)`` pairs and a ``req_id → serial`` map decides
liveness, so drops and successful retries just retire the map entry and
leave a tombstone that compaction sweeps later — no mid-deque removal.
"""

from __future__ import annotations

import itertools
import operator
import time as _wallclock
from collections import deque
from contextlib import contextmanager
from typing import Iterator, Optional, Sequence, Union

from repro.analysis.audit import maybe_audit, maybe_audit_store

from repro.compute.scheduler import WorkItem
from repro.core.config import SystemConfig
from repro.engine.executor import Executor
from repro.engine.instance import Instance, InstanceState
from repro.engine.request import Request, RequestState
from repro.hardware.cluster import Cluster
from repro.hardware.node import Node
from repro.kv import KV_SHARING_MODES, KvShareAdmission, KvShareStore
from repro.metrics.collector import MetricsCollector
from repro.metrics.report import RunReport
from repro.perf.database import PerfDatabase
from repro.policies.base import PolicyBundle
from repro.policies.events import (
    Event,
    EventBus,
    InstanceLoaded,
    InstanceUnloaded,
    IterationFinished,
    OverheadMeasured,
    RequestArrived,
    RequestCompleted,
    RequestDropped,
    RequestQueued,
)
from repro.policies.observers import Observer, default_observers
from repro.sim.engine import EngineBackend, resolve_engine
from repro.sim.simulator import EventHandle, Simulator
from repro.slo import DEFAULT_SLO, SloPolicy
from repro.workloads.spec import Deployment, Workload
from repro.workloads.stream import StreamOrderError, WorkloadStream

#: tombstone compaction threshold: sweep once stale entries dominate
_QUEUE_COMPACT_MIN = 8

#: sort key restoring executor attach order for the runnable-work hint
_attach_order = operator.attrgetter("attach_order")


class ServingSystem:
    """Event-driven serving loop composed from a policy bundle."""

    def __init__(
        self,
        cluster: Cluster,
        policies: Union[PolicyBundle, str],
        slo: SloPolicy = DEFAULT_SLO,
        config: Optional[SystemConfig] = None,
        observers: Optional[Sequence[Observer]] = None,
        name: Optional[str] = None,
        metrics: str = "exact",
        engine: Union[str, EngineBackend, None] = None,
        kv_sharing: str = "off",
    ) -> None:
        if isinstance(policies, str):
            from repro.policies.registry import build_bundle

            policies = build_bundle(policies)
        if kv_sharing not in KV_SHARING_MODES:
            raise ValueError(
                f"unknown kv_sharing mode {kv_sharing!r} "
                f"(known: {', '.join(KV_SHARING_MODES)})"
            )
        self.kv_sharing = kv_sharing
        if kv_sharing == "on":
            # Couple admission to block supply; no label suffix — the
            # sharing axis is carried by the run spec, not the bundle name.
            policies = policies.with_policies(
                admission=KvShareAdmission(policies.admission)
            )
        self.policies = policies
        self.name = name if name is not None else policies.name
        self.cluster = cluster
        self.slo = slo
        if config is None:
            config = policies.default_config() if policies.default_config else SystemConfig()
        self.config = config
        self.sim = Simulator()
        # One bandwidth tracker per run: model loads and KV migrations
        # contend for the topology's shared links inside this simulation.
        cluster.topology.bind(self.sim)
        self.bus = EventBus()
        self.perf = PerfDatabase(jitter_sigma=self.config.jitter_sigma, seed=self.config.seed)
        # The metrics mode ("exact" / "streaming") picks the collector's
        # accumulator types; built before the observers attach to it.
        self.metrics = MetricsCollector(mode=metrics)
        self.observers: list[Observer] = (
            list(observers) if observers is not None else default_observers()
        )
        for observer in self.observers:
            observer.attach(self)
        # Engine backend: owns the run's dispatch loop (vectorized, the
        # default = batched decode chains with byte-identical results;
        # reference = the plain Simulator.run, kept as the parity
        # oracle).  ``None`` defers to the REPRO_ENGINE environment
        # variable, then "vectorized".
        self.engine = resolve_engine(engine)
        self.engine.bind(self)
        self._note_decode = self.engine.note_decode if self.engine.marks_decode else None
        # Admission queue: (request, entry_serial) pairs; an entry is live
        # iff the serial matches the request's latest one in ``_queued``.
        self.queue: deque[tuple[Request, int]] = deque()
        self._queued: dict[int, int] = {}
        self._entry_seq = itertools.count()
        self._queue_timers: dict[int, EventHandle] = {}
        self._inst_seq = itertools.count()
        self._req_seq = itertools.count()
        self.deployments: dict[str, Deployment] = {}
        self.executors: list[Executor] = []
        self._executor_of: dict[int, Executor] = {}  # instance id -> executor
        self._instances_by_deployment: dict[str, list[Instance]] = {}
        # Incremental work hint: executor id -> {inst_id: instance} for
        # every instance that *may* have runnable work.  Maintained at
        # the points where an instance can gain work (dispatch /
        # activation) and pruned lazily during selection, so the
        # per-iteration scan is O(active) instead of O(loaded).
        self._work_hints: dict[str, dict[int, Instance]] = {}
        self._attach_seq = itertools.count()
        self.placing_request: Optional[Request] = None
        self._arrival_stream: Optional[Iterator] = None
        self._retrying = False
        self._last_retry_at = -1.0
        self._retry_dirty = True
        # Stepped-run state (begin_run/advance/finish_run): the horizon
        # computed at begin, the workload being served, and the host
        # seconds spent inside those calls — the report's wall_seconds,
        # which must not include time a federation spends on other shards
        # between this shard's steps.
        self.run_horizon: Optional[float] = None
        self._run_workload: Optional[Union[Workload, WorkloadStream]] = None
        self._run_seconds: float = 0.0

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def run(
        self, workload: Union[Workload, WorkloadStream], until: Optional[float] = None
    ) -> RunReport:
        """Serve a workload to completion and return the measured report.

        Materialized workloads pre-load the arrival heap (the reference
        path the stream equivalence tests compare against).  A
        :class:`WorkloadStream` — what batch runs feed — is consumed
        lazily instead: the system keeps exactly one pending arrival in
        the heap and pulls the next only after fully processing it, so
        ingest memory is O(in-flight) and live (unbounded-horizon)
        streams run until their source closes.

        ``run`` is the one-shot composition of the stepped primitives
        below — ``begin_run`` / ``advance`` / ``finish_run`` — which
        federated (epoch-synchronized) execution drives individually.
        A single ``advance`` to the horizon is exactly the legacy loop,
        so this path stays byte-identical to the pre-stepped one.
        """
        self.begin_run(workload, until)
        self.advance(self.run_horizon)
        return self.finish_run()

    # ------------------------------------------------------------------
    # Stepped execution (the federation seam)
    # ------------------------------------------------------------------
    def begin_run(
        self, workload: Union[Workload, WorkloadStream], until: Optional[float] = None
    ) -> None:
        """Load the workload and prepare policies; no events execute yet.

        Computes :attr:`run_horizon`: ``until`` when given, else the
        workload window plus the drain timeout, else ``None`` for live
        streams (run until the source closes).
        """
        start = _wallclock.perf_counter()
        self._run_workload = workload
        self.deployments = dict(workload.deployments)
        self.policies.prepare(self, workload)
        if isinstance(workload, Workload):
            for spec in workload.requests:
                self.sim.schedule_at(spec.arrival, self._arrive, spec)
        else:
            self._arrival_stream = iter(workload)
            self._pump_arrival()
        for observer in self.observers:
            observer.on_run_start(self, workload)
        if until is not None:
            self.run_horizon = until
        elif workload.duration is not None:
            self.run_horizon = workload.duration + self.config.drain_timeout
        else:
            self.run_horizon = None  # live stream: run until the source closes + drain
        self._run_seconds = _wallclock.perf_counter() - start

    def advance(self, until: Optional[float]) -> None:
        """Execute events up to ``until`` (simulated seconds).

        Safe to call repeatedly with a non-decreasing ladder of times:
        ``advance(t1); advance(t2)`` is equivalent to ``advance(t2)``
        for both engine backends, which is what lets a federation shard
        step through conservative time-window epochs.  New arrivals may
        be injected between calls as long as they lie at or beyond the
        current simulation time.
        """
        start = _wallclock.perf_counter()
        self.engine.run_loop(self, until)
        self._run_seconds += _wallclock.perf_counter() - start

    def inject_arrival(self, spec) -> None:
        """Schedule one externally-routed arrival (federation hand-off).

        ``spec.arrival`` must not precede the current simulation time —
        the conservative epoch protocol guarantees delivery times land
        in the receiving shard's future.
        """
        self.sim.schedule_at(spec.arrival, self._arrive, spec)

    def finish_run(self) -> RunReport:
        """Assemble the report for a run begun with :meth:`begin_run`."""
        start = _wallclock.perf_counter()
        workload = self._run_workload
        if workload is None:
            raise RuntimeError("finish_run() without begin_run()")
        topology = self.cluster.topology
        if topology.has_shared_links:
            # Per-link utilization is only meaningful where transfers can
            # contend; dedicated-link (default) topologies skip it so
            # their reports stay byte-identical to the pre-topology ones.
            self.metrics.record_link_stats(topology.link_stats(self.sim.now))
        duration = workload.duration if workload.duration is not None else self.sim.now
        # REPRO_AUDIT=1: re-prove conservation invariants (KV block
        # accounting, arrivals = completed + dropped + in-flight) on the
        # drained system before the report is assembled.
        maybe_audit(self)
        report = self.metrics.finalize(self.sim.now, duration, self.name)
        report.wall_seconds = self._run_seconds + (_wallclock.perf_counter() - start)
        report.events_processed = self.sim.events_processed
        return report

    def release(self) -> None:
        """Drop the finished run's heavy state; the system is unusable after.

        The placement policy, the metrics sampler and the engine each
        point back at the system, so a finished system graph is a
        reference cycle that only a generation-2 collection would free.
        Cutting the system's edges to its policies, simulator, perf
        database, metrics, bus, observers and engine lets refcounting
        free the bulk of it as soon as the caller drops the system.
        Events still pending at the horizon are discarded first, and the
        live instances drop the batch profiles that hold the engine's
        decode-chain states.  Call it once the report is built.
        """
        self.sim.clear()
        for instances in self._instances_by_deployment.values():
            for instance in instances:
                instance.drop_profile()
        del self.policies, self.sim, self.perf, self.metrics, self.bus
        del self.observers, self.engine, self._note_decode

    # ------------------------------------------------------------------
    # Event/observability surface
    # ------------------------------------------------------------------
    def publish(self, event: Event) -> None:
        self.bus.publish(event)

    def record_overhead(self, name: str, seconds: float) -> None:
        """Report one wall-clock scheduling-overhead sample (Fig. 33)."""
        self.bus.publish(OverheadMeasured(name, seconds))

    @contextmanager
    def overhead_timer(self, name: str) -> Iterator[None]:
        """Time a policy code section against the host clock (Fig. 33).

        The one sanctioned wall-clock seam for policy code, so
        deterministic modules never read the host clock themselves
        (``repro lint`` rule ``no-wall-clock`` enforces this statically).
        The samples land only in volatile report fields.
        """
        start = _wallclock.perf_counter()
        try:
            yield
        finally:
            self.record_overhead(name, _wallclock.perf_counter() - start)

    @property
    def retrying(self) -> bool:
        """True while the queue-retry sweep re-attempts placements.

        Placement policies use this to skip expensive arrival-only
        machinery (e.g. preemption planning) during retries.
        """
        return self._retrying

    # ------------------------------------------------------------------
    # Arrivals, queue, drops
    # ------------------------------------------------------------------
    def _pump_arrival(self) -> None:
        """Schedule the stream's next arrival (exactly one in the heap).

        Blocks on live streams until the producer pushes or closes —
        while the consumer blocks here, the previous arrival has been
        fully processed and the simulation is quiescent (the contract
        behind ``QueueStream.wait_processed``).
        """
        stream = self._arrival_stream
        if stream is None:
            return
        spec = next(stream, None)
        if spec is None:
            self._arrival_stream = None
            return
        if spec.arrival < self.sim.now:
            raise StreamOrderError(
                f"stream arrival {spec.arrival:.6f} precedes simulation "
                f"time {self.sim.now:.6f}; streams must be nondecreasing "
                f"in arrival time"
            )
        self.sim.schedule_at(spec.arrival, self._arrive_streamed, spec)

    def _arrive_streamed(self, spec) -> None:
        # Process the current arrival completely before pulling the next:
        # pull-first would make a live producer's verdict for request i
        # wait on the submission of request i+1.
        self._arrive(spec)
        self._pump_arrival()

    def _arrive(self, spec) -> None:
        request = Request(
            req_id=next(self._req_seq),
            deployment=spec.deployment,
            arrival=self.sim.now,
            input_len=spec.input_len,
            output_len=spec.output_len,
            ttft_slo=self.slo.ttft(spec.input_len),
            tpot_slo=self.slo.tpot,
            prefix_id=spec.prefix_id,
            prefix_len=spec.prefix_len,
        )
        self.bus.publish(RequestArrived(request, self.sim.now))
        if not self.try_place(request):
            self.enqueue(request)

    def try_place(self, request: Request) -> bool:
        """One timed placement attempt through the placement policy."""
        previous = self.placing_request
        self.placing_request = request
        try:
            start = _wallclock.perf_counter()
            placed = self.policies.placement.try_place(self, request)
            self.record_overhead("placement", _wallclock.perf_counter() - start)
            return placed
        finally:
            self.placing_request = previous

    def enqueue(self, request: Request) -> None:
        """Park a request in the admission queue until capacity frees."""
        request.state = RequestState.QUEUED
        serial = next(self._entry_seq)
        self._queued[request.req_id] = serial
        self.queue.append((request, serial))
        self.bus.publish(RequestQueued(request, self.sim.now))
        deadline = request.next_token_deadline
        if deadline > self.sim.now:
            handle = self.sim.schedule_at(deadline, self._queue_timeout, request)
            self._queue_timers[request.req_id] = handle
        else:
            self._queue_timeout(request)

    def queued_requests(self) -> list[Request]:
        """The live queue contents, FIFO (skipping retired tombstones)."""
        return [
            request
            for request, serial in self.queue
            if self._queued.get(request.req_id) == serial
        ]

    def _dequeue(self, request: Request) -> None:
        """Retire the request's live queue entry (O(1); tombstone remains)."""
        self._queued.pop(request.req_id, None)

    def _compact_queue(self) -> None:
        if len(self.queue) > _QUEUE_COMPACT_MIN and len(self.queue) > 2 * len(self._queued):
            self.queue = deque(
                (request, serial)
                for request, serial in self.queue
                if self._queued.get(request.req_id) == serial
            )

    def _queue_timeout(self, request: Request) -> None:
        """Drop a request whose queuing delay exceeded its TTFT SLO (§IX-B)."""
        self._queue_timers.pop(request.req_id, None)
        if request.state in (RequestState.QUEUED, RequestState.MIGRATING):
            self._dequeue(request)
            request.drop(self.sim.now)
            self.bus.publish(RequestDropped(request, self.sim.now))
            self._compact_queue()

    def capacity_changed(self) -> None:
        """Capacity was freed (completion/unload/scale): retry the queue."""
        self._retry_dirty = True
        self._retry_queue()

    def _retry_queue(self) -> None:
        """Re-attempt placement for queued requests (FIFO, bounded work).

        A failed attempt for a deployment skips the rest of that
        deployment's queue — the outcome would be identical — and retries
        are coalesced per simulation instant.  ``retrying`` is visible to
        placement policies so expensive arrival-only machinery (e.g.
        preemption planning) is not re-run for every queued request on
        every completion event.
        """
        if self._last_retry_at == self.sim.now and not self._retry_dirty:
            return
        self._last_retry_at = self.sim.now
        self._retry_dirty = False
        attempts = 0
        failed_deployments: set[str] = set()
        self._retrying = True
        try:
            for request, serial in list(self.queue):
                if attempts >= self.config.max_queue_retries:
                    break
                if self._queued.get(request.req_id) != serial:
                    continue  # tombstone: dropped, placed, or re-enqueued
                if request.state not in (RequestState.QUEUED, RequestState.MIGRATING):
                    self._dequeue(request)
                    continue
                if request.deployment in failed_deployments:
                    continue
                attempts += 1
                if self.try_place(request):
                    self._dequeue(request)
                    timer = self._queue_timers.pop(request.req_id, None)
                    if timer is not None:
                        timer.cancel()
                else:
                    failed_deployments.add(request.deployment)
        finally:
            self._retrying = False
            self._compact_queue()

    # ------------------------------------------------------------------
    # Instances
    # ------------------------------------------------------------------
    def make_instance(
        self,
        deployment: Deployment,
        node: Node,
        fraction: float = 1.0,
        exclusive: bool = False,
    ) -> Instance:
        instance = Instance(
            inst_id=next(self._inst_seq),
            deployment=deployment.name,
            model=deployment.model,
            node=node,
            fraction=fraction,
            tp_degree=deployment.tp_degree,
            created_at=self.sim.now,
            exclusive=exclusive,
        )
        if self.kv_sharing == "on":
            instance.kv_share = KvShareStore(instance, self.metrics)
        self.policies.admission.on_instance_created(self, instance)
        return instance

    def attach(self, instance: Instance, executor: Executor) -> None:
        instance.attach_order = next(self._attach_seq)
        executor.add_instance(instance)
        self._executor_of[instance.inst_id] = executor
        instance.node.instances.append(instance)
        self._instances_by_deployment.setdefault(instance.deployment, []).append(instance)
        self.bus.publish(InstanceLoaded(instance, self.sim.now))

    def detach(self, instance: Instance) -> None:
        if instance.kv_share is not None:
            # Under REPRO_AUDIT=1 prove block conservation against the
            # store's final allocation state before it is torn down.
            maybe_audit_store(instance.kv_share)
            instance.kv_share.clear()
        executor = self._executor_of.pop(instance.inst_id)
        executor.remove_instance(instance)
        hint = self._work_hints.get(executor.exec_id)
        if hint is not None:
            hint.pop(instance.inst_id, None)
        instance.node.instances.remove(instance)
        self._instances_by_deployment[instance.deployment].remove(instance)
        instance.drop_profile()
        self.bus.publish(InstanceUnloaded(instance, self.sim.now))

    def executor_for(self, instance: Instance) -> Executor:
        return self._executor_of[instance.inst_id]

    def instances_of(self, deployment: str) -> list[Instance]:
        return [
            inst
            for inst in self._instances_by_deployment.get(deployment, [])
            if inst.state is not InstanceState.UNLOADED
        ]

    def activate_instance(self, instance: Instance) -> None:
        """Cold start finished: the instance may serve."""
        instance.state = InstanceState.ACTIVE
        self._mark_maybe_runnable(instance)
        if instance.request_count == 0:
            self._instance_went_idle(instance)
        self._kick(self.executor_for(instance))
        self.capacity_changed()

    # ------------------------------------------------------------------
    # Runnable-work hint (O(active) work selection)
    # ------------------------------------------------------------------
    def _mark_maybe_runnable(self, instance: Instance) -> None:
        """Record that ``instance`` may now have schedulable work.

        Called at every transition that can give an instance work: a
        request dispatch and cold-start activation.  All request
        hand-offs (arrivals, queue retries, migrations, PD transfers)
        funnel through :meth:`dispatch`, so the hint set is a superset
        of the instances ``Executor.runnable_instances`` would find.
        """
        executor = self._executor_of.get(instance.inst_id)
        if executor is not None:
            self._work_hints.setdefault(executor.exec_id, {})[instance.inst_id] = instance

    def runnable_instances(self, executor: Executor) -> list[Instance]:
        """Instances of ``executor`` with schedulable work, attach-ordered.

        Equals ``executor.runnable_instances()`` (same contents, same
        order) but costs O(active): instances that turned out workless —
        gone idle, still loading, drained by migration — are pruned from
        the hint here and re-marked when work next reaches them.
        """
        hint = self._work_hints.get(executor.exec_id)
        if not hint:
            return []
        runnable = [instance for instance in hint.values() if instance.has_work]
        if len(runnable) != len(hint):
            self._work_hints[executor.exec_id] = {
                instance.inst_id: instance for instance in runnable
            }
        runnable.sort(key=_attach_order)
        return runnable

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def dispatch(self, request: Request, instance: Instance) -> None:
        """Hand a (new or migrating) request to an instance."""
        request.state = RequestState.PENDING_PREFILL
        if instance.kv_share is not None:
            # Match the prompt against the instance's prefix cache: hits
            # are shared refcount-bumped and shorten the pending prefill.
            instance.kv_share.admit(request)
        instance.enqueue(request)
        self._mark_maybe_runnable(instance)
        if instance.state is InstanceState.LOADING:
            cold_delay = max(0.0, instance.load_ready_at - request.arrival)
            request.grace = max(request.grace, cold_delay)
            request.cold_started = True
        if instance.keepalive_handle is not None:
            instance.keepalive_handle.cancel()
            instance.keepalive_handle = None
        if instance.state is InstanceState.ACTIVE:
            self._kick(self.executor_for(instance))

    # ------------------------------------------------------------------
    # Executor loop
    # ------------------------------------------------------------------
    def _select_work(self, executor: Executor) -> Optional[WorkItem]:
        start = _wallclock.perf_counter()
        item = self.policies.work.select(self, executor)
        self.record_overhead("token_schedule", _wallclock.perf_counter() - start)
        return item

    def _kick(self, executor: Executor) -> None:
        if executor.busy:
            return
        item = self._select_work(executor)
        if item is None:
            return
        instance = item.instance
        spec = instance.node.spec
        if item.is_prefill:
            duration = self.perf.execute_prefill(
                spec, instance.model, item.request.prefill_len,
                instance.fraction, instance.tp_degree,
            )
            batch_size = 0
        else:
            batch_size = instance.batch_size
            duration = self.perf.execute_decode(
                spec, instance.model, batch_size, instance.avg_context_len(),
                instance.fraction, instance.tp_degree,
            )
        duration *= self.policies.work.latency_factor(self, executor, item.kind)
        executor.busy = True
        executor.busy_until = self.sim.now + duration
        handle = self.sim.schedule(duration, self._finish_iteration, executor, item, batch_size)
        if batch_size and self._note_decode is not None:
            self._note_decode(handle)

    def _finish_iteration(self, executor: Executor, item: WorkItem, batch_size: int) -> None:
        executor.busy = False
        instance = item.instance
        if instance.state is InstanceState.UNLOADED:
            self._kick(executor)
            return
        if item.is_prefill:
            self._finish_prefill(instance, item.request)
            decode_tokens = 0
        else:
            decode_tokens = self._finish_decode(instance)
        self.bus.publish(
            IterationFinished(instance, item.kind, decode_tokens, batch_size, self.sim.now)
        )
        if instance.idle and instance.keepalive_handle is None:
            self._instance_went_idle(instance)
        self._kick(executor)

    def _finish_prefill(self, instance: Instance, request: Request) -> None:
        if request.state is not RequestState.PENDING_PREFILL or request not in instance.prefill_pending:
            return  # dropped or migrated while the iteration ran
        instance.prefill_pending.remove(request)
        if instance.kv_share is not None:
            # The prompt's KV now exists: promote its full blocks into
            # the prefix index so later requests can share them.
            instance.kv_share.commit(request)
        request.prefill_len = 0
        request.record_tokens(self.sim.now)
        if request.done:
            self._complete_request(instance, request)
            return
        self.policies.admission.admit_after_prefill(self, instance, request)

    def _finish_decode(self, instance: Instance) -> int:
        tokens = 0
        version = instance.batch_version
        for request in list(instance.batch):
            request.record_tokens(self.sim.now)
            tokens += 1
            if request.done:
                instance.leave_batch(request)
                self._complete_request(instance, request)
        if tokens:
            instance.grants += 1
            if instance.batch_version != version:
                # A completion's handlers ran mid-grant, with only part
                # of the batch granted: a profile they built is stale.
                instance.batch_version += 1
        return tokens

    def release_shared_kv(self, instance: Instance, request: Request) -> None:
        """Drop a departing request's shared-block references.

        Policies call this wherever they take a request off an instance
        (preemption, eviction); a no-op with sharing off, so unshared
        control flow is untouched.
        """
        if instance.kv_share is not None:
            instance.kv_share.release(request)

    def _complete_request(self, instance: Instance, request: Request) -> None:
        self.release_shared_kv(instance, request)
        request.complete(self.sim.now)
        self.bus.publish(RequestCompleted(request, instance, self.sim.now))
        self.capacity_changed()

    # ------------------------------------------------------------------
    # Keep-alive
    # ------------------------------------------------------------------
    def _instance_went_idle(self, instance: Instance) -> None:
        instance.keepalive_handle = self.sim.schedule(
            self.policies.reclaim.keepalive_seconds(self, instance),
            self._keepalive_expired,
            instance,
        )

    def _keepalive_expired(self, instance: Instance) -> None:
        instance.keepalive_handle = None
        if instance.state is InstanceState.ACTIVE and instance.idle:
            self.policies.reclaim.reclaim(self, instance)
