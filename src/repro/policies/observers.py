"""Detachable run observers: metrics, overheads, and memory sampling.

Observers subscribe to the typed event bus (and, for periodic sampling,
to the simulator clock); they never mutate simulation state, so a run
produces the same trajectory with any subset attached.  The default
observer set reproduces exactly what the pre-policy systems recorded
inline.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.engine.instance import InstanceState
from repro.memory.operations import OpKind
from repro.policies.events import (
    DecodeChainHandler,
    InstanceLoaded,
    InstanceUnloaded,
    IterationFinished,
    MemoryOpIssued,
    NodeLoaded,
    NodeUnloaded,
    OverheadMeasured,
    RequestArrived,
    RequestCompleted,
    RequestDropped,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.system import ServingSystem
    from repro.engine.instance import Instance
    from repro.hardware.node import Node
    from repro.metrics.collector import MetricsCollector
    from repro.workloads.spec import Workload


class Observer:
    """A passive subscriber to one serving run."""

    def attach(self, system: "ServingSystem") -> None:
        """Subscribe to the system's event bus (called at construction)."""

    def on_run_start(self, system: "ServingSystem", workload) -> None:
        """Called once after the trace's arrivals are scheduled.

        ``workload`` is a :class:`~repro.workloads.spec.Workload` or a
        :class:`~repro.workloads.stream.WorkloadStream` (whose
        ``duration`` may be ``None`` for live ingest).
        """


class MetricsObserver(Observer):
    """Feeds the :class:`~repro.metrics.collector.MetricsCollector`."""

    def attach(self, system: "ServingSystem") -> None:
        metrics = system.metrics
        bus = system.bus
        # Fold each outcome the moment it is final, so the ledger's counts
        # are live (requests cut off by the horizon fold at finalize).
        bus.subscribe(RequestArrived, lambda e: metrics.register_request(e.request))
        bus.subscribe(RequestCompleted, lambda e: metrics.request_finished(e.request))
        bus.subscribe(RequestDropped, lambda e: metrics.request_finished(e.request))
        bus.subscribe(InstanceLoaded, lambda e: self._loaded(system, e))
        bus.subscribe(
            InstanceUnloaded,
            lambda e: metrics.node_unloaded(e.instance.node.node_id, e.time),
        )
        bus.subscribe(NodeLoaded, lambda e: metrics.node_loaded(e.node_id, e.kind, e.time))
        bus.subscribe(NodeUnloaded, lambda e: metrics.node_unloaded(e.node_id, e.time))

        def on_overhead(event: OverheadMeasured, metrics=metrics) -> None:
            metrics.add_overhead(event.name, event.seconds)

        bus.subscribe(IterationFinished, _IterationMetrics(metrics))
        bus.subscribe(MemoryOpIssued, lambda e: self._memory_op(system, e))
        bus.subscribe(OverheadMeasured, on_overhead)

    @staticmethod
    def _loaded(system: "ServingSystem", event: InstanceLoaded) -> None:
        node = event.instance.node
        system.metrics.node_loaded(node.node_id, node.kind, event.time)
        system.metrics.cold_starts += 1

    @staticmethod
    def _memory_op(system: "ServingSystem", event: MemoryOpIssued) -> None:
        if event.op.kind in (OpKind.SCALE_UP, OpKind.SCALE_DOWN):
            system.metrics.add_scaling_op(event.duration)


class _IterationMetrics(DecodeChainHandler):
    """Decode-token and batch-size accounting, one fold per decode chain."""

    __slots__ = ("metrics",)

    def __init__(self, metrics: "MetricsCollector") -> None:
        self.metrics = metrics

    def __call__(self, event: IterationFinished) -> None:
        if event.decode_tokens:
            self.metrics.add_decode_tokens(event.instance.node.kind, event.decode_tokens)
        if event.batch_size:
            self.metrics.sample_batch_size(event.batch_size, event.instance.node.kind)

    def fold(self, instance: "Instance", batch_size: int, steps: int) -> None:
        kind = instance.node.kind
        self.metrics.add_decode_tokens(kind, batch_size * steps)
        self.metrics.sample_batch_size(batch_size, kind, count=steps)


class MemoryUsageSampler(Observer):
    """Periodic node-memory and KV-utilization sampling (Figs. 5, 25)."""

    def __init__(self) -> None:
        self._system: "ServingSystem | None" = None
        self._trace_duration = 0.0

    def on_run_start(self, system: "ServingSystem", workload) -> None:
        self._system = system
        if workload.duration is None:
            # Live stream with no known horizon: each sample reschedules
            # while ``now <= duration``, so sampling would keep an
            # unbounded run from ever draining.
            return
        self._trace_duration = workload.duration
        if system.config.sample_interval > 0:
            system.sim.schedule(system.config.sample_interval, self._sample)

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    @staticmethod
    def _node_memory_used(node: "Node") -> int:
        used = 0
        for instance in node.instances:
            if instance.state is InstanceState.UNLOADED:
                continue
            used += instance.weight_bytes_per_node + instance.live_kv_bytes()
        return used

    def _sample(self) -> None:
        system = self._system
        assert system is not None
        if system.sim.now <= self._trace_duration:
            for node in system.cluster.nodes:
                loaded = [
                    i for i in node.instances if i.state is not InstanceState.UNLOADED
                ]
                if not loaded:
                    continue
                utilization = self._node_memory_used(node) / node.memory_bytes
                system.metrics.sample_memory_utilization(node.kind, min(1.0, utilization))
                self._sample_kv_utilization(system, loaded)
            system.sim.schedule(system.config.sample_interval, self._sample)

    @staticmethod
    def _sample_kv_utilization(system: "ServingSystem", instances: list["Instance"]) -> None:
        for instance in instances:
            if instance.kv.allocated_bytes > 0:
                system.metrics.sample_kv_utilization(
                    min(1.0, instance.live_kv_bytes() / instance.kv.allocated_bytes)
                )


def default_observers() -> list[Observer]:
    return [MetricsObserver(), MemoryUsageSampler()]
