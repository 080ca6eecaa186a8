"""The typed event bus: dispatch semantics and core-loop publications."""

import pytest

from repro.core import ServingSystem
from repro.hardware import Cluster
from repro.policies import (
    EventBus,
    InstanceLoaded,
    InstanceUnloaded,
    IterationFinished,
    RequestArrived,
    RequestCompleted,
    RequestDropped,
    RequestQueued,
)
from repro.policies.events import Event, OverheadMeasured

from tests.systems.helpers import steady_stream, tiny_workload


class _Ping(Event):
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


class _Pong(Event):
    __slots__ = ()


def test_exact_type_dispatch_in_subscription_order():
    bus = EventBus()
    seen = []
    bus.subscribe(_Ping, lambda e: seen.append(("a", e.value)))
    bus.subscribe(_Ping, lambda e: seen.append(("b", e.value)))
    bus.subscribe(_Pong, lambda e: seen.append("pong"))
    bus.publish(_Ping(1))
    assert seen == [("a", 1), ("b", 1)]
    bus.publish(_Pong())
    assert seen[-1] == "pong"


def test_detach_stops_delivery():
    bus = EventBus()
    seen = []
    detach = bus.subscribe(_Ping, lambda e: seen.append(e.value))
    bus.publish(_Ping(1))
    detach()
    bus.publish(_Ping(2))
    assert seen == [1]
    assert bus.subscriber_count(_Ping) == 0


def test_subscribe_rejects_non_event_types():
    with pytest.raises(TypeError):
        EventBus().subscribe(int, lambda e: None)


def test_core_loop_publishes_request_lifecycle_events():
    # Overloaded single GPU: some requests queue and drop, the rest
    # complete — every lifecycle event must fire consistently.
    arrivals = []
    for m in range(3):
        arrivals += [(f"m{m}", 1.0, 2048, 300)] * 3
    workload = tiny_workload(arrivals)
    system = ServingSystem(Cluster.build(0, 1), policies="sllm")
    counts = {
        cls: 0
        for cls in (
            RequestArrived,
            RequestQueued,
            RequestDropped,
            RequestCompleted,
            InstanceLoaded,
            InstanceUnloaded,
            IterationFinished,
        )
    }
    for cls in counts:
        system.bus.subscribe(cls, lambda e, c=cls: counts.__setitem__(c, counts[c] + 1))
    report = system.run(workload)
    assert counts[RequestArrived] == report.total_requests == 9
    assert counts[RequestDropped] == report.dropped_count > 0
    assert counts[RequestCompleted] == len(report.completed)
    assert counts[RequestCompleted] + counts[RequestDropped] == counts[RequestArrived]
    assert counts[RequestQueued] >= counts[RequestDropped]
    assert counts[InstanceLoaded] == report.cold_starts > 0
    assert counts[InstanceUnloaded] == counts[InstanceLoaded]  # all reclaimed
    assert counts[IterationFinished] > 0


def test_overhead_measurement_flows_through_bus():
    workload = tiny_workload(steady_stream(count=3))
    system = ServingSystem(Cluster.build(0, 1), policies="sllm")
    samples = []
    system.bus.subscribe(OverheadMeasured, lambda e: samples.append(e.name))
    report = system.run(workload)
    assert "placement" in samples and "token_schedule" in samples
    assert set(report.overhead_stats) == set(samples)


def test_observers_are_detachable_without_changing_trajectory():
    # Metrics are pure observers: removing them must not change the
    # simulated trajectory (event count is a full-trajectory digest).
    # sample_interval=0 disables the periodic sampler so both runs
    # schedule the exact same simulator events.
    from repro.core import SlinferConfig

    config = SlinferConfig(sample_interval=0.0)
    arrivals = steady_stream(count=6) + steady_stream("m1", count=6)
    observed = ServingSystem(Cluster.build(1, 1), policies="slinfer", config=config)
    observed.run(tiny_workload(arrivals))
    bare = ServingSystem(
        Cluster.build(1, 1), policies="slinfer", config=config, observers=[]
    )
    bare.run(tiny_workload(arrivals))
    assert bare.sim.events_processed == observed.sim.events_processed
    assert bare.metrics.outcomes.requests == []  # nothing recorded without observers
