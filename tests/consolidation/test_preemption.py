"""Tests for proactive preemption (§VIII-A), at the SLINFER-integration level."""

from repro.core import ServingSystem, SlinferConfig
from repro.engine.instance import InstanceState
from repro.hardware import Cluster

from tests.systems.helpers import tiny_workload


def _gpu_only(**overrides):
    defaults = dict(enable_cpu=False)
    defaults.update(overrides)
    return SlinferConfig(**defaults)


def test_preemption_counter_increments_under_contention():
    # One GPU node, one hot model growing + several small neighbours: the
    # hot model's instance should eventually grow by preempting a fragment.
    arrivals = []
    # Small neighbours first (batch 1 each).
    for m in range(3):
        arrivals.append((f"cold{m}", 0.5 + 0.1 * m, 1024, 400))
    # Then a hot model ramps up on the same node.
    for i in range(24):
        arrivals.append(("hot", 6.0 + 0.4 * i, 2048, 300))
    workload = tiny_workload(arrivals, duration=300.0)
    system = ServingSystem(Cluster.build(0, 2), policies="slinfer", config=_gpu_only())
    report = system.run(workload)
    assert report.total_requests == 27
    # The run completes without losing requests to bookkeeping.
    assert report.dropped_count + len(report.completed) == 27


def test_preemption_never_targets_larger_batches():
    # Direct planner check: victims must have strictly smaller batches.
    from repro.consolidation.preemption import _victim_candidates

    arrivals = [("a", 0.5, 512, 200)] * 4 + [("b", 1.0, 512, 200)] * 2
    workload = tiny_workload(arrivals, duration=120.0)
    system = ServingSystem(Cluster.build(0, 1), policies="slinfer", config=_gpu_only())
    # Mid-decode: both instances are ACTIVE on the one node, batches 4 and 2.
    system.run(workload, until=4.0)
    instances = [
        inst
        for deployment in ("a", "b")
        for inst in system.instances_of(deployment)
        if inst.state is InstanceState.ACTIVE
    ]
    assert len({inst.node.node_id for inst in instances}) == 1
    assert len({inst.batch_size for inst in instances}) >= 2
    checked = 0
    for instance in instances:
        for victim in _victim_candidates(system.policies.placement, instance):
            assert victim.batch_size < instance.batch_size
            checked += 1
    assert checked >= 1


def test_consolidation_disabled_never_preempts():
    arrivals = []
    for m in range(4):
        arrivals += [(f"m{m}", 0.5 + 0.05 * m, 1024, 300)] * 4
    workload = tiny_workload(arrivals, duration=240.0)
    config = _gpu_only(enable_consolidation=False)
    report = ServingSystem(Cluster.build(0, 2), policies="slinfer", config=config).run(workload)
    assert report.preemptions == 0


def test_preempted_requests_survive():
    # Whenever preemptions happen, migrated requests must still terminate.
    arrivals = []
    for m in range(5):
        arrivals += [(f"m{m}", 0.5 + 0.02 * m, 1024, 250)] * 2
    for i in range(16):
        arrivals.append(("hot", 4.0 + 0.5 * i, 2048, 250))
    workload = tiny_workload(arrivals, duration=300.0)
    system = ServingSystem(Cluster.build(0, 2), policies="slinfer", config=_gpu_only())
    report = system.run(workload)
    from repro.engine.request import RequestState

    for request in report.requests:
        assert request.state in (RequestState.COMPLETED, RequestState.DROPPED)
    if report.preemptions:
        assert report.migrations >= report.preemptions
