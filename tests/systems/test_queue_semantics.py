"""Focused tests for the shared queue / drop / retry machinery."""

from repro.core import ServingSystem, SlinferConfig
from repro.engine.request import RequestState
from repro.hardware import Cluster

from tests.systems.helpers import tiny_workload


def test_queued_request_dropped_exactly_at_ttft_deadline():
    # Two models, one GPU: the second model's request queues behind the
    # first and must be dropped once its queuing delay exceeds TTFT SLO.
    workload = tiny_workload(
        [("m0", 1.0, 2048, 600), ("m1", 1.2, 2048, 10)], duration=400.0
    )
    report = ServingSystem(Cluster.build(0, 1), policies="sllm").run(workload)
    blocked = next(r for r in report.requests if r.deployment == "m1")
    assert blocked.state is RequestState.DROPPED
    # Dropped at its queue deadline: arrival + TTFT SLO (= 4s at 2048).
    assert abs(blocked.dropped_at - (1.2 + 4.0)) < 1e-6


def test_queued_request_placed_when_capacity_frees():
    # The first request finishes quickly; the queued one (whose 2048-token
    # input grants a 4 s TTFT budget) must be picked up before its deadline
    # via the capacity-freed retry path once keep-alive reclaims the node.
    from repro.core.config import SystemConfig

    workload = tiny_workload(
        [("m0", 1.0, 256, 1), ("m1", 1.1, 4000, 2)], duration=120.0
    )
    system = ServingSystem(
        Cluster.build(0, 1), policies="sllm", config=SystemConfig(keepalive=0.1)
    )
    report = system.run(workload)
    second = next(r for r in report.requests if r.deployment == "m1")
    assert second.state is RequestState.COMPLETED


def test_retry_is_fifo_fair_within_capacity():
    # Three queued models, capacity frees gradually: earlier arrivals are
    # served first.
    workload = tiny_workload(
        [
            ("m0", 1.0, 256, 120),
            ("m1", 1.2, 256, 5),
            ("m2", 1.4, 256, 5),
        ],
        duration=200.0,
    )
    report = ServingSystem(Cluster.build(0, 2), policies="sllm").run(workload)
    first = next(r for r in report.requests if r.deployment == "m1")
    assert first.state is RequestState.COMPLETED


def test_slinfer_retry_skips_failed_deployment_but_tries_others():
    # A 13B model that cannot fit the remaining node memory must not
    # starve a 7B model queued behind it.
    from repro.models import LLAMA2_13B, LLAMA2_7B

    workload = tiny_workload(
        [
            ("big0", 1.0, 2048, 400),
            ("big1", 1.1, 2048, 400),
            ("big2", 1.2, 2048, 400),
            ("small", 1.5, 512, 10),
        ],
        models={
            "big0": LLAMA2_13B,
            "big1": LLAMA2_13B,
            "big2": LLAMA2_13B,
            "small": LLAMA2_7B,
        },
        duration=300.0,
    )
    config = SlinferConfig(enable_cpu=False)
    report = ServingSystem(Cluster.build(0, 2), policies="slinfer", config=config).run(workload)
    small = next(r for r in report.requests if r.deployment == "small")
    assert small.state is RequestState.COMPLETED


def test_no_request_left_in_queue_state():
    workload = tiny_workload(
        [(f"m{i}", 1.0 + 0.1 * i, 1024, 100) for i in range(10)], duration=240.0
    )
    for name in ("sllm", "slinfer"):
        report = ServingSystem(Cluster.build(1, 1), policies=name).run(workload)
        for request in report.requests:
            assert request.state in (RequestState.COMPLETED, RequestState.DROPPED)
