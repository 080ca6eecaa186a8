"""Behavioural tests for the ServerlessLLM baseline family."""

from repro.core import ServingSystem
from repro.engine.request import RequestState
from repro.hardware import Cluster
from repro.models import LLAMA2_13B, LLAMA2_7B

from tests.systems.helpers import steady_stream, tiny_workload


def test_sllm_ignores_cpu_nodes():
    workload = tiny_workload(steady_stream(count=6))
    report = ServingSystem(Cluster.build(4, 1), policies="sllm").run(workload)
    assert report.avg_nodes_used_cpu == 0.0
    assert report.slo_met_count == 6


def test_sllm_c_prefers_cpu():
    workload = tiny_workload(steady_stream(count=6))
    report = ServingSystem(Cluster.build(2, 2), policies="sllm+c").run(workload)
    assert report.avg_nodes_used_cpu > 0.0
    assert report.decode_tokens_cpu > 0
    assert report.decode_tokens_gpu == 0  # CPU absorbs this trickle


def test_sllm_c_falls_back_to_gpu_for_long_inputs():
    # A 10K-token input cannot meet the 8 s TTFT cap on the CPU (§IX-I1:
    # CPUs handle inputs only up to ~8.4K); it must use the GPU.
    from repro.models import LLAMA31_8B

    workload = tiny_workload([("m0", 1.0, 10000, 10)], models={"m0": LLAMA31_8B})
    report = ServingSystem(Cluster.build(2, 2), policies="sllm+c").run(workload)
    assert report.decode_tokens_gpu > 0
    assert report.decode_tokens_cpu == 0


def test_sllm_queues_and_drops_when_gpus_exhausted():
    # 3 models, 1 GPU: simultaneous bursts exceed capacity; late requests
    # queue past their TTFT SLO and are dropped (§IX-B).
    arrivals = []
    for m in range(3):
        arrivals += [(f"m{m}", 1.0, 2048, 300)] * 3
    workload = tiny_workload(arrivals)
    report = ServingSystem(Cluster.build(0, 1), policies="sllm").run(workload)
    assert report.dropped_count > 0
    assert report.slo_met_count >= 1


def test_sllm_scale_out_at_concurrency_limit():
    # GPU limit for 7B is 32: the 33rd concurrent request needs instance #2.
    arrivals = [("m0", 1.0 + 0.001 * i, 256, 400) for i in range(33)]
    workload = tiny_workload(arrivals, duration=300.0)
    system = ServingSystem(Cluster.build(0, 4), policies="sllm")
    system.run(workload)
    assert system.metrics.cold_starts >= 2


def test_static_share_halves_nodes():
    # Two different 7B models fit on ONE shared GPU node under +s.
    workload = tiny_workload(
        steady_stream("m0", count=4) + steady_stream("m1", count=4)
    )
    report = ServingSystem(Cluster.build(0, 1), policies="sllm+c+s").run(workload)
    assert report.total_requests == 8
    assert report.dropped_count == 0
    assert report.slo_met_count == 8


def test_static_share_13b_keeps_full_cpu_node():
    system = ServingSystem(Cluster.build(1, 1), policies="sllm+c+s")
    system.policies.prepare(system, tiny_workload([]))
    slot_fraction = system.policies.placement.slot_fraction
    node = system.cluster.cpu_nodes[0]
    assert slot_fraction(node, LLAMA2_13B) == 1.0
    assert slot_fraction(node, LLAMA2_7B) == 0.5
    gpu = system.cluster.gpu_nodes[0]
    assert slot_fraction(gpu, LLAMA2_13B) == 0.5


def test_keepalive_reclaims_idle_instances():
    workload = tiny_workload([("m0", 1.0, 256, 5)], duration=60.0)
    system = ServingSystem(Cluster.build(0, 1), policies="sllm")
    report = system.run(workload)
    # After completion + 1s keep-alive, the node goes idle; busy time is
    # far below the 60s window.
    assert report.node_seconds_gpu < 20.0
    assert report.slo_met_count == 1


def test_cold_start_grace_prevents_false_violation():
    workload = tiny_workload([("m0", 1.0, 256, 5)])
    report = ServingSystem(Cluster.build(0, 1), policies="sllm").run(workload)
    request = report.requests[0]
    assert request.cold_started
    assert request.grace > 0
    # TTFT exceeds the raw 0.5s SLO because of the ~4s cold start, but the
    # grace window (§IX-A) keeps the request SLO-met.
    assert request.ttft > request.ttft_slo
    assert request.slo_met


def test_all_requests_reach_terminal_state():
    arrivals = steady_stream("m0", count=20, gap=1.0) + steady_stream(
        "m1", count=20, gap=1.0
    )
    workload = tiny_workload(arrivals)
    report = ServingSystem(Cluster.build(1, 1), policies="sllm+c+s").run(workload)
    for request in report.requests:
        assert request.state in (RequestState.COMPLETED, RequestState.DROPPED)
