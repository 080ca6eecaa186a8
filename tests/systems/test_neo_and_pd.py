"""Tests for the NEO+ baseline and the PD-disaggregated variants."""

import pytest

from repro.compute.scheduler import WorkKind
from repro.engine.request import RequestState
from repro.hardware import Cluster
from repro.models import LLAMA2_7B
from repro.registry import RegistryError, build_cluster, system_factory

from tests.systems.helpers import steady_stream, tiny_workload


# ----------------------------------------------------------------------
# NEO+
# ----------------------------------------------------------------------
def _neo(cores, cluster=None):
    return system_factory("neo+")(
        cluster or Cluster.build(0, 1), harvested_cores_per_gpu=cores
    )


def _latency_factor(system, executor, kind):
    return system.policies.work.latency_factor(system, executor, kind)


def test_neo_decode_speedup_scales_with_cores():
    base = _neo(0)
    full = _neo(32)
    executor_stub = type("E", (), {"node": base.cluster.gpu_nodes[0]})()
    assert _latency_factor(base, executor_stub, WorkKind.DECODE) == 1.0
    assert _latency_factor(full, executor_stub, WorkKind.DECODE) == pytest.approx(0.75)
    # Prefill is not CPU-assisted.
    assert _latency_factor(full, executor_stub, WorkKind.PREFILL) == 1.0


def test_neo_raises_concurrency_limit():
    from repro.engine.instance import Instance
    from repro.hardware.node import Node
    from repro.hardware import A100_80GB

    instance = Instance(
        inst_id=0, deployment="d", model=LLAMA2_7B, node=Node("gpu-0", A100_80GB)
    )
    none = _neo(0).policies.placement
    full = _neo(32).policies.placement
    assert full.limit(instance) > none.limit(instance)


def test_neo_rejects_negative_cores():
    with pytest.raises(ValueError):
        _neo(-1)


def test_neo_cores_pattern_matches_bundle_argument():
    patterned = system_factory("neo+16")(Cluster.build(0, 1))
    executor_stub = type("E", (), {"node": patterned.cluster.gpu_nodes[0]})()
    assert _latency_factor(patterned, executor_stub, WorkKind.DECODE) == _latency_factor(
        _neo(16), executor_stub, WorkKind.DECODE
    )
    assert patterned.name == "neo+"
    # Same core range as the harvest{C} cluster it pairs with.
    with pytest.raises(RegistryError, match="harvested cores must be in 1..32"):
        system_factory("neo+33")
    with pytest.raises(RegistryError, match="harvested cores must be in 1..32"):
        build_cluster("harvest33")


def test_neo_serves_workload_gpu_only():
    workload = tiny_workload(steady_stream(count=6))
    report = _neo(16, Cluster.build(2, 2)).run(workload)
    assert report.system == "neo+"
    assert report.decode_tokens_cpu == 0
    assert report.slo_met_count == 6


# ----------------------------------------------------------------------
# PD disaggregation
# ----------------------------------------------------------------------
def test_pd_sllm_uses_separate_prefill_and_decode_instances():
    workload = tiny_workload(steady_stream(count=4, gap=10.0, output_len=40))
    system = system_factory("pd-sllm")(Cluster.build(0, 4))
    report = system.run(workload)
    assert report.slo_met_count >= 3
    roles = set(system.policies.admission._roles.values())
    assert roles == {"prefill", "decode"}


def test_pd_doubles_instance_footprint():
    workload = tiny_workload(steady_stream(count=6, gap=8.0, output_len=40))
    aggregated = system_factory("sllm+c+s")(Cluster.build(0, 4)).run(workload)
    disaggregated = system_factory("pd-sllm")(Cluster.build(0, 4)).run(workload)
    assert disaggregated.cold_starts > aggregated.cold_starts
    assert disaggregated.avg_nodes_used_gpu >= aggregated.avg_nodes_used_gpu


def test_pd_slinfer_completes_requests_with_transfer_delay():
    workload = tiny_workload(steady_stream(count=5, gap=10.0, output_len=30))
    report = system_factory("pd-slinfer")(Cluster.build(2, 2)).run(workload)
    completed = [r for r in report.requests if r.state is RequestState.COMPLETED]
    assert len(completed) == 5
    # Generated token counts are unaffected by the attach-token mechanism:
    # output_len was incremented by exactly the extra attach token.
    for request in completed:
        assert request.tokens_out == request.output_len


def test_pd_requests_can_be_dropped_midway():
    # One GPU, several models: decode-side placement can fail and the
    # request is dropped at its deadline rather than lost.
    arrivals = []
    for m in range(8):
        arrivals += [(f"m{m}", 1.0, 2048, 150)]
    workload = tiny_workload(arrivals, duration=240.0)
    report = system_factory("pd-sllm")(Cluster.build(0, 1)).run(workload)
    for request in report.requests:
        assert request.state in (RequestState.COMPLETED, RequestState.DROPPED)
