"""Cross-system integration and property tests on random workloads."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ServingSystem, SlinferConfig
from repro.engine.request import RequestState
from repro.hardware import Cluster
from repro.models import LLAMA32_3B
from repro.registry import STANDARD_SYSTEMS, system_factory
from repro.workloads import AzureServerlessConfig, synthesize_azure_trace
from repro.workloads.azure_serverless import replica_models

from tests.systems.helpers import tiny_workload

# Test ids keep the labels these cases carried before systems were built
# from registered bundles, so results stay comparable across history.
SYSTEM_IDS = ["make_sllm", "make_sllm_c", "make_sllm_cs", "Slinfer"]


def small_azure_workload(seed, n_models=6, duration=120.0):
    config = AzureServerlessConfig(
        n_models=n_models, duration=duration, requests_per_model=6, seed=seed
    )
    return synthesize_azure_trace(replica_models(LLAMA32_3B, n_models), config)


@pytest.mark.parametrize("system", STANDARD_SYSTEMS, ids=SYSTEM_IDS)
def test_conservation_every_request_terminates(system):
    workload = small_azure_workload(seed=11)
    report = system_factory(system)(Cluster.build(1, 1)).run(workload)
    assert report.total_requests == workload.total_requests
    for request in report.requests:
        assert request.state in (RequestState.COMPLETED, RequestState.DROPPED)
    for request in report.completed:
        assert request.tokens_out == request.output_len


@pytest.mark.parametrize("system", STANDARD_SYSTEMS, ids=SYSTEM_IDS)
def test_tokens_accounted_on_some_hardware(system):
    workload = small_azure_workload(seed=12)
    report = system_factory(system)(Cluster.build(1, 1)).run(workload)
    completed_tokens = sum(r.tokens_out for r in report.completed)
    decoded = report.decode_tokens_cpu + report.decode_tokens_gpu
    # Every completed token beyond the prefill token was decoded somewhere.
    assert decoded >= completed_tokens - len(report.completed) - len(
        [r for r in report.requests if r.state is RequestState.DROPPED]
    )


@pytest.mark.parametrize("system", STANDARD_SYSTEMS, ids=SYSTEM_IDS)
def test_nodes_used_bounded_by_cluster(system):
    workload = small_azure_workload(seed=13)
    cluster = Cluster.build(2, 2)
    report = system_factory(system)(cluster).run(workload)
    assert report.avg_nodes_used_cpu <= len(cluster.cpu_nodes) + 1e-9
    assert report.avg_nodes_used_gpu <= len(cluster.gpu_nodes) + 1e-9


def test_slinfer_dominates_sllm_on_shared_low_traffic():
    # The paper's core claim, in miniature: same workload, same cluster,
    # SLINFER serves at least as many requests within SLO.
    workload = small_azure_workload(seed=14, n_models=10)
    slinfer = ServingSystem(Cluster.build(1, 1), policies="slinfer").run(workload)
    sllm = ServingSystem(Cluster.build(1, 1), policies="sllm").run(workload)
    assert slinfer.slo_met_count >= sllm.slo_met_count


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_slinfer_random_workloads_no_oom_and_terminate(seed):
    workload = small_azure_workload(seed=seed, n_models=5, duration=90.0)
    system = ServingSystem(
        Cluster.build(1, 1), policies="slinfer", config=SlinferConfig(seed=seed)
    )
    report = system.run(workload)
    for orchestrator in system.policies.placement._orchestrators.values():
        orchestrator.assert_no_oom()
    for request in report.requests:
        assert request.state in (RequestState.COMPLETED, RequestState.DROPPED)


@settings(max_examples=8, deadline=None)
@given(
    inputs=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),  # model index
            st.floats(min_value=0.0, max_value=60.0),  # arrival
            st.integers(min_value=16, max_value=3000),  # input len
            st.integers(min_value=1, max_value=300),  # output len
        ),
        min_size=1,
        max_size=25,
    )
)
def test_slinfer_arbitrary_arrivals(inputs):
    arrivals = [
        (f"m{model}", float(arrival), inp, min(out, 4096 - inp - 1))
        for model, arrival, inp, out in inputs
        if inp + out < 4095
    ]
    if not arrivals:
        return
    workload = tiny_workload(arrivals, duration=120.0)
    system = ServingSystem(Cluster.build(1, 1), policies="slinfer")
    report = system.run(workload)
    for orchestrator in system.policies.placement._orchestrators.values():
        orchestrator.assert_no_oom()
    assert report.total_requests == len(arrivals)


def test_violation_rate_of_admitted_requests_is_low():
    # Shadow validation's purpose: requests that are *served* keep SLOs.
    workload = small_azure_workload(seed=21, n_models=12, duration=180.0)
    report = ServingSystem(Cluster.build(1, 1), policies="slinfer").run(workload)
    completed = report.completed
    if completed:
        violated = sum(1 for r in completed if not r.slo_met)
        assert violated / len(completed) < 0.1
