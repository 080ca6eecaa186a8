"""End-to-end SLO accounting checks: the metrics must mean what they say."""

import pytest

from repro.core import ServingSystem, SlinferConfig
from repro.engine.request import RequestState
from repro.hardware import Cluster
from repro.slo import ttft_slo

from tests.systems.helpers import steady_stream, tiny_workload


@pytest.fixture
def report():
    arrivals = steady_stream("m0", count=8, gap=6.0, input_len=1024, output_len=40)
    workload = tiny_workload(arrivals, duration=120.0)
    system = ServingSystem(Cluster.build(1, 1), policies="slinfer", config=SlinferConfig(seed=0))
    return system.run(workload)


def test_slo_met_requests_respect_token_pace(report):
    for request in report.requests:
        if not request.slo_met:
            continue
        # End-to-end duration bounded by TTFT + grace + TPOT·(tokens-1).
        total = request.finished_at - request.arrival
        bound = request.ttft_slo + request.grace + request.tpot_slo * (request.tokens_out - 1)
        assert total <= bound + 1e-6


def test_ttft_slo_matches_input_length(report):
    for request in report.requests:
        assert request.ttft_slo == ttft_slo(request.input_len)


def test_first_tokens_within_grace_extended_budget(report):
    for request in report.requests:
        if request.slo_met and request.ttft is not None:
            assert request.ttft <= request.ttft_slo + request.grace + 1e-6


def test_completed_plus_dropped_equals_total(report):
    completed = sum(1 for r in report.requests if r.state is RequestState.COMPLETED)
    dropped = report.dropped_count
    assert completed + dropped == report.total_requests


def test_decoded_tokens_match_request_progress(report):
    produced = sum(r.tokens_out for r in report.requests)
    prefill_tokens = sum(1 for r in report.requests if r.first_token_at is not None)
    decoded = report.decode_tokens_cpu + report.decode_tokens_gpu
    # Every produced token is either a prefill token or a decode-loop token.
    assert decoded == produced - prefill_tokens
