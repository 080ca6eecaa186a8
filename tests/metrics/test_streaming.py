"""The bounded-memory streaming accumulators: sketch accuracy, merging,
serialization, and the collector's streaming mode."""

import numpy as np
import pytest

from repro.engine.request import Request
from repro.hardware.specs import HardwareKind
from repro.metrics import MetricsCollector, QuantileSketch, RequestAggregate, StreamingStat
from repro.metrics.report import RunReport


def make_request(req_id=0, arrival=0.0, input_len=100, output_len=5):
    return Request(
        req_id=req_id,
        deployment="d",
        arrival=arrival,
        input_len=input_len,
        output_len=output_len,
        ttft_slo=1.0,
        tpot_slo=0.25,
    )


# ----------------------------------------------------------------------
# StreamingStat
# ----------------------------------------------------------------------
def test_streaming_stat_moments_and_merge():
    left, right = StreamingStat(), StreamingStat()
    for v in (1.0, 5.0, 3.0):
        left.add(v)
    for v in (0.5, 9.0):
        right.add(v)
    left.merge(right)
    assert left.count == 5
    assert left.total == pytest.approx(18.5)
    assert left.minimum == 0.5
    assert left.maximum == 9.0
    assert left.mean == pytest.approx(3.7)


def test_streaming_stat_empty_mean_raises():
    with pytest.raises(ValueError):
        StreamingStat().mean


# ----------------------------------------------------------------------
# QuantileSketch: accuracy
# ----------------------------------------------------------------------
@pytest.mark.parametrize("distribution", ["lognormal", "uniform", "exponential"])
def test_sketch_percentiles_within_relative_error(distribution):
    rng = np.random.default_rng(7)
    if distribution == "lognormal":
        values = rng.lognormal(mean=0.0, sigma=1.5, size=20_000)
    elif distribution == "uniform":
        values = rng.uniform(0.001, 50.0, size=20_000)
    else:
        values = rng.exponential(scale=3.0, size=20_000)
    sketch = QuantileSketch.from_values(values)
    for q in (1.0, 10.0, 50.0, 90.0, 99.0, 99.9):
        exact = float(np.percentile(values, q))
        assert sketch.percentile(q) == pytest.approx(exact, rel=0.011)
    assert sketch.mean == pytest.approx(float(values.mean()), rel=1e-9)
    assert sketch.percentile(0.0) == pytest.approx(float(values.min()))
    assert sketch.percentile(100.0) == pytest.approx(float(values.max()))


def test_sketch_fraction_below_tracks_exact():
    rng = np.random.default_rng(11)
    values = np.sort(rng.exponential(scale=2.0, size=10_000))
    sketch = QuantileSketch.from_values(values)
    for threshold in (0.1, 1.0, 2.0, 10.0):
        exact = float(np.searchsorted(values, threshold, side="right") / len(values))
        assert sketch.fraction_below(threshold) == pytest.approx(exact, abs=0.02)
    assert sketch.fraction_below(values.max() + 1.0) == 1.0
    assert sketch.fraction_below(values.min() / 2.0) == 0.0


def test_sketch_handles_zeros_and_rejects_negatives():
    sketch = QuantileSketch.from_values([0.0, 0.0, 1.0, 2.0])
    assert len(sketch) == 4
    assert sketch.percentile(0.0) == 0.0
    assert sketch.percentile(100.0) == 2.0
    with pytest.raises(ValueError):
        sketch.add(-1.0)


def test_sketch_empty_contract_matches_cdf():
    sketch = QuantileSketch()
    assert sketch.empty and len(sketch) == 0
    assert sketch.curve() == []
    for stat in ("percentile", "fraction_below"):
        with pytest.raises(ValueError):
            getattr(sketch, stat)(50.0)
    with pytest.raises(ValueError):
        sketch.mean


def test_sketch_curve_is_monotone():
    sketch = QuantileSketch.from_values([5.0, 1.0, 3.0, 0.2, 9.0])
    curve = sketch.curve(points=20)
    values = [v for v, _ in curve]
    fractions = [f for _, f in curve]
    assert values == sorted(values)
    assert fractions[0] == 0.0 and fractions[-1] == 1.0


# ----------------------------------------------------------------------
# QuantileSketch: bounded memory, merging, serialization
# ----------------------------------------------------------------------
def test_sketch_bucket_count_is_bounded():
    sketch = QuantileSketch(max_bins=64)
    rng = np.random.default_rng(3)
    for value in rng.lognormal(mean=0.0, sigma=4.0, size=50_000):
        sketch.add(float(value))
    assert sketch.bin_count <= 65  # bins cap + zero bucket
    assert len(sketch) == 50_000


def test_sketch_merge_matches_single_pass():
    rng = np.random.default_rng(5)
    values = rng.exponential(scale=1.0, size=9_000)
    whole = QuantileSketch.from_values(values)
    parts = [QuantileSketch.from_values(chunk) for chunk in np.split(values, 3)]
    merged = QuantileSketch()
    for part in parts:
        merged.merge(part)
    merged_payload, whole_payload = merged.encode(), whole.encode()
    # Bucket state is bit-identical; the float sum only differs by
    # addition order (per-chunk partials vs one pass).
    assert merged_payload["bins"] == whole_payload["bins"]
    assert merged_payload["zero_count"] == whole_payload["zero_count"]
    assert merged_payload["stat"]["count"] == whole_payload["stat"]["count"]
    assert merged_payload["stat"]["min"] == whole_payload["stat"]["min"]
    assert merged_payload["stat"]["max"] == whole_payload["stat"]["max"]
    assert merged_payload["stat"]["total"] == pytest.approx(
        whole_payload["stat"]["total"], rel=1e-12
    )
    for q in (50.0, 99.0):
        assert merged.percentile(q) == whole.percentile(q)


def test_sketch_merge_is_associative():
    rng = np.random.default_rng(13)
    chunks = [rng.uniform(0.01, 10.0, size=2_000) for _ in range(3)]
    a, b, c = (QuantileSketch.from_values(chunk) for chunk in chunks)

    left = QuantileSketch.decode(a.encode())
    left.merge(b)
    left.merge(c)

    bc = QuantileSketch.decode(b.encode())
    bc.merge(c)
    right = QuantileSketch.decode(a.encode())
    right.merge(bc)

    left_payload, right_payload = left.encode(), right.encode()
    # Integer state (bucket counts) is bit-identical under any grouping.
    assert left_payload["bins"] == right_payload["bins"]
    assert left_payload["zero_count"] == right_payload["zero_count"]
    assert left.percentile(99.0) == right.percentile(99.0)
    assert left.mean == pytest.approx(right.mean, rel=1e-12)


def test_sketch_merge_rejects_mismatched_accuracy():
    with pytest.raises(ValueError):
        QuantileSketch(alpha=0.005).merge(QuantileSketch(alpha=0.01))


def test_sketch_serialization_round_trip():
    sketch = QuantileSketch.from_values([0.0, 0.5, 1.0, 7.0, 7.0, 100.0])
    restored = QuantileSketch.decode(sketch.encode())
    assert restored.encode() == sketch.encode()
    assert restored.percentile(90.0) == sketch.percentile(90.0)
    empty = QuantileSketch.decode(QuantileSketch().encode())
    assert empty.empty


# ----------------------------------------------------------------------
# Streaming collector mode
# ----------------------------------------------------------------------
def test_collector_rejects_unknown_mode():
    with pytest.raises(ValueError):
        MetricsCollector(mode="approximate")


def _finished_request(req_id, ttft=0.5):
    request = make_request(req_id)
    request.record_tokens(ttft)
    for _ in range(4):
        request.record_tokens(ttft + 0.1)
    request.complete(ttft + 0.1)
    return request


def test_streaming_collector_folds_outcomes_without_retaining_requests():
    collector = MetricsCollector(mode="streaming")
    for i in range(10):
        request = _finished_request(i, ttft=0.1 * (i + 1))
        collector.register_request(request)
        collector.request_finished(request)
    dropped = make_request(10)
    collector.register_request(dropped)
    dropped.drop(1.0)
    collector.request_finished(dropped)
    # Double-fold is a no-op.
    collector.request_finished(dropped)
    assert collector.outcomes.requests == []
    report = collector.finalize(now=5.0, duration=5.0, system="t")
    assert report.metrics_mode == "streaming"
    assert report.total_requests == 11
    assert report.completed_count == 10
    assert report.dropped_count == 1
    assert report.slo_met_count == 10
    assert len(report.ttft_cdf()) == 10


def test_streaming_collector_folds_in_flight_requests_at_finalize():
    collector = MetricsCollector(mode="streaming")
    finished = _finished_request(0)
    collector.register_request(finished)
    collector.request_finished(finished)
    in_flight = make_request(1)
    in_flight.record_tokens(0.9)  # produced a first token, never completed
    collector.register_request(in_flight)
    report = collector.finalize(now=2.0, duration=2.0, system="t")
    assert report.total_requests == 2
    assert report.completed_count == 1
    assert len(report.ttft_cdf()) == 2  # the in-flight TTFT is counted


def test_streaming_finalize_is_idempotent():
    collector = MetricsCollector(mode="streaming")
    collector.register_request(_finished_request(0))
    collector.register_request(make_request(1))  # stays pending
    collector.node_loaded("gpu-0", HardwareKind.GPU, 0.0)
    first = collector.finalize(now=4.0, duration=4.0, system="t")
    second = collector.finalize(now=4.0, duration=4.0, system="t")
    assert first.to_dict() == second.to_dict()


def test_streaming_report_exact_only_views_raise():
    collector = MetricsCollector(mode="streaming")
    collector.register_request(_finished_request(0))
    report = collector.finalize(now=1.0, duration=1.0, system="t")
    with pytest.raises(RuntimeError, match="streaming"):
        report.completed


def test_streaming_report_serialization_round_trip():
    collector = MetricsCollector(mode="streaming")
    request = _finished_request(0)
    collector.register_request(request)
    collector.request_finished(request)
    collector.sample_memory_utilization(HardwareKind.GPU, 0.5)
    collector.sample_kv_utilization(0.25)
    collector.node_loaded("gpu-0", HardwareKind.GPU, 0.0)
    collector.node_unloaded("gpu-0", 8.0)
    report = collector.finalize(now=10.0, duration=10.0, system="t")
    restored = RunReport.from_dict(report.to_dict())
    assert restored.metrics_mode == "streaming"
    assert restored.total_requests == 1
    assert restored.ttft_cdf().percentile(50.0) == report.ttft_cdf().percentile(50.0)
    assert restored.memory_utilization_cdf().mean == pytest.approx(0.5)
    assert restored.kv_utilization_cdf().mean == pytest.approx(0.25)
    assert restored.to_dict() == report.to_dict()


def test_request_aggregate_round_trip_and_merge():
    left, right = RequestAggregate(), RequestAggregate()
    for i in range(3):
        request = _finished_request(i)
        left.arrivals += 1
        left.fold(request)
    right.arrivals += 2
    right.fold(_finished_request(3))
    left.merge(right)
    assert left.arrivals == 5
    assert left.completed == 4
    restored = RequestAggregate.decode(left.encode())
    assert restored.encode() == left.encode()
