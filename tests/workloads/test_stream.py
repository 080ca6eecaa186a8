"""Unit behaviour of the WorkloadStream protocol pieces."""

import threading

import numpy as np
import pytest

from repro.models import LLAMA2_7B
from repro.workloads import (
    ArrayGroup,
    Deployment,
    GroupedStream,
    IteratorStream,
    MaterializedStream,
    QueueStream,
    RequestSpec,
    SpecGroup,
    StreamClosedError,
    StreamOrderError,
    Workload,
)


def _deployments(*names: str) -> dict[str, Deployment]:
    return {name: Deployment(name=name, model=LLAMA2_7B) for name in names}


def _spec(deployment: str, arrival: float, **kwargs) -> RequestSpec:
    kwargs.setdefault("input_len", 128)
    kwargs.setdefault("output_len", 32)
    return RequestSpec(deployment=deployment, arrival=arrival, **kwargs)


@pytest.fixture
def workload() -> Workload:
    deployments = _deployments("m0", "m1")
    requests = [_spec("m0", 3.0), _spec("m1", 1.0), _spec("m0", 2.0)]
    return Workload(name="w", deployments=deployments, requests=requests, duration=10.0)


# ----------------------------------------------------------------------
# MaterializedStream / from_stream round-trips
# ----------------------------------------------------------------------
def test_materialized_stream_round_trip(workload):
    stream = workload.stream()
    assert isinstance(stream, MaterializedStream)
    assert stream.name == workload.name
    assert stream.duration == workload.duration
    assert list(stream) == workload.requests
    # Re-iterable, and materialize() hands back the original object.
    assert list(stream) == workload.requests
    assert stream.materialize() is workload


def test_from_stream_rebuilds_the_workload(workload):
    rebuilt = Workload.from_stream(workload.stream())
    assert rebuilt.name == workload.name
    assert rebuilt.requests == workload.requests
    assert rebuilt.duration == workload.duration


def test_from_stream_infers_duration_from_last_arrival():
    deployments = _deployments("m0")
    specs = [_spec("m0", 1.0), _spec("m0", 7.5)]
    stream = IteratorStream("live", deployments, iter(specs), duration=None)
    rebuilt = Workload.from_stream(stream)
    assert rebuilt.duration == 7.5


def test_iterator_stream_accepts_a_factory():
    deployments = _deployments("m0")
    specs = [_spec("m0", 0.5)]
    stream = IteratorStream("f", deployments, lambda: iter(specs), duration=1.0)
    assert list(stream) == specs
    assert list(stream) == specs  # factory makes it re-iterable


# ----------------------------------------------------------------------
# Grouped emission: ordering and ties
# ----------------------------------------------------------------------
def test_grouped_stream_merges_sorted_and_breaks_ties_by_group_order():
    deployments = _deployments("a", "b")
    first = ArrayGroup("a", np.array([5.0, 1.0]), np.array([10, 11]), np.array([1, 2]))
    second = ArrayGroup("b", np.array([1.0, 3.0]), np.array([20, 21]), np.array([3, 4]))
    stream = GroupedStream("g", deployments, [first, second], duration=6.0)
    assert stream.total_requests == 4
    merged = list(stream)
    assert [spec.arrival for spec in merged] == [1.0, 1.0, 3.0, 5.0]
    # Equal arrivals resolve to the earlier group — the same tie-break a
    # global stable sort gives the concatenated emission order.
    assert [spec.deployment for spec in merged] == ["a", "b", "b", "a"]
    assert merged == list(stream)  # re-iterable


def test_grouped_stream_materializes_in_emission_order():
    deployments = _deployments("a", "b")
    first = ArrayGroup("a", np.array([2.0, 0.5]), np.array([8, 9]), np.array([1, 1]))
    second = SpecGroup([_spec("b", 2.0), _spec("b", 1.0)])
    stream = GroupedStream("t", deployments, [first, second], duration=4.0)
    materialized = stream.materialize()
    emitted = [*first.emit(), *second.emit()]
    expected = Workload(name="t", deployments=deployments, requests=emitted, duration=4.0)
    assert isinstance(materialized, Workload)
    assert materialized == expected
    assert list(stream) == materialized.requests
    assert materialized.deployments is not stream.deployments


def test_spec_group_orders_by_arrival():
    specs = [_spec("a", 2.0), _spec("a", 1.0)]
    group = SpecGroup(specs)
    assert list(group.emit()) == specs
    assert [s.arrival for s in group.ordered()] == [1.0, 2.0]


# ----------------------------------------------------------------------
# QueueStream: the live-ingest end
# ----------------------------------------------------------------------
def test_queue_stream_push_iterate_close():
    stream = QueueStream("q", _deployments("m0"), duration=None)
    assert stream.push(_spec("m0", 1.0)) == 0
    assert stream.push(_spec("m0", 2.0)) == 1
    stream.close()
    drained = list(stream)
    assert [s.arrival for s in drained] == [1.0, 2.0]
    assert stream.submitted == 2
    assert stream.closed


def test_queue_stream_rejects_out_of_order_and_unknown():
    stream = QueueStream("q", _deployments("m0"))
    stream.push(_spec("m0", 5.0))
    with pytest.raises(StreamOrderError):
        stream.push(_spec("m0", 4.0))
    with pytest.raises(ValueError, match="unknown deployment"):
        stream.push(_spec("nope", 6.0))
    stream.close()
    with pytest.raises(StreamClosedError):
        stream.push(_spec("m0", 7.0))


def test_queue_stream_wait_processed_tracks_the_consumer():
    stream = QueueStream("q", _deployments("m0"))
    index = stream.push(_spec("m0", 1.0))
    assert not stream.wait_processed(index, timeout=0.01)

    consumed = []

    def consume():
        for spec in stream:
            consumed.append(spec)

    thread = threading.Thread(target=consume, daemon=True)
    thread.start()
    # The consumer declares an item processed when it blocks for the
    # next one, so the first push becomes visible without closing.
    assert stream.wait_processed(index, timeout=5.0)
    stream.close()
    thread.join(timeout=5.0)
    assert len(consumed) == 1
