"""The decode-chain seam: which ``IterationFinished`` handlers may chain.

The vectorized engine batches consecutive decode iterations only while
every ``IterationFinished`` handler is a ``DecodeChainHandler``.  These
tests pin both sides of that contract: the stock bundles and observers
all declare it, and any other subscriber turns chaining off without
changing a report byte or losing an event.
"""

from __future__ import annotations

import json

import pytest

from repro.core import ServingSystem
from repro.hardware import Cluster
from repro.policies import BUNDLES, DecodeChainHandler, IterationFinished
from repro.sim.engine import VectorizedEngine

from tests.systems.helpers import steady_stream, tiny_workload


def _decode_heavy():
    arrivals = steady_stream(count=6, gap=2.0, output_len=200)
    arrivals += steady_stream("m1", count=6, gap=2.0, output_len=200)
    return tiny_workload(arrivals)


def _canonical(report) -> str:
    return json.dumps(report.to_dict(include_volatile=False), sort_keys=True)


@pytest.fixture
def arms(monkeypatch):
    """Counts chains the vectorized engine arms."""
    calls = []
    original = VectorizedEngine._arm

    def counting(self, *args):
        calls.append(1)
        return original(self, *args)

    monkeypatch.setattr(VectorizedEngine, "_arm", counting)
    return calls


@pytest.mark.parametrize("name", BUNDLES.names())
def test_stock_iteration_handlers_declare_the_contract(name):
    system = ServingSystem(Cluster.build(1, 1), policies=name)
    system.begin_run(_decode_heavy())
    handlers = system.bus.handlers(IterationFinished)
    assert handlers, "the metrics observer subscribes at least one handler"
    for handler in handlers:
        assert isinstance(handler, DecodeChainHandler), handler


def _run(engine: str, subscriber=None):
    system = ServingSystem(Cluster.build(1, 1), policies="slinfer", engine=engine)
    if subscriber is not None:
        system.bus.subscribe(IterationFinished, subscriber)
    return system.run(_decode_heavy())


def test_plain_subscriber_disables_chaining_without_changing_results(arms):
    reference_seen = []
    reference = _run("reference", lambda e: reference_seen.append(e.batch_size))

    _run("vectorized")
    assert arms, "the workload must chain when only declared handlers listen"
    arms.clear()

    seen = []
    vectorized = _run("vectorized", lambda e: seen.append(e.batch_size))
    assert not arms
    assert seen == reference_seen
    assert vectorized.events_processed == reference.events_processed
    assert _canonical(vectorized) == _canonical(reference)
